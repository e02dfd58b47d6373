"""Builds the initial state: town quotas, ages, genders, couples, children, housing.

Staging order matters: persons are spawned unhoused into towns, ages and
genders are drawn, couples are formed, every minor is assigned married
parents, and housing is created last so that no initial house is ever
empty. The structural invariants hold once the build completes.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .events import age_compatibility_array
from .params import ModelParameters
from .population import MARRIED_CODE, PopulationStore
from .space import Space, TownKey, cell_of
from .stochastics import (
    DEFAULT_MAX_INITIAL_AGE_YEARS,
    ClockSpec,
    Rng,
    sample_half_normal_age_steps,
    weighted_sample,
)

logger = logging.getLogger(__name__)


class InitializationError(ValueError):
    """The population cannot satisfy the initial-state guarantees."""


def init_town_populations(initial_pop: int, space: Space) -> dict[TownKey, int]:
    """Per-town person quotas proportional to density, summing to initial_pop.

    Largest-remainder rounding; ties broken by grid order. Zero-density
    towns get nothing.
    """
    if initial_pop < 1:
        raise ValueError("initial_pop must be >= 1")
    towns = space.inhabitable_towns
    weights = space.town_weights
    quotas = initial_pop * weights / weights.sum()
    counts = np.floor(quotas).astype(int)
    remainder = initial_pop - int(counts.sum())
    if remainder > 0:
        # Stable sort keeps grid order among equal remainders.
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:remainder]] += 1
    return {k: int(c) for k, c in zip(towns, counts)}


def init_ages_and_genders(store: PopulationStore, pids: np.ndarray,
                          clock: ClockSpec, rng: Rng,
                          max_age_years: float = DEFAULT_MAX_INITIAL_AGE_YEARS) -> None:
    """Assign half-normal ages and fair-coin genders to freshly spawned persons."""
    n = len(pids)
    genders = rng.random(n) < 0.5  # True = male
    ages = sample_half_normal_age_steps(rng, clock, size=n, max_age_years=max_age_years)
    store.male_arr[pids] = genders
    store.age_steps_arr[pids] = ages
    store.recount()


def _alive_adults(store: PopulationStore, male: bool, unmarried: bool = False) -> np.ndarray:
    n = store.size
    mask = (store.alive_arr[:n] & (store.male_arr[:n] == male)
            & (store.age_steps_arr[:n] >= store.adult_age_steps))
    if unmarried:
        mask &= store.status_arr[:n] != MARRIED_CODE
    return np.flatnonzero(mask)


# The weight rows hold (distinct groom ages) x (distinct bride ages)
# float64s: at most 16 MB, which every monthly or coarser pool fits. On
# finer clocks the ages run to thousands of distinct values, and the
# table would grow past the population's own arrays (weekly, 150,000
# agents: 170 MB), so they compute the weights per candidate.
_MAX_WEIGHT_ROW_ENTRIES = 1 << 21


def init_partnerships(store: PopulationStore, params: ModelParameters, rng: Rng) -> None:
    """Marry off adult males, each selected with probability start_married_rate.

    Every selected male draws a uniform candidate subset of the eligible
    female pool, weights it by age compatibility and picks a wife; she
    leaves the pool. An exhausted pool leaves the remaining males single.

    A weight depends only on the two ages, so pool slots carry the code of
    their age. When the pool has no more distinct ages than a candidate
    subset has members, so that a row costs no more than one groom's
    candidates, and the rows fit _MAX_WEIGHT_ROW_ENTRIES, each groom
    age's weights over all bride ages are computed once and a groom
    gathers his candidates' weights from that row. Otherwise (fine clocks,
    small pools) the weights are computed per candidate. Either way the
    weights and draws are those of the per-candidate computation.
    """
    n = store.steps_per_year
    adult_males = _alive_adults(store, male=True)
    picks = rng.random(len(adult_males)) < params.start_married_rate
    selected = adult_males[picks]
    rng.shuffle(selected)

    pool_ids = _alive_adults(store, male=False)
    bride_steps, pool_code = np.unique(store.age_steps_arr[pool_ids], return_inverse=True)
    bride_years = bride_steps / n
    live = len(pool_ids)
    # Candidate-subset size is fixed from the initial pool size.
    n_cand = max(params.max_num_marr_cand, math.ceil(live / 10))
    groom_steps, groom_code = np.unique(store.age_steps_arr[selected], return_inverse=True)
    groom_years = groom_steps / n
    rows = None
    if (len(bride_years) <= n_cand
            and len(groom_years) * len(bride_years) <= _MAX_WEIGHT_ROW_ENTRIES):
        rows = np.empty((len(groom_years), len(bride_years)))
        for code, years in enumerate(groom_years.tolist()):
            rows[code] = age_compatibility_array(years, bride_years)

    for rank in range(len(selected)):
        if live == 0:
            logger.warning("eligible female pool exhausted; %d selected males stay single",
                           len(selected) - rank)
            break
        cand = rng.choice(live, size=min(n_cand, live), replace=False)
        codes = pool_code[cand]
        if rows is None:
            weights = age_compatibility_array(groom_years[groom_code[rank]], bride_years[codes])
        else:
            weights = rows[groom_code[rank]][codes]
        j = int(weighted_sample(rng, cand, weights, float(weights.sum())))
        store.wed(int(selected[rank]), int(pool_ids[j]))
        live -= 1
        pool_ids[j] = pool_ids[live]
        pool_code[j] = pool_code[live]


def init_children(store: PopulationStore, rng: Rng) -> None:
    """Give every minor a married father (and his wife as mother).

    A father qualifies when both spouses are at least 18 years 9 months
    older than the child and the wife is under 45 + child's age. An empty
    candidate set falls back to the couple with the largest age margin; if
    no couple exists at all, the oldest single adult pair is wed first.

    Every child with qualifying couples draws one of them uniformly, all
    in one draw in ascending id order; the couples of an age are then
    found again, age by age, to resolve the draws.
    """
    n = store.steps_per_year
    minors = np.flatnonzero(store.age_steps_arr[:store.size] < store.adult_age_steps)
    if len(minors) == 0:
        return

    def couple_arrays():
        size = store.size
        ids = np.flatnonzero(store.male_arr[:size] & (store.status_arr[:size] == MARRIED_CODE))
        ages = store.age_steps_arr[ids]
        wife_ages = store.age_steps_arr[store.partner_arr[ids]]
        return ids, np.minimum(ages, wife_ages), wife_ages

    men_ids, men_min_age, men_wife_age = couple_arrays()
    if len(men_ids) == 0:
        _wed_oldest_single_pair(store)
        men_ids, men_min_age, men_wife_age = couple_arrays()

    def qualifying(a: int) -> np.ndarray:
        return (men_min_age >= a + 18.75 * n) & (men_wife_age < 45 * n + a)

    ages, group = np.unique(store.age_steps_arr[minors], return_inverse=True)
    counts = np.array([np.count_nonzero(qualifying(a)) for a in ages.tolist()],
                      dtype=np.int64)[group]
    parented = counts > 0
    draws = np.zeros(len(minors), dtype=np.int64)
    if parented.any():
        draws[parented] = rng.integers(0, counts[parented])

    # Closest couple by age margin; the no-orphan guarantee wins.
    fathers = np.full(len(minors), men_ids[np.argmax(men_min_age)], dtype=np.int64)
    by_age = np.argsort(group, kind="stable")
    bounds = np.cumsum(np.bincount(group, minlength=len(ages)))
    for a, lo, hi in zip(ages.tolist(), [0, *bounds[:-1].tolist()], bounds.tolist()):
        members = by_age[lo:hi]
        if parented[members[0]]:
            fathers[members] = men_ids[np.flatnonzero(qualifying(a))[draws[members]]]
    for child, a in zip(minors[~parented].tolist(),
                        store.age_steps_arr[minors[~parented]].tolist()):
        logger.warning("no qualifying parents for child %d (age %.2f); "
                       "assigning closest couple", child, a / n)
    store.assign_parents(minors, fathers, store.partner_arr[fathers])


def _wed_oldest_single_pair(store: PopulationStore) -> None:
    males = _alive_adults(store, male=True, unmarried=True)
    females = _alive_adults(store, male=False, unmarried=True)
    if len(males) == 0 or len(females) == 0:
        raise InitializationError("minors present but no married couple can be formed")
    # argmax takes the first, so the lowest id among the oldest.
    groom = int(males[np.argmax(store.age_steps_arr[males])])
    bride = int(females[np.argmax(store.age_steps_arr[females])])
    logger.warning("no married couples; wedding oldest single pair (%d, %d) "
                   "to keep minors parented", groom, bride)
    store.wed(groom, bride)


def init_housing(store: PopulationStore, space: Space, cells: np.ndarray, rng: Rng) -> None:
    """House everyone: singles alone in their town, families with the husband.

    The space must have no vacant house, so every household head (each
    married man and each unmarried adult) gets a new house in their town,
    ``cells[head]``, in id order, and the initial house set has no
    vacancies. Raises ValueError if a house stands vacant or anyone is
    housed already.
    """
    if space.occupied_house_count < space.house_count:
        raise ValueError("init_housing needs a space without vacant houses")
    n = store.size
    if (store.house_arr[:n] >= 0).any():
        raise ValueError("init_housing needs an unhoused population")
    male = store.male_arr[:n]
    married = store.status_arr[:n] == MARRIED_CODE
    adult = store.age_steps_arr[:n] >= store.adult_age_steps
    heads = np.flatnonzero((male & married) | (~married & adult))
    first = space.new_houses(cells[heads], rng)
    store.house_arr[heads] = np.arange(first, first + len(heads))
    # Wives join their husband, minors their father.
    dependents = np.flatnonzero((~male & married) | (~married & ~adult))
    store.house_arr[dependents] = store.house_arr[np.where(
        married[dependents], store.partner_arr[dependents], store.father_arr[dependents])]
    space.add_residents(store.house_arr[:n], np.arange(n))


def build_initial_state(store: PopulationStore, space: Space,
                        params: ModelParameters, clock: ClockSpec, rng: Rng,
                        max_initial_age: float = DEFAULT_MAX_INITIAL_AGE_YEARS,
                        ) -> np.ndarray:
    """Run the full initialization pipeline on a fresh store.

    Returns each person's density-weighted town as a cell code, by id.
    Families consolidate into the husband's town during housing, so final
    per-town headcounts deviate from this by the relocated dependents.
    """
    if len(store) != 0:
        raise ValueError("initialization requires an empty store")
    targets = init_town_populations(params.initial_pop, space)
    store.add_rows(params.initial_pop)
    store.alive_arr[:store.size] = True
    cells = np.repeat([cell_of(town) for town in targets], list(targets.values()))
    init_ages_and_genders(store, np.arange(store.size), clock, rng,
                          max_age_years=max_initial_age)
    init_partnerships(store, params, rng)
    init_children(store, rng)
    init_housing(store, space, cells, rng)
    return cells
