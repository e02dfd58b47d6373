"""Builds the initial state: town quotas, ages, genders, couples, children, housing.

Staging order matters: persons are spawned unhoused into towns, ages and
genders are drawn, couples are formed, every minor is assigned married
parents, and housing is created last so that no initial house is ever
empty. The stages write the store's arrays only; build_initial_state
derives the cached counts from them in one recount() at its end, as an
import does. The structural invariants hold once the build completes.
engine.Simulation, the one start of a run, calls build_initial_state.
Couples come from store.unmarried_adults, as the marriage event's brides do.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .events import age_compatibility_array
from .params import ModelParameters
from .population import FERTILE_YEARS, MARRIED_CODE, PopulationStore
from .space import Space, TownKey, cell_of
from .stochastics import (
    DEFAULT_MAX_INITIAL_AGE_YEARS,
    Rng,
    sample_half_normal_age_steps,
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


def init_ages_and_genders(store: PopulationStore, pids: np.ndarray, rng: Rng,
                          max_age_years: float = DEFAULT_MAX_INITIAL_AGE_YEARS) -> None:
    """Assign half-normal ages and fair-coin genders to freshly spawned persons."""
    n = len(pids)
    genders = rng.random(n) < 0.5  # True = male
    ages = sample_half_normal_age_steps(rng, store.steps_per_year, size=n,
                                        max_age_years=max_age_years)
    store.male_arr[pids] = genders
    store.age_steps_arr[pids] = ages


def init_partnerships(store: PopulationStore, params: ModelParameters, rng: Rng) -> None:
    """Marry off adult males, each selected with probability start_married_rate.

    Every selected male takes a uniform subset S of k = min(n_cand, pool)
    eligible women, where n_cand = max(max_num_marr_cand, ceil(pool / 10))
    is fixed from the initial pool, and picks wife j of S with probability
    w_j / W(S), w the age compatibility; she leaves the pool. An exhausted
    pool leaves the remaining males single. The couples are written to the
    status and partner arrays after the last pick.

    S is revealed only as far as the pick looks at it. Each trial takes a
    uniform member of S: a uniform slot of k, which is one of the revealed
    positions R if the slot is below |R|, else a uniform pool position
    outside R (by rejection) that joins R. The trial keeps it with
    probability w_j <= 1. A revealed member is not redrawn, so the trials
    see one subset; without R they would be a plain rejection over the
    whole pool, a different law. The expected trial count is 1 / (mean
    weight), whatever k and the pool's size.
    """
    n = store.steps_per_year
    adult_males = store.unmarried_adults(male=True)  # everyone is single yet
    picks = rng.random(len(adult_males)) < params.start_married_rate
    selected = adult_males[picks]
    rng.shuffle(selected)

    pool_ids = store.unmarried_adults(male=False)
    pool_years = (store.age_steps_arr[pool_ids] / n).tolist()
    live = len(pool_ids)
    # Candidate-subset size is fixed from the initial pool size.
    n_cand = max(params.max_num_marr_cand, math.ceil(live / 10))

    brides = []
    for rank, groom_years in enumerate((store.age_steps_arr[selected] / n).tolist()):
        if live == 0:
            logger.warning("eligible female pool exhausted; %d selected males stay single",
                           len(selected) - rank)
            break
        k = min(n_cand, live)
        revealed, seen = [], set()
        while True:
            slot = int(rng.random() * k)
            if slot < len(revealed):
                j = revealed[slot]
            else:
                j = int(rng.random() * live)
                while j in seen:
                    j = int(rng.random() * live)
                revealed.append(j)
                seen.add(j)
            if rng.random() < age_compatibility_array(groom_years, pool_years[j]):
                break
        brides.append(pool_ids[j])
        live -= 1
        pool_ids[j] = pool_ids[live]
        pool_years[j] = pool_years[live]
    grooms, brides = selected[:len(brides)], np.array(brides, dtype=np.int64)
    store.status_arr[grooms] = store.status_arr[brides] = MARRIED_CODE
    store.partner_arr[grooms], store.partner_arr[brides] = brides, grooms


def init_children(store: PopulationStore, rng: Rng) -> None:
    """Give every minor a married father (and his wife as mother).

    A father qualifies when both spouses are at least 18 years 9 months
    older than the child and the wife is under FERTILE_YEARS + child's
    age. A child draws one of its qualifying couples uniformly. An empty
    candidate set falls back to the couple with the largest age margin,
    with a warning; if no couple exists at all, the oldest single adult
    pair is wed first.

    In steps, with n steps a year, couple c qualifies for the child ages a
    with lo_c < a <= hi_c, where lo_c = wife_age - 45n and
    hi_c = (4 min_age - 75n) // 4, the exact integer form of
    min_age >= a + 18.75n (18.75n is not a whole number of steps on,
    say, the daily clock). Couples with lo_c >= hi_c qualify for no age
    and are set aside. Of the others, those with lo_c < a are a prefix of
    the ascending lo order and those with a <= hi_c a prefix of the
    descending hi order (both stable). Every couple lies in one of the
    two ranges, and the qualifying ones in both. The draw is by
    rejection: each round, every child still unparented draws, in
    ascending id order and in one vector call, a uniform couple from the
    smaller of its two ranges (the lo range on a tie) and keeps it if it
    qualifies. The smaller range matters: with capped initial ages
    (maxInitialAge 37) the lo range alone holds so few qualifying
    couples that the draw takes thousands of rounds.
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

    lo = men_wife_age - FERTILE_YEARS * n
    hi = (4 * men_min_age - 75 * n) // 4
    able = np.flatnonzero(lo < hi)
    lo, hi = lo[able], hi[able]
    by_lo, by_hi = np.argsort(lo, kind="stable"), np.argsort(-hi, kind="stable")
    ages = store.age_steps_arr[minors]
    in_lo = np.searchsorted(lo[by_lo], ages)  # lo < a
    in_hi = np.searchsorted(-hi[by_hi], -ages, side="right")  # a <= hi
    use_lo = in_lo <= in_hi
    sizes = np.minimum(in_lo, in_hi)
    parented = in_lo + in_hi > len(lo)
    # Closest couple by age margin; the no-orphan guarantee wins.
    fathers = np.full(len(minors), men_ids[np.argmax(men_min_age)], dtype=np.int64)
    left = np.flatnonzero(parented)
    while len(left):
        draws = rng.integers(0, sizes[left])
        couple = np.where(use_lo[left], by_lo[draws], by_hi[draws])
        kept = (lo[couple] < ages[left]) & (ages[left] <= hi[couple])
        fathers[left[kept]] = men_ids[able[couple[kept]]]
        left = left[~kept]
    for child, a in zip(minors[~parented].tolist(), ages[~parented].tolist()):
        logger.warning("no qualifying parents for child %d (age %.2f); "
                       "assigning closest couple", child, a / n)
    store.assign_parents(minors, fathers, store.partner_arr[fathers])


def _wed_oldest_single_pair(store: PopulationStore) -> None:
    males, females = store.unmarried_adults(male=True), store.unmarried_adults(male=False)
    if len(males) == 0 or len(females) == 0:
        raise InitializationError("minors present but no married couple can be formed")
    # argmax takes the first, so the lowest id among the oldest.
    groom = int(males[np.argmax(store.age_steps_arr[males])])
    bride = int(females[np.argmax(store.age_steps_arr[females])])
    logger.warning("no married couples; wedding oldest single pair (%d, %d) "
                   "to keep minors parented", groom, bride)
    store.wed(groom, bride)  # the counts it moves are set by the build's recount()


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
                        params: ModelParameters, rng: Rng,
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
    init_ages_and_genders(store, np.arange(store.size), rng, max_age_years=max_initial_age)
    init_partnerships(store, params, rng)
    init_children(store, rng)
    init_housing(store, space, cells, rng)
    store.recount()
    return cells
