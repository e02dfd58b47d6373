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


def init_ages_and_genders(store: PopulationStore, pids: np.ndarray, rng: Rng,
                          max_age_years: float = DEFAULT_MAX_INITIAL_AGE_YEARS) -> None:
    """Assign half-normal ages and fair-coin genders to freshly spawned persons."""
    n = len(pids)
    genders = rng.random(n) < 0.5  # True = male
    ages = sample_half_normal_age_steps(rng, store.steps_per_year, size=n,
                                        max_age_years=max_age_years)
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
    The couples are written in one step after the last pick.

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

    brides = []
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
        brides.append(pool_ids[j])
        live -= 1
        pool_ids[j] = pool_ids[live]
        pool_code[j] = pool_code[live]
    store.wed_couples(selected[:len(brides)], np.array(brides, dtype=np.int64))


# The blocked pick of init_children holds at most this many table entries
# (2 MB of int64) at a time, and masks at most this many (child, couple)
# pairs at a time.
_MAX_PICK_ENTRIES = 1 << 18


def init_children(store: PopulationStore, rng: Rng) -> None:
    """Give every minor a married father (and his wife as mother).

    A father qualifies when both spouses are at least 18 years 9 months
    older than the child and the wife is under 45 + child's age. An empty
    candidate set falls back to the couple with the largest age margin; if
    no couple exists at all, the oldest single adult pair is wed first.

    In steps, with n steps a year, couple c qualifies for the child ages a
    with lo_c < a <= hi_c, where lo_c = wife_age - 45n and
    hi_c = (4 min_age - 75n) // 4, the exact integer form of
    min_age >= a + 18.75n (18.75n is not a whole number of steps on,
    say, the daily clock). Couples with lo_c >= hi_c qualify for no age
    and are set aside. A child's count of qualifying couples is the number
    of lo below its age minus the number of hi below it, two searchsorted
    calls. Every child with qualifying couples draws one of them
    uniformly, all in one draw in ascending id order, and gets the drawn
    rank's couple in id order, found by a blocked order statistic
    (_kth_qualifying). No Python loop runs per age or per couple, and only
    the fallback's warnings are issued child by child.
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

    lo = men_wife_age - 45 * n
    hi = (4 * men_min_age - 75 * n) // 4
    able = np.flatnonzero(lo < hi)
    lo, hi = lo[able], hi[able]
    ages, group = np.unique(store.age_steps_arr[minors], return_inverse=True)
    counts = (np.searchsorted(np.sort(lo), ages) - np.searchsorted(np.sort(hi), ages))[group]
    parented = counts > 0
    # Closest couple by age margin; the no-orphan guarantee wins.
    fathers = np.full(len(minors), men_ids[np.argmax(men_min_age)], dtype=np.int64)
    if parented.any():
        draws = rng.integers(0, counts[parented])
        fathers[parented] = men_ids[able[_kth_qualifying(lo, hi, ages, group[parented], draws)]]
    for child, a in zip(minors[~parented].tolist(),
                        store.age_steps_arr[minors[~parented]].tolist()):
        logger.warning("no qualifying parents for child %d (age %.2f); "
                       "assigning closest couple", child, a / n)
    store.assign_parents(minors, fathers, store.partner_arr[fathers])


def _kth_qualifying(lo: np.ndarray, hi: np.ndarray, ages: np.ndarray,
                    group: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """For each child i, the index of the ranks[i]-th couple (from 0, in
    index order) with lo < ages[group[i]] <= hi. Every rank must be below
    its age's count of such couples; ages is sorted and distinct.

    The couples are split, in index order, into blocks of s. A table holds,
    for each distinct age and block, how many couples of that block or an
    earlier one qualify: each couple adds +1 at the first age index it
    qualifies for and -1 at the first one after, a cumsum over the ages
    turns that into counts per block and a cumsum over the blocks into
    prefix counts. One searchsorted over the table finds each child's
    block and its rank inside the block; a (children x s) mask, its cumsum
    and argmax find the couple inside the block. The table has
    ages * couples / s entries and the masks children * s, so
    s = sqrt(ages * couples / children) balances the two. Both are built
    in chunks of at most _MAX_PICK_ENTRIES: the table a run of ages at a
    time, carrying the last counts over, and the masks a run of children.
    """
    couples, n_ages = len(lo), len(ages)
    s = max(1, math.isqrt(n_ages * couples // len(ranks)))
    blocks = -(-couples // s)
    width = blocks + 1  # a leading zero column: the count before block 0
    # Each child's query, offset by its age so that the queries of all
    # ages, and the table rows, run in one ascending order.
    query = group * (couples + 1) + ranks
    order = np.argsort(query)
    query = query[order]

    # +1 where a couple starts to qualify and -1 where it stops, by age.
    event_age = np.concatenate([np.searchsorted(ages, lo, side="right"),
                                np.searchsorted(ages, hi, side="right")])
    by_age = np.argsort(event_age, kind="stable")
    event_age = event_age[by_age]
    event_column = np.tile(np.arange(couples) // s + 1, 2)[by_age]
    event_sign = np.where(by_age < couples, 1, -1)
    block, rank = np.empty(len(ranks), dtype=np.int64), np.empty(len(ranks), dtype=np.int64)
    carried = np.zeros(width, dtype=np.int64)
    rows = max(1, _MAX_PICK_ENTRIES // width)
    for first in range(0, n_ages, rows):
        last = min(n_ages, first + rows)
        table = np.zeros((last - first, width), dtype=np.int64)
        e0, e1 = np.searchsorted(event_age, [first, last])
        np.add.at(table.reshape(-1), (event_age[e0:e1] - first) * width + event_column[e0:e1],
                  event_sign[e0:e1])
        table[0] += carried
        np.cumsum(table, axis=0, out=table)  # qualifying couples per block
        carried = table[-1].copy()
        np.cumsum(table, axis=1, out=table)  # ... in the blocks before each
        table += (np.arange(last - first) * (couples + 1))[:, None]
        keys = table.reshape(-1)
        q0, q1 = np.searchsorted(query, [first * (couples + 1), last * (couples + 1)])
        local = query[q0:q1] - first * (couples + 1)
        found = np.searchsorted(keys, local, side="right") - 1
        block[q0:q1] = found % width
        rank[q0:q1] = local - keys[found]

    # Inside the block: the rank-th qualifying couple of its s.
    pad = blocks * s - couples
    block_lo = np.concatenate([lo, np.full(pad, np.iinfo(np.int64).max)]).reshape(blocks, s)
    block_hi = np.concatenate([hi, np.full(pad, np.iinfo(np.int64).min)]).reshape(blocks, s)
    child_age = ages[query // (couples + 1)]
    picks = np.empty(len(ranks), dtype=np.int64)
    step = max(1, _MAX_PICK_ENTRIES // s)
    for i in range(0, len(ranks), step):
        b, a = block[i:i + step], child_age[i:i + step, None]
        seen = np.cumsum((block_lo[b] < a) & (a <= block_hi[b]), axis=1, dtype=np.int32)
        picks[i:i + step] = b * s + np.argmax(seen > rank[i:i + step, None], axis=1)
    result = np.empty_like(picks)
    result[order] = picks
    return result


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
    return cells
