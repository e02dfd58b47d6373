"""The per-step population transitions: ageing, deaths, births, divorces, marriages.

Ageing always runs first; the canonical order of the rest is deaths,
births, divorces, marriages (deaths before births prevents same-step
posthumous parenthood). All events within one step share the snapshot
committed at the step's start, so every "just happened" exclusion refers
to the previous boundary.

Each hazard and matching weight is one array function. A run converts
the hazards to per-step probabilities once, in HazardTables, and the
events look them up by age each step instead of recomputing them. The
marriage geo factor is tabulated once per run by town pair, and the
children factor once per step by child counts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .features import StepSnapshot
from .params import DataTables, ModelParameters
from .population import (
    DIVORCED_CODE,
    Gender,
    MARRIED_CODE,
    PersonId,
    PopulationStore,
    UnwedReason,
)
from .space import Space, cell_distances
from .stochastics import Rng, instantaneous_probability_array, weighted_sample

logger = logging.getLogger(__name__)

# exp() argument cap; keeps pathological children counts from overflowing.
_EXP_CAP = 700.0

# Mothers are younger than this many whole years.
FERTILE_YEARS = 45

# The death table is looked up while it holds at most this many float64s
# (2 MB); the daily clock needs ~81k to reach 110 years. The hourly clock
# would need ~1.9M (15 MB, a third more than a 1,000-agent hourly run's
# peak memory), so there deaths evaluate the hazard on the candidates' ages.
DEATH_TABLE_CAP = 2**18


@dataclass
class StepEventLog:
    """Who was affected by each event kind during one step."""

    births: list[PersonId] = field(default_factory=list)
    deaths: list[PersonId] = field(default_factory=list)
    marriages: list[tuple[PersonId, PersonId]] = field(default_factory=list)
    divorces: list[tuple[PersonId, PersonId]] = field(default_factory=list)
    orphan_moves: list[PersonId] = field(default_factory=list)
    divorce_moves: list[PersonId] = field(default_factory=list)

    def counts(self) -> tuple[int, int, int, int, int, int]:
        """How many of each kind, in field order."""
        return (len(self.births), len(self.deaths), len(self.marriages),
                len(self.divorces), len(self.orphan_moves), len(self.divorce_moves))


# -- yearly hazards and matching weights -----------------------------------


def death_yearly_probability_array(age_years: np.ndarray, is_male: np.ndarray,
                                   params: ModelParameters) -> np.ndarray:
    """Base rate plus an exponentially age-scaled, gender-specific term.

    The raw value can exceed 1 for extreme ages; death_step_probability_array
    clamps it before converting to a per-step probability.
    """
    scaling = np.where(is_male, params.male_age_scaling, params.female_age_scaling)
    slope = np.where(is_male, params.male_age_die_prob, params.female_age_die_prob)
    return params.base_die_rate + np.exp(age_years / scaling) * slope


def death_step_probability_array(age_steps: np.ndarray, is_male: np.ndarray,
                                 params: ModelParameters, steps_per_year: int) -> np.ndarray:
    """Per-step death probability at an age in steps."""
    p_yearly = death_yearly_probability_array(age_steps / steps_per_year, is_male, params)
    return instantaneous_probability_array(np.clip(p_yearly, 0.0, 1.0), steps_per_year)


def decade_yearly_probability_array(age_steps: np.ndarray, steps_per_year: int,
                                    rate: float, modifiers) -> np.ndarray:
    """Yearly hazard ``rate`` times the modifier of the age decade
    ceil(age_years / 10), clamped to [1, 16], in exact integer arithmetic.

    Divorce uses it with basic_divorce_rate and divorce_modifier_by_decade,
    marriage with basic_male_marriage_rate and male_marriage_modifier_by_decade.
    """
    decade = np.clip(-(-np.asarray(age_steps) // (10 * steps_per_year)), 1, 16)
    return rate * np.asarray(modifiers, dtype=float)[decade - 1]


class HazardTables:
    """One run's per-step event probabilities, built from the array
    functions above and looked up by index.

    - ``death``: female then male per-step probabilities by age in steps,
      ``death_width`` ages each, grown when the oldest candidate passes the
      end; None once it would exceed DEATH_TABLE_CAP entries, after which
      deaths evaluate death_step_probability_array directly.
    - ``divorce``, ``marriage``: by decade row min(ceil(age_years / 10), 16);
      row 0 (age 0) repeats row 1.
    - births: by whole-year age under FERTILE_YEARS for one calendar year,
      rebuilt when the year changes.
    - ``geo``: the marriage geo factor between every pair of grid cells,
      indexed by ``Space.town_cell``.

    Every entry equals the array function evaluated on its input, so
    lookups and direct evaluation draw the same events.
    """

    def __init__(self, params: ModelParameters, tables: DataTables, steps_per_year: int):
        self.params = params
        self.fertility = tables.fertility
        self.steps_per_year = n = steps_per_year
        self.death: np.ndarray | None = np.empty(0)
        self.death_width = 0
        decade_ages = np.arange(17) * (10 * n)
        self.divorce = instantaneous_probability_array(decade_yearly_probability_array(
            decade_ages, n, params.basic_divorce_rate, tables.divorce_modifier_by_decade), n)
        self.marriage = instantaneous_probability_array(decade_yearly_probability_array(
            decade_ages, n, params.basic_male_marriage_rate,
            tables.male_marriage_modifier_by_decade), n)
        self._birth_year: int | None = None
        self._births = np.empty(0)
        self.geo = geo_factor_array(cell_distances())

    def deaths(self, age_steps: np.ndarray, is_male: np.ndarray) -> np.ndarray:
        """Per-step death probabilities of the given (at least one) persons."""
        if self.death is not None:
            oldest = int(age_steps.max())
            if oldest >= self.death_width:
                # One spare year of ages, so the table grows about once a year.
                self._grow_death(oldest + 1 + self.steps_per_year)
        if self.death is None:
            return death_step_probability_array(age_steps, is_male, self.params,
                                                self.steps_per_year)
        return self.death.take(age_steps + self.death_width * is_male)

    def _grow_death(self, width: int) -> None:
        if 2 * width > DEATH_TABLE_CAP:
            self.death = None
            return
        old = self.death_width
        ages = np.arange(old, width)
        female, male = (death_step_probability_array(ages, is_male, self.params,
                                                     self.steps_per_year)
                        for is_male in (False, True))
        self.death = np.concatenate([self.death[:old], female, self.death[old:], male])
        self.death_width = width

    def decade_rows(self, age_steps: np.ndarray) -> np.ndarray:
        """Row of each age in the divorce and marriage tables."""
        return np.minimum(-(-age_steps // (10 * self.steps_per_year)), 16)

    def births(self, year: int) -> np.ndarray:
        """Per-step birth probabilities by whole-year age in a calendar year."""
        if year != self._birth_year:
            rates = self.fertility.rates_at(np.arange(FERTILE_YEARS), year)
            self._births = instantaneous_probability_array(rates, self.steps_per_year)
            self._birth_year = year
        return self._births


def age_compatibility_array(age_m_years: float, ages_f_years: np.ndarray) -> np.ndarray:
    """Piecewise preference on the age gap: flat near zero, decaying with
    large gaps in either direction; always positive."""
    diff = age_m_years - ages_f_years
    # Both branches are computed everywhere; the gaps 4 and -1 divide by zero
    # in the branch that is not taken.
    with np.errstate(divide="ignore"):
        return np.where(diff >= 5, 1.0 / (diff - 4.0),
                        np.where(diff <= -2, -1.0 / (diff + 1.0), 1.0))


def geo_factor_array(dist: np.ndarray) -> np.ndarray:
    """exp(-4 * distance) over Manhattan town distances."""
    return np.exp(-4.0 * dist)


def children_factor_array(n_m: int, n_f: np.ndarray) -> np.ndarray:
    """exp(n_m * n_f - n_m - n_f) over the children counts of the groom
    and the brides, capped in the exponent."""
    return np.exp(np.minimum(n_m * n_f - n_m - n_f, _EXP_CAP))


# -- the five events --------------------------------------------------------


def ageing_step(store: PopulationStore, space: Space, rng: Rng, log: StepEventLog) -> None:
    """Advance every living person by one step.

    A person reaching adulthood this step whose parents are both dead and
    who has a living older sibling moves out to an empty house in the same
    town, alone.
    """
    n = store.size
    alive = store.alive_arr[:n]
    ages = store.age_steps_arr[:n]
    ages[alive] += 1
    store.alive_age_steps_sum += int(np.count_nonzero(alive))
    new_adults = np.flatnonzero(alive & (ages == store.adult_age_steps))
    if len(new_adults) == 0:
        return
    orphaned = np.ones(len(new_adults), dtype=bool)
    for parents in (store.father_arr[new_adults], store.mother_arr[new_adults]):
        orphaned &= (parents < 0) | ~alive[parents]
    for pid in new_adults[orphaned].tolist():
        if not np.any(store.sibling_mask(pid) & alive & (ages > ages[pid])):
            continue
        cell = int(space.town_cell[store.house_arr[pid]])
        space.move_person(store, pid, space.find_or_create_empty_house(cell, rng))
        log.orphan_moves.append(pid)


def deaths_step(store: PopulationStore, space: Space, hazards: HazardTables,
                rng: Rng, log: StepEventLog) -> None:
    """Kill each living person with the per-step death probability for
    their age and gender, visiting them in shuffled order."""
    n = store.size
    ids = np.flatnonzero(store.alive_arr[:n])
    if len(ids) == 0:
        return
    rng.shuffle(ids)
    p_step = hazards.deaths(store.age_steps_arr[ids], store.male_arr[ids])
    dead = ids[rng.random(len(ids)) < p_step].tolist()
    for pid in dead:
        store.kill(pid, space)
        log.deaths.append(pid)


def births_step(store: PopulationStore, space: Space, hazards: HazardTables,
                current_year: int, rng: Rng, log: StepEventLog) -> None:
    """Married women under FERTILE_YEARS whose youngest living child is over
    one year old (or who have no living children) give birth at the
    fertility-table rate for their age and the calendar year."""
    n = store.steps_per_year
    size = store.size
    alive = store.alive_arr[:size]
    ages = store.age_steps_arr[:size]
    mothers_of_infants = store.mother_arr[:size][alive & (ages <= n)]
    blocked = np.zeros(size, dtype=bool)
    blocked[mothers_of_infants[mothers_of_infants >= 0]] = True
    mothers = np.flatnonzero(alive & ~store.male_arr[:size] & ~blocked
                             & (store.status_arr[:size] == MARRIED_CODE)
                             & (ages < FERTILE_YEARS * n))
    if len(mothers) == 0:
        return
    p_step = hazards.births(current_year).take(ages[mothers] // n)
    hits = mothers[rng.random(len(mothers)) < p_step].tolist()
    for mother in hits:
        gender = Gender.MALE if rng.random() < 0.5 else Gender.FEMALE
        baby = store.spawn_person(gender, 0, father=int(store.partner_arr[mother]), mother=mother,
                                  house=int(store.house_arr[mother]), space=space)
        log.births.append(baby)


def divorces_step(store: PopulationStore, space: Space, hazards: HazardTables,
                  snapshot: StepSnapshot | None, rng: Rng, log: StepEventLog) -> None:
    """Divorce married men (skipping those married since the last boundary)
    at the decade-modified rate; the man moves out alone within his town."""
    n = store.size
    mask = (store.alive_arr[:n] & store.male_arr[:n]
            & (store.status_arr[:n] == MARRIED_CODE))
    if snapshot is not None:
        # Exclude the just-married: anyone not married at the boundary.
        was_married = np.zeros(n, dtype=bool)
        k = min(snapshot.size, n)
        was_married[:k] = snapshot.status[:k] == MARRIED_CODE
        mask &= was_married
    ids = np.flatnonzero(mask)
    if len(ids) == 0:
        return
    rng.shuffle(ids)
    p_step = hazards.divorce.take(hazards.decade_rows(store.age_steps_arr[ids]))
    hits = ids[rng.random(len(ids)) < p_step].tolist()
    for pid in hits:
        wife = int(store.partner_arr[pid])
        store.unwed(pid, UnwedReason.DIVORCE)
        cell = int(space.town_cell[store.house_arr[pid]])
        space.move_person(store, pid, space.find_or_create_empty_house(cell, rng))
        log.divorces.append((pid, wife))
        log.divorce_moves.append(pid)


def marriages_step(store: PopulationStore, space: Space, params: ModelParameters,
                   hazards: HazardTables, snapshot: StepSnapshot | None,
                   rng: Rng, log: StepEventLog) -> None:
    """Marry eligible men at the decade-modified rate.

    Eligible men are unmarried adults, excluding those divorced or turned
    adult since the last boundary. A successful man draws a uniform subset
    of unmarried adult women and picks one weighted by distance, children
    and age compatibility; households merge into the larger house.
    """
    n = store.steps_per_year
    adult_steps = store.adult_age_steps
    size = store.size
    mask = (store.alive_arr[:size] & store.male_arr[:size]
            & (store.status_arr[:size] != MARRIED_CODE)
            & (store.age_steps_arr[:size] >= adult_steps))
    if snapshot is not None:
        k = min(snapshot.size, size)
        existed = np.zeros(size, dtype=bool)
        existed[:k] = True
        just_divorced = np.zeros(size, dtype=bool)
        just_divorced[:k] = ((store.status_arr[:k] == DIVORCED_CODE)
                             & (snapshot.status[:k] != DIVORCED_CODE))
        just_adult = np.zeros(size, dtype=bool)
        just_adult[:k] = snapshot.age_steps[:k] < adult_steps
        mask &= existed & ~just_divorced & ~just_adult
    ids = np.flatnonzero(mask)
    if len(ids) == 0:
        return
    rng.shuffle(ids)
    p_step = hazards.marriage.take(hazards.decade_rows(store.age_steps_arr[ids]))
    grooms = ids[rng.random(len(ids)) < p_step].tolist()
    if not grooms:
        return

    pool = np.flatnonzero(store.alive_arr[:size] & ~store.male_arr[:size]
                          & (store.status_arr[:size] != MARRIED_CODE)
                          & (store.age_steps_arr[:size] >= adult_steps))
    pool_ages = store.age_steps_arr[pool] / n
    # Child counts cannot change during this event; houses can (household
    # merges move co-residents), so towns are read through the live house
    # array.
    alive = store.alive_arr[:size]
    children = np.zeros(size, dtype=np.int64)
    for parents in (store.father_arr[:size][alive], store.mother_arr[:size][alive]):
        children += np.bincount(parents[parents >= 0], minlength=size)
    pool_children = children[pool]
    # Children factor of each groom child count over every bride count.
    bride_counts = np.arange(int(pool_children.max(initial=0)) + 1, dtype=float)
    children_rows: dict[int, np.ndarray] = {}
    house_arr, town_cell = store.house_arr, space.town_cell
    live = len(pool)

    for groom_id in grooms:
        if live == 0:
            break
        n_cand = max(params.max_num_marr_cand, math.ceil(live / 10))
        k = min(n_cand, live)
        cand = rng.choice(live, size=k, replace=False)
        n_m = int(children[groom_id])
        children_row = children_rows.get(n_m)
        if children_row is None:
            children_row = children_rows[n_m] = children_factor_array(n_m, bride_counts)
        geo_row = hazards.geo[town_cell[house_arr[groom_id]]]
        weights = (geo_row.take(town_cell.take(house_arr.take(pool.take(cand))))
                   * children_row.take(pool_children.take(cand))
                   * age_compatibility_array(store.age_steps_arr[groom_id] / n, pool_ages[cand]))
        total = float(weights.sum())
        if total <= 0.0:
            logger.debug("all marriage weights zero for man %d; stays single", groom_id)
            continue
        j = int(weighted_sample(rng, cand, weights, total))
        bride_id = int(pool[j])
        store.wed(groom_id, bride_id)
        _merge_households(store, space, groom_id, bride_id)
        log.marriages.append((groom_id, bride_id))
        live -= 1
        pool[j] = pool[live]
        pool_ages[j] = pool_ages[live]
        pool_children[j] = pool_children[live]


def _merge_households(store: PopulationStore, space: Space,
                      groom: PersonId, bride: PersonId) -> None:
    """Everyone in the smaller house moves into the larger; ties favour
    the groom's house."""
    house_m = int(store.house_arr[groom])
    house_f = int(store.house_arr[bride])
    if house_m == house_f:
        return
    occ_m = space.residents[house_m]
    occ_f = space.residents[house_f]
    if len(occ_m) >= len(occ_f):
        movers, target = occ_f, house_m
    else:
        movers, target = occ_m, house_f
    for pid in sorted(movers):
        space.move_person(store, pid, target)


# -- one whole step ----------------------------------------------------------


def run_step(store: PopulationStore, space: Space, params: ModelParameters,
             hazards: HazardTables, snapshot: StepSnapshot | None, current_year: int,
             rng: Rng, order) -> StepEventLog:
    """Apply all five events in the configured order (ageing first).

    ``hazards`` must be built for ``params`` and the store's clock."""
    log = StepEventLog()
    for name in order:
        if name == "ageing":
            ageing_step(store, space, rng, log)
        elif name == "deaths":
            deaths_step(store, space, hazards, rng, log)
        elif name == "births":
            births_step(store, space, hazards, current_year, rng, log)
        elif name == "divorces":
            divorces_step(store, space, hazards, snapshot, rng, log)
        elif name == "marriages":
            marriages_step(store, space, params, hazards, snapshot, rng, log)
        else:
            raise ValueError(f"unknown event {name!r}")
    return log
