"""The per-step population transitions: ageing, deaths, births, divorces, marriages.

Ageing always runs first, once a step; the canonical order of the rest
is deaths, births, divorces, marriages (deaths before births prevents
same-step posthumous parenthood). Every "just happened" exclusion refers
to the previous boundary and reads the step itself: its event log names
whoever married or divorced since, and after ageing an adult at the
boundary is older than the adult age.

Each hazard and matching weight is one array function. An event draws
how many of its candidates fall below HazardTables' bound on their
probabilities, picks that many in a uniformly random order, and finds
probabilities only for those (thinning): its random draws and hazard
evaluations grow with its expected events, not with its candidates. It
needs the candidates' ids, a mask over the store, only when it picks
someone; before that, their count, cached per store version. Ageing and
the death bound read the store's birth order. The kin counts are read
from the store, which keeps them as persons are born, die and age: births
read each woman's living infants (``infants_arr``), marriages each
person's living children (``living_children_arr``). The marriage geo
factor is tabulated once per run by town pair, and the children factor
once per groom step by child counts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .params import DataTables, ModelParameters
from .population import (
    FERTILE_YEARS,
    Gender,
    MARRIED_CODE,
    MaritalStatus,
    PersonId,
    PopulationStore,
)
from .space import Space, cell_distances
from .stochastics import Rng, instantaneous_probability_array, weighted_sample

logger = logging.getLogger(__name__)

# exp() argument cap; keeps pathological children counts from overflowing.
_EXP_CAP = 700.0

# Relative margin of the death bound: covers last-bit differences of exp and log1p.
_DEATH_BOUND_MARGIN = 1e-9


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
    """One run's per-step event probabilities, each with an upper bound.

    - ``divorce``, ``marriage``: by decade row min(ceil(age_years / 10), 16);
      row 0 (age 0) repeats row 1. Bounds: their maxima.
    - births: by whole-year age under FERTILE_YEARS for one calendar year,
      rebuilt when the year changes. Bound: their maximum.
    - deaths: no table; death_bound bounds them up to an age.
    - ``geo``: the marriage geo factor between every pair of grid cells,
      indexed by ``Space.town_cell``.

    Every table entry equals the array function evaluated on its input, so
    lookups and direct evaluation draw the same events.
    """

    def __init__(self, params: ModelParameters, tables: DataTables, steps_per_year: int):
        self.params = params
        self.fertility = tables.fertility
        self.steps_per_year = n = steps_per_year
        decade_ages = np.arange(17) * (10 * n)
        self.divorce = instantaneous_probability_array(decade_yearly_probability_array(
            decade_ages, n, params.basic_divorce_rate, tables.divorce_modifier_by_decade), n)
        self.marriage = instantaneous_probability_array(decade_yearly_probability_array(
            decade_ages, n, params.basic_male_marriage_rate,
            tables.male_marriage_modifier_by_decade), n)
        self.divorce_bound = float(self.divorce.max())
        self.marriage_bound = float(self.marriage.max())
        self._birth_year: int | None = None
        self._births = (np.empty(0), 0.0)
        self._death_bound = (-1, 0.0)  # (whole years, bound)
        self.geo = geo_factor_array(cell_distances())

    def death_bound(self, oldest_age_steps: int) -> float:
        """Bound on either gender's per-step death probability at every age
        up to ``oldest_age_steps``, rounded up to whole years.

        exp() of a linear function of age makes the hazard monotone in age
        for any parameter signs, so its maximum lies at an end of the range.
        """
        n = self.steps_per_year
        years = -(-oldest_age_steps // n)
        if years != self._death_bound[0]:
            p_step = death_step_probability_array(np.array([0, 0, years * n, years * n]),
                                                  np.array([False, True] * 2), self.params, n)
            self._death_bound = years, float(p_step.max()) * (1.0 + _DEATH_BOUND_MARGIN)
        return self._death_bound[1]

    def decade_rows(self, age_steps: np.ndarray) -> np.ndarray:
        """Row of each age in the divorce and marriage tables."""
        return np.minimum(-(-age_steps // (10 * self.steps_per_year)), 16)

    def births(self, year: int) -> tuple[np.ndarray, float]:
        """Per-step birth probabilities by whole-year age in a calendar
        year, and their maximum."""
        if year != self._birth_year:
            rates = self.fertility.rates_at(np.arange(FERTILE_YEARS), year)
            p_step = instantaneous_probability_array(rates, self.steps_per_year)
            self._births = p_step, float(p_step.max())
            self._birth_year = year
        return self._births


def _thinned_hits(rng: Rng, count: int, build, bound: float, probability) -> np.ndarray:
    """Each of ``count`` candidates hit independently with its
    ``probability``, the hits in a uniformly random order; ``bound`` is at
    least every probability, and ``build()`` returns the candidates' ids.

    Draws the number m of candidates whose uniform would lie below the
    bound, takes m candidates as a uniformly ordered uniform subset, and
    keeps each with probability(id) / bound: the law of one uniform per
    candidate in a shuffled order, from O(m) draws, with ``probability``
    called on those m candidates only. ``build`` is called only when m > 0;
    a stale count raises rather than change the stream.
    """
    bound = min(bound, 1.0)
    m = int(rng.binomial(count, bound))  # takes nothing from the stream when count is 0
    if m == 0:  # the draws below would take nothing from the stream
        return np.empty(0, dtype=np.intp)
    ids = build()
    if len(ids) != count:
        raise RuntimeError(f"{len(ids)} candidates built, {count} counted")
    maybe = ids.take(rng.choice(count, m, replace=False))
    return maybe[rng.random(m) * bound < probability(maybe)]


def _candidate_mask(store: PopulationStore, event: str) -> np.ndarray:
    """The candidates of births, divorces or marriages before this step's
    exclusions, as a mask over ids. Mothers are married women under
    FERTILE_YEARS without a living child of one year or less (the store's
    infants_arr). Grooms were adults at the boundary: ageing has run, so
    they are older now."""
    n, size = store.steps_per_year, store.size
    alive, male, ages = store.alive_arr[:size], store.male_arr[:size], store.age_steps_arr[:size]
    married = store.status_arr[:size] == MARRIED_CODE
    if event == "divorces":
        return alive & male & married
    if event == "marriages":
        return alive & male & ~married & (ages > store.adult_age_steps)
    return alive & ~male & married & (ages < FERTILE_YEARS * n) & (store.infants_arr[:size] == 0)


def _candidates(store: PopulationStore, event: str, excluded: list[PersonId]):
    """The number of ``event``'s candidates less ``excluded``, and a
    function that builds their ids, ascending. A count without exclusions
    is cached per store version; exclusions come from this step's log and
    would be stale in the next."""
    version, count = store.candidate_counts.get(event, (-1, 0))
    if version == store.version and not excluded:
        return count, lambda: _candidate_mask(store, event).nonzero()[0]
    mask = _candidate_mask(store, event)
    if excluded:
        mask[excluded] = False
    ids = mask.nonzero()[0]
    if not excluded:
        store.candidate_counts[event] = store.version, len(ids)
    return len(ids), lambda: ids


def candidate_count_problems(store: PopulationStore) -> list[str]:
    """The counts cached for the store's version that differ from their masks."""
    return [f"{event}: cached candidate count {count} != mask {actual}"
            for event, (version, count) in store.candidate_counts.items()
            if version == store.version
            and count != (actual := int(np.count_nonzero(_candidate_mask(store, event))))]


def age_compatibility_array(age_m_years: float,
                            ages_f_years: np.ndarray | float) -> np.ndarray | float:
    """Piecewise preference on the age gap: flat near zero, decaying with
    large gaps in either direction; always positive.

    The rule is 1 / (diff - 4) for a gap of 5 or more, -1 / (diff + 1) for
    -2 or less, else 1. Each branch's divisor reaches 1 exactly where the
    branch applies, so the largest of the three divisors is the one taken,
    and no divisor is ever 0."""
    diff = age_m_years - ages_f_years
    return 1.0 / np.maximum(np.maximum(diff - 4.0, -1.0 - diff), 1.0)


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
    new_adults = store.age_one_step()[0]
    if not new_adults:
        return
    alive, ages = store.alive_arr[:store.size], store.age_steps_arr[:store.size]
    for pid in new_adults:
        orphan = all(parent < 0 or not alive[parent]
                     for parent in (store.father_arr[pid], store.mother_arr[pid]))
        if orphan and np.any(store.sibling_mask(pid) & alive & (ages > ages[pid])):
            cell = int(space.town_cell[store.house_arr[pid]])
            space.move_person(store, pid, space.find_or_create_empty_house(cell, rng))
            log.orphan_moves.append(pid)


def deaths_step(store: PopulationStore, space: Space, hazards: HazardTables,
                rng: Rng, log: StepEventLog) -> None:
    """Kill each living person with the per-step death probability for
    their age and gender, the dead in a uniformly random order."""
    if store.alive_count == 0:
        return
    ages, male = store.age_steps_arr, store.male_arr
    dead = _thinned_hits(rng, store.alive_count,
                         lambda: store.alive_arr[:store.size].nonzero()[0],
                         hazards.death_bound(store.oldest_age()),
                         lambda hit: death_step_probability_array(
                             ages.take(hit), male.take(hit), hazards.params,
                             hazards.steps_per_year))
    for pid in dead.tolist():
        store.kill(pid, space)
        log.deaths.append(pid)


def births_step(store: PopulationStore, space: Space, hazards: HazardTables,
                current_year: int, rng: Rng, log: StepEventLog) -> None:
    """Married women under FERTILE_YEARS whose youngest living child is over
    one year old (or who have no living children) give birth at the
    fertility-table rate for their age and the calendar year. Whether a
    woman has a living infant is read from the store's infants_arr; each
    birth adds to its parents' kin counts."""
    count, build = _candidates(store, "births", [])
    n, ages = store.steps_per_year, store.age_steps_arr
    rates, bound = hazards.births(current_year)
    hits = _thinned_hits(rng, count, build, bound, lambda hit: rates.take(ages.take(hit) // n))
    # Babies take their ids in their mothers' id order.
    for mother in np.sort(hits).tolist():
        gender = Gender.MALE if rng.random() < 0.5 else Gender.FEMALE
        baby = store.spawn_person(gender, 0, father=int(store.partner_arr[mother]), mother=mother,
                                  house=int(store.house_arr[mother]), space=space)
        log.births.append(baby)


def divorces_step(store: PopulationStore, space: Space, hazards: HazardTables,
                  rng: Rng, log: StepEventLog) -> None:
    """Divorce married men (skipping those married since the last boundary)
    at the decade-modified rate; the man moves out alone within his town."""
    count, build = _candidates(store, "divorces", [groom for groom, _ in log.marriages])
    hits = _thinned_hits(rng, count, build, hazards.divorce_bound,
                         lambda hit: hazards.divorce.take(
                             hazards.decade_rows(store.age_steps_arr.take(hit))))
    for pid in hits.tolist():
        wife = int(store.partner_arr[pid])
        store.unwed(pid, MaritalStatus.DIVORCED)
        cell = int(space.town_cell[store.house_arr[pid]])
        space.move_person(store, pid, space.find_or_create_empty_house(cell, rng))
        log.divorces.append((pid, wife))
        log.divorce_moves.append(pid)


def marriages_step(store: PopulationStore, space: Space, hazards: HazardTables,
                   rng: Rng, log: StepEventLog) -> None:
    """Marry eligible men at the decade-modified rate.

    Eligible men are unmarried adults, excluding those divorced or turned
    adult since the last boundary. A successful man draws a uniform subset
    of unmarried adult women and picks one weighted by distance, children
    and age compatibility; households merge into the larger house.
    """
    n = store.steps_per_year
    count, build = _candidates(store, "marriages", [man for man, _ in log.divorces])
    grooms = _thinned_hits(rng, count, build, hazards.marriage_bound,
                           lambda hit: hazards.marriage.take(
                               hazards.decade_rows(store.age_steps_arr.take(hit)))).tolist()
    if not grooms:
        return

    pool = store.unmarried_adults(male=False)
    pool_ages = store.age_steps_arr[pool] / n
    # Child counts cannot change during this event; houses can (household
    # merges move co-residents), so towns are read through the live house
    # array.
    children = store.living_children_arr
    pool_children = children[pool]
    # Children factor of each groom child count over every bride count.
    bride_counts = np.arange(int(pool_children.max(initial=0)) + 1, dtype=float)
    children_rows: dict[int, np.ndarray] = {}
    house_arr, town_cell = store.house_arr, space.town_cell
    live = len(pool)

    for groom_id in grooms:
        if live == 0:
            break
        n_cand = max(hazards.params.max_num_marr_cand, math.ceil(live / 10))
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


def run_step(store: PopulationStore, space: Space, hazards: HazardTables,
             current_year: int, rng: Rng, order) -> StepEventLog:
    """Apply all five events in the configured order (ageing first, once).

    ``hazards`` must be built for the store's clock."""
    log = StepEventLog()
    for name in order:
        if name == "ageing":
            ageing_step(store, space, rng, log)
        elif name == "deaths":
            deaths_step(store, space, hazards, rng, log)
        elif name == "births":
            births_step(store, space, hazards, current_year, rng, log)
        elif name == "divorces":
            divorces_step(store, space, hazards, rng, log)
        elif name == "marriages":
            marriages_step(store, space, hazards, rng, log)
        else:
            raise ValueError(f"unknown event {name!r}")
    return log
