"""Initial-state construction: quotas, distributions, couples, children, housing."""

import logging
import math

import numpy as np
import pytest

from gridpop.events import age_compatibility_array
from gridpop.initialization import (
    InitializationError,
    build_initial_state,
    init_ages_and_genders,
    init_children,
    init_housing,
    init_partnerships,
    init_town_populations,
)
from gridpop.params import ModelParameters
from gridpop.population import (
    MARRIED_CODE,
    Gender,
    MaritalStatus,
    PopulationStore,
    collect_invariant_violations,
)
from gridpop.space import Space, cell_of
from gridpop.stochastics import ClockSpec, make_rng, weighted_sample


def build(initial_pop=2000, seed=11, clock=None, **param_overrides):
    clock = clock or ClockSpec.monthly()
    params = ModelParameters(initial_pop=initial_pop, **param_overrides)
    store = PopulationStore(clock.steps_per_year)
    space = Space()
    build_initial_state(store, space, params, clock, make_rng(seed))
    return store, space, params


class TestTownQuotas:
    def test_sum_equals_initial_pop_exactly(self, space):
        for pop in (1, 7, 480, 10_000, 99_991):
            targets = init_town_populations(pop, space)
            assert sum(targets.values()) == pop

    def test_zero_density_towns_get_zero(self, space):
        targets = init_town_populations(10_000, space)
        assert set(targets) <= set(space.inhabitable_towns)
        assert (1, 1) not in targets

    def test_proportionality(self, space):
        targets = init_town_populations(100_000, space)
        # (8,4) has density 1.0 and (4,4) has 0.5: the quota ratio is 2 ± rounding.
        full = targets[(8, 4)]
        half = targets[(4, 4)]
        assert abs(full - 2 * half) <= 2
        # Quota for a density-1.0 cell is initial_pop / sum(density).
        total = space.town_weights.sum()
        assert abs(full - 100_000 / total) <= 1

    def test_deterministic(self, space):
        assert init_town_populations(12_345, space) == init_town_populations(12_345, space)


class TestAgesAndGenders:
    def test_gender_balance_and_age_mean(self):
        store, _, _ = build(initial_pop=20_000, seed=1)
        n = len(store.persons)
        males = sum(1 for p in store.persons.values() if p.gender is Gender.MALE)
        sigma = math.sqrt(0.25 / n)
        assert abs(males / n - 0.5) < 3 * sigma
        mean_age = store.alive_age_steps_sum / n / store.steps_per_year
        assert abs(mean_age - 25 * math.sqrt(2 / math.pi)) < 0.35

    def test_ages_non_negative_step_multiples(self):
        store, _, _ = build(initial_pop=500, seed=2)
        assert all(p.age_steps >= 0 for p in store.persons.values())


class TestPartnerships:
    def test_age_compatibility_cases(self):
        # Hand evaluation of the piecewise weight.
        def weight(age_m, age_f):
            return age_compatibility_array(age_m, np.array([age_f], dtype=float))[0]

        assert weight(30, 30) == 1.0
        assert weight(35, 25) == pytest.approx(1 / 6)   # gap 10
        assert weight(25, 30) == pytest.approx(1 / 4)   # gap -5
        assert weight(30, 25) == 1.0                    # gap 5
        assert weight(28, 30) == 1.0                    # gap -2

    def test_married_rate_within_3_sigma(self):
        store, _, params = build(initial_pop=20_000, seed=3)
        adult_males = [p for p in store.persons.values()
                       if p.gender is Gender.MALE and p.age_steps >= store.adult_age_steps]
        married = sum(1 for p in adult_males if p.married)
        n = len(adult_males)
        rate = params.start_married_rate
        sigma = math.sqrt(rate * (1 - rate) / n)
        assert abs(married / n - rate) < 3 * sigma

    def test_all_couples_adult_and_cross_gender(self):
        store, _, _ = build(initial_pop=3000, seed=4)
        for p in store.persons.values():
            if p.married:
                q = store.persons[p.partner]
                assert p.gender is not q.gender
                assert min(p.age_steps, q.age_steps) >= store.adult_age_steps

    def test_pool_exhaustion_leaves_singles(self, caplog):
        # Overwhelmingly male store: many selected men find no wife.
        store = PopulationStore(12)
        for _ in range(50):
            store.spawn_person(Gender.MALE, 30 * 12)
        for _ in range(5):
            store.spawn_person(Gender.FEMALE, 30 * 12)
        params = ModelParameters(start_married_rate=1.0)
        with caplog.at_level(logging.WARNING):
            init_partnerships(store, params, make_rng(5))
        married_males = sum(1 for p in store.persons.values()
                            if p.gender is Gender.MALE and p.married)
        assert married_males == 5
        assert any("exhausted" in r.message for r in caplog.records)


class TestChildren:
    @staticmethod
    def candidate_qualifies(man_age, wife_age, child_age):
        return (min(man_age, wife_age) >= child_age + 18 + 9 / 12
                and wife_age < 45 + child_age)

    def test_hand_cases(self):
        assert self.candidate_qualifies(40, 38, 10)       # min 38 >= 28.75, 38 < 55
        assert not self.candidate_qualifies(40, 56, 10)   # 56 >= 55 fails

    def test_no_minor_without_parents(self):
        store, _, _ = build(initial_pop=3000, seed=6)
        for p in store.persons.values():
            if p.age_steps < store.adult_age_steps:
                assert p.father is not None and p.mother is not None
                dad, mum = store.persons[p.father], store.persons[p.mother]
                assert dad.married and dad.partner == mum.id

    def test_parents_satisfy_age_bounds_or_warned(self, caplog):
        store, _, _ = build(initial_pop=3000, seed=7)
        n = store.steps_per_year
        violations = 0
        for p in store.persons.values():
            if p.age_steps < store.adult_age_steps:
                dad, mum = store.persons[p.father], store.persons[p.mother]
                if not self.candidate_qualifies(dad.age_steps / n, mum.age_steps / n,
                                                p.age_steps / n):
                    violations += 1
        # The fallback path is allowed but should be rare at this size.
        assert violations < 0.02 * len(store.persons)

    def test_fallback_closest_couple(self, caplog):
        # One couple, too young for the child's bound: fallback must still parent.
        store = PopulationStore(12)
        m = store.spawn_person(Gender.MALE, 25 * 12)
        f = store.spawn_person(Gender.FEMALE, 24 * 12)
        store.wed(m, f)
        child = store.spawn_person(Gender.FEMALE, 10 * 12)
        with caplog.at_level(logging.WARNING):
            init_children(store, make_rng(8))
        assert store.persons[child].father == m
        assert store.persons[child].mother == f
        assert any("closest couple" in r.message for r in caplog.records)

    def test_no_couples_weds_oldest_pair(self, caplog):
        store = PopulationStore(12)
        store.spawn_person(Gender.MALE, 40 * 12)
        old_m = store.spawn_person(Gender.MALE, 60 * 12)
        old_f = store.spawn_person(Gender.FEMALE, 58 * 12)
        child = store.spawn_person(Gender.MALE, 3 * 12)
        with caplog.at_level(logging.WARNING):
            init_children(store, make_rng(9))
        assert store.persons[child].father == old_m
        assert store.persons[child].mother == old_f

    def test_impossible_raises(self):
        store = PopulationStore(12)
        store.spawn_person(Gender.MALE, 40 * 12)
        store.spawn_person(Gender.MALE, 3 * 12)  # minor, no possible couple
        with pytest.raises(InitializationError):
            init_children(store, make_rng(10))

    def test_no_initial_grandparenthood(self):
        store, _, _ = build(initial_pop=3000, seed=12)
        for p in store.persons.values():
            for c in p.children:
                assert not store.persons[c].children


class TestHousing:
    def test_every_alive_person_housed(self):
        store, space, _ = build(initial_pop=2000, seed=13)
        assert all(p.house is not None for p in store.persons.values() if p.alive)

    def test_no_initial_house_empty(self):
        store, space, _ = build(initial_pop=2000, seed=14)
        assert all(space.residents)

    def test_families_share_one_house_singles_alone(self):
        store, space, _ = build(initial_pop=2000, seed=15)
        for p in store.persons.values():
            if p.gender is Gender.MALE and p.married:
                wife = store.persons[p.partner]
                assert wife.house == p.house
                for c in p.children:
                    child = store.persons[c]
                    if child.age_steps < store.adult_age_steps and child.unmarried:
                        assert child.house == p.house
            elif p.unmarried and p.age_steps >= store.adult_age_steps:
                assert space.residents[p.house] == {p.id}

    def test_town_targets_respected_for_singles(self):
        store, space, _ = build(initial_pop=2000, seed=16)
        targets = init_town_populations(2000, space)
        populated_towns = {space.house_town(p.house) for p in store.persons.values()}
        assert populated_towns <= set(targets)


class TestFullSweep:
    def test_initial_state_passes_all_invariants(self):
        store, space, _ = build(initial_pop=2000, seed=17)
        assert collect_invariant_violations(store, space) == []

    def test_everyone_single_or_married(self):
        store, _, _ = build(initial_pop=2000, seed=18)
        assert all(p.marital_status in (MaritalStatus.SINGLE, MaritalStatus.MARRIED)
                   for p in store.persons.values())


# -- the per-person loops the bulk initialization replaced, as references ----


def reference_partnerships(store, params, rng):
    """One groom at a time: candidate subset, per-candidate weights, wedding."""
    n = store.steps_per_year
    size = store.size
    adult = store.alive_arr[:size] & (store.age_steps_arr[:size] >= store.adult_age_steps)
    adult_males = np.flatnonzero(adult & store.male_arr[:size])
    picks = rng.random(len(adult_males)) < params.start_married_rate
    selected = adult_males[picks].tolist()
    rng.shuffle(selected)
    pool_ids = np.flatnonzero(adult & ~store.male_arr[:size])
    pool_ages = store.age_steps_arr[pool_ids] / n
    live = len(pool_ids)
    n_cand = max(params.max_num_marr_cand, math.ceil(live / 10))
    for m in selected:
        if live == 0:
            break
        cand = rng.choice(live, size=min(n_cand, live), replace=False)
        weights = age_compatibility_array(store.age_steps_arr[m] / n, pool_ages[cand])
        j = int(weighted_sample(rng, cand, weights))
        store.wed(m, int(pool_ids[j]))
        live -= 1
        pool_ids[j] = pool_ids[live]
        pool_ages[j] = pool_ages[live]


def reference_children(store, rng):
    """One child at a time, in id order: one scalar draw among the couples
    that qualify for the child's age, or the fallback couple with a warning."""
    n = store.steps_per_year
    size = store.size
    men = np.flatnonzero(store.male_arr[:size] & (store.status_arr[:size] == MARRIED_CODE))
    wife_age = store.age_steps_arr[store.partner_arr[men]]
    min_age = np.minimum(store.age_steps_arr[men], wife_age)
    for child in np.flatnonzero(store.age_steps_arr[:size] < store.adult_age_steps).tolist():
        a = int(store.age_steps_arr[child])
        cand = np.flatnonzero((min_age >= a + 18.75 * n) & (wife_age < 45 * n + a))
        if len(cand):
            father = int(men[cand[int(rng.integers(len(cand)))]])
        else:
            father = int(men[np.argmax(min_age)])
            logging.getLogger("gridpop.initialization").warning(
                "no qualifying parents for child %d (age %.2f); assigning closest couple",
                child, a / n)
        store.father_arr[child] = father
        store.mother_arr[child] = store.partner_arr[father]


def reference_housing(store, space, cells, rng):
    """One head at a time through the empty-house lookup, then the dependents."""
    n = store.size
    male = store.male_arr[:n]
    married = store.status_arr[:n] == MARRIED_CODE
    adult = store.age_steps_arr[:n] >= store.adult_age_steps
    for pid in np.flatnonzero((male & married) | (~married & adult)).tolist():
        space.move_person(store, pid, space.find_or_create_empty_house(int(cells[pid]), rng))
    for pid in np.flatnonzero((~male & married) | (~married & ~adult)).tolist():
        head = store.partner_arr[pid] if married[pid] else store.father_arr[pid]
        space.move_person(store, pid, int(store.house_arr[head]))


def staged(initial_pop, clock, seed):
    """The state build_initial_state hands to init_partnerships."""
    params = ModelParameters(initial_pop=initial_pop)
    store, space, rng = PopulationStore(clock.steps_per_year), Space(), make_rng(seed)
    targets = init_town_populations(initial_pop, space)
    pids = list(range(store.add_rows(initial_pop), store.size))
    store.alive_arr[pids] = True
    cells = np.array([cell_of(town) for town in space.inhabitable_towns
                      for _ in range(targets[town])])
    init_ages_and_genders(store, pids, clock, rng)
    return store, space, params, cells, rng


def state_of(store, space, rng):
    n, h = store.size, space.house_count
    arrays = {name: getattr(store, name)[:n].tolist() for name in (
        "partner_arr", "father_arr", "mother_arr", "house_arr", "status_arr")}
    arrays.update({name: getattr(space, name)[:h].tolist() for name in (
        "town_cell", "local_x", "local_y")})
    arrays["residents"] = space.residents
    arrays["tallies"] = store.alive_tallies()
    arrays["occupied"] = space.occupied_house_count
    arrays["rng"] = rng.bit_generator.state
    return arrays


def distinct_bride_ages_and_subset_size(store, params):
    n = store.size
    women = (store.alive_arr[:n] & ~store.male_arr[:n]
             & (store.age_steps_arr[:n] >= store.adult_age_steps))
    distinct = len(np.unique(store.age_steps_arr[:n][women]))
    return distinct, max(params.max_num_marr_cand, math.ceil(np.count_nonzero(women) / 10))


class TestBulkEqualsReference:
    @pytest.mark.parametrize("clock, initial_pop, seed, cached", [
        (ClockSpec.custom(1), 2000, 1, True),
        (ClockSpec.custom(1), 6000, 2, True),  # over 1024 houses: the arrays grow
        (ClockSpec.monthly(), 2000, 3, False),
        (ClockSpec.weekly(), 1500, 4, False),
    ])
    def test_same_state_and_draws(self, clock, initial_pop, seed, cached):
        store, space, params, cells, rng = staged(initial_pop, clock, seed)
        distinct, subset = distinct_bride_ages_and_subset_size(store, params)
        # Both init_partnerships branches: cached weight rows, per-candidate weights.
        assert (distinct <= subset) is cached
        init_partnerships(store, params, rng)
        init_children(store, rng)
        init_housing(store, space, cells, rng)

        ref_store, ref_space, _, _, ref_rng = staged(initial_pop, clock, seed)
        reference_partnerships(ref_store, params, ref_rng)
        reference_children(ref_store, ref_rng)
        reference_housing(ref_store, ref_space, cells, ref_rng)
        ref_store.recount()
        assert state_of(store, space, rng) == state_of(ref_store, ref_space, ref_rng)
        assert collect_invariant_violations(store, space) == []

    def test_fallback_couple_and_warnings(self, caplog):
        def family():
            store = PopulationStore(12)
            young = store.spawn_person(Gender.MALE, 25 * 12)
            store.wed(young, store.spawn_person(Gender.FEMALE, 24 * 12))
            old = store.spawn_person(Gender.MALE, 70 * 12)
            store.wed(old, store.spawn_person(Gender.FEMALE, 60 * 12))
            # Ages 0-5 fit the young couple, 16-17 the old one, 6-15 neither.
            for years in (3, 10, 16, 0, 7, 17, 5, 12, 3, 16):
                store.spawn_person(Gender.FEMALE, years * 12 + 4)
            return store

        rng, ref_rng = make_rng(21), make_rng(21)
        store, ref_store = family(), family()
        with caplog.at_level(logging.WARNING):
            init_children(store, rng)
        bulk_warnings = [r.getMessage() for r in caplog.records]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            reference_children(ref_store, ref_rng)
        assert bulk_warnings == [r.getMessage() for r in caplog.records]
        assert len(bulk_warnings) == 4
        assert state_of(store, Space(), rng) == state_of(ref_store, Space(), ref_rng)


class TestBulkChecks:
    @staticmethod
    def couple_and_minors(store):
        m = store.spawn_person(Gender.MALE, 40 * 12)
        f = store.spawn_person(Gender.FEMALE, 38 * 12)
        store.wed(m, f)
        return m, f

    def test_child_with_parents_rejected_before_any_write(self, store):
        m, f = self.couple_and_minors(store)
        orphan = store.spawn_person(Gender.MALE, 5 * 12)
        store.spawn_person(Gender.FEMALE, 8 * 12, father=m, mother=f)
        with pytest.raises(ValueError, match="already has parents"):
            init_children(store, make_rng(1))
        assert store.father_arr[orphan] == -1 and store.mother_arr[orphan] == -1

    def test_parent_genders_checked(self, store):
        m, f = self.couple_and_minors(store)
        child = np.array([store.spawn_person(Gender.MALE, 5 * 12)])
        with pytest.raises(ValueError, match=f"father {f} is not male"):
            store.assign_parents(child, np.array([f]), np.array([f]))
        with pytest.raises(ValueError, match=f"mother {m} is not female"):
            store.assign_parents(child, np.array([m]), np.array([m]))
        assert store.father_arr[child[0]] == -1

    def test_same_gender_couple_gives_no_mother(self, store):
        # A corrupted store: two men recorded as married to each other.
        a = store.spawn_person(Gender.MALE, 40 * 12)
        b = store.spawn_person(Gender.MALE, 38 * 12)
        store.status_arr[[a, b]] = MARRIED_CODE
        store.partner_arr[[a, b]] = [b, a]
        store.spawn_person(Gender.FEMALE, 5 * 12)
        with pytest.raises(ValueError, match="is not female"):
            init_children(store, make_rng(2))

    def test_uninhabitable_town_rejected_in_bulk(self):
        space, rng = Space(), make_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"town \(1, 1\) is not inhabitable"):
            space.new_houses(np.array([cell_of((4, 3)), cell_of((1, 1)), cell_of((4, 3))]), rng)
        with pytest.raises(ValueError, match=r"cell 97 lies off the 12x8 grid"):
            space.new_houses(np.array([cell_of((13, 2))]), rng)
        with pytest.raises(ValueError, match=r"cell -1 lies off the 12x8 grid"):
            space.new_houses(np.array([cell_of((4, 3)), -1]), rng)
        assert space.house_count == 0 and rng.bit_generator.state == state

    def test_housing_rejects_uninhabitable_town(self):
        store, space, params, cells, rng = staged(200, ClockSpec.monthly(), 5)
        init_partnerships(store, params, rng)
        init_children(store, rng)
        cells[:] = cell_of((1, 1))
        with pytest.raises(ValueError, match=r"town \(1, 1\) is not inhabitable"):
            init_housing(store, space, cells, rng)

    def test_housing_needs_no_vacancy_and_no_one_housed(self):
        store, space, params, cells, rng = staged(200, ClockSpec.monthly(), 6)
        init_partnerships(store, params, rng)
        init_children(store, rng)
        space.new_houses(cell_of((4, 3)), rng)
        with pytest.raises(ValueError, match="vacant"):
            init_housing(store, space, cells, rng)
        space.add_residents(np.array([0]), np.array([0]))
        store.house_arr[0] = 0
        with pytest.raises(ValueError, match="unhoused"):
            init_housing(store, space, cells, rng)
