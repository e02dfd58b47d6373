"""Initial-state construction: quotas, distributions, couples, children, housing."""

import logging
import math

import pytest

from gridpop.events import age_compatibility
from gridpop.initialization import (
    InitializationError,
    build_initial_state,
    init_children,
    init_partnerships,
    init_town_populations,
)
from gridpop.params import ModelParameters
from gridpop.population import (
    Gender,
    MaritalStatus,
    PopulationStore,
    collect_invariant_violations,
)
from gridpop.space import Space
from gridpop.stochastics import ClockSpec, make_rng


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
        assert all(space.inhabitable(k) for k in targets)
        assert (1, 1) not in targets

    def test_proportionality(self, space):
        targets = init_town_populations(100_000, space)
        # (8,4) has density 1.0 and (4,4) has 0.5: the quota ratio is 2 ± rounding.
        full = targets[(8, 4)]
        half = targets[(4, 4)]
        assert abs(full - 2 * half) <= 2
        # Quota for a density-1.0 cell is initial_pop / sum(density).
        total = space.density_total
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
        assert age_compatibility(30, 30) == 1.0
        assert age_compatibility(35, 25) == pytest.approx(1 / 6)   # gap 10
        assert age_compatibility(25, 30) == pytest.approx(1 / 4)   # gap -5
        assert age_compatibility(30, 25) == 1.0                    # gap 5
        assert age_compatibility(28, 30) == 1.0                    # gap -2

    def test_married_rate_within_3_sigma(self):
        store, _, params = build(initial_pop=20_000, seed=3)
        adult_males = [p for p in store.persons.values()
                       if p.gender is Gender.MALE and store.is_adult(p)]
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
                assert store.is_adult(p) and store.is_adult(q)

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
            elif p.unmarried and store.is_adult(p):
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
