"""Initial-state construction: quotas, distributions, couples, children, housing."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import subset_pick_law
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
    STATUSES,
    Gender,
    MaritalStatus,
    PopulationStore,
    collect_invariant_violations,
)
from gridpop.space import Space, cell_of
from gridpop.stochastics import ClockSpec, make_rng


def build(initial_pop=2000, seed=11, **param_overrides):
    params = ModelParameters(initial_pop=initial_pop, **param_overrides)
    store = PopulationStore(12)
    space = Space()
    build_initial_state(store, space, params, make_rng(seed))
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
        n = store.size
        males = int(np.count_nonzero(store.male_arr[:n]))
        sigma = math.sqrt(0.25 / n)
        assert abs(males / n - 0.5) < 3 * sigma
        mean_age = store.alive_age_steps_sum / n / store.steps_per_year
        assert abs(mean_age - 25 * math.sqrt(2 / math.pi)) < 0.35

    def test_ages_non_negative_step_multiples(self):
        store, _, _ = build(initial_pop=500, seed=2)
        assert (store.age_steps_arr[:store.size] >= 0).all()


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
        size = store.size
        adult_males = store.male_arr[:size] & (store.age_steps_arr[:size]
                                               >= store.adult_age_steps)
        married = int(np.count_nonzero(adult_males
                                       & (store.status_arr[:size] == MARRIED_CODE)))
        n = int(np.count_nonzero(adult_males))
        rate = params.start_married_rate
        sigma = math.sqrt(rate * (1 - rate) / n)
        assert abs(married / n - rate) < 3 * sigma

    def test_all_couples_adult_and_cross_gender(self):
        store, _, _ = build(initial_pop=3000, seed=4)
        married = np.flatnonzero(store.status_arr[:store.size] == MARRIED_CODE)
        partners = store.partner_arr[married]
        assert (partners >= 0).all()
        assert (store.male_arr[married] != store.male_arr[partners]).all()
        assert (np.minimum(store.age_steps_arr[married], store.age_steps_arr[partners])
                >= store.adult_age_steps).all()

    def test_bride_law_is_the_weighted_pick_from_a_uniform_subset(self):
        stats = pytest.importorskip("scipy.stats")
        # One groom, seven women; with max_num_marr_cand = 3 each draw is
        # a uniform 3-subset of the women, weighted by age compatibility.
        groom_years, bride_years = 40, np.array([28, 33, 36, 38, 41, 45, 52])
        params = ModelParameters(start_married_rate=1.0, max_num_marr_cand=3)
        law = subset_pick_law(age_compatibility_array(groom_years, bride_years / 1.0), 3)
        trials, counts = 1500, np.zeros(len(bride_years), dtype=int)
        for seed in range(trials):
            store = PopulationStore(12)
            groom = store.spawn_person(Gender.MALE, groom_years * 12)
            brides = [store.spawn_person(Gender.FEMALE, y * 12) for y in bride_years.tolist()]
            init_partnerships(store, params, make_rng(seed))
            counts[brides.index(store.partner_arr[groom])] += 1
        # One test, so the Bonferroni bound of the father draw's law test is 0.01.
        assert stats.chisquare(counts, trials * law).pvalue > 0.01

    def test_bride_law_at_the_pool_edge(self):
        stats = pytest.importorskip("scipy.stats")
        # Two grooms, five women and max_num_marr_cand = 5: each subset is
        # the whole remaining pool, so each groom's pick is weighted over
        # every woman left, and a lazy draw reveals all of them.
        groom_years, bride_years = [30, 40], np.array([24, 29, 34, 38, 45])
        params = ModelParameters(start_married_rate=1.0, max_num_marr_cand=5)
        w = [age_compatibility_array(g, bride_years / 1.0) for g in groom_years]
        women = range(len(bride_years))
        pairs = [(a, b) for a in women for b in women if a != b]

        def p_pick(groom, bride, gone):
            return w[groom][bride] / (w[groom].sum() - sum(w[groom][g] for g in gone))

        # Either groom picks first, with probability 1/2 each.
        law = np.array([(p_pick(0, a, []) * p_pick(1, b, [a])
                         + p_pick(1, b, []) * p_pick(0, a, [b])) / 2 for a, b in pairs])
        trials, counts = 4000, np.zeros(len(pairs), dtype=int)
        for seed in range(trials):
            store = PopulationStore(12)
            grooms = [store.spawn_person(Gender.MALE, y * 12) for y in groom_years]
            brides = [store.spawn_person(Gender.FEMALE, y * 12) for y in bride_years.tolist()]
            init_partnerships(store, params, make_rng(seed))
            counts[pairs.index(tuple(brides.index(store.partner_arr[g]) for g in grooms))] += 1
        assert stats.chisquare(counts, trials * law).pvalue > 0.01

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
        married_males = int(np.count_nonzero(store.male_arr[:store.size]
                                             & (store.status_arr[:store.size] == MARRIED_CODE)))
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
        minors = np.flatnonzero(store.age_steps_arr[:store.size] < store.adult_age_steps)
        dads, mums = store.father_arr[minors], store.mother_arr[minors]
        assert (dads >= 0).all() and (mums >= 0).all()
        assert (store.status_arr[dads] == MARRIED_CODE).all()
        assert (store.partner_arr[dads] == mums).all()

    def test_parents_satisfy_age_bounds_or_warned(self, caplog):
        store, _, _ = build(initial_pop=3000, seed=7)
        n = store.steps_per_year
        age = store.age_steps_arr
        violations = 0
        for pid in np.flatnonzero(age[:store.size] < store.adult_age_steps).tolist():
            dad, mum = store.father_arr[pid], store.mother_arr[pid]
            assert dad >= 0 and mum >= 0
            if not self.candidate_qualifies(age[dad] / n, age[mum] / n, age[pid] / n):
                violations += 1
        # The fallback path is allowed but should be rare at this size.
        assert violations < 0.02 * store.size

    def test_fallback_closest_couple(self, caplog):
        # One couple, too young for the child's bound: fallback must still parent.
        store = PopulationStore(12)
        m = store.spawn_person(Gender.MALE, 25 * 12)
        f = store.spawn_person(Gender.FEMALE, 24 * 12)
        store.wed(m, f)
        child = store.spawn_person(Gender.FEMALE, 10 * 12)
        with caplog.at_level(logging.WARNING):
            init_children(store, make_rng(8))
        assert store.father_arr[child] == m
        assert store.mother_arr[child] == f
        assert any("closest couple" in r.message for r in caplog.records)

    def test_no_couples_weds_oldest_pair(self, caplog):
        store = PopulationStore(12)
        store.spawn_person(Gender.MALE, 40 * 12)
        old_m = store.spawn_person(Gender.MALE, 60 * 12)
        old_f = store.spawn_person(Gender.FEMALE, 58 * 12)
        child = store.spawn_person(Gender.MALE, 3 * 12)
        with caplog.at_level(logging.WARNING):
            init_children(store, make_rng(9))
        assert store.father_arr[child] == old_m
        assert store.mother_arr[child] == old_f

    def test_impossible_raises(self):
        store = PopulationStore(12)
        store.spawn_person(Gender.MALE, 40 * 12)
        store.spawn_person(Gender.MALE, 3 * 12)  # minor, no possible couple
        with pytest.raises(InitializationError):
            init_children(store, make_rng(10))

    def test_fathers_uniform_over_qualifying_couples(self):
        stats = pytest.importorskip("scipy.stats")
        # Twelve couples (husband, wife) and four children at each of five ages.
        couples = [(24, 22), (25, 26), (30, 28), (31, 32), (36, 34), (37, 38),
                   (44, 42), (46, 47), (53, 52), (54, 55), (62, 58), (66, 64)]
        child_years = (4, 8, 12, 14, 16)
        qualifying, lo_used = {}, []
        for a in child_years:
            qualifying[a] = {i for i, (h, w) in enumerate(couples)
                             if self.candidate_qualifies(h, w, a + 5 / 12)}
            lo_range = sum(w < 45 + a + 5 / 12 for _, w in couples)
            hi_range = sum(min(h, w) >= a + 5 / 12 + 18.75 for h, w in couples)
            # Each age draws from a range holding couples that do not qualify.
            assert len(qualifying[a]) >= 2
            assert len(qualifying[a]) < min(lo_range, hi_range)
            lo_used.append(lo_range <= hi_range)
        assert any(lo_used) and not all(lo_used)  # both ranges are drawn from

        counts = {a: np.zeros(len(couples), dtype=int) for a in child_years}
        for seed in range(2000):
            store = PopulationStore(12)
            men = [store.spawn_person(Gender.MALE, h * 12) for h, _ in couples]
            for m, (_, w) in zip(men, couples):
                store.wed(m, store.spawn_person(Gender.FEMALE, w * 12))
            children = {store.spawn_person(Gender.FEMALE, a * 12 + 5): a
                        for _ in range(4) for a in child_years}
            init_children(store, make_rng(seed))
            for child, a in children.items():
                counts[a][men.index(store.father_arr[child])] += 1
        pvalues = []
        for a in child_years:
            drawn = set(np.flatnonzero(counts[a]).tolist())
            assert drawn == qualifying[a]
            pvalues.append(stats.chisquare(counts[a][sorted(drawn)]).pvalue)
        assert min(pvalues) * len(pvalues) > 0.01

    @pytest.mark.parametrize("clock, max_age", [("monthly", 37), ("daily", 36.5)])
    def test_capped_initial_ages_need_few_rounds(self, clock, max_age):
        # With every adult under 37, few couples can parent a 17-year-old:
        # the draw must come from the small hi range, not the lo range.
        store, _, params, _, rng = staged(20_000, ClockSpec.parse(clock), 19,
                                          max_age_years=max_age)
        init_partnerships(store, params, rng)

        class CountingRng:
            draws = 0

            def integers(self, *args):
                self.draws += 1
                return rng.integers(*args)

        counting = CountingRng()
        init_children(store, counting)
        assert 1 <= counting.draws <= 10

    def test_no_initial_grandparenthood(self):
        store, _, _ = build(initial_pop=3000, seed=12)
        offsets, kids = store.children_index()
        assert not np.diff(offsets)[kids].any()  # no child has children


class TestHousing:
    def test_every_alive_person_housed(self):
        store, space, _ = build(initial_pop=2000, seed=13)
        n = store.size
        assert (store.house_arr[:n][store.alive_arr[:n]] >= 0).all()

    def test_no_initial_house_empty(self):
        store, space, _ = build(initial_pop=2000, seed=14)
        assert all(space.residents)

    def test_families_share_one_house_singles_alone(self):
        store, space, _ = build(initial_pop=2000, seed=15)
        offsets, kids = store.children_index()
        house, age = store.house_arr, store.age_steps_arr
        married = store.status_arr == MARRIED_CODE
        for pid in range(store.size):
            if store.male_arr[pid] and married[pid]:
                assert house[store.partner_arr[pid]] == house[pid]
                for c in kids[offsets[pid]:offsets[pid + 1]]:
                    if age[c] < store.adult_age_steps and not married[c]:
                        assert house[c] == house[pid]
            elif not married[pid] and age[pid] >= store.adult_age_steps:
                assert space.residents[house[pid]] == {pid}

    def test_town_targets_respected_for_singles(self):
        store, space, _ = build(initial_pop=2000, seed=16)
        targets = init_town_populations(2000, space)
        populated_towns = {space.house_town(h) for h in store.house_arr[:store.size].tolist()}
        assert populated_towns <= set(targets)


class TestFullSweep:
    def test_initial_state_passes_all_invariants(self):
        store, space, _ = build(initial_pop=2000, seed=17)
        assert collect_invariant_violations(store, space) == []

    def test_everyone_single_or_married(self):
        store, _, _ = build(initial_pop=2000, seed=18)
        assert all(STATUSES[code] in (MaritalStatus.SINGLE, MaritalStatus.MARRIED)
                   for code in store.status_arr[:store.size].tolist())

    @pytest.mark.parametrize("clock, married_rate", [
        ("monthly", 0.8), ("daily", 0.8), ("hourly", 0.8), ("custom:1", 0.8),
        ("monthly", 0.0),  # no couple: init_children weds the oldest single pair
    ])
    def test_a_build_counts_once(self, monkeypatch, clock, married_rate):
        sweeps = []
        kin_counts = PopulationStore._kin_counts

        def spy(store):
            sweeps.append(store.size)
            return kin_counts(store)

        monkeypatch.setattr(PopulationStore, "_kin_counts", spy)
        store = PopulationStore(ClockSpec.parse(clock).steps_per_year)
        params = ModelParameters(initial_pop=600, start_married_rate=married_rate)
        build_initial_state(store, Space(), params, make_rng(19))
        assert sweeps == [600]
        if married_rate == 0:  # the fallback couple alone
            assert store.alive_status_counts[STATUSES.index(MaritalStatus.MARRIED)] == 2
        for name, value in store.alive_tallies().items():
            assert getattr(store, name) == value, name
        assert store.kin_count_problems() == []
        store.oldest_age()  # builds the birth order, to be checked
        assert store.birth_order_problems() == []


# -- the per-person loops the bulk initialization replaced, as references ----


def reference_partnerships(store, params, rng):
    """One groom at a time, one trial per loop iteration. A trial draws a
    uniform slot of the groom's k-subset; a slot past the members touched
    so far stands for an untouched member, a uniform pool position not
    yet touched. The trial weds the member with probability its age
    compatibility."""
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
        k = min(n_cand, live)
        touched = []
        wed = False
        while not wed:
            slot = int(rng.random() * k)
            if slot >= len(touched):
                position = int(rng.random() * live)
                while position in touched:
                    position = int(rng.random() * live)
                touched.append(position)
                slot = len(touched) - 1
            j = touched[slot]
            wed = rng.random() < age_compatibility_array(store.age_steps_arr[m] / n, pool_ages[j])
        store.wed(m, int(pool_ids[j]))
        live -= 1
        pool_ids[j] = pool_ids[live]
        pool_ages[j] = pool_ages[live]


def reference_children(store, rng):
    """Round by round, each child still unparented, in id order, makes one
    scalar draw from the smaller of its two ranges of couples (the lo range
    on a tie) and keeps the couple if it qualifies for the child's age. A
    child with no qualifying couple gets the fallback couple with a warning.

    A couple counts when it qualifies for some age (lo < hi). The lo range
    is the counting couples whose wife is under 45 + the child's age, in
    order of (lo, index); the hi range those whose spouses are both at
    least 18.75 years older, in order of (-hi, index)."""
    n = store.steps_per_year
    size = store.size
    men = np.flatnonzero(store.male_arr[:size] & (store.status_arr[:size] == MARRIED_CODE))
    wife_age = store.age_steps_arr[store.partner_arr[men]]
    min_age = np.minimum(store.age_steps_arr[men], wife_age)
    lo, hi = wife_age - 45 * n, np.floor(min_age - 18.75 * n)
    index = np.arange(len(men))
    pending = []
    for child in np.flatnonzero(store.age_steps_arr[:size] < store.adult_age_steps).tolist():
        a = int(store.age_steps_arr[child])
        if ((min_age >= a + 18.75 * n) & (wife_age < 45 * n + a)).any():
            pending.append(child)
        else:
            father = int(men[np.argmax(min_age)])
            logging.getLogger("gridpop.initialization").warning(
                "no qualifying parents for child %d (age %.2f); assigning closest couple",
                child, a / n)
            store.father_arr[child] = father
            store.mother_arr[child] = store.partner_arr[father]
    while pending:
        unparented = []
        for child in pending:
            a = int(store.age_steps_arr[child])
            lo_range = np.flatnonzero((lo < hi) & (wife_age < 45 * n + a))
            lo_range = lo_range[np.lexsort((index[lo_range], lo[lo_range]))]
            hi_range = np.flatnonzero((lo < hi) & (min_age >= a + 18.75 * n))
            hi_range = hi_range[np.lexsort((index[hi_range], -hi[hi_range]))]
            candidates = lo_range if len(lo_range) <= len(hi_range) else hi_range
            c = int(candidates[int(rng.integers(len(candidates)))])
            if min_age[c] >= a + 18.75 * n and wife_age[c] < 45 * n + a:
                store.father_arr[child] = men[c]
                store.mother_arr[child] = store.partner_arr[men[c]]
            else:
                unparented.append(child)
        pending = unparented


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


def staged(initial_pop, clock, seed, **ages):
    """The state build_initial_state hands to init_partnerships."""
    params = ModelParameters(initial_pop=initial_pop)
    store, space, rng = PopulationStore(clock.steps_per_year), Space(), make_rng(seed)
    targets = init_town_populations(initial_pop, space)
    pids = list(range(store.add_rows(initial_pop), store.size))
    store.alive_arr[pids] = True
    cells = np.array([cell_of(town) for town in space.inhabitable_towns
                      for _ in range(targets[town])])
    init_ages_and_genders(store, pids, rng, **ages)
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


BULK_ROWS = [
    (ClockSpec(1), 2000, 1),
    (ClockSpec(1), 6000, 2),  # over 1024 houses: the arrays grow
    (ClockSpec.parse("monthly"), 2000, 3),
    (ClockSpec.parse("weekly"), 1500, 4),
    # Fine and custom clocks: nearly every child age is distinct, and
    # 18.75 years is a fractional number of steps on daily and custom:3.
    (ClockSpec.parse("daily"), 1500, 5),
    (ClockSpec.parse("daily"), 1500, 6),
    (ClockSpec.parse("hourly"), 1000, 7),
    (ClockSpec.parse("hourly"), 1000, 8),
    (ClockSpec.parse("custom:3"), 2000, 9),
    (ClockSpec.parse("custom:3"), 2000, 10),
]


class TestBulkEqualsReference:
    # An id ends in whether the clock is annual, so each row keeps the
    # id it has always had.
    @pytest.mark.parametrize("clock, initial_pop, seed", BULK_ROWS, ids=[
        f"clock{i}-{pop}-{seed}-{clock.steps_per_year == 1}"
        for i, (clock, pop, seed) in enumerate(BULK_ROWS)])
    def test_same_state_and_draws(self, clock, initial_pop, seed):
        store, space, params, cells, rng = staged(initial_pop, clock, seed)
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


class captured_warnings(logging.Handler):
    """The messages the initialization logs inside a with block."""

    def __enter__(self):
        self.messages = []
        self.logger = logging.getLogger("gridpop.initialization")
        self.level = self.logger.level
        self.logger.setLevel(logging.WARNING)
        self.logger.addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        self.logger.removeHandler(self)
        self.logger.setLevel(self.level)

    def emit(self, record):
        self.messages.append(record.getMessage())


def children_by_both(make_store, seed):
    """init_children and reference_children on two copies of a store: the
    fathers, mothers, generator states and warnings of each."""
    results = []
    for assign in (init_children, reference_children):
        store, rng = make_store(), make_rng(seed)
        with captured_warnings() as messages:
            assign(store, rng)
        n = store.size
        results.append((store.father_arr[:n].tolist(), store.mother_arr[:n].tolist(),
                        rng.bit_generator.state, messages))
    return results


class TestChildrenIntervals:
    """Couple c qualifies for the child ages a with lo_c < a <= hi_c."""

    @pytest.mark.parametrize("n", [12, 8760])
    def test_boundary_couples(self, n):
        a = 5 * n + 3
        bound = int(a + 18.75 * n)  # an integer number of steps on these clocks
        assert bound == a + 18.75 * n

        def family():
            store = PopulationStore(n)
            couples = {}
            for name, husband, wife in (
                    ("min age on the bound", bound + 4 * n, bound),
                    ("min age a step below", bound + 4 * n, bound - 1),
                    ("wife a step under 45n + a", 45 * n + a + n, 45 * n + a - 1),
                    ("wife at 45n + a", 45 * n + a + n, 45 * n + a)):
                m = store.spawn_person(Gender.MALE, husband)
                store.wed(m, store.spawn_person(Gender.FEMALE, wife))
                couples[name] = m
            for _ in range(30):
                store.spawn_person(Gender.FEMALE, a)
            return store, couples

        bulk, ref = children_by_both(lambda: family()[0], seed=31)
        assert bulk == ref
        _, couples = family()
        fathers = set(bulk[0][8:])
        assert fathers == {couples["min age on the bound"], couples["wife a step under 45n + a"]}
        assert bulk[3] == []

    def test_empty_interval_counts_nothing(self):
        # lo >= hi: the old wife bars every age the young husband allows.
        # Were it counted, it would take one from every count at the ages in
        # (hi, lo], here 12 to 17 years.
        def family():
            store = PopulationStore(12)
            young = store.spawn_person(Gender.MALE, 30 * 12)
            store.wed(young, store.spawn_person(Gender.FEMALE, 70 * 12))
            husband = store.spawn_person(Gender.MALE, 33 * 12 + 9)  # lo == hi == 180
            store.wed(husband, store.spawn_person(Gender.FEMALE, 60 * 12))
            for years in range(18):
                store.spawn_person(Gender.MALE, years * 12)
                other = store.spawn_person(Gender.MALE, 45 * 12)
                store.wed(other, store.spawn_person(Gender.FEMALE, 40 * 12 + years))
            for years in (12, 15, 17, 13, 16, 14, 15):
                store.spawn_person(Gender.FEMALE, years * 12 + 2)
            return store

        bulk, ref = children_by_both(family, seed=32)
        assert bulk == ref
        assert bulk[3] == []
        assert not {0, 2} & set(bulk[0])

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 3, 12, 52, 365, 8760]),
           couples=st.lists(st.tuples(st.integers(18, 90), st.integers(18, 90),
                                      st.integers(0, 1_000_000)), min_size=1, max_size=25),
           children=st.lists(st.tuples(st.integers(0, 17), st.integers(0, 1_000_000)),
                             min_size=1, max_size=40),
           seed=st.integers(0, 2**32))
    def test_random_stores_match_reference(self, n, couples, children, seed):
        def store_of():
            store = PopulationStore(n)
            for husband, wife, fraction in couples:
                m = store.spawn_person(Gender.MALE, husband * n + fraction % n)
                store.wed(m, store.spawn_person(Gender.FEMALE, wife * n + fraction // n % n))
            for years, fraction in children:
                store.spawn_person(Gender.FEMALE, years * n + fraction % n)
            return store

        bulk, ref = children_by_both(store_of, seed)
        assert bulk == ref


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

    def test_lowest_offending_parent_named(self, store):
        men = [store.spawn_person(Gender.MALE, 40 * 12) for _ in range(3)]
        women = [store.spawn_person(Gender.FEMALE, 38 * 12) for _ in range(3)]
        children = np.array([store.spawn_person(Gender.MALE, 5 * 12) for _ in range(4)])
        fathers = np.array([women[2], men[0], women[1], men[1]])
        mothers = np.array(women[:3] + [women[0]])
        with pytest.raises(ValueError, match=f"^father {women[1]} is not male$"):
            store.assign_parents(children, fathers, mothers)
        # An id that does not resolve is named when it is the lowest offender;
        # the first id past the end does not resolve either.
        with pytest.raises(ValueError, match="^father id -1 does not resolve$"):
            store.assign_parents(children, np.array([women[1], -1, men[0], men[0]]), mothers)
        high = store.size  # the first id past the end
        with pytest.raises(ValueError, match=f"^mother id {high} does not resolve$"):
            store.assign_parents(children, np.array(men + [men[0]]),
                                 np.array([women[0], high, women[1], women[2]]))
        assert (store.father_arr[children] == -1).all()
        assert (store.mother_arr[children] == -1).all()

    def test_bad_father_reported_before_bad_mother(self, store):
        m = store.spawn_person(Gender.MALE, 40 * 12)
        f = store.spawn_person(Gender.FEMALE, 38 * 12)
        late = store.spawn_person(Gender.FEMALE, 36 * 12)
        children = np.array([store.spawn_person(Gender.MALE, 5 * 12) for _ in range(2)])
        # The mother's offence has the lower id, the father's is reported.
        with pytest.raises(ValueError, match=f"^father {late} is not male$"):
            store.assign_parents(children, np.array([m, late]), np.array([m, f]))
        assert (store.father_arr[children] == -1).all()
        assert (store.mother_arr[children] == -1).all()

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
        store, space, params, cells, rng = staged(200, ClockSpec.parse("monthly"), 5)
        init_partnerships(store, params, rng)
        init_children(store, rng)
        cells[:] = cell_of((1, 1))
        with pytest.raises(ValueError, match=r"town \(1, 1\) is not inhabitable"):
            init_housing(store, space, cells, rng)

    def test_housing_needs_no_vacancy_and_no_one_housed(self):
        store, space, params, cells, rng = staged(200, ClockSpec.parse("monthly"), 6)
        init_partnerships(store, params, rng)
        init_children(store, rng)
        space.new_houses(cell_of((4, 3)), rng)
        with pytest.raises(ValueError, match="vacant"):
            init_housing(store, space, cells, rng)
        space.add_residents(np.array([0]), np.array([0]))
        store.house_arr[0] = 0
        with pytest.raises(ValueError, match="unhoused"):
            init_housing(store, space, cells, rng)
