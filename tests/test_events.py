"""The five per-step events: hazards, relocations, matching, merges."""

import math

import numpy as np
import pytest

from conftest import housed
from gridpop.events import (
    FERTILE_YEARS,
    HazardTables,
    StepEventLog,
    _thinned_hits,
    ageing_step,
    age_compatibility_array,
    births_step,
    children_factor_array,
    deaths_step,
    death_step_probability_array,
    death_yearly_probability_array,
    decade_yearly_probability_array,
    divorces_step,
    geo_factor_array,
    marriages_step,
    run_step,
)
from gridpop.initialization import build_initial_state
from gridpop.params import DataTables, FertilityTable, ModelParameters, SimulationConfig
from gridpop.population import (
    MARRIED_CODE,
    STATUSES,
    Gender,
    MaritalStatus,
    PopulationStore,
    collect_invariant_violations,
)
from gridpop.space import Space, cell_of
from gridpop.stochastics import ClockSpec, instantaneous_probability_array, make_rng

PARAMS = ModelParameters()
TABLES = DataTables()


def fresh():
    return PopulationStore(12), Space(), make_rng(77), StepEventLog()


def hazards(params=PARAMS, tables=TABLES, steps_per_year=12):
    return HazardTables(params, tables, steps_per_year)


def death_yearly(age_years, gender):
    """death_yearly_probability_array at one age."""
    return float(death_yearly_probability_array(
        np.array([age_years]), np.array([gender is Gender.MALE]), PARAMS)[0])


def divorce_yearly(age_steps, n):
    return float(decade_yearly_probability_array(
        np.array([age_steps]), n, PARAMS.basic_divorce_rate,
        TABLES.divorce_modifier_by_decade)[0])


def marriage_yearly(age_steps, n):
    return float(decade_yearly_probability_array(
        np.array([age_steps]), n, PARAMS.basic_male_marriage_rate,
        TABLES.male_marriage_modifier_by_decade)[0])


class TestHazardFormulas:
    def test_death_male_newborn(self):
        # 0.0001 + e^0 * 0.00021, evaluated independently.
        assert death_yearly(0.0, Gender.MALE) == pytest.approx(0.0001 + 0.00021, rel=1e-12)
        assert death_yearly(0.0, Gender.MALE) == pytest.approx(0.00031)

    def test_death_male_70(self):
        expected = 0.0001 + math.exp(70 / 14.0) * 0.00021
        got = death_yearly(70.0, Gender.MALE)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.031267, abs=5e-7)

    def test_death_female_70(self):
        expected = 0.0001 + math.exp(70 / 15.5) * 0.00019
        got = death_yearly(70.0, Gender.FEMALE)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.01748, abs=5e-6)

    def test_death_hazard_monotone_in_age(self):
        ages = np.arange(0, 111, dtype=float)
        for male in (True, False):
            probs = death_yearly_probability_array(ages, np.full(len(ages), male), PARAMS)
            assert np.all(probs[:-1] < probs[1:])

    def test_divorce_hazard_by_decade(self):
        n = 12
        assert divorce_yearly(25 * n, n) == pytest.approx(0.06 * 0.9)  # = 0.054
        assert divorce_yearly(35 * n, n) == pytest.approx(0.06 * 0.5)  # = 0.03
        assert divorce_yearly(135 * n, n) == 0.0

    def test_marriage_hazard_by_decade(self):
        n = 12
        assert marriage_yearly(25 * n, n) == pytest.approx(0.7 * 0.5)  # = 0.35
        assert marriage_yearly(19 * n, n) == pytest.approx(0.7 * 0.16)

    def test_geo_factor(self):
        got = geo_factor_array(np.array([0, 1, 18]))
        assert got[0] == 1.0
        assert got[1] == pytest.approx(math.exp(-4), rel=1e-12)
        assert got[2] == pytest.approx(math.exp(-72), rel=1e-12)

    def test_children_factor(self):
        assert children_factor_array(0, np.array([0.0]))[0] == 1.0
        got = children_factor_array(2, np.array([0.0, 3.0]))
        assert got[0] == pytest.approx(math.exp(-2), rel=1e-12)
        assert got[1] == pytest.approx(math.e, rel=1e-12)  # e^-2 e^-3 e^6
        got = children_factor_array(1, np.array([1.0]))
        assert got[0] == pytest.approx(math.exp(-1), rel=1e-12)
        # The exponent is capped, so huge families stay finite.
        assert np.isfinite(children_factor_array(100, np.array([100.0]))[0])

    def test_age_factor_table(self):
        cases = {0: 1.0, 5: 1.0, 10: 1 / 6, -2: 1.0, -5: 1 / 4}
        got = age_compatibility_array(40.0, 40.0 - np.array(list(cases), dtype=float))
        for value, expected in zip(got.tolist(), cases.values()):
            assert value == pytest.approx(expected, rel=1e-12)

    def test_age_factor_array_equals_scalar_exactly(self):
        def piecewise(age_m, age_f):
            """The rule one pair at a time, as an oracle."""
            diff = age_m - age_f
            if diff >= 5:
                return 1.0 / (diff - 4.0)
            if diff <= -2:
                return -1.0 / (diff + 1.0)
            return 1.0

        gaps = [-30.0, -7.25, -2.0001, -2.0, -1.9999, -1.5, -1.0, -0.25, 0.0, 3.5,
                3.9999, 4.0, 4.0001, 4.5, 4.9999, 5.0, 5.0001, 12.75, 60.0]
        for age_m in (40.0, 18.0 + 1 / 12, 73.5):
            ages_f = age_m - np.array(gaps)
            got = age_compatibility_array(age_m, ages_f)
            assert got.tolist() == [piecewise(age_m, f) for f in ages_f.tolist()]
        assert age_compatibility_array(40.0, np.array([])).shape == (0,)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestHazardTables:
    """Every table entry equals the array function on that input, bit for bit."""

    @pytest.mark.parametrize("n", [1, 12, 365])
    def test_decade_tables_equal_array_function(self, n):
        table = hazards(steps_per_year=n)
        decade = 10 * n
        ages = np.array(sorted({0, 1, *range(decade - 1, 180 * n, decade),
                                *range(decade, 180 * n, decade),
                                *range(decade + 1, 180 * n, decade), 250 * n}))
        rows = table.decade_rows(ages)
        assert set(rows.tolist()) == set(range(17))
        for rate, modifiers, looked_up in (
                (PARAMS.basic_divorce_rate, TABLES.divorce_modifier_by_decade, table.divorce),
                (PARAMS.basic_male_marriage_rate, TABLES.male_marriage_modifier_by_decade,
                 table.marriage)):
            direct = instantaneous_probability_array(
                decade_yearly_probability_array(ages, n, rate, modifiers), n)
            assert same_bits(looked_up[rows], direct)
        assert table.divorce[0] == table.divorce[1]

    def test_birth_table_equals_array_function(self):
        fertility = FertilityTable(make_rng(4).random((35, 100)))
        table = hazards(tables=DataTables(fertility=fertility), steps_per_year=365)
        ages = np.arange(FERTILE_YEARS)
        for year in (2020, 1990, 2100, 2020):
            direct = instantaneous_probability_array(fertility.rates_at(ages, year), 365)
            assert same_bits(table.births(year)[0], direct)
        assert not table.births(2100)[0].any()

    @pytest.mark.parametrize("params", [
        PARAMS,
        ModelParameters(base_die_rate=1.0, female_age_die_prob=1.0, male_age_die_prob=1.0),
        ModelParameters(female_age_scaling=5.0, male_age_scaling=3.0),  # steep: clamps at 25
    ], ids=["default", "certain", "steep"])
    @pytest.mark.parametrize("clock", ["hourly", "daily", "monthly", "custom:1"])
    def test_bounds_cover_every_probability(self, clock, params):
        # Thinning draws the events of the direct comparison only if no
        # probability exceeds its bound.
        n = ClockSpec.parse(clock).steps_per_year
        fertility = FertilityTable(make_rng(5).random((35, 100)))
        table = hazards(params, DataTables(fertility=fertility), n)
        ages = np.arange(250 * n + 1)
        for is_male in (False, True):
            p_step = death_step_probability_array(ages, np.full(len(ages), is_male), params, n)
            highest = np.maximum.accumulate(p_step)  # over all ages up to each
            bounds = np.array([table.death_bound(age) for age in ages.tolist()])
            assert np.all(highest <= bounds)
        for rate, modifiers, bound in (
                (params.basic_divorce_rate, TABLES.divorce_modifier_by_decade,
                 table.divorce_bound),
                (params.basic_male_marriage_rate, TABLES.male_marriage_modifier_by_decade,
                 table.marriage_bound)):
            direct = instantaneous_probability_array(
                decade_yearly_probability_array(ages, n, rate, modifiers), n)
            assert direct.max() <= bound
        for year in (1951, 2020, 2050, 2100):
            direct = instantaneous_probability_array(
                fertility.rates_at(np.arange(FERTILE_YEARS), year), n)
            assert direct.max() <= table.births(year)[1]


def direct_hits(rng, ids, bound, probability):
    """The draw spelled out, with every candidate's probability evaluated: a
    binomial count of candidates below the bound, a uniformly ordered subset
    of that many, and for each a uniform scaled to the bound."""
    p = probability(ids)
    assert np.all(p <= bound)
    bound = min(bound, 1.0)
    m = rng.binomial(len(ids), bound)
    order = rng.choice(len(ids), m, replace=False)
    return ids[order][rng.random(m) * bound < p[order]]


class TestThinning:
    """Each event hits the persons the direct draw hits, in the same order,
    and leaves the generator in the same state; the draw has the law of one
    uniform per candidate visited in a shuffled order."""

    # High hazards: deaths clamp from age 40 (men) and 47; every birth,
    # divorce and marriage probability lies between 0 and the clamp.
    PARAMS = ModelParameters(initial_pop=1000, base_die_rate=0.0, male_age_die_prob=0.01,
                             female_age_die_prob=0.01, male_age_scaling=10.0,
                             female_age_scaling=12.0, basic_divorce_rate=1.0,
                             basic_male_marriage_rate=1.0)
    STEEP = tuple(1.0 - 10.0 ** -np.linspace(9.0, 0.5, 16))

    def run(self, event, clock, direct, monkeypatch):
        if direct:
            monkeypatch.setattr("gridpop.events._thinned_hits", direct_hits)
        n = ClockSpec.parse(clock).steps_per_year
        rates = 1.0 - 10.0 ** -(9.0 * make_rng(6).random((35, 100)))
        tables = DataTables(fertility=FertilityTable(rates), divorce_modifier_by_decade=self.STEEP,
                            male_marriage_modifier_by_decade=self.STEEP)
        store, space, rng = PopulationStore(n), Space(), make_rng(31)
        build_initial_state(store, space, self.PARAMS, rng)
        table = hazards(self.PARAMS, tables, n)
        hits = []
        for _ in range(120 if clock == "hourly" else 12):
            log = run_step(store, space, table, 2020, rng, ("ageing", event))
            hits.append(getattr(log, event))
        state = [getattr(store, name)[:store.size].tolist()
                 for name in ("alive_arr", "status_arr", "partner_arr", "house_arr")]
        return hits, state, rng.bit_generator.state

    @pytest.mark.parametrize("clock", ["hourly", "monthly"])
    @pytest.mark.parametrize("event", ["deaths", "births", "divorces", "marriages"])
    def test_thinned_draws_equal_direct_comparison(self, event, clock, monkeypatch):
        thinned = self.run(event, clock, False, monkeypatch)
        assert sum(map(len, thinned[0])) >= 3  # the events do happen
        assert self.run(event, clock, True, monkeypatch) == thinned

    def test_hits_have_the_law_of_independent_draws_in_random_order(self):
        # CI's pinned-NumPy job runs this class without the test extras.
        stats = pytest.importorskip("scipy.stats")
        # Eight candidates with distinct probabilities under one bound.
        p = np.array([0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.35, 0.4])
        ids = np.arange(100, 108)
        rng, calls = make_rng(2024), 20_000
        hit_counts = np.zeros(len(ids), dtype=int)
        sizes = np.zeros(len(ids) + 1, dtype=int)
        first_rank = {k: np.zeros(k, dtype=int) for k in range(2, 5)}
        for _ in range(calls):
            hits = _thinned_hits(rng, ids, 0.4, lambda maybe: p[maybe - 100])
            hit_counts[hits - 100] += 1
            sizes[len(hits)] += 1
            if len(hits) in first_rank:  # rank of the first hit in the sorted hit set
                first_rank[len(hits)][np.count_nonzero(hits < hits[0])] += 1
        assert hit_counts[0] == 0
        pvalues = [stats.binomtest(int(c), calls, q).pvalue for c, q in zip(hit_counts[1:], p[1:])]
        # Independence: the number of hits is Poisson-binomial.
        size_law = np.array([1.0])
        for q in p:
            size_law = np.convolve(size_law, [1.0 - q, q])
        expected = calls * size_law
        big = expected >= 5  # the rare sizes are pooled into one cell
        pvalues.append(stats.chisquare(np.append(sizes[big], sizes[~big].sum()),
                                       np.append(expected[big], expected[~big].sum())).pvalue)
        # Order: the first hit is uniform over the hit set.
        for counts in first_rank.values():
            assert counts.sum() >= 50 * len(counts)
            pvalues.append(stats.chisquare(counts).pvalue)
        assert min(pvalues) * len(pvalues) > 0.01

    @pytest.mark.parametrize("bound", [1e-6, 0.001, 0.3])
    def test_probability_sees_only_the_maybe_candidates(self, bound):
        # 20,000 candidates: choice takes its set-based path for few picks
        # and its partial shuffle for many.
        ids = np.arange(7, 20_007)
        for seed in range(5):
            rng, replay, seen = make_rng(seed), make_rng(seed), []

            def probability(maybe):
                seen.append(maybe.copy())
                return np.full(len(maybe), bound / 2)

            hits = _thinned_hits(rng, ids, bound, probability)
            m = replay.binomial(len(ids), bound)
            maybe = ids[replay.choice(len(ids), m, replace=False)]
            assert len(seen) == (m > 0)
            assert np.array_equal(np.concatenate([ids[:0], *seen]), maybe)
            assert np.isin(hits, maybe).all()


class TestAgeing:
    def test_alive_aged_dead_frozen(self):
        store, space, rng, log = fresh()
        alive = housed(store, space, Gender.MALE, 30, rng=rng)
        dead = housed(store, space, Gender.FEMALE, 30, rng=rng)
        store.kill(dead, space)
        ageing_step(store, space, rng, log)
        assert store.age_steps_arr[alive] == 30 * 12 + 1
        assert store.age_steps_arr[dead] == 30 * 12

    def test_orphan_turning_adult_moves_out_alone(self):
        store, space, rng, log = fresh()
        town = (8, 4)
        dad = housed(store, space, Gender.MALE, 50, town=town, rng=rng)
        home = store.house_arr[dad]
        mum = housed(store, space, Gender.FEMALE, 49, house=home, rng=rng)
        store.wed(dad, mum)
        elder = store.spawn_person(Gender.MALE, 20 * 12, father=dad, mother=mum,
                                   house=home, space=space)
        younger = store.spawn_person(Gender.FEMALE, 18 * 12 - 1, father=dad, mother=mum,
                                     house=home, space=space)
        store.kill(dad, space)
        store.kill(mum, space)
        ageing_step(store, space, rng, log)
        assert store.age_steps_arr[younger] == 18 * 12
        assert store.house_arr[younger] != home
        assert space.house_town(store.house_arr[younger]) == town
        assert space.residents[store.house_arr[younger]] == {younger}
        assert store.house_arr[elder] == home
        assert log.orphan_moves == [younger]
        assert collect_invariant_violations(store, space) == []

    def test_no_move_when_parent_alive_or_no_older_sibling(self):
        store, space, rng, log = fresh()
        dad = housed(store, space, Gender.MALE, 50, rng=rng)
        home = store.house_arr[dad]
        mum = housed(store, space, Gender.FEMALE, 49, house=home, rng=rng)
        store.wed(dad, mum)
        only = store.spawn_person(Gender.MALE, 18 * 12 - 1, father=dad, mother=mum,
                                  house=home, space=space)
        store.kill(dad, space)
        ageing_step(store, space, rng, log)  # mother alive
        assert store.house_arr[only] == home
        assert log.orphan_moves == []


class TestDeaths:
    def test_flat_rate_monte_carlo(self):
        # base_die_rate carries the whole hazard when the age slopes are 0.
        params = ModelParameters(base_die_rate=0.5, male_age_die_prob=0.0,
                                 female_age_die_prob=0.0)
        store, space, rng, log = fresh()
        house = space.new_houses(cell_of((4, 3)), rng)
        for i in range(4000):
            store.spawn_person(Gender.MALE if i % 2 else Gender.FEMALE, 30 * 12,
                               house=house, space=space)
        deaths_step(store, space, hazards(params), rng, log)
        p_step = -math.log(0.5) / 12
        expected = 4000 * p_step
        sigma = math.sqrt(4000 * p_step * (1 - p_step))
        assert abs(len(log.deaths) - expected) < 4 * sigma
        assert store.alive_count == 4000 - len(log.deaths)

    def test_kill_applied_and_consistent(self):
        store, space, rng, log = fresh()
        m = housed(store, space, Gender.MALE, 95, rng=rng)
        f = housed(store, space, Gender.FEMALE, 96, house=store.house_arr[m], rng=rng)
        store.wed(m, f)
        params = ModelParameters(base_die_rate=1.0)  # certain-ish death
        for _ in range(40):
            deaths_step(store, space, hazards(params), rng, log)
        assert not store.alive_arr[m] and not store.alive_arr[f]
        assert store.house_arr[m] == -1
        assert collect_invariant_violations(store, space) == []

    def test_certain_death_on_a_yearly_clock(self):
        # One step a year and a yearly hazard clamped to certainty: the step
        # probability is 1, and the death bound's margin lifts it above 1.
        params = ModelParameters(base_die_rate=1.0)
        store, space, rng, log = PopulationStore(1), Space(), make_rng(5), StepEventLog()
        house = space.new_houses(cell_of((4, 3)), rng)
        for i in range(50):
            store.spawn_person(Gender.MALE if i % 2 else Gender.FEMALE, 30, house=house,
                               space=space)
        table = hazards(params, steps_per_year=1)
        assert table.death_bound(30) > 1.0
        deaths_step(store, space, table, rng, log)
        assert sorted(log.deaths) == list(range(50))
        assert store.alive_count == 0


class TestBirths:
    def married_woman(self, store, space, rng, age=30.0):
        m = housed(store, space, Gender.MALE, age + 2, rng=rng)
        f = housed(store, space, Gender.FEMALE, age, house=store.house_arr[m], rng=rng)
        store.wed(m, f)
        return m, f

    def certain_tables(self):
        # Fertility 1.0 at every age/year: per-step probability is the clamped cap.
        rates = np.ones((35, 100))
        from gridpop.params import FertilityTable
        return DataTables(fertility=FertilityTable(rates))

    def test_unmarried_woman_never_gives_birth(self):
        store, space, rng, log = fresh()
        housed(store, space, Gender.FEMALE, 30, rng=rng)
        for _ in range(200):
            births_step(store, space, hazards(tables=self.certain_tables()), 2020, rng, log)
        assert log.births == []

    def test_young_child_blocks_reproduction(self):
        store, space, rng, log = fresh()
        m, f = self.married_woman(store, space, rng)
        store.spawn_person(Gender.MALE, 6, father=m, mother=f,  # six months old
                           house=store.house_arr[f], space=space)
        for _ in range(200):
            births_step(store, space, hazards(tables=self.certain_tables()), 2020, rng, log)
        assert log.births == []

    def test_child_over_one_unblocks(self):
        store, space, rng, log = fresh()
        m, f = self.married_woman(store, space, rng)
        store.spawn_person(Gender.MALE, 13, father=m, mother=f,  # 13 months old
                           house=store.house_arr[f], space=space)
        for _ in range(500):
            births_step(store, space, hazards(tables=self.certain_tables()), 2020, rng, log)
            if log.births:
                break
        assert log.births

    def test_age_45_cutoff(self):
        store, space, rng, log = fresh()
        self.married_woman(store, space, rng, age=45.0)
        for _ in range(200):
            births_step(store, space, hazards(tables=self.certain_tables()), 2020, rng, log)
        assert log.births == []

    def test_neonate_fields(self):
        store, space, rng, log = fresh()
        m, f = self.married_woman(store, space, rng)
        while not log.births:
            births_step(store, space, hazards(tables=self.certain_tables()), 2020, rng, log)
        baby = log.births[0]
        assert store.age_steps_arr[baby] == 0
        assert store.father_arr[baby] == m and store.mother_arr[baby] == f
        assert store.house_arr[baby] == store.house_arr[f]
        assert collect_invariant_violations(store, space) == []

    def test_babies_take_ids_in_their_mothers_order(self):
        store, space, rng, log = fresh()
        for age in (30.0, 25.0, 38.0, 22.0, 41.0, 33.0, 28.0, 35.0):
            self.married_woman(store, space, rng, age=age)
        births_step(store, space, hazards(tables=self.certain_tables()), 2020, rng, log)
        assert len(log.births) == 8
        mothers = store.mother_arr[log.births]
        assert np.all(np.diff(log.births) > 0) and np.all(np.diff(mothers) > 0)

    def test_out_of_table_rate_is_zero(self):
        store, space, rng, log = fresh()
        self.married_woman(store, space, rng, age=30.0)
        for year in (1900, 2100):
            for _ in range(100):
                births_step(store, space, hazards(tables=self.certain_tables()), year, rng, log)
        assert log.births == []

    def test_per_step_probability_composition(self):
        # Birth frequency at fertility r matches -ln(1-r)/N per step.
        from gridpop.params import FertilityTable
        r = 0.3
        tables = DataTables(fertility=FertilityTable(np.full((35, 100), r)))
        rng = make_rng(5)
        store, space = PopulationStore(12), Space()
        couples = []
        house = space.new_houses(cell_of((4, 3)), rng)
        for _ in range(3000):
            m = store.spawn_person(Gender.MALE, 32 * 12, house=house, space=space)
            f = store.spawn_person(Gender.FEMALE, 30 * 12, house=house, space=space)
            store.wed(m, f)
            couples.append(f)
        log = StepEventLog()
        births_step(store, space, hazards(tables=tables), 2020, rng, log)
        p = -math.log(1 - r) / 12
        sigma = math.sqrt(3000 * p * (1 - p))
        assert abs(len(log.births) - 3000 * p) < 4 * sigma


class TestDivorces:
    def couple(self, store, space, rng, age=25.0):
        m = housed(store, space, Gender.MALE, age, town=(8, 4), rng=rng)
        f = housed(store, space, Gender.FEMALE, age, house=store.house_arr[m], rng=rng)
        store.wed(m, f)
        kid = store.spawn_person(Gender.FEMALE, 2 * 12, father=m, mother=f,
                                 house=store.house_arr[m], space=space)
        return m, f, kid

    def test_man_moves_out_alone_family_stays(self):
        store, space, rng, log = fresh()
        m, f, kid = self.couple(store, space, rng)
        home = store.house_arr[m]
        params = ModelParameters(basic_divorce_rate=1.0)
        while not log.divorces:
            divorces_step(store, space, hazards(params), rng, log)
        assert STATUSES[store.status_arr[m]] is MaritalStatus.DIVORCED
        assert STATUSES[store.status_arr[f]] is MaritalStatus.DIVORCED
        assert store.house_arr[m] != home
        assert space.house_town(store.house_arr[m]) == (8, 4)
        assert len(space.residents[store.house_arr[m]]) == 1
        assert store.house_arr[f] == home
        assert store.house_arr[kid] == home
        assert log.divorce_moves == [m]
        assert collect_invariant_violations(store, space) == []

    def test_just_married_excluded(self):
        store, space, rng, log = fresh()
        m = housed(store, space, Gender.MALE, 25, town=(8, 4), rng=rng)
        housed(store, space, Gender.FEMALE, 25, town=(8, 4), rng=rng)
        params = ModelParameters(basic_divorce_rate=1.0, basic_male_marriage_rate=1.0)
        while not log.marriages:  # the wedding, in this step's log
            marriages_step(store, space, hazards(params), rng, log)
        for _ in range(100):
            divorces_step(store, space, hazards(params), rng, log)
        assert log.divorces == []
        assert store.status_arr[m] == MARRIED_CODE

    def test_decade_zero_modifier_never_divorces(self):
        store, space, rng, log = fresh()
        m, f, _ = self.couple(store, space, rng, age=125.0)
        params = ModelParameters(basic_divorce_rate=1.0)
        for _ in range(200):
            divorces_step(store, space, hazards(params), rng, log)
        assert log.divorces == []


class TestMarriages:
    def eligible_pair(self, store, space, rng, town_m=(8, 4), town_f=(8, 4)):
        m = housed(store, space, Gender.MALE, 25, town=town_m, rng=rng)
        f = housed(store, space, Gender.FEMALE, 24, town=town_f, rng=rng)
        return m, f

    def test_marriage_happens_and_merges(self):
        store, space, rng, log = fresh()
        m, f = self.eligible_pair(store, space, rng)
        params = ModelParameters(basic_male_marriage_rate=1.0)
        while not log.marriages:
            marriages_step(store, space, hazards(params), rng, log)
        assert store.partner_arr[m] == f
        # Equal occupancy (1 vs 1): tie goes to the groom's house.
        assert store.house_arr[f] == store.house_arr[m]
        assert collect_invariant_violations(store, space) == []

    def test_merge_into_larger_household(self):
        store, space, rng, log = fresh()
        m = housed(store, space, Gender.MALE, 40, rng=rng)
        house_m = store.house_arr[m]
        lodger = housed(store, space, Gender.MALE, 70, house=house_m, rng=rng)
        third = housed(store, space, Gender.MALE, 71, house=house_m, rng=rng)
        f = housed(store, space, Gender.FEMALE, 38, rng=rng)
        dep = store.spawn_person(Gender.FEMALE, 5 * 12, father=None, mother=f,
                                 house=store.house_arr[f], space=space)
        store.wed(m, f)
        from gridpop.events import _merge_households
        _merge_households(store, space, m, f)
        # Groom's house had 3, bride's 2: bride and her child move in.
        assert store.house_arr[f] == house_m
        assert store.house_arr[dep] == house_m
        assert len(space.residents[house_m]) == 5

    def test_merge_to_bride_when_groom_house_smaller(self):
        store, space, rng, log = fresh()
        m = housed(store, space, Gender.MALE, 40, rng=rng)
        f = housed(store, space, Gender.FEMALE, 38, rng=rng)
        house_f = store.house_arr[f]
        store.spawn_person(Gender.MALE, 6 * 12, father=None, mother=f,
                           house=house_f, space=space)
        store.wed(m, f)
        from gridpop.events import _merge_households
        _merge_households(store, space, m, f)
        assert store.house_arr[m] == house_f

    def test_just_divorced_man_excluded(self):
        store, space, rng, log = fresh()
        m = housed(store, space, Gender.MALE, 25, rng=rng)
        f = housed(store, space, Gender.FEMALE, 24, house=store.house_arr[m], rng=rng)
        store.wed(m, f)  # married at the boundary
        params = ModelParameters(basic_divorce_rate=1.0, basic_male_marriage_rate=1.0)
        while not log.divorces:  # divorced this step
            divorces_step(store, space, hazards(params), rng, log)
        for _ in range(50):
            marriages_step(store, space, hazards(params), rng, log)
        assert all(groom != m for groom, _ in log.marriages)

    def test_just_turned_adult_excluded(self):
        store, space, rng, log = fresh()
        m = housed(store, space, Gender.MALE, 18 - 1 / 12, rng=rng)
        housed(store, space, Gender.FEMALE, 24, rng=rng)
        ageing_step(store, space, rng, log)  # m turns exactly 18
        params = ModelParameters(basic_male_marriage_rate=1.0)
        # At 18 an eligible man marries at ~0.015 a step: 1,000 tries would wed him.
        for _ in range(1000):
            marriages_step(store, space, hazards(params), rng, log)
        assert log.marriages == []
        # One boundary later, aged one more step, he becomes eligible.
        ageing_step(store, space, rng, log)
        while not log.marriages:
            marriages_step(store, space, hazards(params), rng, log)
        assert log.marriages[0][0] == m

    def test_all_zero_weights_leaves_man_single(self):
        # A bride with hundreds of children drives the children weight to
        # an underflow-to-zero product; the groom must stay single.
        store, space, rng, log = fresh()
        groom = housed(store, space, Gender.MALE, 30, rng=rng)
        bride = housed(store, space, Gender.FEMALE, 40, rng=rng)
        # Old enough that his own decade modifier is zero: never a groom.
        father = housed(store, space, Gender.MALE, 125, rng=rng)
        for _ in range(800):
            store.spawn_person(Gender.FEMALE, 12, father=father, mother=bride,
                               house=store.house_arr[bride], space=space)
        params = ModelParameters(basic_male_marriage_rate=1.0)
        for _ in range(200):
            marriages_step(store, space, hazards(params), rng, log)
        assert log.marriages == []
        assert store.status_arr[groom] != MARRIED_CODE

    def test_geo_weight_prefers_same_town(self):
        # One local and one distant candidate: the weight ratio is e^8 : 1.
        params = ModelParameters(basic_male_marriage_rate=1.0)
        picks = {"local": 0, "distant": 0}
        for trial in range(300):
            s, sp = PopulationStore(12), Space()
            trial_rng = make_rng(trial)
            housed(s, sp, Gender.MALE, 25, town=(8, 4), rng=trial_rng)
            local = housed(s, sp, Gender.FEMALE, 25, town=(8, 4), rng=trial_rng)
            housed(s, sp, Gender.FEMALE, 25, town=(9, 5), rng=trial_rng)  # distance 2
            lg = StepEventLog()
            marriages_step(s, sp, hazards(params), trial_rng, lg)
            if lg.marriages:
                picks["local" if lg.marriages[0][1] == local else "distant"] += 1
        assert picks["local"] > 0
        assert picks["distant"] <= 1


class TestRemarriedThisStep:
    """With marriages before divorces, a man widowed and remarried within
    one step is married since the boundary, though married at it as well:
    he is not divorced in that step."""

    ORDER = ("ageing", "deaths", "births", "marriages", "divorces")
    # Women die for certain at 80 and almost never at 25; men never die. At
    # 35 a man remarries in every step he can, and divorces at ~0.06 a step.
    PARAMS = ModelParameters(base_die_rate=0.0, male_age_die_prob=0.0,
                             female_age_die_prob=1e-30, female_age_scaling=1.0,
                             basic_divorce_rate=1.0, basic_male_marriage_rate=1.0)

    def test_never_divorced_in_the_step_he_remarries(self):
        SimulationConfig(event_order=self.ORDER).validate()
        table = hazards(self.PARAMS)
        widowed_remarried = remarried = 0
        for seed in range(200):
            store, space, rng = PopulationStore(12), Space(), make_rng(seed)
            husband = housed(store, space, Gender.MALE, 35, town=(8, 4), rng=rng)
            wife = housed(store, space, Gender.FEMALE, 80, house=store.house_arr[husband],
                          rng=rng)
            store.wed(husband, wife)
            housed(store, space, Gender.FEMALE, 25, town=(8, 4), rng=rng)
            for k in range(12):
                log = run_step(store, space, table, 2020, rng, self.ORDER)
                if any(groom == husband for groom, _ in log.marriages):
                    remarried += 1
                    widowed_remarried += wife in log.deaths
                    assert all(man != husband for man, _ in log.divorces), (seed, k)
        assert widowed_remarried == 200  # the corner arises in every seed's first step
        assert remarried > 200


class TestStepConservation:
    def test_population_conservation_across_full_steps(self):
        store, space = PopulationStore(12), Space()
        rng = make_rng(123)
        build_initial_state(store, space, ModelParameters(initial_pop=800), rng)
        order = ("ageing", "deaths", "births", "divorces", "marriages")
        run_hazards = hazards()
        for k in range(24):
            before = store.alive_count
            log = run_step(store, space, run_hazards, 2020 + k // 12, rng, order)
            assert store.alive_count == before + len(log.births) - len(log.deaths)
            assert collect_invariant_violations(store, space) == []
            assert not store.alive_arr[log.deaths].any()
