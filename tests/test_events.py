"""The five per-step events: hazards, relocations, matching, merges."""

import math

import numpy as np
import pytest

from conftest import housed
from gridpop.events import (
    DEATH_TABLE_CAP,
    FERTILE_YEARS,
    HazardTables,
    StepEventLog,
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
)
from gridpop.features import StepSnapshot
from gridpop.params import DataTables, ModelParameters
from gridpop.population import (
    Gender,
    MaritalStatus,
    PopulationStore,
    UnwedReason,
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

    @pytest.mark.parametrize("clock", ["monthly", "daily", "custom:1"])
    def test_death_table_equals_array_function(self, clock):
        n = ClockSpec.parse(clock).steps_per_year
        table = hazards(steps_per_year=n)
        rng = make_rng(3)
        for oldest_years in (60, 130, 250):  # the later calls grow the table
            ages = rng.permutation(oldest_years * n + 1)
            male = rng.random(len(ages)) < 0.5
            got = table.deaths(ages, male)
            assert table.death_width > oldest_years * n
            assert same_bits(got, death_step_probability_array(ages, male, PARAMS, n))
            width = table.death_width
            for row, is_male in enumerate((False, True)):
                every_age = np.arange(width)
                assert same_bits(table.death[row * width:(row + 1) * width],
                                 death_step_probability_array(
                                     every_age, np.full(width, is_male), PARAMS, n))
        # The oldest ages cover a yearly hazard past 1, which is clamped.
        oldest = np.array([table.death_width - 1]) / n
        assert death_yearly_probability_array(oldest, np.array([True]), PARAMS)[0] > 1.0

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
        from gridpop.params import FertilityTable
        fertility = FertilityTable(make_rng(4).random((35, 100)))
        table = hazards(tables=DataTables(fertility=fertility), steps_per_year=365)
        ages = np.arange(FERTILE_YEARS)
        for year in (2020, 1990, 2100, 2020):
            direct = instantaneous_probability_array(fertility.rates_at(ages, year), 365)
            assert same_bits(table.births(year), direct)
        assert not table.births(2100).any()

    def test_over_the_cap_deaths_evaluate_directly_with_the_same_draws(self, monkeypatch):
        # The hourly clock needs 2 x ~8,760 entries per year of age: a
        # population over 15 years old exceeds DEATH_TABLE_CAP at once.
        n = ClockSpec.hourly().steps_per_year
        params = ModelParameters(base_die_rate=1.0)
        assert 2 * 15 * n > DEATH_TABLE_CAP

        def run(cap):
            monkeypatch.setattr("gridpop.events.DEATH_TABLE_CAP", cap)
            store, space, rng = PopulationStore(n), Space(), make_rng(9)
            house = space.new_houses(cell_of((4, 3)), rng)
            for i in range(400):
                store.spawn_person(Gender.MALE if i % 3 else Gender.FEMALE,
                                   int(rng.integers(15 * n, 90 * n)), house=house, space=space)
            table, log = hazards(params, steps_per_year=n), StepEventLog()
            draws = []
            for _ in range(10):
                ageing_step(store, space, rng, log)
                ids = np.flatnonzero(store.alive_arr[:store.size])
                probe = np.random.Generator(np.random.PCG64())
                probe.bit_generator.state = rng.bit_generator.state
                probe.shuffle(ids)
                expected = death_step_probability_array(
                    store.age_steps_arr[ids], store.male_arr[ids], params, n)
                draws.append(ids[probe.random(len(ids)) < expected].tolist())
                deaths_step(store, space, table, rng, log)
            return table, log.deaths, draws, rng.bit_generator.state

        table, deaths, draws, state = run(DEATH_TABLE_CAP)
        assert table.death is None
        assert deaths == [pid for step in draws for pid in step] and deaths
        # A cap large enough to tabulate draws the same events.
        table, *rest = run(2**22)
        assert table.death is not None
        assert rest == [deaths, draws, state]


class TestAgeing:
    def test_alive_aged_dead_frozen(self):
        store, space, rng, log = fresh()
        alive = housed(store, space, Gender.MALE, 30, rng=rng)
        dead = housed(store, space, Gender.FEMALE, 30, rng=rng)
        store.kill(dead, space)
        ageing_step(store, space, rng, log)
        assert store.persons[alive].age_steps == 30 * 12 + 1
        assert store.persons[dead].age_steps == 30 * 12

    def test_orphan_turning_adult_moves_out_alone(self):
        store, space, rng, log = fresh()
        town = (8, 4)
        dad = housed(store, space, Gender.MALE, 50, town=town, rng=rng)
        home = store.persons[dad].house
        mum = housed(store, space, Gender.FEMALE, 49, house=home, rng=rng)
        store.wed(dad, mum)
        elder = store.spawn_person(Gender.MALE, 20 * 12, father=dad, mother=mum,
                                   house=home, space=space)
        younger = store.spawn_person(Gender.FEMALE, 18 * 12 - 1, father=dad, mother=mum,
                                     house=home, space=space)
        store.kill(dad, space)
        store.kill(mum, space)
        ageing_step(store, space, rng, log)
        y = store.persons[younger]
        assert y.age_steps == 18 * 12
        assert y.house != home
        assert space.house_town(y.house) == town
        assert space.residents[y.house] == {younger}
        assert store.persons[elder].house == home
        assert log.orphan_moves == [younger]
        assert collect_invariant_violations(store, space) == []

    def test_no_move_when_parent_alive_or_no_older_sibling(self):
        store, space, rng, log = fresh()
        dad = housed(store, space, Gender.MALE, 50, rng=rng)
        home = store.persons[dad].house
        mum = housed(store, space, Gender.FEMALE, 49, house=home, rng=rng)
        store.wed(dad, mum)
        only = store.spawn_person(Gender.MALE, 18 * 12 - 1, father=dad, mother=mum,
                                  house=home, space=space)
        store.kill(dad, space)
        ageing_step(store, space, rng, log)  # mother alive
        assert store.persons[only].house == home
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
        f = housed(store, space, Gender.FEMALE, 96, house=store.persons[m].house, rng=rng)
        store.wed(m, f)
        params = ModelParameters(base_die_rate=1.0)  # certain-ish death
        for _ in range(40):
            deaths_step(store, space, hazards(params), rng, log)
        assert not store.persons[m].alive and not store.persons[f].alive
        assert store.persons[m].house is None
        assert collect_invariant_violations(store, space) == []


class TestBirths:
    def married_woman(self, store, space, rng, age=30.0):
        m = housed(store, space, Gender.MALE, age + 2, rng=rng)
        f = housed(store, space, Gender.FEMALE, age, house=store.persons[m].house, rng=rng)
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
                           house=store.persons[f].house, space=space)
        for _ in range(200):
            births_step(store, space, hazards(tables=self.certain_tables()), 2020, rng, log)
        assert log.births == []

    def test_child_over_one_unblocks(self):
        store, space, rng, log = fresh()
        m, f = self.married_woman(store, space, rng)
        store.spawn_person(Gender.MALE, 13, father=m, mother=f,  # 13 months old
                           house=store.persons[f].house, space=space)
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
        baby = store.persons[log.births[0]]
        assert baby.age_steps == 0
        assert baby.father == m and baby.mother == f
        assert baby.house == store.persons[f].house
        assert collect_invariant_violations(store, space) == []

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
        f = housed(store, space, Gender.FEMALE, age, house=store.persons[m].house, rng=rng)
        store.wed(m, f)
        kid = store.spawn_person(Gender.FEMALE, 2 * 12, father=m, mother=f,
                                 house=store.persons[m].house, space=space)
        return m, f, kid

    def test_man_moves_out_alone_family_stays(self):
        store, space, rng, log = fresh()
        m, f, kid = self.couple(store, space, rng)
        home = store.persons[m].house
        params = ModelParameters(basic_divorce_rate=1.0)
        snap = StepSnapshot.capture(store, space)
        while not log.divorces:
            divorces_step(store, space, hazards(params), snap, rng, log)
        assert store.persons[m].marital_status is MaritalStatus.DIVORCED
        assert store.persons[f].marital_status is MaritalStatus.DIVORCED
        assert store.persons[m].house != home
        assert space.house_town(store.persons[m].house) == (8, 4)
        assert len(space.residents[store.persons[m].house]) == 1
        assert store.persons[f].house == home
        assert store.persons[kid].house == home
        assert log.divorce_moves == [m]
        assert collect_invariant_violations(store, space) == []

    def test_just_married_excluded(self):
        store, space, rng, log = fresh()
        snap = StepSnapshot.capture(store, space)  # before the wedding
        m, f, _ = self.couple(store, space, rng)
        params = ModelParameters(basic_divorce_rate=1.0)
        for _ in range(100):
            divorces_step(store, space, hazards(params), snap, rng, log)
        assert log.divorces == []
        assert store.persons[m].married

    def test_decade_zero_modifier_never_divorces(self):
        store, space, rng, log = fresh()
        m, f, _ = self.couple(store, space, rng, age=125.0)
        params = ModelParameters(basic_divorce_rate=1.0)
        snap = StepSnapshot.capture(store, space)
        for _ in range(200):
            divorces_step(store, space, hazards(params), snap, rng, log)
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
        snap = StepSnapshot.capture(store, space)
        while not log.marriages:
            marriages_step(store, space, params, hazards(params), snap, rng, log)
        assert store.persons[m].partner == f
        # Equal occupancy (1 vs 1): tie goes to the groom's house.
        assert store.persons[f].house == store.persons[m].house
        assert collect_invariant_violations(store, space) == []

    def test_merge_into_larger_household(self):
        store, space, rng, log = fresh()
        m = housed(store, space, Gender.MALE, 40, rng=rng)
        house_m = store.persons[m].house
        lodger = housed(store, space, Gender.MALE, 70, house=house_m, rng=rng)
        third = housed(store, space, Gender.MALE, 71, house=house_m, rng=rng)
        f = housed(store, space, Gender.FEMALE, 38, rng=rng)
        dep = store.spawn_person(Gender.FEMALE, 5 * 12, father=None, mother=f,
                                 house=store.persons[f].house, space=space)
        store.wed(m, f)
        from gridpop.events import _merge_households
        _merge_households(store, space, m, f)
        # Groom's house had 3, bride's 2: bride and her child move in.
        assert store.persons[f].house == house_m
        assert store.persons[dep].house == house_m
        assert len(space.residents[house_m]) == 5

    def test_merge_to_bride_when_groom_house_smaller(self):
        store, space, rng, log = fresh()
        m = housed(store, space, Gender.MALE, 40, rng=rng)
        f = housed(store, space, Gender.FEMALE, 38, rng=rng)
        house_f = store.persons[f].house
        store.spawn_person(Gender.MALE, 6 * 12, father=None, mother=f,
                           house=house_f, space=space)
        store.wed(m, f)
        from gridpop.events import _merge_households
        _merge_households(store, space, m, f)
        assert store.persons[m].house == house_f

    def test_just_divorced_man_excluded(self):
        store, space, rng, log = fresh()
        m = housed(store, space, Gender.MALE, 25, rng=rng)
        f = housed(store, space, Gender.FEMALE, 24, house=store.persons[m].house, rng=rng)
        store.wed(m, f)
        snap = StepSnapshot.capture(store, space)  # married here
        store.unwed(m, UnwedReason.DIVORCE)        # divorced this step
        params = ModelParameters(basic_male_marriage_rate=1.0)
        for _ in range(50):
            marriages_step(store, space, params, hazards(params), snap, rng, log)
        assert all(groom != m for groom, _ in log.marriages)

    def test_just_turned_adult_excluded(self):
        store, space, rng, log = fresh()
        m = housed(store, space, Gender.MALE, 18 - 1 / 12, rng=rng)
        housed(store, space, Gender.FEMALE, 24, rng=rng)
        snap = StepSnapshot.capture(store, space)
        ageing_step(store, space, rng, log)  # m turns exactly 18
        params = ModelParameters(basic_male_marriage_rate=1.0)
        for _ in range(50):
            marriages_step(store, space, params, hazards(params), snap, rng, log)
        assert log.marriages == []
        # One boundary later he becomes eligible.
        snap2 = StepSnapshot.capture(store, space)
        while not log.marriages:
            marriages_step(store, space, params, hazards(params), snap2, rng, log)
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
                               house=store.persons[bride].house, space=space)
        params = ModelParameters(basic_male_marriage_rate=1.0)
        for _ in range(200):
            marriages_step(store, space, params, hazards(params), None, rng, log)
        assert log.marriages == []
        assert store.persons[groom].unmarried

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
            marriages_step(s, sp, params, hazards(params), None, trial_rng, lg)
            if lg.marriages:
                picks["local" if lg.marriages[0][1] == local else "distant"] += 1
        assert picks["local"] > 0
        assert picks["distant"] <= 1


class TestStepConservation:
    def test_population_conservation_across_full_steps(self):
        from gridpop.events import run_step
        store, space = PopulationStore(12), Space()
        rng = make_rng(123)
        from gridpop.initialization import build_initial_state
        build_initial_state(store, space, ModelParameters(initial_pop=800),
                            ClockSpec.monthly(), rng)
        order = ("ageing", "deaths", "births", "divorces", "marriages")
        run_hazards = hazards()
        for k in range(24):
            before = store.alive_count
            snap = StepSnapshot.capture(store, space)
            log = run_step(store, space, PARAMS, run_hazards, snap, 2020 + k // 12, rng, order)
            assert store.alive_count == before + len(log.births) - len(log.deaths)
            assert collect_invariant_violations(store, space) == []
            assert all(not store.persons[pid].alive for pid in log.deaths)
