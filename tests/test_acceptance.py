"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Expected values are computed by independent scalar
math or brute-force state copies inside each test, never read back from
the implementation under test.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from gridpop.engine import (
    Simulation,
    export_population,
    run_simulation,
    statistics_to_csv,
)
from gridpop import events as events_module
from gridpop.events import (
    HazardTables,
    StepEventLog,
    age_compatibility_array,
    children_factor_array,
    deaths_step,
    death_yearly_probability_array,
    decade_yearly_probability_array,
    geo_factor_array,
)
from gridpop.features import (
    ALIVE,
    MARRIED,
    EvalContext,
    StepSnapshot,
    just,
    pre,
    subpopulation,
)
from gridpop.initialization import build_initial_state
from gridpop.params import DataTables, ModelParameters, SimulationConfig
from gridpop.population import MARRIED_CODE, Gender, MaritalStatus, PopulationStore
from gridpop.space import Space, cell_of, town_at
from gridpop.stochastics import (
    ClockSpec,
    instantaneous_probability_array,
    make_rng,
    sample_half_normal_age_steps,
)


def report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS ({elapsed:.1f}s): {detail}")


class TestCriterion1Compounding:
    def test_death_only_year_survivors(self):
        start = time.perf_counter()
        # Flat yearly hazard: the age-dependent slopes are zeroed so the
        # base rate 0.1 applies to everyone regardless of age or gender.
        params = ModelParameters(base_die_rate=0.1, male_age_die_prob=0.0,
                                 female_age_die_prob=0.0)
        store = PopulationStore(365)
        space = Space()
        rng = make_rng(2024)
        house = space.new_houses(cell_of((4, 3)), rng)
        n = 100_000
        for i in range(n):
            store.spawn_person(Gender.MALE if i % 2 else Gender.FEMALE,
                               int(30 * 365), house=house, space=space)
        hazards = HazardTables(params, DataTables(), 365)
        for _ in range(365):
            deaths_step(store, space, hazards, rng, StepEventLog())
        survivors = store.alive_count
        elapsed = time.perf_counter() - start
        assert 89_550 <= survivors <= 90_450, f"survivors {survivors} out of range"
        assert elapsed < 30.0, f"too slow: {elapsed:.1f}s"
        report(1, elapsed, f"survivors {survivors} in [89550, 90450]")


class TestCriterion2ScalarFormulas:
    def test_scalar_formulas_exact(self):
        start = time.perf_counter()
        params = ModelParameters()
        tables = DataTables()
        rel = 1e-9
        male = np.array([True])

        # The array functions the run evaluates (see the test below): the
        # hazard tables are built from the conversion, death and decade
        # hazards; marriages_step weighs brides by geo, children and age.
        def instantaneous(p_yearly, n):
            return instantaneous_probability_array(np.array([p_yearly]), n)[0]

        def death(age_years):
            return death_yearly_probability_array(np.array([age_years]), male, params)[0]

        def divorce(age_steps, n):
            return decade_yearly_probability_array(np.array([age_steps]), n,
                                                   params.basic_divorce_rate,
                                                   tables.divorce_modifier_by_decade)[0]

        def marriage(age_steps, n):
            return decade_yearly_probability_array(np.array([age_steps]), n,
                                                   params.basic_male_marriage_rate,
                                                   tables.male_marriage_modifier_by_decade)[0]

        def geo(dist):
            return geo_factor_array(np.array([dist]))[0]

        def children(n_m, n_f):
            return children_factor_array(n_m, np.array([float(n_f)]))[0]

        def age(age_m, age_f):
            return age_compatibility_array(age_m, np.array([age_f], dtype=float))[0]

        checks = [
            ("instantaneous(0.5, monthly)", instantaneous(0.5, 12), math.log(2) / 12),
            ("male death age 0", death(0.0), 0.0001 + 0.00021),
            ("male death age 70", death(70.0), 0.0001 + math.exp(70 / 14.0) * 0.00021),
            ("divorce hazard age 25", divorce(25 * 12, 12), 0.06 * 0.9),
            ("marriage hazard age 25", marriage(25 * 12, 12), 0.7 * 0.5),
            ("geo factor d=1", geo(1), math.exp(-4.0)),
            ("children factor (2,3)", children(2, 3), math.e),
            ("age factor diff 0", age(40, 40), 1.0),
            ("age factor diff 5", age(45, 40), 1.0),
            ("age factor diff 10", age(50, 40), 1.0 / 6.0),
            ("age factor diff -2", age(38, 40), 1.0),
            ("age factor diff -5", age(35, 40), 1.0 / 4.0),
        ]
        for name, got, expected in checks:
            assert got == pytest.approx(expected, rel=rel), (
                f"{name}: {got!r} != {expected!r}")
        # The two round-number anchors from the hazard tables.
        assert divorce(25 * 12, 12) == pytest.approx(0.054)
        assert marriage(25 * 12, 12) == pytest.approx(0.35)
        report(2, time.perf_counter() - start, f"{len(checks)} formulas at rel 1e-9")

    def test_run_calls_the_checked_functions(self, monkeypatch):
        # A formula inlined again into the events would leave its checked
        # function uncalled.
        names = ("death_yearly_probability_array", "decade_yearly_probability_array",
                 "instantaneous_probability_array", "geo_factor_array",
                 "children_factor_array", "age_compatibility_array")
        calls = dict.fromkeys(names, 0)

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in names:
            monkeypatch.setattr(f"gridpop.events.{name}",
                                spy(name, getattr(events_module, name)))
        config = SimulationConfig(t0=2020, t_final=2021, clock=ClockSpec.parse("monthly"), seed=3)
        result = run_simulation(config, ModelParameters(initial_pop=500), DataTables())
        assert sum(row.marriages for row in result.statistics) > 0
        assert all(calls.values()), f"uncalled: {[n for n, c in calls.items() if not c]}"


class TestCriterion3InitialDistributions:
    def test_initial_state_at_1e5(self):
        start = time.perf_counter()
        clock = ClockSpec.parse("monthly")
        params = ModelParameters(initial_pop=100_000)
        store = PopulationStore(clock.steps_per_year)
        space = Space()
        placement = build_initial_state(store, space, params, make_rng(7))

        n = store.alive_count
        assert n == 100_000
        male_fraction = store.alive_male / n
        assert abs(male_fraction - 0.5) < 0.005, f"male fraction {male_fraction}"

        mean_age = store.alive_age_steps_sum / n / clock.steps_per_year
        expected_mean = 25 * math.sqrt(2 / math.pi)  # ~19.95
        assert abs(mean_age - expected_mean) < 0.25, f"mean age {mean_age}"

        # Density-weighted placement vs the density weights (chi-square GOF
        # at alpha=0.001). Placement is what the density map governs;
        # housing later consolidates each family into the husband's town,
        # which moves dependents in correlated clusters.
        grid = [(x + 1, y + 1) for x, y in np.ndindex(space.density.shape)]
        counts = {town: 0 for town in grid}
        for cell in placement.tolist():
            counts[town_at(cell)] += 1
        inhabitable = space.inhabitable_towns
        observed = np.array([counts[t] for t in inhabitable], dtype=float)
        weights = np.array([space.density[x - 1, y - 1] for x, y in inhabitable])
        expected = n * weights / weights.sum()
        chi2, pvalue = scipy_stats.chisquare(observed, expected)
        assert pvalue >= 0.001, f"chi-square GOF rejected: p={pvalue}"

        zero_density = [t for t in grid if t not in inhabitable]
        assert all(counts[t] == 0 for t in zero_density)
        # No one ever lives in a zero-density town, consolidation included.
        final_towns = {space.house_town(h) for h in store.house_arr[:store.size].tolist()}
        assert final_towns <= set(inhabitable)

        elapsed = time.perf_counter() - start
        assert elapsed < 20.0, f"too slow: {elapsed:.1f}s"
        report(3, elapsed, f"male {male_fraction:.4f}, mean age {mean_age:.3f}, "
                           f"chi2 p={pvalue:.3g}, zero-density towns empty")


class TestCriterion4StructuralInvariants:
    def test_ten_year_audit_run(self):
        start = time.perf_counter()
        config = SimulationConfig(t0=2020, t_final=2030, clock=ClockSpec.parse("daily"),
                                  seed=99, audit=True, stats_every=50)
        params = ModelParameters(initial_pop=1000)
        # Audit mode sweeps every structural invariant, verifies cached
        # statistics against brute force, and checks population
        # conservation and house-count monotonicity at every boundary;
        # any violation raises AuditError.
        result = run_simulation(config, params, DataTables())
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"too slow: {elapsed:.1f}s"
        assert result.steps == 3650
        report(4, elapsed, f"3650 audited boundaries, final alive "
                           f"{result.statistics[-1].alive}")


class TestCriterion5TemporalOracle:
    def test_scripted_scenario(self):
        start = time.perf_counter()
        store = PopulationStore(12)
        space = Space()
        rng = make_rng(3)

        def adult(gender, years):
            house = space.new_houses(cell_of((4, 3)), rng)
            return store.spawn_person(gender, years * 12, house=house, space=space)

        a = adult(Gender.MALE, 40)
        b = adult(Gender.FEMALE, 39)
        c = adult(Gender.MALE, 30)
        d = adult(Gender.FEMALE, 29)
        e = adult(Gender.MALE, 70)
        f = adult(Gender.MALE, 25)
        g = adult(Gender.FEMALE, 24)

        def script_step_1():
            store.wed(a, b)
            store.wed(c, d)

        def script_step_2():
            store.kill(e, space)
            store.unwed(c, MaritalStatus.DIVORCED)

        def script_step_3():
            store.kill(a, space)  # widows b
            store.wed(f, g)

        def script_step_4():
            store.spawn_person(Gender.FEMALE, 0, father=f, mother=g,
                               house=store.house_arr[g], space=space)

        def script_step_5():
            store.kill(g, space)  # widows f

        features = {"alive": ALIVE, "married": MARRIED, "not_married": ~MARRIED}

        def full_copy():
            n = store.size
            return dict(enumerate(zip(store.alive_arr[:n].tolist(),
                                      (store.status_arr[:n] == MARRIED_CODE).tolist())))

        def brute(name, now_state, prev_state):
            def holds(state, pid):
                alive, married = state[pid]
                if name == "alive":
                    return alive
                if name == "married":
                    return married
                return not married

            just_set = [pid for pid in now_state
                        if holds(now_state, pid)
                        and not (pid in prev_state and holds(prev_state, pid))]
            pre_set = [pid for pid in now_state
                       if pid in prev_state and holds(prev_state, pid)]
            return just_set, pre_set

        scripts = [script_step_1, script_step_2, script_step_3,
                   script_step_4, script_step_5]
        for idx, script in enumerate(scripts, start=1):
            prev_state = full_copy()
            snapshot = StepSnapshot.capture(store)
            script()
            now_state = full_copy()
            ctx = EvalContext(store, space, snapshot)
            for name, expr in features.items():
                expected_just, expected_pre = brute(name, now_state, prev_state)
                assert subpopulation(just(expr), ctx) == expected_just, (
                    f"step {idx}: just({name}) mismatch")
                assert subpopulation(pre(expr), ctx) == expected_pre, (
                    f"step {idx}: pre({name}) mismatch")
        report(5, time.perf_counter() - start,
               "just/pre match brute force on 5 scripted steps x 3 features")


class TestCriterion6Determinism:
    def test_byte_identical_outputs(self, tmp_path):
        start = time.perf_counter()
        config = SimulationConfig(t0=2020, t_final=2021, clock=ClockSpec.parse("monthly"),
                                  seed=4242)
        params = ModelParameters(initial_pop=1000)
        tables = DataTables()

        def produce(tag, cfg):
            result = run_simulation(cfg, params, tables)
            stats = statistics_to_csv(result.statistics)
            pop_path = tmp_path / f"pop_{tag}.txt"
            export_population(result.store, result.space, pop_path)
            return stats, pop_path.read_bytes()

        stats_a, pop_a = produce("a", config)
        stats_b, pop_b = produce("b", config)
        assert stats_a == stats_b
        assert pop_a == pop_b

        other = SimulationConfig(t0=2020, t_final=2021, clock=ClockSpec.parse("monthly"),
                                 seed=4243)
        stats_c, pop_c = produce("c", other)
        assert stats_a != stats_c
        assert pop_a != pop_c
        report(6, time.perf_counter() - start,
               "same seed byte-identical, different seed differs "
               "(cross-platform job in CI)")


class TestCriterion7AgeHistogram:
    def test_million_agent_age_profile(self):
        start = time.perf_counter()
        rng = make_rng(1_000_000)
        clock = ClockSpec.parse("monthly")
        steps = sample_half_normal_age_steps(rng, clock.steps_per_year, size=1_000_000)
        years = steps / clock.steps_per_year
        counts, _ = np.histogram(years, bins=np.arange(0, 120, 10))
        # Half-normal decay: every 10-year bin below the previous one.
        populated = counts[: int(np.max(np.nonzero(counts)) + 1)]
        assert all(a > b for a, b in zip(populated, populated[1:])), counts.tolist()
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"too slow: {elapsed:.1f}s"
        report(7, elapsed, f"decade bins strictly decreasing from {counts[0]}")


class TestCriterion8EventEquations:
    def test_logged_events_equal_algebra_subpopulations(self):
        start = time.perf_counter()
        config = SimulationConfig(seed=88, clock=ClockSpec.parse("daily"), t0=2020,
                                  t_final=2021)
        sim = Simulation(config, ModelParameters(initial_pop=1000), DataTables())
        store, space = sim.store, sim.space

        total_events = 0
        for k in range(365):
            n = store.size
            prev = dict(enumerate(zip(store.alive_arr[:n].tolist(),
                                      (store.status_arr[:n] == MARRIED_CODE).tolist(),
                                      store.partner_arr[:n].tolist())))
            # The events read the live store: the boundary is copied here.
            snapshot = StepSnapshot.capture(store)
            log = sim.step()
            ctx = EvalContext(store, space, snapshot)

            # Deaths: those dead now who were alive at the boundary.
            assert subpopulation(just(~ALIVE), ctx) == sorted(log.deaths)

            # Births: those alive now who did not exist at the boundary.
            assert subpopulation(just(ALIVE), ctx) == sorted(log.births)

            # New marriages, minus anyone who was already married at the
            # boundary (a same-step widow or divorcee who remarried).
            married_now = {pid for couple in log.marriages for pid in couple}
            expected_just_married = sorted(
                pid for pid in married_now if not prev[pid][1])
            assert subpopulation(just(MARRIED), ctx) == expected_just_married

            # Newly not-married among the living: both halves of each
            # divorce plus surviving partners of the dead (unless they
            # remarried within the same step), plus newborns; a person
            # absent from the snapshot "just became" whatever they are.
            unmarried_now = {pid for couple in log.divorces for pid in couple}
            for dead in log.deaths:
                partner = prev[dead][2]
                if partner >= 0:
                    unmarried_now.add(partner)
            expected_just_unmarried = sorted(
                [pid for pid in unmarried_now
                 if store.alive_arr[pid] and store.status_arr[pid] != MARRIED_CODE
                 and prev[pid][1]]
                + list(log.births))
            got = [pid for pid in subpopulation(just(~MARRIED), ctx)
                   if store.alive_arr[pid]]
            assert got == expected_just_unmarried

            total_events += (len(log.deaths) + len(log.births)
                             + len(log.marriages) + len(log.divorces))
        elapsed = time.perf_counter() - start
        assert total_events > 0
        report(8, elapsed, f"365 steps, {total_events} events, exact set equality")
