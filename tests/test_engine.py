"""Engine surface: tables, config files, the run loop, statistics, export."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import children
from gridpop import engine
from gridpop.engine import (
    EXPORT_FIELDS,
    STATISTICS_HEADER,
    build_initial_population,
    collect_step_statistics,
    export_population,
    import_population,
    load_fertility_table,
    run_simulation,
    statistics_to_csv,
)
from gridpop.engine import AuditError
from gridpop.events import StepEventLog, decade_yearly_probability_array
from gridpop.params import (
    ConfigError,
    FERTILITY_HEADER,
    DataTables,
    FertilityTable,
    ModelParameters,
    SimulationConfig,
    config_to_text,
    parse_config_text,
)
from gridpop.population import MARRIED_CODE, collect_invariant_violations
from gridpop.stochastics import ClockSpec


def small_config(**kw):
    defaults = dict(t0=2020, t_final=2021, clock=ClockSpec.parse("monthly"), seed=5)
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestModelParameters:
    def test_reference_defaults(self):
        p = ModelParameters()
        assert p.basic_divorce_rate == 0.06
        assert p.base_die_rate == 0.0001
        assert p.basic_male_marriage_rate == 0.7
        assert p.female_age_die_prob == 0.00019
        assert p.female_age_scaling == 15.5
        assert p.initial_pop == 10_000
        assert p.male_age_die_prob == 0.00021
        assert p.male_age_scaling == 14.0
        assert p.max_num_marr_cand == 100
        assert p.start_married_rate == 0.8

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelParameters(start_married_rate=1.5).validate()
        with pytest.raises(ConfigError):
            ModelParameters(male_age_scaling=0).validate()
        with pytest.raises(ConfigError):
            ModelParameters(initial_pop=0).validate()


class TestDataTables:
    def test_modifier_vectors(self):
        t = DataTables()
        assert t.divorce_modifier_by_decade == (
            0, 1.0, 0.9, 0.5, 0.4, 0.2, 0.1, 0.03, 0.01, 0.001, 0.001, 0.001, 0, 0, 0, 0)
        assert t.male_marriage_modifier_by_decade == (
            0, 0.16, 0.5, 1.0, 0.8, 0.7, 0.66, 0.5, 0.4, 0.2, 0.1, 0.05, 0.01, 0, 0, 0)
        t.validate()

    def test_decade_index(self):
        # Modifiers 1..16 at rate 1 make the hazard the decade index itself.
        def decade_index(age_steps, n):
            return decade_yearly_probability_array(np.array([age_steps]), n, 1.0,
                                                   range(1, 17))[0]

        n = 12
        assert decade_index(0, n) == 1            # clamped up from 0
        assert decade_index(25 * n, n) == 3
        assert decade_index(20 * n, n) == 2       # exact decade boundary
        assert decade_index(135 * n, n) == 14
        assert decade_index(200 * n, n) == 16     # clamped down

    def test_synthetic_profile(self):
        table = FertilityTable.synthetic()
        young, peak, old = table.rates_at(np.array([17, 29, 51]), 2025).tolist()
        assert peak == pytest.approx(0.25)
        assert young < peak > old
        assert table.rates_at(np.array([29]), 1951) == table.rates_at(np.array([29]), 2050)
        assert np.all((table.rates >= 0) & (table.rates <= 1))

    def test_out_of_range_rates_zero(self):
        table = FertilityTable.synthetic()
        assert table.rates_at(np.array([16, 52]), 2025).tolist() == [0.0, 0.0]
        assert table.rates_at(np.array([30]), 1950).tolist() == [0.0]
        assert table.rates_at(np.array([30]), 2051).tolist() == [0.0]

    def test_file_round_trip(self, tmp_path):
        table = FertilityTable.synthetic()
        path = tmp_path / "fertility.txt"
        table.write(path)
        again = FertilityTable.load(path)
        assert np.array_equal(table.rates, again.rates)

    def test_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a header\n")
        with pytest.raises(ConfigError):
            FertilityTable.load(bad)
        bad.write_text("ages 17..51 years 1951..2050\n0.1 0.2\n")
        with pytest.raises(ConfigError):
            FertilityTable.load(bad)

    def test_ragged_row_names_the_line(self, tmp_path):
        lines = FERTILITY_HEADER + "\n" + "0.1 " * 100 + "\n" + "0.1 " * 99 + "\n"
        bad = tmp_path / "ragged.txt"
        bad.write_text(lines)
        with pytest.raises(ConfigError, match="line 3: 99 rates, expected 100"):
            FertilityTable.load(bad)

    def test_non_numeric_rate_names_the_line(self, tmp_path):
        path = tmp_path / "f.txt"
        FertilityTable.synthetic().write(path)
        lines = path.read_text().splitlines()
        cells = lines[5].split()
        cells[7] = "n/a"
        lines[5] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="line 6: .*'n/a'"):
            FertilityTable.load(path)

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_rate_rejected(self, tmp_path, token):
        rates = FertilityTable.synthetic().rates.copy()
        rates[12, 40] = float(token)
        with pytest.raises(ConfigError, match=r"must lie in \[0, 1\]"):
            FertilityTable(rates)
        path = tmp_path / "f.txt"
        FertilityTable.synthetic().write(path)
        lines = path.read_text().splitlines()
        cells = lines[5].split()
        cells[7] = token
        lines[5] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=r"must lie in \[0, 1\]"):
            FertilityTable.load(path)

    def test_load_fertility_table_dispatch(self, tmp_path):
        peak = np.array([29])
        assert load_fertility_table("synthetic").rates_at(peak, 2025)[0] == pytest.approx(0.25)
        path = tmp_path / "f.txt"
        FertilityTable.synthetic().write(path)
        assert load_fertility_table(str(path)).rates_at(peak, 2025)[0] == pytest.approx(0.25)


class TestConfigFiles:
    def test_round_trip(self):
        params = ModelParameters(initial_pop=777, start_married_rate=0.5)
        config = SimulationConfig(seed=9, clock=ClockSpec.parse("weekly"), t_final=2040)
        p2, c2 = parse_config_text(config_to_text(params, config))
        assert p2 == params
        assert c2 == config

    @pytest.mark.parametrize("steps_per_year", [8760, 365, 52, 12, 1, 7, 26])
    def test_round_trip_every_clock(self, steps_per_year):
        # A step rate without a name (26) is written custom:26.
        params = ModelParameters()
        config = SimulationConfig(clock=ClockSpec(steps_per_year))
        assert parse_config_text(config_to_text(params, config)) == (params, config)

    def test_round_trip_every_key(self):
        # Every key at a value other than its default, in declaration order.
        text = ("basicDivorceRate = 0.05\nbaseDieRate = 0.0002\nbasicMaleMarriageRate = 0.6\n"
                "femaleAgeDieProb = 0.0002\nfemaleAgeScaling = 16.5\ninitialPop = 777\n"
                "maleAgeDieProb = 0.0003\nmaleAgeScaling = 13.0\nmaxNumMarrCand = 50\n"
                "startMarriedRate = 0.5\nt0 = 2000\ntFinal = 2040\nclock = custom:90\n"
                "seed = 9\neventOrder = ageing,births,deaths,marriages,divorces\n"
                "outputDir = results/run1\nfertility = rates.txt\ndensityMap = density.txt\n"
                "townGridSize = 10\nmaxInitialAge = 90.5\naudit = true\nstatsEvery = 7\n")
        params, config = parse_config_text(text)
        assert config_to_text(params, config) == text
        for record, default in ((params, ModelParameters()), (config, SimulationConfig())):
            for f in fields(record):
                value, default_value = getattr(record, f.name), getattr(default, f.name)
                assert value != default_value, f.name
                assert type(value) is type(default_value), f.name
        assert parse_config_text(config_to_text(params, config)) == (params, config)

    def test_aliases_accepted(self):
        p, _ = parse_config_text("basicDeathRate = 0.5\nmaleAgeDieRate = 0.1\n"
                                 "femaleAgeDieRate = 0.2\n")
        assert p.base_die_rate == 0.5
        assert p.male_age_die_prob == 0.1
        assert p.female_age_die_prob == 0.2

    @pytest.mark.parametrize("text, lines", [
        ("seed = 3\nseed = 4\n", "lines 1 and 2 both set 'seed'"),
        ("baseDieRate = 0.5\n# note\nbasicDeathRate = 0.01\n",
         "lines 1 and 3 both set 'baseDieRate' ('basicDeathRate' is an alias)"),
        ("maleAgeDieRate = 0.1\nmaleAgeDieProb = 0.2\n",
         "lines 1 and 2 both set 'maleAgeDieProb'"),
    ])
    def test_repeated_key_rejected(self, text, lines):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert str(err.value) == lines

    @pytest.mark.parametrize("text, message", [
        ("\nseed = 3.5\n", "line 2: bad value for seed: invalid literal for int() "
                            "with base 10: '3.5'"),
        ("maleAgeScaling = fast\n", "line 1: bad value for maleAgeScaling: could not "
                                    "convert string to float: 'fast'"),
        ("audit = maybe\n", "line 1: bad value for audit: expected true or false, got 'maybe'"),
        ("clock = fortnightly\n", "line 1: bad value for clock: unknown clock spec: "
                                  "'fortnightly'"),
        ("clock = custom:0\n", "line 1: bad value for clock: steps_per_year must be >= 1"),
    ])
    def test_bad_value_names_line_and_key(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("key", ["femaleAgeScaling", "baseDieRate", "maxInitialAge"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"{key} = {value}\n")
        assert str(err.value) == f"{key} must be finite, got {float(value)}"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("noSuchKnob = 3\n")

    def test_comments_and_blanks(self):
        p, c = parse_config_text("# comment\n\nseed = 4  # trailing\n")
        assert c.seed == 4

    def test_event_order_validation(self):
        with pytest.raises(ConfigError):
            SimulationConfig(event_order=("deaths", "ageing", "births",
                                          "divorces", "marriages")).validate()
        with pytest.raises(ConfigError):
            SimulationConfig(event_order=("ageing", "deaths")).validate()

    def test_tfinal_not_before_t0(self):
        with pytest.raises(ConfigError):
            SimulationConfig(t0=2030, t_final=2020).validate()
        SimulationConfig(t0=2030, t_final=2030).validate()  # equal is allowed


class TestRunSimulation:
    def test_initial_state_only(self):
        logs = []
        result = run_simulation(small_config(t_final=2020),
                                ModelParameters(initial_pop=300), DataTables(),
                                step_hook=lambda k, snap, log, *rest: logs.append(log))
        assert len(result.statistics) == 1
        assert logs == []
        assert result.statistics[0].alive == 300
        assert result.statistics[0].time == 2020.0

    def test_row_count_and_times(self):
        result = run_simulation(small_config(), ModelParameters(initial_pop=300),
                                DataTables())
        assert len(result.statistics) == 13  # initial + 12 monthly steps
        assert result.statistics[1].time == pytest.approx(2020 + 1 / 12)
        assert result.statistics[-1].time == pytest.approx(2021.0)

    def test_determinism_and_seed_sensitivity(self):
        cfg = small_config()
        params = ModelParameters(initial_pop=400)
        a = statistics_to_csv(run_simulation(cfg, params, DataTables()).statistics)
        b = statistics_to_csv(run_simulation(cfg, params, DataTables()).statistics)
        assert a == b
        c = statistics_to_csv(run_simulation(small_config(seed=6), params,
                                             DataTables()).statistics)
        assert a != c

    def test_audit_mode_full_run(self):
        result = run_simulation(small_config(audit=True),
                                ModelParameters(initial_pop=400), DataTables())
        assert collect_invariant_violations(result.store, result.space) == []

    def test_stats_cross_checks(self):
        logs = []
        result = run_simulation(small_config(t_final=2022, seed=8),
                                ModelParameters(initial_pop=600), DataTables(),
                                step_hook=lambda k, snap, log, *rest: logs.append(log))
        for row, log in zip(result.statistics[1:], logs):
            assert row.alive == row.males + row.females
            assert row.married % 2 == 0
            # Births this step are exactly the age-0 persons created this step.
            assert row.births == len(log.births)
        store = result.store
        newborns = int(np.count_nonzero(store.age_steps_arr[:store.size] < 12 * (2022 - 2020)))
        assert newborns >= sum(r.births for r in result.statistics) > 0

    def test_event_counts_match_logs(self):
        logs = []
        result = run_simulation(small_config(seed=10),
                                ModelParameters(initial_pop=500), DataTables(),
                                step_hook=lambda k, snap, log, *rest: logs.append(log))
        assert sum(r.deaths for r in result.statistics) == sum(
            len(l.deaths) for l in logs)
        assert sum(r.marriages for r in result.statistics) == sum(
            len(l.marriages) for l in logs)

    def test_stats_thinning(self):
        result = run_simulation(small_config(stats_every=5),
                                ModelParameters(initial_pop=300), DataTables())
        # initial + steps 5, 10, 12 (final always included).
        assert len(result.statistics) == 4

    def test_thinned_rows_count_every_step(self):
        events = ("births", "deaths", "marriages", "divorces", "orphan_moves", "divorce_moves")
        config = small_config(clock=ClockSpec.parse("daily"), seed=3)
        params = ModelParameters(initial_pop=500)
        every = run_simulation(config, params, DataTables()).statistics
        thinned = run_simulation(replace(config, stats_every=5), params, DataTables()).statistics
        assert len(thinned) == 1 + 73
        for prev, row in zip(thinned, thinned[1:]):
            assert row.alive == prev.alive + row.births - row.deaths
        for name in events:
            assert sum(getattr(r, name) for r in thinned) == sum(getattr(r, name) for r in every)
        assert sum(r.births for r in every) > 0

    def test_empty_population_statistics(self, store, space):
        stats = collect_step_statistics(store, space, StepEventLog().counts(), 2020.0)
        assert stats.alive == 0 and stats.mean_age == 0.0

    def test_audit_error_names_the_step(self):
        def corrupt(k, snapshot, log, store, space):
            if k == 3:  # a married person loses the partner link
                pid = int(np.flatnonzero(store.status_arr[:store.size] == MARRIED_CODE)[0])
                store.partner_arr[pid] = -1

        with pytest.raises(AuditError, match=r"^step 4: \d+ invariant violations"):
            run_simulation(small_config(audit=True), ModelParameters(initial_pop=300),
                           DataTables(), step_hook=corrupt)

    def test_custom_event_order(self):
        order = ("ageing", "marriages", "divorces", "births", "deaths")
        result = run_simulation(small_config(event_order=order, audit=True),
                                ModelParameters(initial_pop=300), DataTables())
        assert len(result.statistics) == 13

    def test_weekly_clock(self):
        result = run_simulation(small_config(clock=ClockSpec.parse("weekly")),
                                ModelParameters(initial_pop=200), DataTables())
        assert len(result.statistics) == 53

    def test_density_override_confines_population(self, tmp_path):
        rows = [["0.0"] * 8 for _ in range(12)]
        rows[5][3] = "1.0"
        rows[6][6] = "0.5"
        path = tmp_path / "density.txt"
        path.write_text("\n".join(" ".join(r) for r in rows))
        cfg = small_config(density_map=str(path))
        result = run_simulation(cfg, ModelParameters(initial_pop=300), DataTables())
        store = result.store
        homes = store.house_arr[:store.size][store.alive_arr[:store.size]]
        towns = {result.space.house_town(h) for h in homes.tolist()}
        assert towns <= {(6, 4), (7, 7)}


class TestStepHook:
    """Only a step hook makes the run copy each boundary's state, and the
    copy changes no output byte."""

    @pytest.mark.parametrize("config, initial_pop", [
        (small_config(audit=True, seed=11), 400),
        (small_config(clock=ClockSpec.parse("hourly"), seed=12), 150),
    ], ids=["monthly-audit", "hourly"])
    def test_no_hook_no_capture_same_bytes(self, config, initial_pop, tmp_path, monkeypatch):
        params = ModelParameters(initial_pop=initial_pop)

        def outputs(tag, **hook):
            result = run_simulation(config, params, DataTables(), **hook)
            stats, pop = tmp_path / f"statistics_{tag}.csv", tmp_path / f"population_{tag}.txt"
            engine.write_statistics(result.statistics, stats)
            export_population(result.store, result.space, pop)
            return stats.read_bytes(), pop.read_bytes()

        logs = []
        hooked = outputs("hooked", step_hook=lambda k, snap, log, *rest: logs.append(log))
        assert sum(len(log.marriages) + len(log.divorces) for log in logs) > 0

        def no_capture(store):
            raise AssertionError("StepSnapshot.capture called without a step hook")

        monkeypatch.setattr(engine.StepSnapshot, "capture", staticmethod(no_capture))
        assert outputs("plain") == hooked


def test_fresh_run_and_round_trip_do_not_import_numpy_ma(tmp_path):
    """A plain np.unique imports numpy.ma on its first call (NumPy 2.4),
    ~25 ms in a fresh process: more than a small run's whole set-up."""
    script = f"""
import sys
import numpy
if "numpy.ma" in sys.modules:
    print("preloaded")
    raise SystemExit
from gridpop.engine import export_population, import_population, run_simulation
from gridpop.params import DataTables, ModelParameters, SimulationConfig
from gridpop.stochastics import ClockSpec
config = SimulationConfig(t0=2020, t_final=2021, clock=ClockSpec.parse("monthly"), seed=5)
result = run_simulation(config, ModelParameters(initial_pop=300), DataTables())
path = {str(tmp_path / "population.txt")!r}
export_population(result.store, result.space, path)
import_population(path)
print("loaded" if "numpy.ma" in sys.modules else "clean")
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.split()[-1]
    if out == "preloaded":
        pytest.skip("import numpy alone loads numpy.ma here")
    assert out == "clean"


class TestExport:
    def test_round_trip_preserves_everything(self, tmp_path):
        result = run_simulation(small_config(seed=20),
                                ModelParameters(initial_pop=400), DataTables())
        path = tmp_path / "pop.txt"
        export_population(result.store, result.space, path)
        store2, space2 = import_population(path)
        n = result.store.size
        assert store2.size == n
        for name in ("male_arr", "age_steps_arr", "alive_arr", "status_arr", "partner_arr",
                     "father_arr", "mother_arr", "house_arr"):
            assert np.array_equal(getattr(store2, name)[:n], getattr(result.store, name)[:n]), name
        for got, want in zip(store2.children_index(), result.store.children_index()):
            assert np.array_equal(got, want)
        # Re-export is byte-identical.
        path2 = tmp_path / "pop2.txt"
        export_population(store2, space2, path2)
        assert path.read_text() == path2.read_text()

    def test_imported_store_passes_sweep(self, tmp_path):
        result = run_simulation(small_config(seed=21),
                                ModelParameters(initial_pop=300), DataTables())
        path = tmp_path / "pop.txt"
        export_population(result.store, result.space, path)
        store2, space2 = import_population(path)
        assert collect_invariant_violations(store2, space2) == []

    def test_dead_marked_grave(self, tmp_path):
        result = run_simulation(small_config(seed=22, t_final=2023),
                                ModelParameters(initial_pop=500), DataTables())
        path = tmp_path / "pop.txt"
        export_population(result.store, result.space, path)
        text = path.read_text()
        store = result.store
        dead = np.flatnonzero(~store.alive_arr[:store.size]).tolist()
        assert dead, "expected some deaths in three years"
        for pid in dead:
            line = next(ln for ln in text.splitlines() if ln.startswith(f"{pid} "))
            assert " grave " in line

    def test_exported_alive_count_matches_statistics(self, tmp_path):
        result = run_simulation(small_config(seed=23),
                                ModelParameters(initial_pop=400), DataTables())
        path = tmp_path / "pop.txt"
        export_population(result.store, result.space, path)
        store2, _ = import_population(path)
        assert store2.alive_count == result.statistics[-1].alive

    def test_re_export_after_direct_parent_write(self, tmp_path):
        # The children column is derived from the parent arrays at each
        # export, so a parent written straight into the arrays after one
        # export shows in the next.
        result = run_simulation(small_config(seed=3),
                                ModelParameters(initial_pop=300), DataTables())
        store, space = result.store, result.space
        export_population(store, space, tmp_path / "first.txt")
        n = store.size
        alive, age = store.alive_arr[:n], store.age_steps_arr[:n]
        child = int(np.flatnonzero(alive & (age >= store.adult_age_steps)
                                   & (store.father_arr[:n] < 0)
                                   & (store.mother_arr[:n] < 0))[0])
        father = int(np.flatnonzero(alive & store.male_arr[:n] & (age > age[child])
                                    & (store.status_arr[:n] == MARRIED_CODE))[0])
        store.father_arr[child] = father
        assert collect_invariant_violations(store, space) == []
        path = tmp_path / "second.txt"
        export_population(store, space, path)
        store2, _ = import_population(path)
        assert child in children(store2, father)
        kids = {pid: [] for pid in range(n)}  # from the parent columns, ascending
        for pid in range(n):
            for parent in (store.father_arr[pid], store.mother_arr[pid]):
                if parent >= 0:
                    kids[int(parent)].append(str(pid))
        for line in path.read_text().splitlines()[3:]:
            cells = line.split(" ")
            assert cells[8] == (",".join(kids[int(cells[0])]) or "-"), cells[0]

    @pytest.fixture
    def export_lines(self, tmp_path):
        result = run_simulation(small_config(seed=24),
                                ModelParameters(initial_pop=200), DataTables())
        path = tmp_path / "pop.txt"
        export_population(result.store, result.space, path)
        return path, path.read_text().splitlines()

    def test_children_column_must_match_parents(self, export_lines):
        path, lines = export_lines
        i = next(i for i, ln in enumerate(lines)
                 if not ln.startswith("#") and ln.split(" ")[8] != "-")
        cells = lines[i].split(" ")
        cells[8] = ",".join(cells[8].split(",")[1:]) or "-"  # drop one child
        lines[i] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"person {cells[0]}: children column"):
            import_population(path)

    def test_unsorted_children_column_imports(self, export_lines):
        path, lines = export_lines
        i = next(i for i, ln in enumerate(lines)
                 if not ln.startswith("#") and "," in ln.split(" ")[8])
        cells = lines[i].split(" ")
        kids = cells[8].split(",")
        cells[8] = ",".join(kids[::-1])  # the same children, descending
        lines[i] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        store, _ = import_population(path)
        assert children(store, int(cells[0])) == {int(c) for c in kids}

    def test_residents_of_one_house_must_share_its_town(self, export_lines):
        path, lines = export_lines
        rows = [ln.split(" ") for ln in lines if not ln.startswith("#")]
        homes = [cells[9] for cells in rows]
        cells = next(c for c in reversed(rows) if c[9].isdigit() and homes.count(c[9]) > 1)
        i = lines.index(" ".join(cells))
        cells[10] = str(int(cells[10]) + 1)
        lines[i] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"person {cells[0]}: town .* house {cells[9]}"):
            import_population(path)

    @pytest.mark.parametrize("town", [("13", "2"), ("4", "9"), ("0", "3")])
    def test_town_off_the_grid_rejected(self, export_lines, town):
        path, lines = export_lines
        rows = [ln.split(" ") for ln in lines if not ln.startswith("#")]
        first = next(c for c in rows if c[9].isdigit())
        for cells in rows:
            if cells[9] == first[9]:
                i = lines.index(" ".join(cells))
                cells[10:12] = town
                lines[i] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"person {first[0]}: town .* lies off the 12x8 grid"):
            import_population(path)

    def test_wrong_field_count(self, export_lines):
        path, lines = export_lines
        lines[5] = lines[5].rsplit(" ", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 6: 11 fields, expected 12"):
            import_population(path)

    @pytest.mark.parametrize("cell", ["yes", "2", "1.0", "true"])
    def test_alive_must_be_0_or_1(self, export_lines, cell):
        path, lines = export_lines
        cells = lines[5].split(" ")
        cells[3] = cell
        lines[5] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line 6: alive '{cell}', expected 0 or 1"):
            import_population(path)

    @pytest.mark.parametrize("line, field, cell, expected", [
        (6, "gender", "malee", "male or female"),
        (6, "age_steps", "3.5", "an integer"),
        (6, "status", "engaged", "single, married, divorced or widowed"),
        (6, "partner", "none", "an integer or -"),
        (6, "father", "1e3", "an integer or -"),
        (6, "mother", "-1.0", "an integer or -"),
        (6, "house", "home", "an integer, - or grave"),
        (6, "town_x", "x", "an integer"),
        (6, "town_y", "5.", "an integer"),
        (21, "gender", "malee", "male or female"),  # the third block's last line
        (21, "status", "engaged", "single, married, divorced or widowed"),
    ])
    def test_unconvertible_field_names_the_line(self, export_lines, monkeypatch, line, field,
                                                cell, expected):
        monkeypatch.setattr(engine, "_EXPORT_BLOCK", 7)
        path, lines = export_lines
        cells = lines[line - 1].split(" ")  # persons 2 and 17, both housed
        cells[EXPORT_FIELDS.split().index(field)] = cell
        lines[line - 1] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        message = f"line {line}: {field} '{cell}', expected {expected}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            import_population(path)

    @pytest.mark.parametrize("block", [7, 1000])
    def test_block_size_changes_no_byte(self, tmp_path, monkeypatch, block):
        result = run_simulation(small_config(seed=25),
                                ModelParameters(initial_pop=2500), DataTables())
        assert result.store.size > 2 * block and result.store.size % block
        default = tmp_path / "default.txt"
        export_population(result.store, result.space, default)
        monkeypatch.setattr(engine, "_EXPORT_BLOCK", block)
        blocked, again = tmp_path / "blocked.txt", tmp_path / "again.txt"
        export_population(result.store, result.space, blocked)
        export_population(*import_population(blocked), again)
        assert blocked.read_bytes() == default.read_bytes()
        assert again.read_bytes() == default.read_bytes()

    def test_wrong_field_count_past_the_first_block(self, export_lines, monkeypatch):
        monkeypatch.setattr(engine, "_EXPORT_BLOCK", 7)
        path, lines = export_lines
        lines[20] = lines[20].rsplit(" ", 1)[0]  # person 17, in the third block
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^line 21: 11 fields, expected 12$"):
            import_population(path)

    def test_children_mismatch_past_the_first_block(self, export_lines, monkeypatch):
        monkeypatch.setattr(engine, "_EXPORT_BLOCK", 7)
        path, lines = export_lines
        i = next(i for i, ln in enumerate(lines) if i > 20
                 and not ln.startswith("#") and ln.split(" ")[8] != "-")
        cells = lines[i].split(" ")
        cells[8] = ",".join(cells[8].split(",")[1:]) or "-"  # drop one child
        lines[i] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^person {cells[0]}: children column"):
            import_population(path)

    def test_export_memory_is_bounded_by_the_block(self, tmp_path, monkeypatch):
        store, space, _ = build_initial_population(small_config(seed=26),
                                                   ModelParameters(initial_pop=20_000))
        monkeypatch.setattr(engine, "_EXPORT_BLOCK", 1000)
        tracemalloc.start()
        try:
            export_population(store, space, tmp_path / "pop.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / store.size < 100


class TestStatisticsCsv:
    def test_header_and_shape(self):
        result = run_simulation(small_config(), ModelParameters(initial_pop=300),
                                DataTables())
        text = statistics_to_csv(result.statistics)
        lines = text.strip().split("\n")
        assert lines[0] == STATISTICS_HEADER
        assert len(lines) == len(result.statistics) + 1
        assert all(len(ln.split(",")) == len(STATISTICS_HEADER.split(","))
                   for ln in lines[1:])

    def test_header_literal(self):
        assert STATISTICS_HEADER == (
            "time,alive,males,females,married,single,divorced,widowed,mean_age,"
            "births,deaths,marriages,divorces,orphan_moves,divorce_moves,houses,occupied_houses")

    def test_time_column_distinguishes_steps(self):
        result = run_simulation(small_config(clock=ClockSpec.parse("daily"), t_final=2021),
                                ModelParameters(initial_pop=50), DataTables())
        text = statistics_to_csv(result.statistics)
        times = [ln.split(",")[0] for ln in text.strip().split("\n")[1:]]
        assert len(set(times)) == len(times)
