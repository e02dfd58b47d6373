"""CLI behavior: subcommands, precedence, determinism, replicates, exit codes."""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import gridpop
from gridpop import cli
from gridpop.cli import main
from gridpop.population import PopulationStore


def run_cli(args):
    return main(args)


def run_process(args, timeout=60):
    """The CLI in a child process, so that a hang fails by the timeout and
    an uncaught exception shows as a traceback on stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(gridpop.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "gridpop.cli", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestExportDefaults:
    def test_stdout(self, capsys):
        assert run_cli(["export-defaults"]) == 0
        out = capsys.readouterr().out
        assert "basicDivorceRate = 0.06" in out
        assert "clock = daily" in out

    def test_matches_golden_file(self, capsys):
        assert run_cli(["export-defaults"]) == 0
        golden = Path(__file__).parent / "golden" / "defaults.cfg"
        assert capsys.readouterr().out == golden.read_text()

    def test_default_config_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.cfg"
        assert run_cli(["export-defaults", "--out", str(cfg)]) == 0
        base_args = ["--seed", "3", "--dt", "monthly", "--t0", "2020",
                     "--tfinal", "2021", "--initial-pop", "300"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(["run", *base_args, "--out", str(out_a)]) == 0
        assert run_cli(["run", "--config", str(cfg), *base_args, "--out", str(out_b)]) == 0
        assert (out_a / "statistics.csv").read_text() == (out_b / "statistics.csv").read_text()
        assert (out_a / "population.txt").read_text() == (out_b / "population.txt").read_text()


class TestRun:
    def test_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["run", "--seed", "1", "--dt", "monthly", "--t0", "2020",
                        "--tfinal", "2021", "--initial-pop", "200", "--out", str(out)])
        assert code == 0
        assert (out / "statistics.csv").exists()
        assert (out / "population.txt").exists()
        assert "run complete" in capsys.readouterr().out

    def test_identical_flags_identical_bytes(self, tmp_path):
        args = ["run", "--seed", "4", "--dt", "monthly", "--t0", "2020",
                "--tfinal", "2021", "--initial-pop", "250"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli([*args, "--out", str(out_a)]) == 0
        assert run_cli([*args, "--out", str(out_b)]) == 0
        assert (out_a / "statistics.csv").read_bytes() == (out_b / "statistics.csv").read_bytes()
        assert (out_a / "population.txt").read_bytes() == (out_b / "population.txt").read_bytes()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\ninitialPop = 100\nclock = monthly\n"
                       "t0 = 2020\ntFinal = 2021\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--config", str(cfg), "--initial-pop", "123",
                        "--tfinal", "2020", "--out", str(out)]) == 0
        stats = (out / "statistics.csv").read_text().strip().split("\n")
        assert len(stats) == 2  # header + initial row only (tfinal overridden to t0)
        assert stats[1].split(",")[1] == "123"

    def test_audit_flag(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["run", "--seed", "2", "--dt", "monthly", "--t0", "2020",
                        "--tfinal", "2021", "--initial-pop", "150", "--audit",
                        "--out", str(out)]) == 0

    def test_custom_clock(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["run", "--seed", "2", "--dt", "custom:6", "--t0", "2020",
                        "--tfinal", "2021", "--initial-pop", "100",
                        "--out", str(out)]) == 0
        stats = (out / "statistics.csv").read_text().strip().split("\n")
        assert len(stats) == 8  # header + initial + 6 steps

    def test_bad_config_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mysteryKnob = 12\n")
        assert run_cli(["run", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("dt, message", [
        ("custom:0", "steps_per_year must be >= 1"),
        ("fortnightly", "unknown clock spec: 'fortnightly'"),
        ("", "unknown clock spec: ''"),
    ])
    def test_bad_dt_names_the_flag(self, tmp_path, capsys, dt, message):
        out = tmp_path / "out"
        assert run_cli(["run", "--dt", dt, "--initial-pop", "100", "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip() == f"config error: bad value for --dt: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("flags, setting, message", [
        (["--out", ""], None, "outputDir must not be empty"),
        ([], "outputDir =", "outputDir must not be empty"),
        (["--fertility", ""], None, "fertility must not be empty"),
    ])
    def test_empty_path_is_a_config_error(self, tmp_path, monkeypatch, capsys, flags, setting,
                                          message):
        monkeypatch.chdir(tmp_path)
        args = ["run", "--initial-pop", "100", "--dt", "monthly", "--tfinal", "2021", *flags]
        if setting:
            (tmp_path / "c.cfg").write_text(f"{setting}\n")
            args += ["--config", "c.cfg"]
        assert run_cli(args) == 1
        assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert [p.name for p in tmp_path.iterdir()] == (["c.cfg"] if setting else [])

    def test_missing_fertility_file_nonzero(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["run", "--fertility", str(tmp_path / "nope.txt"),
                        "--initial-pop", "100", "--tfinal", "2020", "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["2", "4"])
    def test_unbuildable_initial_state_is_an_input_error(self, tmp_path, seed):
        # One person, a minor: no married couple can parent them.
        done = run_process(["run", "--initial-pop", "1", "--seed", seed, "--dt", "monthly",
                            "--tfinal", "2021", "--out", str(tmp_path / "out")])
        assert done.returncode == 1
        assert done.stderr.strip() == ("error: minors present but no married couple "
                                       "can be formed")

    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--frobnicate"])
        assert exc.value.code != 0


class TestReplicates:
    def test_replicate_files_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["run", "--seed", "10", "--dt", "monthly", "--t0", "2020",
                        "--tfinal", "2021", "--initial-pop", "150",
                        "--replicates", "3", "--out", str(out)]) == 0
        for i in range(3):
            assert (out / f"statistics_r{i:03d}.csv").exists()
            assert (out / f"population_r{i:03d}.txt").exists()
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert summary[0].startswith("time,alive_mean,alive_var,")
        assert len(summary) == 14  # header + initial + 12 steps

    def test_summary_header(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["run", "--seed", "10", "--dt", "monthly", "--t0", "2020",
                        "--tfinal", "2020", "--initial-pop", "150",
                        "--replicates", "2", "--out", str(out)]) == 0
        header = (out / "summary.csv").read_text().split("\n")[0]
        assert header == (
            "time,alive_mean,alive_var,males_mean,males_var,females_mean,females_var,"
            "married_mean,married_var,single_mean,single_var,divorced_mean,divorced_var,"
            "widowed_mean,widowed_var,mean_age_mean,mean_age_var,births_mean,births_var,"
            "deaths_mean,deaths_var,marriages_mean,marriages_var,divorces_mean,divorces_var,"
            "orphan_moves_mean,orphan_moves_var,divorce_moves_mean,divorce_moves_var,"
            "houses_mean,houses_var,occupied_houses_mean,occupied_houses_var")

    def test_replicates_differ_but_deterministically(self, tmp_path):
        out = tmp_path / "out"
        run_cli(["run", "--seed", "10", "--dt", "monthly", "--t0", "2020",
                 "--tfinal", "2021", "--initial-pop", "150",
                 "--replicates", "2", "--out", str(out)])
        a = (out / "statistics_r000.csv").read_text()
        b = (out / "statistics_r001.csv").read_text()
        assert a != b
        # Replicate 0 uses exactly the base seed.
        solo = tmp_path / "solo"
        run_cli(["run", "--seed", "10", "--dt", "monthly", "--t0", "2020",
                 "--tfinal", "2021", "--initial-pop", "150", "--out", str(solo)])
        assert (solo / "statistics.csv").read_text() == a

    def test_replicates_hold_one_population_at_a_time(self, tmp_path, monkeypatch):
        real, stores = cli.run_simulation, []

        def run_simulation(*args, **kwargs):
            if stores:
                assert stores[-1]() is None, f"replicate {len(stores) - 1}'s store is alive"
            result = real(*args, **kwargs)
            stores.append(weakref.ref(result.store))
            return result

        monkeypatch.setattr(cli, "run_simulation", run_simulation)
        assert run_cli(["run", "--seed", "10", "--dt", "monthly", "--t0", "2020",
                        "--tfinal", "2020", "--initial-pop", "150",
                        "--replicates", "3", "--out", str(tmp_path / "out")]) == 0
        assert len(stores) == 3


class TestValidate:
    def test_defaults_valid(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("initialPop = 300\nclock = monthly\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_audit_checks_the_cached_counts(self, monkeypatch, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("initialPop = 300\nclock = monthly\n")
        monkeypatch.setattr(PopulationStore, "recount", lambda store: None)
        assert run_cli(["validate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            "INVALID: initial state: cached statistic alive_count: 0 != sweep 300")

    def test_invalid_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("startMarriedRate = 7\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("setting", ["femaleAgeScaling = nan", "maxInitialAge = inf",
                                         "maxInitialAge = nan"])
    def test_non_finite_value_names_the_key(self, tmp_path, setting):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"initialPop = 300\nclock = monthly\ntFinal = 2021\n{setting}\n")
        for command in (["run", "--out", str(tmp_path / "out")], ["validate"]):
            done = run_process([command[0], "--config", str(cfg), *command[1:]], timeout=20)
            key, value = setting.split(" = ")
            assert done.returncode == 1
            assert done.stderr.strip() == f"config error: {key} must be finite, got {value}"

    @pytest.mark.parametrize("setting, message", [
        ("seed = -1", "seed must be non-negative, got -1"),
        ("fertility =", "fertility must not be empty"),
        ("densityMap =", "densityMap must not be empty"),
    ])
    def test_bad_seed_or_empty_path_names_the_key(self, tmp_path, capsys, setting, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"initialPop = 300\nclock = monthly\ntFinal = 2021\n{setting}\n")
        for command in (["run", "--out", str(tmp_path / "out")], ["validate"]):
            assert run_cli([command[0], "--config", str(cfg), *command[1:]]) == 1
            assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert not (tmp_path / "out").exists()

    def test_max_initial_age_below_one_step_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("initialPop = 300\nclock = monthly\nmaxInitialAge = 0.05\n")
        done = run_process(["validate", "--config", str(cfg)], timeout=20)
        assert done.returncode == 1
        assert done.stderr.strip() == ("error: maxInitialAge 0.05 years is shorter than one "
                                       "step of the monthly clock (12 steps per year)")
