"""CLI behavior: subcommands, precedence, determinism, replicates, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridpop
from gridpop.cli import main


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


class TestValidate:
    def test_defaults_valid(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("initialPop = 300\nclock = monthly\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_invalid_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("startMarriedRate = 7\n")
        assert run_cli(["validate", "--config", str(cfg)]) == 1

    def test_max_initial_age_below_one_step_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("initialPop = 300\nclock = monthly\nmaxInitialAge = 0.05\n")
        done = run_process(["validate", "--config", str(cfg)], timeout=20)
        assert done.returncode == 1
        assert done.stderr.strip() == ("error: maxInitialAge 0.05 years is shorter than one "
                                       "step of the monthly clock (12 steps per year)")
