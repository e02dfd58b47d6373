"""The reference runs' output digests against the committed golden files.

The same check as ``python scripts/determinism_digest.py --check``, so a
local test run sees any byte change in statistics.csv or population.txt.
The digests depend on the NumPy PCG64 stream.
"""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "determinism_digest.py"
_spec = importlib.util.spec_from_file_location("determinism_digest", _SCRIPT)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


# reference_run: the monthly clock. annual_run: the coarsest clock, where
# every age is a whole number of years. daily_run: each event draws a few
# candidates a step out of thousands. hourly_run: in most steps an event's
# binomial count is 0 and it draws no candidate.
@pytest.mark.parametrize("run", list(digest.REFERENCE_RUNS))
def test_run_matches_golden_digests(run):
    assert digest.compute(run) == (digest.GOLDEN / f"{run}.sha256").read_text()


def test_record_then_check_round_trip(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(digest, "GOLDEN", tmp_path)
    assert digest.main(["--record"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{run}.sha256" for run in digest.REFERENCE_RUNS)
    assert digest.main(["--check"]) == 0
    assert capsys.readouterr().out.endswith("digests match the committed golden files\n")
    (tmp_path / "hourly_run.sha256").write_text("0" * 64 + "  statistics.csv\n")
    assert digest.main(["--check"]) == 1
