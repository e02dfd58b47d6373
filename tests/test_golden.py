"""The reference runs' output digests against the committed golden files.

The same check as ``python scripts/determinism_digest.py --check``, so a
local test run sees any byte change in statistics.csv or population.txt.
The digests depend on the NumPy PCG64 stream.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest_module():
    spec = importlib.util.spec_from_file_location(
        "determinism_digest", ROOT / "scripts" / "determinism_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_reference_run_matches_golden_digests():
    digest = _digest_module()
    assert digest.compute() == (ROOT / "tests" / "golden" / "reference_run.sha256").read_text()


def test_annual_run_matches_golden_digests():
    # One step a year: few distinct ages, so init_partnerships caches weight rows.
    digest = _digest_module()
    assert (digest.compute("annual_run")
            == (ROOT / "tests" / "golden" / "annual_run.sha256").read_text())


def test_daily_run_matches_golden_digests():
    # Daily clock: each event draws a few candidates a step out of thousands.
    digest = _digest_module()
    assert (digest.compute("daily_run")
            == (ROOT / "tests" / "golden" / "daily_run.sha256").read_text())


def test_hourly_run_matches_golden_digests():
    # Hourly clock: in most steps an event's binomial count is 0 and it draws no candidate.
    digest = _digest_module()
    assert (digest.compute("hourly_run")
            == (ROOT / "tests" / "golden" / "hourly_run.sha256").read_text())
