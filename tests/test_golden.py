"""The reference run's output digests against the committed golden file.

The same check as ``python scripts/determinism_digest.py --check``, so a
local test run sees any byte change in statistics.csv or population.txt.
The digests depend on the NumPy PCG64 stream.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reference_run_matches_golden_digests():
    spec = importlib.util.spec_from_file_location(
        "determinism_digest", ROOT / "scripts" / "determinism_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert digest.compute() == (ROOT / "tests" / "golden" / "reference_run.sha256").read_text()
