"""The comparison at the heart of scripts/stream_equivalence.py.

The full check runs hundreds of simulations, too slow for every test run;
these tests keep its sampling and its decision honest on small inputs.
"""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _harness():
    spec = importlib.util.spec_from_file_location(
        "stream_equivalence", ROOT / "scripts" / "stream_equivalence.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def samples(seed, columns=20, n=40):
    rng = np.random.default_rng(seed)
    return {("daily-10k", 1, f"c{i}"): rng.normal(1000.0, 30.0, n).round().tolist()
            for i in range(columns)}


def test_identical_samples_pass():
    old = samples(1)
    results, passed = _harness().compare(old, {key: list(v) for key, v in old.items()})
    assert passed
    assert len(results) == 20
    assert all(r.p == 1.0 and r.corrected == 1.0 for r in results)


def test_independent_samples_of_one_law_pass():
    assert _harness().compare(samples(1), samples(2))[1]


def test_a_shifted_column_fails_after_correction():
    old, new = samples(1), samples(2)
    key = ("daily-10k", 1, "c7")
    new[key] = [v + 45.0 for v in new[key]]  # 1.5 standard deviations
    results, passed = _harness().compare(old, new)
    assert not passed
    failed = [r.key for r in results if r.corrected <= 0.05]
    assert failed == [key]
    shifted = next(r for r in results if r.key == key)
    assert shifted.corrected == min(1.0, shifted.p * 20)


def test_constant_columns_are_skipped_unless_they_differ():
    old, new = samples(1, columns=1), samples(2, columns=1)
    same, moved = ("daily-10k", 1, "same"), ("daily-10k", 1, "moved")
    old[same], new[same] = [3.0] * 40, [3.0] * 40
    old[moved], new[moved] = [3.0] * 40, [4.0] * 40
    results, passed = _harness().compare(old, new)
    assert [r.key for r in results] == [("daily-10k", 1, "c0"), moved]
    assert not passed


def test_year_samples_sum_events_and_keep_the_last_state():
    text = ("time,alive,births,mean_age\n"
            "2020.000000,10,0,30\n"
            "2020.500000,11,1,30.5\n"
            "2021.000000,12,1,31\n"
            "2021.500000,12,0,31.5\n"
            "2022.000000,11,2,32\n")
    assert _harness().year_samples(text) == {
        (1, "alive"): 12.0, (1, "births"): 2.0, (1, "mean_age"): 31.0,
        (2, "alive"): 11.0, (2, "births"): 2.0, (2, "mean_age"): 32.0,
    }
