"""scripts/init_scale.py: a fresh process per run, reporting the build it timed."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from gridpop import engine
from gridpop.params import ModelParameters, SimulationConfig
from gridpop.stochastics import ClockSpec

ROOT = Path(__file__).resolve().parent.parent


def test_runs_alternate_and_hash_the_parents_of_the_build():
    here, again = str(ROOT), f"{ROOT}/."  # one checkout under two names
    cmd = [sys.executable, str(ROOT / "scripts" / "init_scale.py"), "--agents", "300",
           "--clock", "custom:3", "--seed", "4", "--checkout", here,
           "--checkout", again, "--repeats", "2"]
    runs = [json.loads(line) for line in
            subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()]
    assert [run["checkout"] for run in runs] == [here, again, again, here]

    config = SimulationConfig(clock=ClockSpec.parse("custom:3"), seed=4)
    store, _, _ = engine.build_initial_population(config, ModelParameters(initial_pop=300))
    n = store.size
    for run in runs:
        assert run["father_sha256"] == hashlib.sha256(store.father_arr[:n].tobytes()).hexdigest()
        assert run["mother_sha256"] == hashlib.sha256(store.mother_arr[:n].tobytes()).hexdigest()
        steps = run["steps_s"]
        assert set(steps) == {"init_town_populations", "init_ages_and_genders",
                              "init_partnerships", "init_children", "init_housing"}
        assert 0 < sum(steps.values()) <= run["build_s"] + 1e-3
        assert run["peak_rss_mb"] >= run["peak_rss_mb_before_build"] > 0
