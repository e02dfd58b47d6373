"""scripts/init_scale.py: a fresh process per run, reporting the build it timed."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from gridpop import engine
from gridpop.params import DataTables, ModelParameters, SimulationConfig
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
    store = engine.Simulation(config, ModelParameters(initial_pop=300), DataTables()).store
    n = store.size
    for run in runs:
        assert run["father_sha256"] == hashlib.sha256(store.father_arr[:n].tobytes()).hexdigest()
        assert run["mother_sha256"] == hashlib.sha256(store.mother_arr[:n].tobytes()).hexdigest()
        steps = run["steps_s"]
        assert set(steps) == {"init_town_populations", "init_ages_and_genders",
                              "init_partnerships", "init_children", "init_housing"}
        assert 0 < sum(steps.values()) <= run["build_s"] + 1e-3
        assert run["peak_rss_mb"] >= run["peak_rss_mb_before_build"] > 0


def test_steps_run_after_the_build_and_hash_the_state_they_reach():
    cmd = [sys.executable, str(ROOT / "scripts" / "init_scale.py"), "--agents", "300",
           "--clock", "monthly", "--seed", "4", "--checkout", str(ROOT), "--steps", "24"]
    run = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
    assert run["steps"] == 24
    assert set(run["events_s"]) == {"ageing", "deaths", "births", "divorces", "marriages"}
    assert 0 < sum(run["events_s"].values()) <= 24 * run["ms_per_step"] / 1000 + 1e-3

    config = SimulationConfig(clock=ClockSpec.parse("monthly"), seed=4, t0=2020, t_final=2022)
    store = engine.run_simulation(config, ModelParameters(initial_pop=300), DataTables()).store
    digest = hashlib.sha256()
    for name in ("age_steps_arr", "male_arr", "alive_arr", "status_arr", "house_arr",
                 "partner_arr", "father_arr", "mother_arr"):
        digest.update(getattr(store, name)[:store.size].astype("<i8").tobytes())
    assert run["state_sha256"] == digest.hexdigest()  # the state run_simulation reaches
