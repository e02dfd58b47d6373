#!/usr/bin/env python3
"""Time each step of building an initial state, one fresh process per run.

    python scripts/init_scale.py --agents 10000 --clock daily --seed 1 \\
        --checkout . --checkout ../other --repeats 5 [--steps K]

Each run starts a new Python process that imports gridpop from the
checkout's ``src/`` and builds the initial state the way ``gridpop run``
does (``engine.Simulation``), so a checkout must have ``Simulation``. It
times the whole
``build_initial_state`` call and each ``init_*`` step inside it, and reads
the process's peak RSS (``ru_maxrss``, in KiB on Linux) before and after
the build. It also hashes the father and mother arrays (SHA-256 of their
int64 bytes), so that two checkouts can be seen to parent every child
alike. With several checkouts, each repeat runs every checkout once and
the next repeat starts with the next checkout, so the order alternates.

With ``--steps K`` the run then advances the built state by K calls of
``Simulation.step()``, as ``run_simulation`` does without a step hook,
and times each event. It reports the
mean milliseconds per step, the seconds of each event, the peak RSS
after stepping and a SHA-256 over every person array, so that two
checkouts can be seen to step alike.

Prints one JSON object per run on standard output. ``--in-process``
measures in this process instead, with whatever gridpop it imports; the
fresh processes run that.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

STEPS = ("init_town_populations", "init_ages_and_genders", "init_partnerships",
         "init_children", "init_housing")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(agents: int, clock: str, seed: int, steps: int = 0) -> dict:
    """Build one initial state here, timing each step, then run and time
    ``steps`` steps of it."""
    import numpy as np

    from gridpop import engine, events, initialization
    from gridpop.params import DataTables, ModelParameters, SimulationConfig
    from gridpop.stochastics import ClockSpec

    seconds = dict.fromkeys(STEPS + ("build_initial_state",), 0.0)

    def timed(name, fn, into=seconds):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                into[name] += time.perf_counter() - start
        return call

    # build_initial_state finds its steps, and run_step its events, as
    # module globals at call time.
    for name in STEPS:
        setattr(initialization, name, timed(name, getattr(initialization, name)))
    engine.build_initial_state = timed("build_initial_state", engine.build_initial_state)

    config = SimulationConfig(clock=ClockSpec.parse(clock), seed=seed)
    params = ModelParameters(initial_pop=agents)
    rss_before = peak_rss_mb()
    sim = engine.Simulation(config, params, DataTables())
    rss_after = peak_rss_mb()
    store, n = sim.store, sim.store.size
    result = {
        "agents": agents, "clock": clock, "seed": seed,
        "build_s": round(seconds.pop("build_initial_state"), 4),
        "steps_s": {name: round(value, 4) for name, value in seconds.items()},
        "peak_rss_mb_before_build": round(rss_before, 1),
        "peak_rss_mb": round(rss_after, 1),
        "father_sha256": hashlib.sha256(store.father_arr[:n].astype("<i8").tobytes()).hexdigest(),
        "mother_sha256": hashlib.sha256(store.mother_arr[:n].astype("<i8").tobytes()).hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
    }
    if steps:
        event_s = dict.fromkeys(config.event_order, 0.0)
        for name in event_s:
            setattr(events, f"{name}_step", timed(name, getattr(events, f"{name}_step"), event_s))
        start = time.perf_counter()
        for _ in range(steps):
            sim.step()
        elapsed = time.perf_counter() - start
        n = store.size
        digest = hashlib.sha256()
        for name in ("age_steps_arr", "male_arr", "alive_arr", "status_arr", "house_arr",
                     "partner_arr", "father_arr", "mother_arr"):
            digest.update(getattr(store, name)[:n].astype("<i8").tobytes())
        result.update({
            "steps": steps, "ms_per_step": round(1000 * elapsed / steps, 4),
            "events_s": {name: round(value, 4) for name, value in event_s.items()},
            "peak_rss_mb_after_steps": round(peak_rss_mb(), 1),
            "state_sha256": digest.hexdigest(),
        })
    return result


def run_fresh(checkout: str, agents: int, clock: str, seed: int, steps: int = 0) -> dict:
    """measure() in a new single-threaded process importing checkout/src."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src").resolve()),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--in-process",
           "--agents", str(agents), "--clock", clock, "--seed", str(seed), "--steps", str(steps)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return {"checkout": checkout, **json.loads(proc.stdout.strip().splitlines()[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--agents", type=int, required=True)
    parser.add_argument("--clock", required=True, help="hourly, daily, weekly, monthly or custom:N")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkout", action="append", default=[],
                        help="a source checkout to import gridpop from (repeatable; default .)")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--steps", type=int, default=0,
                        help="steps to run and time after the build (default 0)")
    parser.add_argument("--in-process", action="store_true")
    args = parser.parse_args()
    if args.in_process:
        print(json.dumps(measure(args.agents, args.clock, args.seed, args.steps)))
        return 0
    checkouts = args.checkout or ["."]
    for repeat in range(args.repeats):
        turn = repeat % len(checkouts)
        for checkout in checkouts[turn:] + checkouts[:turn]:
            print(json.dumps(run_fresh(checkout, args.agents, args.clock, args.seed, args.steps)),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
