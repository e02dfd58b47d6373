#!/usr/bin/env python3
"""Check that two revisions' random streams draw the same model in law.

A change to how the events draw their random numbers changes every output
byte, so the golden digests cannot tell a faithful redraw from a biased
one. This script can. It extracts ``src/`` of a git revision (``--rev``,
default HEAD) with ``git archive``, then runs that code and the working
tree's ``src/`` over ``SEEDS`` (40) seeds each, on disjoint seeds so that
the two samples are independent: seeds 1-40 for the revision and
100001-100040 for the working tree. Each run is ``gridpop run`` in a fresh
subprocess, at most ``--jobs`` at a time.

At the end of every simulated year it takes each statistics.csv column:
the state columns (alive, married, mean_age, houses, ...) at the year's
last row, the event columns (births, deaths, ...) summed over the year's
rows. For every (scenario, year, column) that varies across the pooled
runs it compares the two samples with a two-sample Kolmogorov-Smirnov
test, and multiplies each p-value by the number of tests (Bonferroni).
It prints every p-value and exits non-zero if any corrected p-value is
at or below ``ALPHA`` (0.05).

A biased draw of the initial couples can move the yearly statistics
columns too little to show, so each seed's initial state is also built
on its own, by ``engine.Simulation`` in a fresh subprocess, taking no
step. Its couples give two more tests per scenario, as year 0, under
the same correction: the couple count (one value per seed, 40 per side) and the
husband-minus-wife age gap (every couple of every seed, pooled: about
0.19 times the agents per seed, so some 1.5 million gaps per side on
``monthly-200k``). The gaps of one build share its pool, so they are not
quite independent, and the pooled test is somewhat liberal.

Scenarios (default settings otherwise): ``daily-10k`` and
``monthly-200k`` for 2 years, ``hourly-1k`` for 1 year. The three with
40 seeds per side take about 5 minutes on two cores; ``--scenario``
picks a subset.

Power: a copy whose hazards were all 5% low failed on ``monthly-200k``
(births, marriages, divorces, alive far below 0.0001) and only just on
``daily-10k`` (births p=0.032, alive p=0.012, corrected). The power on
``hourly-1k`` was not measured, and the KS test is conservative on
heavily tied integer counts. So a PASS rules out hazard shifts of about
5% or more on the monthly and daily clocks only. The exact check of a
single draw's law is ``TestThinning``'s law test in tests/test_events.py.

    python scripts/stream_equivalence.py --rev <revision> [--jobs 2] [--scenario NAME ...]
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

from scipy import stats

ROOT = Path(__file__).resolve().parent.parent
T0 = 2020

# name: (clock, initial population, years)
SCENARIOS = {
    "daily-10k": ("daily", 10_000, 2),
    "monthly-200k": ("monthly", 200_000, 2),
    "hourly-1k": ("hourly", 1_000, 1),
}

SEEDS = 40    # runs per side and scenario
ALPHA = 0.05  # a corrected p-value at or below this fails

# Columns that count the events since the previous row; the rest are state.
EVENT_COLUMNS = ("births", "deaths", "marriages", "divorces", "orphan_moves", "divorce_moves")

# The working tree's seeds start here, the revision's at 1.
NEW_SEED_OFFSET = 100_000

RUN = "import sys; from gridpop.cli import main; sys.exit(main(sys.argv[1:]))"

# Builds the initial state of ``gridpop run --seed SEED`` with the default
# settings, takes no step, and prints its couple count and every couple's
# husband-minus-wife age gap in years, as JSON.
COUPLES = """
import json, sys
from gridpop.engine import Simulation
from gridpop.params import DataTables, ModelParameters, SimulationConfig
from gridpop.population import MARRIED_CODE
from gridpop.stochastics import ClockSpec
clock, agents, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = Simulation(SimulationConfig(clock=ClockSpec.parse(clock), seed=seed),
                   ModelParameters(initial_pop=agents), DataTables()).store
n = store.size
husbands = (store.male_arr[:n] & (store.status_arr[:n] == MARRIED_CODE)).nonzero()[0]
gaps = store.age_steps_arr[husbands] - store.age_steps_arr[store.partner_arr[husbands]]
json.dump({"couples": len(husbands), "gaps": (gaps / store.steps_per_year).tolist()}, sys.stdout)
"""


class Comparison(NamedTuple):
    key: tuple            # (scenario, year, column)
    old_mean: float
    new_mean: float
    p: float              # uncorrected two-sample p-value
    corrected: float      # min(1, p * number of tests)


def year_samples(csv_text: str, t0: int = T0) -> dict[tuple[int, str], float]:
    """{(year, column): value} of one statistics.csv: year 1 covers the rows
    with t0 < time <= t0 + 1, and so on; the initial row belongs to none."""
    out: dict[tuple[int, str], float] = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        year = math.ceil(float(row["time"]) - t0 - 1e-9)
        if year < 1:
            continue
        for column, text in row.items():
            if column == "time":
                continue
            value = float(text)
            if column in EVENT_COLUMNS:
                out[year, column] = out.get((year, column), 0.0) + value
            else:
                out[year, column] = value  # rows are in time order: the last one stays
    return out


def compare(old: dict[tuple, list[float]],
            new: dict[tuple, list[float]]) -> tuple[list[Comparison], bool]:
    """Two-sample KS test per key over the keys whose pooled values vary,
    Bonferroni-corrected over those tests. Returns the comparisons and
    whether every corrected p-value lies above ``ALPHA``."""
    if old.keys() != new.keys():
        raise ValueError(f"the samples cover different keys: {sorted(old.keys() ^ new.keys())}")
    varying = [key for key in sorted(old) if len(set(old[key]) | set(new[key])) > 1]
    results = []
    for key in varying:
        p = float(stats.ks_2samp(old[key], new[key]).pvalue)
        results.append(Comparison(key, sum(old[key]) / len(old[key]),
                                  sum(new[key]) / len(new[key]), p,
                                  min(1.0, p * len(varying))))
    return results, all(r.corrected > ALPHA for r in results)


def extract(rev: str, dest: Path) -> Path:
    """``src/`` of a git revision, unpacked under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def run_one(src: Path, scenario: str, seed: int, scratch: Path) -> dict[tuple[int, str], float]:
    """One run of ``scenario`` by the code under ``src``: its year samples."""
    clock, agents, years = SCENARIOS[scenario]
    out = scratch / f"{scenario}-{seed}"
    cmd = [sys.executable, "-c", RUN, "run", "--seed", str(seed), "--dt", clock,
           "--t0", str(T0), "--tfinal", str(T0 + years), "--initial-pop", str(agents),
           "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{scenario} seed {seed} under {src} failed: {proc.stderr[-2000:]}")
    samples = year_samples((out / "statistics.csv").read_text())
    for name in ("statistics.csv", "population.txt"):
        (out / name).unlink()
    out.rmdir()
    return samples


def initial_couples(src: Path, scenario: str, seed: int) -> dict[tuple[int, str], list[float]]:
    """The initial state of one run of ``scenario`` by the code under
    ``src``, built in a fresh subprocess: {(0, "couples"): [its couple
    count], (0, "age_gap"): its couples' age gaps}."""
    clock, agents, _ = SCENARIOS[scenario]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", COUPLES, clock, str(agents), str(seed)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{scenario} seed {seed} build under {src} failed: "
                           f"{proc.stderr[-2000:]}")
    built = json.loads(proc.stdout)
    return {(0, "couples"): [float(built["couples"])], (0, "age_gap"): built["gaps"]}


def samples_of(src: Path, scenario: str, seed: int,
               scratch: Path) -> dict[tuple[int, str], list[float]]:
    """One seed's samples: its run's year samples and, as year 0, its
    initial couples."""
    out = {key: [value] for key, value in run_one(src, scenario, seed, scratch).items()}
    out.update(initial_couples(src, scenario, seed))
    return out


def collect(sides: dict[str, tuple[Path, int]], scenarios, scratch: Path,
            jobs: int) -> dict[str, dict[tuple, list[float]]]:
    """{side: {(scenario, year, column): the values of every seed}}, where
    each side is (its ``src``, its first seed). A statistics column gives
    one value per seed, the initial age gaps one per couple. The two
    sides' runs alternate, so a change in the host's speed or load falls
    on both alike."""
    with ThreadPoolExecutor(jobs) as pool:
        runs = [(side, scenario, first + i,
                 pool.submit(samples_of, src, scenario, first + i, scratch))
                for scenario in scenarios for i in range(SEEDS)
                for side, (src, first) in sides.items()]
        out: dict[str, dict[tuple, list[float]]] = {side: {} for side in sides}
        for side, scenario, seed, run in runs:
            for (year, column), values in run.result().items():
                out[side].setdefault((scenario, year, column), []).extend(values)
            print(f"  {side} {scenario} seed {seed} done", file=sys.stderr, flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    parser.add_argument("--jobs", type=int, default=2, help="runs at a time")
    parser.add_argument("--scenario", action="append", choices=sorted(SCENARIOS),
                        help="repeat to pick several (default: all)")
    args = parser.parse_args(argv)
    scenarios = args.scenario or list(SCENARIOS)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "old").mkdir()
        samples = collect({"old": (extract(args.rev, tmp / "old"), 1),
                           "new": (ROOT / "src", NEW_SEED_OFFSET + 1)},
                          scenarios, tmp, args.jobs)
    results, passed = compare(samples["old"], samples["new"])
    print(f"{'scenario':<13} {'year':>4} {'column':<16} {args.rev[:12]:>12} {'working':>12} "
          f"{'p':>8} {'corrected':>9}")
    for r in results:
        scenario, year, column = r.key
        print(f"{scenario:<13} {year:>4} {column:<16} {r.old_mean:>12.6g} {r.new_mean:>12.6g} "
              f"{r.p:>8.4f} {r.corrected:>9.4f}")
    print(f"{len(results)} tests, {SEEDS} seeds per side; smallest corrected p-value "
          f"{min((r.corrected for r in results), default=1.0):.4f}: "
          f"{'PASS' if passed else 'FAIL'} at alpha {ALPHA}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
