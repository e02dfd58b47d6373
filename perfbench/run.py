"""gridpop benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: gridpop is imported from the
checkout's src/. Each round runs in a fresh single-threaded Python process
(worker.py); this process only schedules rounds, checks the files they
write with its own parsers, and reports.

--trace 0 runs rounds until the next one would pass --seconds (at least
one) and reports the median of each end-to-end metric over the rounds.
--trace 1 runs pairs instead: an untraced round and a traced round on the
same gridpop seed. The pair must write byte-identical statistics.csv; the
per-layer metrics are medians over the pairs, and trace_overhead_s is the
traced wall_s minus the untraced one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. An operation is one simulated step
or one output check. Outputs go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import agent_steps, file_problems
from workloads import WORKLOADS, round_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0  # the whole run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "agent_steps_per_s": "1/s", "peak_rss_mb": "MB"}
FILE_CHECKS = 3  # statistics rows, final row against the export, married persons


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def start_round(workload: str, gridpop_seed: int, out: Path, traced: bool,
                deadline: float) -> dict:
    """One round in a fresh process; its report, with the file checks added."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--gridpop-seed", str(gridpop_seed), "--out", str(out),
           "--trace", "1" if traced else "0"]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"round timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"error": "worker printed no report"}
    report = json.loads(lines[-1])
    if "error" in report:
        return report
    try:
        problems, rows = file_problems((out / "statistics.csv").read_text(),
                                       (out / "population.txt").read_text(),
                                       report["steps"])
    except (OSError, ValueError) as exc:
        return {"error": f"unreadable output: {exc}"}
    report["checks"].update(problems)
    report["operations"] += FILE_CHECKS
    report["agent_steps_per_s"] = agent_steps(rows, report["steps"]) / report["stepping_s"]
    return report


def tally(report: dict, steps: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one round."""
    if "error" in report:
        attempted = steps + FILE_CHECKS
        return attempted, attempted, [report["error"]]
    failed, problems = 0, []
    for name, found in report["checks"].items():
        if found:
            failed += len(found) if name == "feature_series" else 1
            problems += [f"{name}: {p}" for p in found[:5]]
    return report["operations"], failed, problems


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[workload_name]
    deadline = time.monotonic() + DEADLINE_S
    started = time.monotonic()
    run_dir = OUT / f"{workload_name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    rounds, durations = [], []
    attempted = failed = 0
    problems: list[str] = []
    while True:
        index = len(durations)
        t0 = time.monotonic()
        if traced:
            # Every pair runs the same gridpop seed, so counts must repeat.
            gseed = round_seed(workload_name, seed, 0)
            plain_dir, traced_dir = run_dir / f"pair{index}-plain", run_dir / f"pair{index}-traced"
            plain = start_round(workload_name, gseed, plain_dir, False, deadline)
            tr = start_round(workload_name, gseed, traced_dir, True, deadline)
            for report in (plain, tr):
                a, f, p = tally(report, workload.steps)
                attempted, failed, problems = attempted + a, failed + f, problems + p
            if "error" not in plain and "error" not in tr:
                attempted += 1  # the pair's statistics.csv byte comparison
                if (plain_dir / "statistics.csv").read_bytes() != (traced_dir / "statistics.csv").read_bytes():
                    failed += 1
                    problems.append("traced statistics.csv differs from the untraced one")
                tr["trace_overhead_s"] = tr["wall_s"] - plain["wall_s"]
                rounds.append(tr)
            shutil.rmtree(plain_dir, ignore_errors=True)
            shutil.rmtree(traced_dir, ignore_errors=True)
        else:
            gseed = round_seed(workload_name, seed, index)
            round_dir = run_dir / f"round{index}"
            report = start_round(workload_name, gseed, round_dir, False, deadline)
            a, f, p = tally(report, workload.steps)
            attempted, failed, problems = attempted + a, failed + f, problems + p
            if "error" not in report:
                rounds.append(report)
            shutil.rmtree(round_dir, ignore_errors=True)
        durations.append(time.monotonic() - t0)
        log(f"{workload_name} seed {seed} {'pair' if traced else 'round'} {index} "
            f"(gridpop seed {gseed}): {durations[-1]:.1f} s, "
            f"{'ok' if not problems else problems[-1]}")
        if problems or time.monotonic() - started + statistics.median(durations) > seconds:
            break

    if traced:
        metrics, missing, unrepeated = layer_summary(rounds)
        if missing:
            log("missing (never fired): " + ", ".join(missing))
            print("missing: " + ", ".join(missing))
        if len(rounds) > 1:  # one check that the pairs' counts repeat
            attempted += 1
            failed += bool(unrepeated)
            problems += unrepeated
        write_trace(run_dir, rounds)
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
                   for name, unit in END_TO_END.items()} if rounds else {}
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "rounds.json").write_text(json.dumps(rounds, indent=1))
    return {"correct": not problems and bool(rounds), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def layer_summary(rounds: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Median per-layer metrics over the traced rounds, the names that never
    fired, and the counts that did not repeat on the one seed."""
    if not rounds:
        return {}, [], []
    metrics, unrepeated = {}, []
    for name in rounds[0]["layers"]:
        values = [r["layers"].get(name) for r in rounds]
        if name.endswith("_s"):
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
        else:
            if len(set(values)) != 1:
                unrepeated.append(f"count {name} differs between pairs on one seed: {values}")
            metrics[name] = {"value": values[0], "unit": "count"}
    metrics["trace_overhead_s"] = {
        "value": statistics.median(r["trace_overhead_s"] for r in rounds), "unit": "s"}
    return metrics, rounds[0]["missing"], unrepeated


def write_trace(run_dir: Path, rounds: list[dict]) -> None:
    """Keep the span table of the first traced round, with shares of its wall_s."""
    if not rounds:
        return
    r = rounds[0]
    table = {name: {"calls": calls, "total_s": total, "self_s": self_s,
                    "self_share": self_s / r["wall_s"]}
             for name, (calls, total, self_s) in r["spans"].items()}
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "trace.json").write_text(json.dumps(
        {"wall_s": r["wall_s"], "trace_overhead_s": r["trace_overhead_s"],
         "spans": table, "counts": r["counts"]}, indent=1))
    log(f"{'span':45s} {'calls':>9s} {'total s':>9s} {'self s':>9s} {'share':>6s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        log(f"{name:45s} {row['calls']:9d} {row['total_s']:9.3f} {row['self_s']:9.3f} "
            f"{row['self_share']:6.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gridpop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridpop" / "__init__.py").is_file():
        log(f"no gridpop sources under {ROOT / 'src'}; run from a source checkout")
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
