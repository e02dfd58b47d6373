"""Run the benchmark on several seeds and summarise every metric.

    python3 perfbench/spread.py --seeds 1-10

Runs run.py untraced once per seed on every workload of BENCHMARK.json, one
run at a time, with its run_seconds, and prints per workload and metric the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread,
(Q3 - Q1) / median. The last line is the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(first, last + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, check=False)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                file=sys.stderr, flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"{workload:13s} {name:32s} median {m['median']:<12.6g} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {m['spread']:.2%}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
