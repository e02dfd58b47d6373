#!/usr/bin/env python3
"""Print SHA-256 digests of fixed reference runs' output files.

    python scripts/determinism_digest.py [--check | --record]

CI runs this with ``--check`` on every platform and compares against the
committed files tests/golden/<run>.sha256; identical digests across OSes
pin cross-platform byte-identity of the whole pipeline. The digests
depend on the NumPy PCG64 stream, so CI pins the NumPy minor series.
``--record`` writes each golden file from the same text ``--check``
compares, for a deliberate stream revision.

Four runs:

- ``reference_run``: 2,000 agents, monthly clock, 2 years;
- ``annual_run``: 2,000 agents, one step a year, 10 years: the coarsest
  clock, where every age is a whole number of years;
- ``daily_run``: 2,000 agents, daily clock, 2 years;
- ``hourly_run``: 100 agents, hourly clock, 1 year, where an event
  rarely draws any candidate at all.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from gridpop import cli

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

REFERENCE_RUNS = {
    "reference_run": ["--seed", "20240101", "--dt", "monthly", "--t0", "2020",
                      "--tfinal", "2022", "--initial-pop", "2000"],
    "annual_run": ["--seed", "20240101", "--dt", "custom:1", "--t0", "2020",
                   "--tfinal", "2030", "--initial-pop", "2000"],
    "daily_run": ["--seed", "20240101", "--dt", "daily", "--t0", "2020",
                  "--tfinal", "2022", "--initial-pop", "2000"],
    "hourly_run": ["--seed", "20240101", "--dt", "hourly", "--t0", "2020",
                   "--tfinal", "2021", "--initial-pop", "100"],
}


def compute(run: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", *REFERENCE_RUNS[run], "--out", str(out)])
        if code != 0:
            raise SystemExit(code)
        lines = []
        for name in ("statistics.csv", "population.txt"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            lines.append(f"{digest}  {name}")
        return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else None
    if argv[1:] or mode not in (None, "--check", "--record"):
        sys.stderr.write("usage: determinism_digest.py [--check | --record]\n")
        return 2
    failed = False
    for run in REFERENCE_RUNS:
        text = compute(run)
        sys.stdout.write(f"{run}:\n{text}")
        golden = GOLDEN / f"{run}.sha256"
        if mode == "--record":
            golden.write_text(text)
        elif mode == "--check" and text != golden.read_text():
            sys.stderr.write(f"digest mismatch vs {golden}:\n{golden.read_text()}")
            failed = True
    if failed:
        return 1
    if mode == "--check":
        print("digests match the committed golden files")
    elif mode == "--record":
        print(f"recorded the golden files in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
