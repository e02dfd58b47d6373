#!/usr/bin/env python3
"""Round-trip a 200,000-agent initial state through population.txt at bounded memory.

Builds the initial state of a 200,000-agent monthly run (seed 3) as an
``engine.Simulation``, exports it, imports the file and
exports the imported store again. Exits non-zero unless the two files are
byte-identical, the process's peak RSS (``ru_maxrss``) grows by at most
20 MB across the export and by at most 100 MB across the import. Prints
both growths and both times. Takes a few seconds; ``ru_maxrss`` is read
in KiB, as Linux reports it.

    PYTHONPATH=src python scripts/persistence_scale.py
"""

import resource
import sys
import tempfile
import time
from pathlib import Path

from gridpop import engine
from gridpop.params import DataTables, ModelParameters, SimulationConfig
from gridpop.stochastics import ClockSpec

AGENTS = 200_000
EXPORT_GROWTH_MB = 20
IMPORT_GROWTH_MB = 100


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measured(call):
    """The call's result, its seconds and its growth of the peak RSS in MB."""
    before, start = peak_mb(), time.perf_counter()
    result = call()
    return result, time.perf_counter() - start, peak_mb() - before


def main() -> int:
    config = SimulationConfig(clock=ClockSpec.parse("monthly"), seed=3)
    sim = engine.Simulation(config, ModelParameters(initial_pop=AGENTS), DataTables())
    store, space = sim.store, sim.space
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "population.txt", Path(tmp) / "reexport.txt"
        _, export_s, export_mb = measured(lambda: engine.export_population(store, space, first))
        (store2, space2), import_s, import_mb = measured(lambda: engine.import_population(first))
        engine.export_population(store2, space2, second)
        size_mb = first.stat().st_size / 2**20
        identical = first.read_bytes() == second.read_bytes()
    print(f"{store.size} persons, {size_mb:.1f} MB file")
    print(f"export: {export_s:.3f} s, peak RSS +{export_mb:.1f} MB (bound {EXPORT_GROWTH_MB})")
    print(f"import: {import_s:.3f} s, peak RSS +{import_mb:.1f} MB (bound {IMPORT_GROWTH_MB})")
    failures = []
    if not identical:
        failures.append("the re-export differs from the export")
    if export_mb > EXPORT_GROWTH_MB:
        failures.append(f"export grew the peak RSS by {export_mb:.1f} MB")
    if import_mb > IMPORT_GROWTH_MB:
        failures.append(f"import grew the peak RSS by {import_mb:.1f} MB")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
