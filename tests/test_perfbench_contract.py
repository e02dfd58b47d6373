"""The benchmark harness reaches the program through its function names.

perfbench/worker.py rebinds gridpop functions by the string names in its
SPANS table and reads counters off them. A renamed or removed function
only shows up there as a `missing` per-layer metric, so one traced round
of the smallest audited workload is run here and its report checked.
"""

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def test_traced_audit_round_fires_every_span_and_passes_its_checks(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", "audit-2k", "--gridpop-seed", "5",
         "--trace", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "error" not in report, report["error"]
    assert report["missing"] == []
    assert report["checks"], "a traced audit round runs checks"
    assert {name: problems for name, problems in report["checks"].items() if problems} == {}
