"""One cold pass of the benchmark's series workload passes its verdict table.

A change under src/ that breaks what bench/workloads.py expects fails here,
in the test suite, and not only in a benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_series_workload_pass_has_no_failed_verdicts():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", "series", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["errors"]
