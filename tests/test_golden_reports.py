"""Every benchmark workload report is identical to a stored golden copy.

The golden file holds the `to_json()` of all reports of the jacobi, series
and sweep workloads (first_mismatch texts included), keyed by check id.  A
change that should keep every verdict and every text must keep this test
green; a change that means to alter a report regenerates the file with

    PYTHONPATH=src python3 tests/test_golden_reports.py

and says why in its change notes.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_reports.json"
WORKLOADS = ("jacobi", "series", "sweep")


def _workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "bench"))


def workload_reports(name: str) -> dict:
    """check id -> the to_json() of each report the check returns."""
    out = {}
    for check in _workloads().build(name):
        reports = check.run()
        reports = reports if isinstance(reports, list) else [reports]
        out[check.id] = [r.to_json() for r in reports]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_match_golden(workload):
    golden = json.loads(GOLDEN.read_text())[workload]
    got = workload_reports(workload)
    assert got.keys() == golden.keys()
    for check_id, reports in golden.items():
        assert got[check_id] == reports, check_id


def test_golden_holds_every_report():
    golden = json.loads(GOLDEN.read_text())
    assert sum(len(r) for w in WORKLOADS for r in golden[w].values()) == 516


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {w: workload_reports(w) for w in WORKLOADS}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
