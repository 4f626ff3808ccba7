"""Margins under the acceptance-test runtime gates, timed once.

    python3 bench/gates.py

Runs the criterion-01 (flow coefficients, 1 s), criterion-06 (conjugation
sweep, 120 s) and criterion-08 (twisted Jacobi, 300 s) sweeps of
tests/test_acceptance.py once each, in a fresh interpreter and in the order
the tests run them, and prints one JSON line per gate with its wall time and
the margin left under the gate.
The gates themselves live in the tests and are not changed here.  This is a
one-shot report, not a benchmark workload: criterion 08 alone takes minutes.
"""

from __future__ import annotations

import json
import sys

from run import machine_facts, worker
from workloads import GATES


def main() -> int:
    status = 0
    print(json.dumps({"machine": machine_facts()}))
    for name, (gate_s, _sweep) in GATES.items():
        res = worker(name, timeout=2 * gate_s + 60)
        ok = res["failed"] == 0 and res["wall_s"] < gate_s
        status |= not ok
        print(json.dumps({
            "gate": name, "gate_s": gate_s, "wall_s": res["wall_s"],
            "margin_s": gate_s - res["wall_s"], "margin_share": 1 - res["wall_s"] / gate_s,
            "checks": res["attempted"], "checks_failed": res["failed"], "errors": res["errors"],
        }))
    return status


if __name__ == "__main__":
    sys.exit(main())
