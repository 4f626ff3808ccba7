"""One cold pass of a benchmark workload, in the interpreter that runs this file.

    python3 bench/worker.py --workload jacobi [--seed 1] [--trace] [--spans PATH]

Imports permtwist from the checkout's `src/`, builds the workload's inputs
(timed as set-up), runs every check once, checks each verdict against the
expected table and prints one JSON object.  The seed shuffles the order of
the checks; without it they run in the order they are listed, which for the
gate sweeps of gates.py is the order of tests/test_acceptance.py.  run.py
starts a fresh interpreter for every pass, so each pass pays for filling the
vertex-mode tables, as a `permtwist check` invocation does.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def cpu_seconds() -> float:
    """User + system time of this process and of its waited-for children."""
    t = os.times()
    return process_time() + t.children_user + t.children_system


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None, help="write the traced spans here")
    args = p.parse_args(argv)

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import permtwist

    if Path(permtwist.__file__).resolve().parent != SRC / "permtwist":
        print(f"permtwist imported from {permtwist.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    checks = workloads.build(args.workload)
    # the seed fixes the order of the checks, and so the order the caches fill
    if args.seed is not None:
        random.Random(args.seed).shuffle(checks)
    setup_s = perf_counter() - t0

    from tracing import Tracer, mode_cache_totals

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    cache_before = mode_cache_totals()
    verdicts, errors, check_s = [], [], {}
    attempted = failed = 0
    c0 = cpu_seconds()
    w0 = perf_counter()
    for check in checks:
        attempted += len(check.expect)
        t = perf_counter()
        try:
            with tracer.check(check.id) if tracer else nullcontext():
                reports = check.run()
        except Exception as exc:  # a raising check is a failed check; keep going
            dt = perf_counter() - t
            errs = [f"{check.id}: raised {type(exc).__name__}: {exc}"] * len(check.expect)
            reports = []
        else:
            dt = perf_counter() - t
            errs = workloads.verdict_errors(check, reports)
        check_s[check.id] = dt
        failed += len(errs)
        errors.extend(errs)
        reports = reports if isinstance(reports, list) else [reports]
        verdicts.append([check.id, [r.status for r in reports]])
    wall_s = perf_counter() - w0
    c1 = cpu_seconds()
    cache_after = mode_cache_totals()
    if tracer:
        tracer.uninstall()

    cache = None if cache_before is None else {
        "hits": cache_after["hits"] - cache_before["hits"],
        "misses": cache_after["misses"] - cache_before["misses"],
        "entries": cache_after["entries"],
    }
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": c1 - c0,
        "check_s": check_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "verdicts": sorted(verdicts),
        "mode_cache": cache,
    }
    if tracer:
        out["layers"], out["absent"] = tracer.metrics(cache)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
