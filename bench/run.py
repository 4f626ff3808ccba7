"""Cold-start check benchmark for permtwist.

    python3 bench/run.py --workload {jacobi,series,sweep} --seed N --seconds S --trace {0,1}

Load comes from one closed-loop client: every pass is a fresh interpreter
(bench/worker.py) that imports permtwist, builds the workload's inputs and
runs its checks one after another, each starting after the previous verdict.
One process, one thread, and every pass fills the vertex-mode tables from
cold, as a `permtwist check` user does on every invocation.  The seed orders
the checks; the set of checks and their expected verdicts do not depend on it.

--trace 0 runs passes while the next one still fits in --seconds (at least
one) and reports, each a median over its passes:

  wall_s           first check call to last verdict
  cpu_s            process CPU time (user + system, children included) over
                   the same interval
  slowest_check_s  the longest single check call: the median time of the
                   check whose median is the largest
  setup_s          import permtwist and build the inputs
  peak_rss_mb      peak resident memory of a pass's process

--trace 1 runs pairs of an untraced and a traced pass in the same way and
reports the per-layer metrics of bench/tracing.py, trace.overhead_s among
them, from the traced pass of median wall_s.  The run details also give the
median over the pairs of the traced pass's wall_s minus the untraced one's.
Spans go to .bench_out/ in the checkout.

Every verdict is checked against bench/workloads.py; a check whose status or
window differs, or that raises, counts in `failed`.  `attempted` counts the
expected reports over all passes.  A line of run details (machine facts,
per-pass figures, mismatches) precedes the final JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from tracing import METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("jacobi", "series", "sweep")
PASS_TIMEOUT_S = 170
# end-to-end metric -> unit
E2E = {"wall_s": "s", "cpu_s": "s", "slowest_check_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def worker(workload: str, *extra: str, timeout: float = PASS_TIMEOUT_S) -> dict:
    """Run one pass in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def slowest_check(passes: list[dict]) -> tuple[float, str]:
    """(median seconds, id) of the check whose median time over the passes is longest."""
    times = defaultdict(list)
    for p in passes:
        for check_id, dt in p["check_s"].items():
            times[check_id].append(dt)
    medians = {check_id: statistics.median(ts) for check_id, ts in times.items()}
    check_id = max(medians, key=medians.get)
    return medians[check_id], check_id


def _read(path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_facts() -> dict:
    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg_at_start": (_read("/proc/loadavg") or "unknown").strip(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "permtwist" / "__init__.py").is_file():
        print(f"no permtwist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    facts = machine_facts()
    start = perf_counter()
    seed = ("--seed", str(args.seed))
    passes, extra = [], {}
    out_dir = ROOT / ".bench_out"
    try:
        # a pass (with --trace 1, an untraced and a traced pass) while the
        # next one still fits in --seconds, and at least one
        last = 0.0
        while not passes or perf_counter() - start + last <= args.seconds:
            t = perf_counter()
            passes.append(worker(args.workload, *seed))
            if args.trace:
                out_dir.mkdir(exist_ok=True)
                spans = out_dir / f"spans-{args.workload}-seed{args.seed}-{len(passes) // 2}.jsonl"
                passes.append(worker(args.workload, *seed, "--trace", "--spans", str(spans)))
                passes[-1]["spans"] = str(spans.relative_to(ROOT))
            last = perf_counter() - t
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # every pass must reach the same verdicts, the traced one included
    same = all(p["verdicts"] == passes[0]["verdicts"] for p in passes)
    if args.trace:
        untraced, traced = passes[0::2], passes[1::2]
        mid = sorted(traced, key=lambda p: p["wall_s"])[len(traced) // 2]
        metrics = {name: {"value": mid["layers"][name], "unit": unit}
                   for name, (unit, _kind, _layer) in METRICS.items()}
        extra.update(spans=mid["spans"], absent=mid["absent"], traced_minus_untraced_wall_s=
                     statistics.median(t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)))
    else:
        values = {name: statistics.median(p[name] for p in passes)
                  for name in E2E if name != "slowest_check_s"}
        values["slowest_check_s"], extra["slowest_check"] = slowest_check(passes)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E.items()}

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "elapsed_s": perf_counter() - start,
        "passes": [{"traced": "layers" in p, **{k: p[k] for k in (
            "wall_s", "cpu_s", "setup_s", "peak_rss_mb", "mode_cache")}} for p in passes],
        "verdicts_agree": same, "errors": sorted({e for p in passes for e in p["errors"]})[:50],
        **extra,
    }))
    print(json.dumps({"correct": failed == 0 and same, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
