"""One cold pass of each benchmark workload passes its verdict table, and
the benchmark's tracer wraps every layer it names.

A change under src/ that breaks what bench/workloads.py or bench/tracing.py
expects fails here, in the test suite, and not only in a benchmark run.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["jacobi", "series", "sweep"])
def test_workload_pass_has_no_failed_verdicts(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload, "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["errors"]


def test_tracer_wraps_every_layer_once_and_restores_it():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = {**tracing.SPANS, **tracing.LEAVES}
    found = {layer: tracing._resolve(target) for layer, target in layers.items()}
    assert None not in found.values()
    # install rebinds only what the owner defines itself
    for layer, (owner, attr, orig) in found.items():
        assert vars(owner).get(attr) is orig, layer
    originals = {id(orig) for _owner, _attr, orig in found.values()}
    assert len(originals) == len(layers)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        restore = list(tracer._restore)
        assert tracer.absent == set()
        for layer, (owner, attr, orig) in found.items():
            assert vars(owner)[attr] is not orig, layer
            assert (owner, attr, orig) in restore, layer
        # every wrapper wraps an original, and each binding is wrapped once
        assert {id(orig) for _holder, _name, orig in restore} == originals
        assert len({(id(holder), name) for holder, name, _orig in restore}) == len(restore)
    finally:
        tracer.uninstall()
    for holder, name, orig in restore:
        assert vars(holder)[name] is orig, name


def test_tracer_reads_mode_tables_shared_across_k():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from permtwist.exactnum import get_ring
    from permtwist.fermion import Vec, psi_vec, vertex_mode

    assert tracing.mode_cache_totals() is not None
    calls = {k: (psi_vec(get_ring(k)), Vec.basis(get_ring(k), (-5, -3, -2))) for k in (1, 3)}
    for n in range(-3, 5):
        vertex_mode(calls[1][0], n, calls[1][1])
        before = tracing.mode_cache_totals()
        vertex_mode(calls[3][0], n, calls[3][1])
        after = tracing.mode_cache_totals()
        assert after["misses"] == before["misses"], n
        assert after["hits"] > before["hits"], n
