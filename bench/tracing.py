"""Per-layer tracing of permtwist from outside the package.

`Tracer.install` re-binds each layer entry named below in every permtwist
module (or class) that holds it -- `vertex_mode` inside `twistor` as well as
inside `fermion` -- and `uninstall` restores the originals.  A layer whose
name a later version deletes or renames is reported as absent, never raised.

Every check runs under a root span keyed by its id; each call into a layer
entry records a span with its parent.  A span's self time is its duration
minus the time its child spans (and hot-leaf calls) cover.  The hot leaves,
scalar `*` and `+`, run 10^5 times per heavy check, so they are kept as
count plus self-time aggregates rather than one span per call.  Spans stay in
memory and are written out by `dump` at the end.

A child is charged to its parent from wrapper entry to wrapper exit, but its
own span covers only the wrapped call (and reading its size counters), so the
tracer's bookkeeping lands in no layer's self time.  The difference is summed
as trace.overhead_s.  It leaves out the call into each wrapper, so it is a
lower bound on what tracing costs; unlike a traced minus an untraced pass, it
does not move with the host's speed between the two passes.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# metric prefix -> "module:qualified name" of a layer entry traced as spans
SPANS = {
    "fseries.series_mul": "fseries:FracSeries.__mul__",
    "fseries.substitute": "fseries:FracSeries.substitute",
    "fseries.delta": "fseries:delta_truncated",
    "fseries.window_compare": "fseries:assert_equal_on_window",
    "fermion.vertex_mode": "fermion:vertex_mode",
    "fermion.virasoro_mode": "fermion:virasoro_mode",
    "fermion.pairing": "fermion:VecSeries.mul_series",
    "fermion.window": "fermion:VecSeries.truncate_window",
    "fermion.vec_compare": "fermion:vec_equal_on_window",
    "twistor.delta_apply": "twistor:delta_apply",
    "twistor.ybar": "twistor:ybar",
    "twistor.twisted_mode": "twistor:twisted_mode",
    "twistor.iterate": "twistor:_iterate_shared",
    "changeofvars.rep_apply": "changeofvars:rep_apply",
    "changeofvars.a_table": "changeofvars:a_table",
    "qchar.char_twisted": "qchar:char_twisted",
    "qchar.qseries_mul": "qchar:QSeries.__mul__",
}
# hot leaves, aggregated
LEAVES = {
    "exactnum.mul": "exactnum:Scalar.__mul__",
    "exactnum.add": "exactnum:Scalar.__add__",
}
# vertex-mode tables read through cache_info(), not wrapped
MODE_CACHES = ("fermion:_mode_single", "fermion:_mode_tensor")


def _size_counts(layer, args, out) -> dict:
    """Work counters read off a layer call's operands and result."""
    if layer == "fseries.delta":
        return {"fseries.delta_terms": len(out.terms)}
    if layer == "fermion.pairing":
        return {"fermion.pairing_keys_built": len(out.terms)}
    if layer == "fermion.window":
        return {"fermion.window_keys_in": len(args[0].terms),
                "fermion.window_keys_kept": len(out.terms)}
    return {}


# The per-layer metrics a traced run reports: name -> (unit, kind, layer).
# calls/self/total read the spans (total counts only the outermost span of a
# layer, so recursion is not counted twice); work reads _size_counts.
METRICS = {
    "exactnum.mul_calls": ("count", "calls", "exactnum.mul"),
    "exactnum.mul_self_s": ("s", "self", "exactnum.mul"),
    "exactnum.add_calls": ("count", "calls", "exactnum.add"),
    "exactnum.mul_rational_share": ("ratio", "rational_share", "exactnum.mul"),
    "fseries.series_mul_calls": ("count", "calls", "fseries.series_mul"),
    "fseries.series_mul_self_s": ("s", "self", "fseries.series_mul"),
    "fseries.substitute_s": ("s", "total", "fseries.substitute"),
    "fseries.delta_calls": ("count", "calls", "fseries.delta"),
    "fseries.delta_s": ("s", "total", "fseries.delta"),
    "fseries.delta_terms": ("count", "work", "fseries.delta"),
    "fseries.window_compare_s": ("s", "total", "fseries.window_compare"),
    "fermion.vertex_mode_calls": ("count", "calls", "fermion.vertex_mode"),
    "fermion.vertex_mode_self_s": ("s", "self", "fermion.vertex_mode"),
    "fermion.virasoro_mode_s": ("s", "total", "fermion.virasoro_mode"),
    "fermion.mode_cache_hits": ("count", "cache", "hits"),
    "fermion.mode_cache_misses": ("count", "cache", "misses"),
    "fermion.mode_cache_entries": ("count", "cache", "entries"),
    "fermion.pairing_calls": ("count", "calls", "fermion.pairing"),
    "fermion.pairing_self_s": ("s", "self", "fermion.pairing"),
    "fermion.pairing_keys_built": ("count", "work", "fermion.pairing"),
    "fermion.window_keys_in": ("count", "work", "fermion.window"),
    "fermion.window_keys_kept": ("count", "work", "fermion.window"),
    "fermion.window_keep_ratio": ("ratio", "keep_ratio", "fermion.window"),
    "fermion.vec_compare_s": ("s", "total", "fermion.vec_compare"),
    "twistor.delta_apply_calls": ("count", "calls", "twistor.delta_apply"),
    "twistor.delta_apply_self_s": ("s", "self", "twistor.delta_apply"),
    "twistor.ybar_calls": ("count", "calls", "twistor.ybar"),
    "twistor.ybar_self_s": ("s", "self", "twistor.ybar"),
    "twistor.twisted_mode_s": ("s", "total", "twistor.twisted_mode"),
    "twistor.iterate_s": ("s", "total", "twistor.iterate"),
    "changeofvars.rep_apply_calls": ("count", "calls", "changeofvars.rep_apply"),
    "changeofvars.rep_apply_s": ("s", "total", "changeofvars.rep_apply"),
    "changeofvars.a_table_s": ("s", "total", "changeofvars.a_table"),
    "qchar.char_twisted_s": ("s", "total", "qchar.char_twisted"),
    "qchar.qseries_mul_s": ("s", "total", "qchar.qseries_mul"),
    "trace.overhead_s": ("s", "overhead", None),
}


def _resolve(target: str):
    """(owner, attribute, object) for "module:Qual.name", or None if absent."""
    mod_name, qual = target.split(":")
    try:
        owner = importlib.import_module(f"permtwist.{mod_name}")
    except ImportError:
        return None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def mode_cache_totals() -> dict | None:
    """Summed cache_info() of the vertex-mode tables, or None if absent.

    A pass reports hits and misses as the change over its checks, and
    entries as the table size at the end.
    """
    infos = []
    for target in MODE_CACHES:
        found = _resolve(target)
        if found is None or not hasattr(found[2], "cache_info"):
            return None
        infos.append(found[2].cache_info())
    return {"hits": sum(i.hits for i in infos), "misses": sum(i.misses for i in infos),
            "entries": sum(i.currsize for i in infos)}


# span record fields
ID, LAYER, PARENT, CHECK, START, END, CHILD, OUTER = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaves = {name: [0, 0.0] for name in LEAVES}  # calls, self seconds
        self.rational_muls = 0
        self.overhead_s = 0.0
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self._check = None
        self._restore: list = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer, target in {**SPANS, **LEAVES}.items():
            found = _resolve(target)
            if found is None:
                self.absent.add(layer)
                continue
            owner, _attr, orig = found
            wrapper = self._leaf(layer, orig) if layer in LEAVES else self._span(layer, orig)
            holders = [owner] if isinstance(owner, type) else [
                m for name, m in sys.modules.items()
                if name == "permtwist" or name.startswith("permtwist.")
            ]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, name, wrapper)
                        self._restore.append((holder, name, orig))

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._restore):
            setattr(holder, name, orig)
        self._restore.clear()

    # -- wrappers -------------------------------------------------------------

    def _open(self, layer: str) -> list:
        stack = self._stack
        rec = [len(self.spans), layer, stack[-1][ID] if stack else None, self._check,
               0.0, 0.0, 0.0, self._active[layer] == 0]
        self.spans.append(rec)
        stack.append(rec)
        self._active[layer] += 1
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list, entered: float) -> None:
        """End `rec`, and charge its parent from `entered` (wrapper entry) on."""
        rec[END] = perf_counter()
        self._stack.pop()
        self._active[rec[LAYER]] -= 1
        charged = perf_counter() - entered
        if self._stack:
            self._stack[-1][CHILD] += charged
        self.overhead_s += charged - (rec[END] - rec[START])

    def _span(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            rec = self._open(layer)
            try:
                out = fn(*args, **kwargs)
                for name, n in _size_counts(layer, args, out).items():
                    self.counts[name] += n
            finally:
                self._close(rec, entered)
            return out

        return wrapper

    def _leaf(self, layer: str, fn):
        agg = self.leaves[layer]
        stack = self._stack
        is_mul = layer == "exactnum.mul"

        def wrapper(a, b):
            entered = perf_counter()
            out = fn(a, b)
            own = perf_counter() - entered
            agg[0] += 1
            agg[1] += own
            if is_mul and (isinstance(b, (int, Fraction)) or a.is_rational()
                           or b.is_rational()):
                self.rational_muls += 1
            charged = perf_counter() - entered
            if stack:
                stack[-1][CHILD] += charged
            self.overhead_s += charged - own
            return out

        return wrapper

    @contextmanager
    def check(self, check_id: str):
        """Root span of one check."""
        self._check = check_id
        rec = self._open("check")
        try:
            yield
        finally:
            self._close(rec, rec[START])
            self._check = None

    # -- results --------------------------------------------------------------

    def metrics(self, cache: dict | None) -> tuple[dict, list[str]]:
        """(per-layer metric values, names of metrics whose layer is absent).

        `cache` is the pass's vertex-mode table change (None if absent).
        """
        calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for rec in self.spans:
            dur = rec[END] - rec[START]
            calls[rec[LAYER]] += 1
            self_s[rec[LAYER]] += dur - rec[CHILD]
            if rec[OUTER]:
                total_s[rec[LAYER]] += dur
        for layer, (n, secs) in self.leaves.items():
            calls[layer], self_s[layer] = n, secs
        values, absent = {}, []
        for name, (_unit, kind, layer) in METRICS.items():
            if (kind == "cache" and cache is None) or layer in self.absent:
                absent.append(name)
                values[name] = 0
            elif kind == "calls":
                values[name] = calls[layer]
            elif kind == "self":
                values[name] = self_s[layer]
            elif kind == "total":
                values[name] = total_s[layer]
            elif kind == "work":
                values[name] = self.counts[name]
            elif kind == "cache":
                values[name] = cache[layer]
            elif kind == "overhead":
                values[name] = self.overhead_s
            elif kind == "rational_share":
                values[name] = self.rational_muls / calls[layer] if calls[layer] else 0.0
            else:  # keep_ratio
                seen = self.counts["fermion.window_keys_in"]
                values[name] = self.counts["fermion.window_keys_kept"] / seen if seen else 0.0
        return values, absent

    def dump(self, path) -> None:
        """Write every span as one JSON line: id, layer, parent, check, start, end, self."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps([rec[ID], rec[LAYER], rec[PARENT], rec[CHECK], rec[START],
                                     rec[END], rec[END] - rec[START] - rec[CHILD]]) + "\n")
