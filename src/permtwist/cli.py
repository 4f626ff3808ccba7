"""Command-line front end: run identity checks and print machine-readable
reports.

Every outcome is one JSON line with at least {check, identity, window,
status}; anchors carry the ASCII form of the identity that was verified so a
log line is self-describing.  Exit status: 0 when everything passed (an
expected obstruction at even order counts as the correct outcome), 1 when any
check failed, 2 for unusable configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction as Fr
from pathlib import Path

from .changeofvars import a_table, rep_identity_check, theta_verify
from .exactnum import get_ring
from .fermion import Vec, omega_vec, psi_vec, standard_basis, vac_vec
from .fseries import CheckReport, delta_identity_checks
from .qchar import char_plain, char_twisted, corollary_check, evidence_even, tensor_power_check
from .twistor import (
    conjugation_check,
    delta_roundtrip_check,
    invariant_subspace_scan,
    lg0_check,
    lminus1_check,
    mode_grading_check,
    obstruction_report,
    roundtrip_retwist_check,
    roundtrip_untwist_check,
    supercommutator_check,
    supercommutator_factor_witness,
    twisted_jacobi_check,
    twisted_jacobi_eigen_check,
    untwist_commutator_check,
    untwist_evenbranch_witness,
)

@dataclass
class RunConfig:
    """What one invocation sweeps over."""

    ks: tuple[int, ...]
    max_weight: Fr = Fr(3, 2)
    cutoff: Fr = Fr(2)
    full: bool = False

    def odd_ks(self) -> tuple[int, ...]:
        return tuple(k for k in self.ks if k % 2 == 1)

    def even_ks(self) -> tuple[int, ...]:
        return tuple(k for k in self.ks if k % 2 == 0)


def _generators(ring):
    return (("psi", psi_vec(ring)), ("omega", omega_vec(ring)))


def _targets(ring, max_weight):
    return [Vec.basis(ring, key) for key in standard_basis(max_weight)]


# ---------------------------------------------------------------------------
# check families
# ---------------------------------------------------------------------------


def run_delta(cfg: RunConfig):
    for k in cfg.ks:
        ring = get_ring(k)
        rs = (Fr(0), Fr(1), Fr(1, k)) if k > 1 else (Fr(0), Fr(1))
        yield from delta_identity_checks(ring, r_values=rs)


def run_rep(cfg: RunConfig):
    for k in cfg.ks:
        yield from rep_identity_check(k)


def run_conjugation(cfg: RunConfig):
    for k in cfg.odd_ks():
        ring = get_ring(k)
        for _name, u in _generators(ring):
            for v in _targets(ring, cfg.max_weight):
                yield conjugation_check(u, v)


def run_supercomm(cfg: RunConfig):
    for k in cfg.odd_ks():
        ring = get_ring(k)
        pairs = [(psi_vec(ring), psi_vec(ring)), (psi_vec(ring), omega_vec(ring)),
                 (omega_vec(ring), omega_vec(ring))]
        for u, v in pairs:
            for w in (vac_vec(ring), Vec.basis(ring, (-1,))):
                yield supercommutator_check(u, v, w)
    for k in cfg.even_ks():
        ring = get_ring(k)
        yield supercommutator_check(psi_vec(ring), psi_vec(ring), vac_vec(ring))
        yield supercommutator_factor_witness(psi_vec(ring), psi_vec(ring), vac_vec(ring))


def run_jacobi(cfg: RunConfig):
    for k in cfg.odd_ks():
        ring = get_ring(k)
        psi, om = psi_vec(ring), omega_vec(ring)
        pairs = [(psi, psi), (psi, om), (om, psi)]
        if cfg.full:
            pairs.append((om, om))
        slots = [(1, 1), (1, 2)] if k > 1 else [(1, 1)]
        for u, v in pairs:
            for s1, s2 in slots:
                for w in _targets(ring, cfg.max_weight if cfg.full else Fr(1, 2)):
                    yield twisted_jacobi_check(u, s1, v, s2, w)
        if k > 1:
            for r in range(k):
                yield twisted_jacobi_eigen_check(psi, r, psi, 1, vac_vec(ring))


def run_lminus1(cfg: RunConfig):
    for k in cfg.odd_ks():
        ring = get_ring(k)
        for _name, u in _generators(ring):
            for w in _targets(ring, cfg.max_weight):
                yield lminus1_check(u, w)


def run_grading(cfg: RunConfig):
    for k in cfg.odd_ks():
        yield mode_grading_check(k)
        yield lg0_check(k)
        yield invariant_subspace_scan(k)


def run_roundtrip(cfg: RunConfig):
    for k in cfg.ks:
        ring = get_ring(k)
        for _name, u in _generators(ring):
            yield delta_roundtrip_check(u)
            for w in (vac_vec(ring), Vec.basis(ring, (-1,))):
                yield roundtrip_untwist_check(u, w)
        if k % 2 == 1:
            for m in range(-2, 3):
                yield roundtrip_retwist_check(psi_vec(ring), m, Vec.basis(ring, (-1,)))
            yield untwist_commutator_check(psi_vec(ring), psi_vec(ring), vac_vec(ring))


def run_char(cfg: RunConfig):
    for k in cfg.odd_ks():
        yield corollary_check(k, cfg.cutoff if k <= 3 else min(cfg.cutoff, Fr(1)))
        if k > 1:
            yield tensor_power_check(k, cfg.cutoff)
    for k in cfg.even_ks():
        yield evidence_even(k, min(cfg.cutoff, Fr(1)))


def run_even_obstruction(cfg: RunConfig):
    ks = cfg.even_ks() or (2, 4)
    for k in ks:
        yield obstruction_report(k)
        yield evidence_even(k, Fr(1, 2))
        ring = get_ring(k)
        yield untwist_evenbranch_witness(psi_vec(ring), psi_vec(ring), vac_vec(ring))
    for k in cfg.odd_ks():
        yield obstruction_report(k)


FAMILIES = {
    "delta": run_delta,
    "rep": run_rep,
    "conjugation": run_conjugation,
    "supercomm": run_supercomm,
    "jacobi": run_jacobi,
    "lminus1": run_lminus1,
    "grading": run_grading,
    "roundtrip": run_roundtrip,
    "char": run_char,
    "even-obstruction": run_even_obstruction,
}
CHECK_NAMES = tuple(FAMILIES)


def collect(names, cfg: RunConfig) -> list[tuple[str, CheckReport]]:
    rows: list[tuple[str, CheckReport]] = []
    for name in names:
        for rep in FAMILIES[name](cfg):
            rows.append((name, rep))
    rows.sort(key=lambda r: (r[0], r[1].k or 0, r[1].identity, r[1].window))
    return rows


def json_line(name: str, rep: CheckReport) -> str:
    """One report as its JSON line, the family name first."""
    return json.dumps({"check": name, **rep.to_json()})


def emit(rows, out=None) -> int:
    worst = 0
    for name, rep in rows:
        print(json_line(name, rep), file=out or sys.stdout)
        if not rep.passed:
            worst = 1
    return worst


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _parse_ks(values, default=()) -> tuple[int, ...]:
    """The --k values once each, in first-seen order (default when none)."""
    ks = tuple(dict.fromkeys(values)) if values else default
    bad = [k for k in ks if k < 1]
    if bad:
        print(f"--k values must be >= 1, got {bad[0]}", file=sys.stderr)
        raise SystemExit(2)
    return ks


def _require_order(order: int) -> None:
    if order < 1:
        print(f"--order must be >= 1, got {order}", file=sys.stderr)
        raise SystemExit(2)


def _parse_fractions(**texts) -> list[Fr] | None:
    """The nonnegative fraction arguments, given by option name, or None
    after naming an unreadable or negative one on stderr."""
    out = []
    for name, text in texts.items():
        try:
            value = Fr(text)
        except (ValueError, ZeroDivisionError):
            print(f"unreadable fraction argument {text!r}", file=sys.stderr)
            return None
        if value < 0:
            print(f"--{name.replace('_', '-')} must be >= 0, got {text}", file=sys.stderr)
            return None
        out.append(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="permtwist",
        description="exact checks for cyclic-permutation-twisted fermion modules",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("coeffs", help="flow coefficients of the covering change of variables")
    c.add_argument("--k", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6, 7, 8])
    c.add_argument("--order", type=int, default=8)

    t = sub.add_parser("theta", help="closed-form checks for the auxiliary exponents")
    t.add_argument("--k", type=int, nargs="+", default=[2, 3])
    t.add_argument("--order", type=int, default=4)

    ch = sub.add_parser("check", help="run one identity family (or all)")
    ch.add_argument("name", choices=CHECK_NAMES + ("all",))
    ch.add_argument("--k", type=int, nargs="+", default=None)
    ch.add_argument("--max-weight", type=str, default="3/2")
    ch.add_argument("--cutoff", type=str, default="2")
    ch.add_argument("--full", action="store_true", help="widen the sweeps")

    cr = sub.add_parser("char", help="print graded dimensions from the operator spectrum")
    cr.add_argument("--k", type=int, nargs="+", default=[1, 3])
    cr.add_argument("--cutoff", type=str, default="2")

    rp = sub.add_parser("report", help="run every family and write JSON-lines to a directory")
    rp.add_argument("--out", type=str, default=None)
    rp.add_argument("--full", action="store_true")
    return p


def cmd_coeffs(args) -> int:
    _require_order(args.order)
    for k in _parse_ks(args.k):
        a = a_table(k, args.order)
        print(json.dumps({"k": k, "order": args.order, "a": [str(c) for c in a]}))
    return 0


def cmd_char(args) -> int:
    fracs = _parse_fractions(cutoff=args.cutoff)
    if fracs is None:
        return 2
    (cutoff,) = fracs
    for k in sorted(_parse_ks(args.k)):
        if k % 2 == 0:
            rep = evidence_even(k, cutoff)
            print(json_line("char", rep))
            continue
        plain = char_plain(cutoff)
        tw = char_twisted(k, cutoff)
        print(json.dumps({
            "check": "char", "k": k,
            "plain": [[str(e), c] for e, c in plain.terms()],
            "twisted": [[str(e), c] for e, c in tw.terms()],
        }))
    return 0


def cmd_check(args) -> int:
    fracs = _parse_fractions(max_weight=args.max_weight, cutoff=args.cutoff)
    if fracs is None:
        return 2
    max_weight, cutoff = fracs
    names = CHECK_NAMES if args.name == "all" else (args.name,)
    default_ks = (1, 2, 3) if args.name in ("delta", "rep") else (1, 2, 3, 4, 5)
    ks = _parse_ks(args.k, default_ks)
    cfg = RunConfig(ks=ks, max_weight=max_weight, cutoff=cutoff, full=args.full)
    rows = collect(names, cfg)
    if not rows:
        print("nothing to run for this configuration", file=sys.stderr)
        return 2
    return emit(rows)


def cmd_theta(args) -> int:
    _require_order(args.order)
    if min(args.k) < 2:
        print("theta checks need k >= 2", file=sys.stderr)
        return 2
    return emit([("theta", rep) for k in _parse_ks(args.k) for rep in theta_verify(k, order=args.order)])


def cmd_report(args) -> int:
    out_dir = args.out or os.environ.get("PERMTWIST_REPORT_DIR") or "./reports"
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"cannot use {out_dir!r} as the report directory: {err.strerror}", file=sys.stderr)
        return 2
    cfg = RunConfig(ks=(1, 2, 3, 4, 5), full=args.full)
    rows = collect(CHECK_NAMES, cfg)
    lines = []
    counts = {"pass": 0, "fail": 0, "expected-obstruction": 0}
    for name, rep in rows:
        lines.append(json_line(name, rep))
        counts[rep.status] = counts.get(rep.status, 0) + 1
    (path / "checks.jsonl").write_text("\n".join(lines) + "\n")
    summary = {"total": len(rows), **counts}
    (path / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({"written": str(path / "checks.jsonl"), **summary}))
    return 0 if counts.get("fail", 0) == 0 else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "coeffs": cmd_coeffs,
        "theta": cmd_theta,
        "check": cmd_check,
        "char": cmd_char,
        "report": cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
