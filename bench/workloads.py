"""Workloads of the cold-start check benchmark and the verdicts they expect.

Each workload is a list of `Check`s: one call into permtwist's public check
API with every window argument passed explicitly, and one expected
(status, window) per report the call returns.  The expected statuses come
from the mathematics, not from the program's output:

* a genuine identity of the construction expects ``pass``;
* the even-order obstruction (k in {2, 4}) expects ``expected-obstruction``;
* a negative control -- a known-false instance such as a perturbed flow
  coefficient or a dropped dressing factor -- expects ``fail``, so an engine
  that stops detecting mismatches is caught.

The expected window pins every bound the benchmark asked for (a `box`, `hi`,
`z0_hi`, `cutoff`, `order` ...).  Bounds the program derives itself, such as
a weight floor, are left unpinned (None), but the set of window variables is
still compared.  A report on a narrower window is a different computation, so
it counts as a wrong verdict.

permtwist is imported inside `build`, so that the import is part of the
measured set-up time.  The thunks look every layer function up through the
check functions; none holds a layer function that the tracer re-binds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction as F
from functools import partial
from typing import Callable

PASS, FAIL, OBSTRUCTED = "pass", "fail", "expected-obstruction"


@dataclass(frozen=True)
class Check:
    id: str
    run: Callable
    expect: tuple  # ((status, pins), ...), one per returned report


@dataclass(frozen=True)
class Verdict:
    """Report stand-in for gate sweeps that return plain values."""

    status: str
    window: str = ""


def box_pins(window) -> dict:
    return dict(window.as_dict())


def pins(**bounds) -> dict:
    """var -> (lo, hi) window pins; None leaves a bound unpinned."""
    return {v: tuple(None if b is None else F(b) for b in lohi) for v, lohi in bounds.items()}


_WINDOW_RE = re.compile(r"([^:,\[\]]+):\[([^,\]]+),([^\]]+)\]")


def parse_window(text: str) -> dict:
    return {v: (F(lo), F(hi)) for v, lo, hi in _WINDOW_RE.findall(text)}


def verdict_errors(check: Check, reports) -> list[str]:
    """One message per report whose status or window differs from the table."""
    reports = reports if isinstance(reports, list) else [reports]
    if len(reports) != len(check.expect):
        return [f"{check.id}: {len(reports)} reports, expected {len(check.expect)}"] * len(check.expect)
    errors = []
    for i, (rep, (status, want)) in enumerate(zip(reports, check.expect)):
        got = parse_window(rep.window)
        pinned_ok = set(got) == set(want) and all(
            w is None or g == w
            for v, bounds in want.items()
            for g, w in zip(got[v], bounds)
        )
        if rep.status != status or not pinned_ok:
            asked = ",".join(f"{v}:[{'*' if lo is None else lo},{'*' if hi is None else hi}]"
                             for v, (lo, hi) in sorted(want.items()))
            errors.append(f"{check.id}[{i}]: got {rep.status} on {rep.window!r}, "
                          f"expected {status} on {asked!r}")
    return errors


# ---------------------------------------------------------------------------
# jacobi: delta pairing and the residue-form iterate
# ---------------------------------------------------------------------------

# the criterion-08 box of the k = 3 twisted Jacobi checks
JACOBI_BOX3 = dict(x0=(-2, 1), x1=(-1, 1), x2=(-1, 1))
# (u, slot of u, v, slot of v, target) at k = 3 on that box
JACOBI_K3 = (
    ("psi", 1, "psi", 1, "vac"),
    ("psi", 1, "omega", 2, "vac"),
    ("omega", 1, "psi", 1, "psi"),
)
# (u, v, target) for the untwisted identity at k = 1
JACOBI_K1 = (
    ("psi", "psi", "vac"),
    ("psi", "omega", "psi"),
    ("omega", "psi", "vac"),
)


def _states(ring):
    from permtwist.fermion import omega_vec, psi_vec, vac_vec

    # the generator psi is the state psi(-1/2)|0>, so it doubles as a target
    return {"psi": psi_vec(ring), "omega": omega_vec(ring), "vac": vac_vec(ring)}


def _jacobi() -> list[Check]:
    from permtwist.exactnum import get_ring
    from permtwist.fermion import untwisted_jacobi_check
    from permtwist.fseries import Window
    from permtwist.twistor import twisted_jacobi_check, twisted_jacobi_eigen_check

    out = []
    s3 = _states(get_ring(3))
    box3 = Window.of(**JACOBI_BOX3)
    for un, su, vn, sv, wn in JACOBI_K3:
        out.append(Check(
            f"jacobi.k3.{un}{su}-{vn}{sv}.{wn}",
            partial(twisted_jacobi_check, s3[un], su, s3[vn], sv, s3[wn], box3),
            ((PASS, box_pins(box3)),),
        ))
    for r in range(3):
        out.append(Check(
            f"jacobi-eigen.k3.r{r}",
            partial(twisted_jacobi_eigen_check, s3["psi"], r, s3["psi"], 1, s3["vac"], box3),
            ((PASS, box_pins(box3)),),
        ))
    s1 = _states(get_ring(1))
    box1 = Window.of(x0=(-2, 2), x1=(-2, 2), x2=(-2, 2))
    for un, vn, wn in JACOBI_K1:
        out.append(Check(
            f"untwisted-jacobi.k1.{un}-{vn}.{wn}",
            partial(untwisted_jacobi_check, s1[un], s1[vn], s1[wn], box1),
            ((PASS, box_pins(box1)),),
        ))
    return out


# ---------------------------------------------------------------------------
# series: change of variables and formal-series identities, k = 1..5
# ---------------------------------------------------------------------------

DELTA_N = 3
REP_N_WINDOW, REP_TRUNC = 2, 8
THETA_ORDER, THETA_Z0 = 4, 6
FINV_ORDER = 10
RECOMP_TRUNC = 5
SUPERFIELD_TRUNC = 7


def _series() -> list[Check]:
    from permtwist.changeofvars import (
        f_inverse_checks,
        recomposition_cross_check,
        rep_identity_check,
        superfield_exp_check,
        theta_verify,
    )
    from permtwist.exactnum import get_ring
    from permtwist.fseries import delta_identity_checks

    n = DELTA_N
    delta_box = pins(x0=(0, n), x1=(-n, n), x2=(-n, n))
    out = []
    for k in range(1, 6):
        ring = get_ring(k)
        rs = (F(0), F(1), F(1, k)) if k > 1 else (F(0), F(1))
        # two-sided per r, root-average, root-swap, three-term
        expect = [(PASS, delta_box)] * (len(rs) + 2) + [(PASS, pins(x0=(-n, n), x1=(-n, n), x2=(-n, n)))]
        out.append(Check(f"delta.k{k}", partial(delta_identity_checks, ring, r_values=rs, N=n),
                         tuple(expect)))
        out.append(Check(
            f"rep.k{k}", partial(rep_identity_check, k, n_window=REP_N_WINDOW, trunc_order=REP_TRUNC),
            ((PASS, pins(x=(-REP_N_WINDOW - 1, REP_TRUNC - 1))),) * 2,
        ))
        if k >= 2:
            # Theta_1..Theta_order and exp(Theta_0) on the z0 window, then the
            # a0-slot consistency check on the x window of the same depth
            expect = [(PASS, pins(z0=(0, THETA_Z0)))] * (THETA_ORDER + 1) + [(PASS, pins(x=(0, THETA_Z0)))]
            out.append(Check(f"theta.k{k}",
                             partial(theta_verify, k, order=THETA_ORDER, z0_order=THETA_Z0),
                             tuple(expect)))
        out.append(Check(f"f-inverse.k{k}", partial(f_inverse_checks, k, order=FINV_ORDER),
                         ((PASS, pins(x=(0, FINV_ORDER))),) * 3))
        out.append(Check(f"recomposition.k{k}",
                         partial(recomposition_cross_check, k, trunc_order=RECOMP_TRUNC),
                         ((PASS, pins(w=(0, k), x=(0, RECOMP_TRUNC))),)))
        out.append(Check(f"superfield.k{k}",
                         partial(superfield_exp_check, k, trunc_order=SUPERFIELD_TRUNC),
                         ((PASS, pins(x=(0, SUPERFIELD_TRUNC))),) * 3))
    return out


# ---------------------------------------------------------------------------
# sweep: many light checks reading the mode tables across k = 1..5
# ---------------------------------------------------------------------------

# Flow coefficients a_1..a_5 at k = 3 with a_2 = 2/3 perturbed: known false.
BAD_A_OFF_LATTICE = (F(-1), F(2, 3) + F(1, 7), F(-2, 3), F(7, 9), F(-26, 27))
BAD_A_ON_LATTICE = (F(-1), F(2, 3) + F(1, 4), F(-2, 3), F(7, 9), F(-26, 27))
# (u, v, target) of the bracket at k = 1, 3, 5; omega-omega, the k = 5 hot
# spot in the vertex-mode recursion, on the vacuum only
SUPERCOMM = (
    ("psi", "psi", "vac"),
    ("psi", "psi", "psi"),
    ("psi", "omega", "vac"),
    ("psi", "omega", "psi"),
    ("omega", "omega", "vac"),
)
CONJ_Z0_HI = 3
ROUNDTRIP_HI = 3
CHAR_CASES = ((1, 4), (3, 2), (5, 1))
# (k, cutoff) of the tensor-power census, the one caller of QSeries products
TENSOR_POWER_CASES = ((3, 1), (5, 1))


def _conjugation_sweep() -> list[Check]:
    """Criterion 06: both generators on every basis state through weight 5/2."""
    from permtwist.exactnum import get_ring
    from permtwist.fermion import Vec, standard_basis
    from permtwist.twistor import conjugation_check

    out = []
    for k in (1, 3):
        ring = get_ring(k)
        s = _states(ring)
        for un in ("psi", "omega"):
            for key in standard_basis(F(5, 2)):
                out.append(Check(f"conjugation.k{k}.{un}.{key}",
                                 partial(conjugation_check, s[un], Vec.basis(ring, key), z0_hi=CONJ_Z0_HI),
                                 ((PASS, pins(z0=(None, CONJ_Z0_HI))),)))
    return out


def _sweep() -> list[Check]:
    from permtwist.exactnum import get_ring
    from permtwist.fermion import Vec, standard_basis
    from permtwist.fseries import Window
    from permtwist.qchar import corollary_check, evidence_even, tensor_power_check
    from permtwist.twistor import (
        conjugation_check,
        delta_roundtrip_check,
        invariant_subspace_scan,
        lg0_check,
        mode_grading_check,
        mode_vs_field_check,
        obstruction_report,
        roundtrip_retwist_check,
        roundtrip_untwist_check,
        supercommutator_check,
        supercommutator_factor_witness,
        untwist_evenbranch_witness,
    )

    out = []
    bracket_box = Window.of(x1=(-2, 2), x2=(-2, 2))
    bb = box_pins(bracket_box)
    for k in (1, 3, 5):
        s = _states(get_ring(k))
        for un, vn, wn in SUPERCOMM:
            out.append(Check(f"supercomm.k{k}.{un}-{vn}.{wn}",
                             partial(supercommutator_check, s[un], s[vn], s[wn], bracket_box),
                             ((PASS, bb),)))
    s2 = _states(get_ring(2))
    psi2, vac2 = s2["psi"], s2["vac"]
    out.append(Check("supercomm.k2.psi-psi.vac",
                     partial(supercommutator_check, psi2, psi2, vac2, bracket_box), ((PASS, bb),)))
    out.append(Check("negative.supercomm-drop-factor.k2",
                     partial(supercommutator_check, psi2, psi2, vac2, bracket_box, drop_factor=True),
                     ((FAIL, bb),)))
    out.append(Check("supercomm-factor-witness.k2",
                     partial(supercommutator_factor_witness, psi2, psi2, vac2, bracket_box),
                     ((PASS, bb),)))

    out.extend(_conjugation_sweep())
    for k in (1, 3):
        ring = get_ring(k)
        s = _states(ring)
        for un in ("psi", "omega"):
            u = s[un]
            out.append(Check(f"dressing-roundtrip.k{k}.{un}", partial(delta_roundtrip_check, u),
                             ((PASS, pins(x=(None, None))),)))
            for key in standard_basis(F(3)):
                w = Vec.basis(ring, key)
                out.append(Check(f"roundtrip-untwist.k{k}.{un}.{key}",
                                 partial(roundtrip_untwist_check, u, w, hi=ROUNDTRIP_HI),
                                 ((PASS, pins(x=(None, ROUNDTRIP_HI))),)))
                for m in range(-3, 4):
                    out.append(Check(f"roundtrip-retwist.k{k}.{un}.{key}.m{m}",
                                     partial(roundtrip_retwist_check, u, m, w),
                                     ((PASS, pins(m=(m, m))),)))
    s3 = _states(get_ring(3))
    out.append(Check("negative.conjugation-perturbed-a2.k3",
                     partial(conjugation_check, s3["psi"], s3["psi"], z0_hi=CONJ_Z0_HI,
                             a_override=BAD_A_OFF_LATTICE),
                     ((FAIL, pins(z0=(None, CONJ_Z0_HI))),)))

    ring3 = get_ring(3)
    for un in ("psi", "omega"):
        for n in range(-9, 10):
            m = F(n, 3)
            for key in standard_basis(2):
                out.append(Check(f"mode-vs-field.k3.{un}.m{m}.{key}",
                                 partial(mode_vs_field_check, s3[un], m, Vec.basis(ring3, key)),
                                 ((PASS, pins(x=(-m - 1, -m - 1))),)))

    for k in (1, 3, 5):
        out.append(Check(f"mode-grading.k{k}", partial(mode_grading_check, k, max_weight=2, m_span=2),
                         ((PASS, pins(m=(-2, 2))),)))
        out.append(Check(f"grading-operator.k{k}", partial(lg0_check, k, max_weight=3),
                         ((PASS, pins(x=(-2, -2))),)))
        out.append(Check(f"irreducible-scan.k{k}",
                         partial(invariant_subspace_scan, k, max_weight=F(5, 2)),
                         ((PASS, pins(wt=(0, F(5, 2)))),)))
    for k, cutoff in CHAR_CASES:
        out.append(Check(f"character.k{k}", partial(corollary_check, k, cutoff),
                         ((PASS, pins(q=(F(-k, 48), cutoff))),)))
    for k, cutoff in TENSOR_POWER_CASES:
        out.append(Check(f"tensor-power.k{k}", partial(tensor_power_check, k, cutoff),
                         ((PASS, pins(q=(F(-k, 48), cutoff))),)))
    for tag, bad in (("on-lattice", BAD_A_ON_LATTICE), ("off-lattice", BAD_A_OFF_LATTICE)):
        out.append(Check(f"negative.character-perturbed-a2-{tag}.k3",
                         partial(corollary_check, 3, 1, a_override=bad),
                         ((FAIL, pins(q=(F(-3, 48), 1))),)))

    for k in (2, 4):
        s = _states(get_ring(k))
        out.append(Check(f"even-obstruction.k{k}", partial(obstruction_report, k),
                         ((OBSTRUCTED, pins(x=(None, None))),)))
        out.append(Check(f"even-evidence.k{k}", partial(evidence_even, k, F(1, 2)),
                         ((OBSTRUCTED, pins(q=(F(-k, 48), F(1, 2)))),)))
        out.append(Check(f"even-branch-witness.k{k}",
                         partial(untwist_evenbranch_witness, s["psi"], s["psi"], s["vac"], bracket_box),
                         ((PASS, bb),)))
    return out


# ---------------------------------------------------------------------------
# acceptance-gate sweeps, timed once by gates.py (not benchmark workloads)
# ---------------------------------------------------------------------------


def _flow_closed_forms(k: int) -> Verdict:
    from permtwist.changeofvars import a_table

    a1, a2 = a_table(k, 2)
    return Verdict(PASS if (a1, a2) == (F(1 - k, 2), F(k * k - 1, 12)) else FAIL)


def _gate_01() -> list[Check]:
    return [Check(f"flow-closed-forms.k{k}", partial(_flow_closed_forms, k), ((PASS, {}),))
            for k in range(1, 9)]


def _gate_08() -> list[Check]:
    from permtwist.exactnum import get_ring
    from permtwist.fermion import Vec, standard_basis
    from permtwist.fseries import Window
    from permtwist.twistor import twisted_jacobi_check

    ring = get_ring(3)
    s = _states(ring)
    box = Window.of(**JACOBI_BOX3)
    out = []
    for un in ("psi", "omega"):
        for vn in ("psi", "omega"):
            for s1, s2 in ((1, 1), (1, 2)):
                for key in standard_basis(F(3, 2)):
                    out.append(Check(
                        f"jacobi.k3.{un}{s1}-{vn}{s2}.{key}",
                        partial(twisted_jacobi_check, s[un], s1, s[vn], s2, Vec.basis(ring, key), box),
                        ((PASS, box_pins(box)),),
                    ))
    return out


WORKLOADS = {"jacobi": _jacobi, "series": _series, "sweep": _sweep}
# acceptance criterion -> (runtime gate in seconds, sweep)
GATES = {"criterion-01": (1.0, _gate_01), "criterion-06": (120.0, _conjugation_sweep),
         "criterion-08": (300.0, _gate_08)}


def build(name: str) -> list[Check]:
    if name in WORKLOADS:
        return WORKLOADS[name]()
    return GATES[name][1]()
