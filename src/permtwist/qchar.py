"""Graded dimensions and the twisted character identity.

Characters here are never transcribed from closed formulas: both sides are
rebuilt from operator spectra.  The untwisted side traces the plain grading
operator over the fermion basis; the twisted side diagonalizes the rebuilt
grading mode (k times the slot-1 conformal mode at index 1) state by state.
The headline identity is then an exact equality of finitely many integer
coefficients on a window:

    tr_T q^{L^g(0) - kc/24} == (tr_M q^{L(0) - c/24}) with q -> q^{1/k}

with c = 1/2 per tensor factor, equivalently (clearing the anomalies)

    tr_T q^{L^g(0)} == q^{(k^2-1)/48k} tr_M q^{L(0)/k}.

For even k there is no grading operator to trace -- the mode constructor
refuses with the coset certificate -- and the only honest artifact is
`evidence_even`, which records that refusal next to the formal substitution
series the identity would have demanded.  Evidence, not a construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Fr
from functools import partial

from .exactnum import get_ring
from .fermion import (
    Vec,
    graded_dims,
    omega_vec,
    standard_basis,
    state_weight,
    tensor_basis,
    virasoro_mode,
)
from .fseries import CheckReport, Window
from .twistor import ObstructionError, twisted_mode

__all__ = [
    "QSeries",
    "char_plain",
    "char_twisted",
    "corollary_check",
    "tensor_power_check",
    "evidence_even",
]


# ---------------------------------------------------------------------------
# sparse exact q-series
# ---------------------------------------------------------------------------


@dataclass
class QSeries:
    """Sum of coeffs[n] q^(n/den), complete for exponents <= cutoff."""

    den: int
    cutoff: Fr
    coeffs: dict[int, int] = field(default_factory=dict)

    def add(self, exponent, c: int = 1) -> None:
        e = Fr(exponent)
        key = e * self.den
        if key.denominator != 1:
            raise ValueError(f"exponent {e} not on the 1/{self.den} lattice")
        if e > self.cutoff:
            return
        key = int(key)
        tot = self.coeffs.get(key, 0) + c
        if tot:
            self.coeffs[key] = tot
        else:
            self.coeffs.pop(key, None)

    def subs_root(self, k: int) -> "QSeries":
        """q -> q^(1/k)."""
        return QSeries(self.den * k, self.cutoff / k, dict(self.coeffs))

    def shifted(self, a) -> "QSeries":
        a = Fr(a)
        off = a * self.den
        if off.denominator != 1:
            raise ValueError(f"shift {a} not on the 1/{self.den} lattice")
        return QSeries(
            self.den, self.cutoff + a,
            {n + int(off): c for n, c in self.coeffs.items()},
        )

    def __mul__(self, other: "QSeries") -> "QSeries":
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        lead_a = min((n * sa for n in self.coeffs), default=0)
        lead_b = min((n * sb for n in other.coeffs), default=0)
        cutoff = min(self.cutoff + Fr(lead_b, den), other.cutoff + Fr(lead_a, den))
        out = QSeries(den, cutoff)
        bound = cutoff * den
        for n, c in self.coeffs.items():
            for m, d in other.coeffs.items():
                key = n * sa + m * sb
                if key <= bound:
                    out.coeffs[key] = out.coeffs.get(key, 0) + c * d
        out.coeffs = {n: c for n, c in out.coeffs.items() if c}
        return out

    def power(self, k: int) -> "QSeries":
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def terms(self):
        return sorted((Fr(n, self.den), c) for n, c in self.coeffs.items())

    def render(self, limit: int = 8) -> str:
        parts = [f"{c}*q^({e})" for e, c in self.terms()[:limit]]
        more = " + ..." if len(self.coeffs) > limit else ""
        return " + ".join(parts) + more if parts else "0"


def qseries_equal(a: QSeries, b: QSeries) -> tuple[bool, str | None]:
    """Compare on the shared complete window; None means equal."""
    den = math.lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    cutoff = min(a.cutoff, b.cutoff)
    ta = {n * sa: c for n, c in a.coeffs.items() if Fr(n, a.den) <= cutoff}
    tb = {n * sb: c for n, c in b.coeffs.items() if Fr(n, b.den) <= cutoff}
    for key in sorted(set(ta) | set(tb)):
        if ta.get(key, 0) != tb.get(key, 0):
            return False, f"at q^({Fr(key, den)}): {ta.get(key, 0)} != {tb.get(key, 0)}"
    return True, None


# ---------------------------------------------------------------------------
# characters from operator spectra
# ---------------------------------------------------------------------------


def char_plain(cutoff, *, anomaly: bool = True) -> QSeries:
    """tr over the single-fermion space of q^(L(0) - c/24), eigenvalues read
    off the conformal mode state by state (diagonality asserted, not assumed).
    """
    ring = get_ring(1)
    cutoff = Fr(cutoff)
    shift = Fr(-1, 48) if anomaly else Fr(0)
    out = QSeries(48, cutoff)
    for key in standard_basis(cutoff - shift):
        w = Vec.basis(ring, key)
        got = virasoro_mode(0, w)
        wt = state_weight(key)
        if got != w.scale(wt):
            raise ArithmeticError(f"L(0) not diagonal on {key}: {got.render()}")
        out.add(wt + shift)
    return out


def char_twisted(k: int, cutoff, *, anomaly: bool = True, a_override=None) -> QSeries:
    """tr over the order-k cycle-twisted module of q^(L^g(0) - kc/24).

    The eigenvalue of each basis state is read off k * (conformal mode at
    index 1); a non-diagonal action or an off-lattice eigenvalue is an error,
    and even k propagates the mode constructor's obstruction.
    """
    ring = get_ring(k)
    cutoff = Fr(cutoff)
    shift = Fr(-k, 48) if anomaly else Fr(0)
    act = twisted_mode(omega_vec(ring), 1, a_override=a_override)
    out = QSeries(48 * k, cutoff)
    # exponent = wt/k + (k^2-1)/48k + shift, so weights up to this are needed:
    top = k * (cutoff - shift) - Fr(k * k - 1, 48)
    for key in standard_basis(max(top, Fr(0))):
        w = Vec.basis(ring, key)
        got = act.apply(w).scale(k)
        if set(got.keys()) - {key}:
            raise ArithmeticError(f"grading mode not diagonal on {key}: {got.render()}")
        diag = got.terms.get(key)
        if diag is not None and not diag.is_rational():
            raise ArithmeticError(f"irrational grading eigenvalue on {key}")
        eig = Fr(0) if diag is None else diag.as_rational()
        out.add(eig + shift)
    return out


# ---------------------------------------------------------------------------
# the identity, and what replaces it at even order
# ---------------------------------------------------------------------------


def corollary_check(k: int, cutoff=2, *, a_override=None) -> CheckReport:
    """Both normalizations of the twisted character identity on one window.

    anomaly form:  tr_T q^(L^g(0) - kc/24) == tr_M q^(L(0) - c/24) at q^(1/k)
    bare form:     tr_T q^(L^g(0)) == q^((k^2-1)/48k) tr_M q^(L(0)/k)
    """
    cutoff = Fr(cutoff)
    report = partial(CheckReport, "character.twisted-vs-substitution",
                     ("tr_T q^(Lg(0)-kc/24) == (tr_M q^(L(0)-c/24))|q->q^(1/k)",
                      "tr_T q^(Lg(0)) == q^((k^2-1)/48k) tr_M q^(L(0)/k)"),
                     Window.of(q=(Fr(-k, 48), cutoff)).render(), k=k)
    try:
        lhs = char_twisted(k, cutoff, a_override=a_override)
        lhs_bare = char_twisted(k, cutoff, anomaly=False, a_override=a_override)
    except (ValueError, ArithmeticError) as exc:
        # a spectrum that leaves the 1/48k lattice (or stops being diagonal)
        # cannot match any substitution character
        return report("fail", first_mismatch=f"twisted spectrum unusable: {exc}")
    rhs = char_plain(k * cutoff).subs_root(k)
    ok1, witness1 = qseries_equal(lhs, rhs)
    rhs_bare = char_plain(k * cutoff, anomaly=False).subs_root(k).shifted(Fr(k * k - 1, 48 * k))
    ok2, witness2 = qseries_equal(lhs_bare, rhs_bare)
    if ok1 and ok2:
        return report("pass", detail=f"twisted character starts {lhs.render(3)}")
    return report("fail", first_mismatch=witness1 or witness2)


def tensor_power_check(k: int, cutoff=2) -> CheckReport:
    """The untwisted tensor-power character is the k-th power of the plain one
    (basis census on one side, exact series arithmetic on the other)."""
    cutoff = Fr(cutoff)
    lhs = QSeries(48, cutoff)
    for wt, dim in graded_dims(tensor_basis(k, cutoff + Fr(k, 48))).items():
        lhs.add(wt - Fr(k, 48), dim)
    rhs = char_plain(cutoff + Fr(k, 48) + 1).power(k)
    ok, witness = qseries_equal(lhs, rhs)
    return CheckReport(
        "character.tensor-power", ("tensor-power census == (single-factor character)^k",),
        Window.of(q=(Fr(-k, 48), cutoff)).render(),
        "pass" if ok else "fail",
        first_mismatch=witness, k=k,
    )


def evidence_even(k: int, cutoff=1) -> CheckReport:
    """At even k the twisted grading mode does not exist; record the refusal
    with its coset certificate alongside the substitution series the identity
    would have required.  This is evidence about the obstruction, not a
    construction of a module.
    """
    if k % 2 == 1:
        raise ValueError("odd k admits the construction; nothing to evidence")
    report = partial(CheckReport, "character.even-order-evidence",
                     ("no (1/k)Z-graded twisted module at even k: grading mode refused with coset certificate",),
                     Window.of(q=(Fr(-k, 48), Fr(cutoff))).render(), k=k)
    try:
        char_twisted(k, cutoff)
    except ObstructionError as exc:
        would = char_plain(k * Fr(cutoff)).subs_root(k)
        return report("expected-obstruction",
                      detail=f"mode lattice confined to {exc.offset} + {exc.step}*Z;"
                             f" the substitution series {would.render(3)} has no spectral realization")
    return report("fail", first_mismatch="twisted grading mode unexpectedly constructed at even k")
