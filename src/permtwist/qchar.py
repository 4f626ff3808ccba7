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

The bare form is the anomaly form times q^{k/48} on both sides, so one
comparison decides both.  A character is a `QSeries`: a kernel series in q
that carries its completeness cutoff through products, substitution and
shifts, and is compared only on a window that both cutoffs cover.

For even k there is no grading operator to trace -- the mode constructor
refuses with the coset certificate -- and the only honest artifact is
`evidence_even`, which records that refusal next to the formal substitution
series the identity would have demanded.  Evidence, not a construction.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .fseries import CheckReport, FracSeries, Window
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
# q-series: kernel series that carry a completeness cutoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QSeries:
    """A kernel series in q over the rationals, complete for exponents <= cutoff."""

    series: FracSeries
    cutoff: Fr

    @classmethod
    def census(cls, den: int, cutoff, counts) -> "QSeries":
        """sum m q^e over the (e, m) pairs of counts with e <= cutoff.  An
        exponent off the (1/den)Z lattice raises ValueError when it is read."""
        ring, cutoff = get_ring(1), Fr(cutoff)
        series = FracSeries.zero(ring, ("q",))
        for e, m in counts:
            if (e * den).denominator != 1:
                raise ValueError(f"exponent {e} not on the 1/{den} lattice")
            if e <= cutoff:
                series.add_term((e,), ring.rational(m))
        return cls(series, cutoff)

    def subs_root(self, k: int) -> "QSeries":
        """q -> q^(1/k)."""
        return QSeries(self.series.scale_exponents("q", Fr(1, k)), self.cutoff / k)

    def product_cutoff(self, other: "QSeries") -> Fr:
        """The product is complete through min(cut_a + lead_b, cut_b + lead_a),
        lead the lowest exponent: a missing term of either factor pairs only
        with exponents above it.  An empty factor's lead lies above its cutoff."""
        lead_a, lead_b = (min(s.series.exponents_of("q"), default=s.cutoff) for s in (self, other))
        return min(self.cutoff + lead_b, other.cutoff + lead_a)

    def __mul__(self, other: "QSeries") -> "QSeries":
        cutoff = self.product_cutoff(other)
        return QSeries(self.series.mul(other.series, Window.below("q", cutoff)), cutoff)

    def power(self, k: int) -> "QSeries":
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def terms(self):
        """Sorted (exponent, multiplicity) pairs; multiplicities are integers."""
        return sorted((e, int(c.as_rational())) for e, c in self.series.by_exponent())

    def render(self, limit: int = 8) -> str:
        parts = [f"{c}*q^({e})" for e, c in self.terms()[:limit]]
        more = " + ..." if len(self.series.terms) > limit else ""
        return " + ".join(parts) + more if parts else "0"


def qseries_equal(a: QSeries, b: QSeries, through) -> tuple[bool, str | None]:
    """Compare on q <= through; None means equal.  An operand complete only
    below through raises ValueError naming its cutoff: the comparison would
    pass on less than its window."""
    short = min(a.cutoff, b.cutoff)
    if short < through:
        raise ValueError(f"q-series complete only through q^({short}), compared through q^({through})")
    diff = (a.series - b.series).truncate_window(Window.below("q", through))
    if diff.is_zero():
        return True, None
    e = min(diff.exponents_of("q"))
    ca, cb = (s.series.coefficient({"q": e}).as_rational() for s in (a, b))
    return False, f"at q^({e}): {ca} != {cb}"


# ---------------------------------------------------------------------------
# characters from operator spectra
# ---------------------------------------------------------------------------


def char_plain(cutoff) -> QSeries:
    """tr over the single-fermion space of q^(L(0) - c/24), eigenvalues read
    off the conformal mode state by state (diagonality asserted, not assumed).
    """
    ring = get_ring(1)
    cutoff = Fr(cutoff)

    def spectrum():
        for key in standard_basis(cutoff + Fr(1, 48)):
            w = Vec.basis(ring, key)
            got = virasoro_mode(0, w)
            wt = state_weight(key)
            if got != w.scale(wt):
                raise ArithmeticError(f"L(0) not diagonal on {key}: {got.render()}")
            yield wt - Fr(1, 48), 1

    return QSeries.census(48, cutoff, spectrum())


def char_twisted(k: int, cutoff, *, a_override=None) -> QSeries:
    """tr over the order-k cycle-twisted module of q^(L^g(0) - kc/24).

    The eigenvalue of each basis state is read off k * (conformal mode at
    index 1); a non-diagonal action or an off-lattice eigenvalue is an error,
    and even k propagates the mode constructor's obstruction.
    """
    ring = get_ring(k)
    cutoff = Fr(cutoff)
    act = twisted_mode(omega_vec(ring), 1, a_override=a_override)
    # exponent = wt/k + (k^2-1)/48k - k/48, so weights up to this are needed:
    top = k * (cutoff + Fr(k, 48)) - Fr(k * k - 1, 48)

    def spectrum():
        for key in standard_basis(max(top, Fr(0))):
            w = Vec.basis(ring, key)
            got = act.apply(w).scale(k)
            if set(got.keys()) - {key}:
                raise ArithmeticError(f"grading mode not diagonal on {key}: {got.render()}")
            diag = got.terms.get(key)
            if diag is not None and not diag.is_rational():
                raise ArithmeticError(f"irrational grading eigenvalue on {key}")
            yield (Fr(0) if diag is None else diag.as_rational()) - Fr(k, 48), 1

    return QSeries.census(48 * k, cutoff, spectrum())


# ---------------------------------------------------------------------------
# the identity, and what replaces it at even order
# ---------------------------------------------------------------------------


def corollary_check(k: int, cutoff=2, *, a_override=None) -> CheckReport:
    """Both normalizations of the twisted character identity on one window.

    anomaly form:  tr_T q^(L^g(0) - kc/24) == tr_M q^(L(0) - c/24) at q^(1/k)
    bare form:     tr_T q^(L^g(0)) == q^((k^2-1)/48k) tr_M q^(L(0)/k)

    The bare form is the anomaly form times q^(k/48) on both sides, so the
    one comparison of the anomaly form decides both.
    """
    cutoff = Fr(cutoff)
    report = partial(CheckReport, "character.twisted-vs-substitution",
                     ("tr_T q^(Lg(0)-kc/24) == (tr_M q^(L(0)-c/24))|q->q^(1/k)",
                      "tr_T q^(Lg(0)) == q^((k^2-1)/48k) tr_M q^(L(0)/k)"),
                     Window.of(q=(Fr(-k, 48), cutoff)).render(), k=k)
    try:
        lhs = char_twisted(k, cutoff, a_override=a_override)
    except (ValueError, ArithmeticError) as exc:
        # a spectrum that leaves the 1/48k lattice (or stops being diagonal)
        # cannot match any substitution character
        return report("fail", first_mismatch=f"twisted spectrum unusable: {exc}")
    ok, witness = qseries_equal(lhs, char_plain(k * cutoff).subs_root(k), cutoff)
    if ok:
        return report("pass", detail=f"twisted character starts {lhs.render(3)}")
    return report("fail", first_mismatch=witness)


def tensor_power_check(k: int, cutoff=2) -> CheckReport:
    """The untwisted tensor-power character is the k-th power of the plain one
    (basis census on one side, exact series arithmetic on the other).  Each
    of the k - 1 products lowers the carried cutoff by the factor's lead
    -1/48, so the factor is built through cutoff + (k-1)/48."""
    cutoff = Fr(cutoff)
    dims = graded_dims(tensor_basis(k, cutoff + Fr(k, 48)))
    lhs = QSeries.census(48, cutoff, ((wt - Fr(k, 48), dim) for wt, dim in dims.items()))
    rhs = char_plain(cutoff + Fr(k - 1, 48)).power(k)
    ok, witness = qseries_equal(lhs, rhs, cutoff)
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
