"""Order-k cyclic twists of tensor-power free-fermion modules.

Everything here is driven by one dressing operator on the single-fermion
space: for the scalar ring of order k,

    D(x) u = k^{-wt u} * x^{(wt u)/k - wt u} * exp(+sum_j a_j x^{-j/k} L(j)) u

(the a_j are the exponential change-of-variable coefficients solved in
`changeofvars`; the exponential is a finite weight-lowering flow).  The
slot-1 twisted field is Ybar(u, x) = Y(D(x) u, x^{1/k}); fields of the other
slots differ by the root substitution x^{1/k} -> eta^j x^{1/k}, which acts on
an exponent-e term as the phase eta^{j*k*e}.

All series are exact: windows say which coefficients are requested, and every
truncation is chosen deep enough that the reported coefficients are the true
ones.  Checks return CheckReports; nothing is ever compared numerically.

For even k the field of an odd state has exponents in the displaced coset
|u|/2k + (1/k)Z, so it has no modes on the (1/k)Z lattice at all; mode-level
entry points refuse even k with an ObstructionError carrying that coset, while
the field-level ones still compute (they are what exhibits the failure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Fr

from .changeofvars import a_table
from .exactnum import Scalar, ScalarRing, get_ring
from .fermion import (
    Vec,
    VecSeries,
    iterate_modesum,
    iterate_side,
    jacobi_products,
    key_parity,
    key_weight,
    min_exponent,
    omega_vec,
    psi_vec,
    standard_basis,
    two_sided,
    vac_vec,
    vec_equal_on_window,
    vertex_mode,
    vertex_op,
    virasoro_mode,
)
from .fseries import (
    CheckReport,
    CompositionDomainError,
    FracSeries,
    Window,
    binom_expand,
    gbinom,
    unit_pow,
)

__all__ = [
    "ObstructionError",
    "delta_apply",
    "delta_roundtrip_check",
    "twisted_floor",
    "ybar",
    "other_slots",
    "twisted_field",
    "ModeAction",
    "twisted_mode",
    "mode_vs_field_check",
    "mode_grading_check",
    "lg0_check",
    "lminus1_check",
    "conjugation_check",
    "supercommutator_check",
    "supercommutator_factor_witness",
    "twisted_iterate",
    "iterate_vs_modes_check",
    "twisted_jacobi_check",
    "twisted_jacobi_eigen_check",
    "untwist",
    "untwist_commutator_check",
    "untwist_evenbranch_witness",
    "roundtrip_untwist_check",
    "roundtrip_retwist_check",
    "obstruction_report",
    "invariant_subspace_scan",
]


class ObstructionError(Exception):
    """The even-order construction was requested.

    Carries the certificate: for even k the twisted field of a parity-odd
    state has mode indices confined to the coset offset + step*Z with
    offset = parity/2k and step = 1/k, which is disjoint from (1/k)Z, so no
    (1/k)Z-graded module structure exists on the twisted side.
    """

    def __init__(self, k: int, parity: int = 1):
        self.k = k
        self.parity = parity
        self.offset = Fr(parity, 2 * k)
        self.step = Fr(1, k)
        super().__init__(
            f"order k={k} is even: a parity-{parity} state's twisted modes live on "
            f"{self.offset} + ({self.step})Z, disjoint from the (1/{k})Z lattice; "
            "the module construction is refused"
        )


# ---------------------------------------------------------------------------
# the dressing operator
# ---------------------------------------------------------------------------


def _weight_split(u: Vec) -> list[tuple[Fr, Vec]]:
    comps: dict[Fr, Vec] = {}
    for key, c in u.terms.items():
        w = key_weight(key)
        comps.setdefault(w, Vec(u.ring)).accumulate(((key, c),), u.ring.one)
    return sorted(comps.items())


def _a_coeffs(k: int, depth: int, a_override) -> tuple[Fr, ...]:
    base = a_table(k, max(depth, 2))
    if a_override is None:
        return base
    over = tuple(Fr(a) for a in a_override)
    return (over + base[len(over):])[: len(base)]


def _exp_flow(u: Vec, sign: int, a: tuple[Fr, ...]) -> dict[int, Vec]:
    """Weight-drop buckets of exp(sign * sum_j a_j L(j)) u for homogeneous u.

    Each L(j) lowers the weight by j >= 1, so the flow terminates after at
    most floor(wt u) steps; bucket J collects the total-drop-J part (which
    multiplies x^{-J/k} in the dressing).
    """
    depth = int(u.max_weight())
    buckets: dict[int, Vec] = {}
    term: dict[int, Vec] = {0: u}
    m = 0
    while term:
        for J, vec in term.items():
            cur = buckets.get(J)
            buckets[J] = vec if cur is None else cur + vec
        m += 1
        if m > depth:
            break
        new: dict[int, Vec] = {}
        for J, vec in term.items():
            for j in range(1, depth - J + 1):
                res = virasoro_mode(j, vec)
                if res.is_zero():
                    continue
                res = res.scale(Fr(sign) * a[j - 1] / m)
                cur = new.get(J + j)
                new[J + j] = res if cur is None else cur + res
        term = {J: vec for J, vec in new.items() if not vec.is_zero()}
    return {J: vec for J, vec in buckets.items() if not vec.is_zero()}


def delta_apply(u: Vec, *, invert: bool = False, var: str = "x", a_override=None) -> VecSeries:
    """The dressing operator D(x) (or its inverse) applied to u.

    Forward, on a weight-p component: scalar k^{-p} first, then the
    exponential flow; bucket J lands at x^{(p-J)/k - p}.  Inverse: the flow
    with opposite sign first, then the scalar k^{p-J} on the weight-(p-J)
    result, at x^{p - p/k - J}.  The two compose to the identity.
    """
    ring = u.ring
    k = ring.k
    out = VecSeries(ring, (var,))
    for p, comp in _weight_split(u):
        a = _a_coeffs(k, int(p), a_override)
        buckets = _exp_flow(comp, -1 if invert else 1, a)
        for J, vec in buckets.items():
            if invert:
                out.add_term((p - Fr(p, k) - J,), vec, factor=ring.sqrt_k_pow(int(2 * (p - J))))
            else:
                out.add_term((Fr(p - J, k) - p,), vec, factor=ring.sqrt_k_pow(int(-2 * p)))
    return out


def delta_roundtrip_check(u: Vec, *, var: str = "x",
                          identity: str = "twisted.dressing-roundtrip") -> CheckReport:
    """D(x)^{-1} D(x) u == u, combining the exponent bookkeeping of both passes."""
    ring = u.ring
    back = VecSeries(ring, (var,))
    for (e,), vec in delta_apply(u, var=var).terms.items():
        for (e2,), vec2 in delta_apply(vec, invert=True, var=var).terms.items():
            back.add_term((e + e2,), vec2)
    want = VecSeries(ring, (var,))
    want.add_term((Fr(0),), u)
    exps = back.exponents_of(var) | {Fr(0)}
    win = Window.of(**{var: (min(exps), max(exps))})
    return vec_equal_on_window(
        back, want, win, identity,
        anchors=("D(x)^-1 D(x) u == u",), k=ring.k,
    )


# ---------------------------------------------------------------------------
# twisted fields
# ---------------------------------------------------------------------------


def twisted_floor(u: Vec, target: Vec) -> Fr:
    """Lower bound for the x-exponents of the slot fields of u on target."""
    k = u.ring.k
    lo = None
    for (e,), vec in delta_apply(u).terms.items():
        cand = Fr(min_exponent(vec, target), k) + e
        lo = cand if lo is None else min(lo, cand)
    return Fr(0) if lo is None else lo


def ybar(u: Vec, target: Vec, window: Window, *, var: str = "x", a_override=None) -> VecSeries:
    """The slot-1 twisted field Ybar(u, x) target = Y(D(x)u, x^{1/k}) target.

    Complete on the window: every coefficient with var-exponent inside the
    bounds is the exact one (the annihilation floor cuts the low side).
    """
    ring = target.ring
    k = ring.k
    bounds = window.as_dict()
    if var not in bounds:
        raise ValueError(f"window must bound {var}")
    lo, hi = Fr(bounds[var][0]), Fr(bounds[var][1])
    out = VecSeries(ring, (var,))
    for (e,), uJ in delta_apply(u, a_override=a_override).terms.items():
        f_lo = max(math.ceil(k * (lo - e)), min_exponent(uJ, target))
        f_hi = math.floor(k * (hi - e))
        for f in range(f_lo, f_hi + 1):
            out.add_term((Fr(f, k) + e,), vertex_mode(uJ, -f - 1, target))
    return out


def other_slots(series: VecSeries, j: int, *, var: str = "x") -> VecSeries:
    """Advance a twisted field by j slots: the substitution x^{1/k} -> eta^j x^{1/k}.

    A term with var-exponent e (k*e integral) picks up the phase eta^{j*k*e};
    j = 0 and j = k are both the identity.
    """
    ring = series.ring
    k = ring.k
    if j % k == 0:
        return series

    def phase(e: Fr) -> Scalar:
        ke = k * e
        if ke.denominator != 1:
            raise CompositionDomainError(f"exponent {e} is off the (1/{k})Z lattice")
        return ring.eta((j * int(ke)) % k)

    return series.phase_by_exponent(var, phase)


def twisted_field(u: Vec, slot: int, target: Vec, window: Window, *,
                  var: str = "x", a_override=None) -> VecSeries:
    """The twisted field of u embedded in the given slot (1-indexed)."""
    base = ybar(u, target, window, var=var, a_override=a_override)
    return other_slots(base, (slot - 1) % target.ring.k, var=var)


def _slot_field(slot: int):
    """twisted_field in one slot, as a field(state, target, window, var)."""
    return lambda state, target, window, var: twisted_field(state, slot, target, window, var=var)


def _parts_field(parts, target: Vec, window: Window, var: str = "x") -> VecSeries:
    """Field of a formal combination: parts is ((coeff, state, slot), ...)."""
    out = VecSeries(target.ring, (var,))
    for c, state, slot in parts:
        ser = twisted_field(state, slot, target, window, var=var)
        for e, vec in ser.terms.items():
            out.add_term(e, vec.scale(c))
    return out


def lminus1_check(u: Vec, target: Vec, *, hi=2, var: str = "x",
                  identity: str = "twisted.l-minus-one") -> CheckReport:
    """Ybar(L(-1)u, x) target == d/dx Ybar(u, x) target on a window."""
    ring = target.ring
    lo = min(twisted_floor(virasoro_mode(-1, u), target), twisted_floor(u, target) - 1)
    win = Window.of(**{var: (lo, Fr(hi))})
    lhs = ybar(virasoro_mode(-1, u), target, win, var=var)
    rhs = ybar(u, target, Window.of(**{var: (lo, Fr(hi) + 1)}), var=var)
    rhs = rhs.derivative(var).truncate_window(win)
    return vec_equal_on_window(
        lhs, rhs, win, identity,
        anchors=("Ybar(L(-1)u, x) == d/dx Ybar(u, x)",), k=ring.k,
    )


# ---------------------------------------------------------------------------
# twisted modes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ModeAction:
    """One twisted mode, tabulated as a finite sum of untwisted modes.

    Applying the slot-1 twisted mode at index m: each dressing bucket uJ at
    x-exponent e contributes the untwisted mode uJ_n with n = k(m+1+e) - 1.
    """

    k: int
    m: Fr
    terms: tuple  # ((Vec, int), ...)

    def apply(self, w: Vec) -> Vec:
        out = Vec(w.ring)
        for vec, n in self.terms:
            out = out + vertex_mode(vec, n, w)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({vec.render()})_[{n}]" for vec, n in self.terms)


def twisted_mode(u: Vec, m, *, a_override=None) -> ModeAction:
    """The slot-1 twisted mode of u at index m (the x^{-m-1} coefficient).

    Indices off the (1/k)Z lattice give the zero action; even k is refused
    with the coset certificate (see ObstructionError).
    """
    ring = u.ring
    k = ring.k
    if k % 2 == 0:
        # refuse at the construction entry: whatever u was asked for, the
        # module fails because the generator coset 1/2k misses the lattice
        raise ObstructionError(k, 1)
    m = Fr(m)
    if (k * m).denominator != 1:
        return ModeAction(k, m, ())
    terms = []
    for (e,), uJ in delta_apply(u, a_override=a_override).terms.items():
        n = k * (m + 1 + e) - 1
        if n.denominator != 1:
            raise CompositionDomainError(f"mode index {n} not integral (k={k}, m={m})")
        terms.append((uJ, int(n)))
    return ModeAction(k, m, tuple(terms))


def mode_vs_field_check(u: Vec, m, w: Vec, *,
                        identity: str = "twisted.mode-vs-field") -> CheckReport:
    """Tabulated mode action == coefficient extraction from the field series."""
    ring = w.ring
    m = Fr(m)
    direct = twisted_mode(u, m).apply(w)
    win = Window.of(x=(-m - 1, -m - 1))
    got = ybar(u, w, win).coefficient({"x": -m - 1})
    status = "pass" if direct == got else "fail"
    mismatch = None
    if status == "fail":
        mismatch = f"at x^{-m - 1}: {direct.render()} != {got.render()}"
    return CheckReport(
        identity,
        ("twisted mode at index m == coefficient of x^(-m-1) in Ybar(u,x)w",),
        win.render(),
        status,
        first_mismatch=mismatch,
        k=ring.k,
    )


def mode_grading_check(k: int, *, max_weight=2, m_span: int = 2,
                       identity: str = "twisted.mode-grading") -> CheckReport:
    """Twisted generator modes shift the plain weight by k(wt u - m - 1) and
    the parity by the state's parity, on every basis state under the cutoff.

    In the 1/k-relabelled grading of the twisted side this is exactly the
    degree shift wt u - m - 1, i.e. level n/k of the twisted module is the
    plain weight-n subspace.
    """
    ring = get_ring(k)
    gens = (psi_vec(ring), omega_vec(ring))
    window = Window.of(m=(-m_span, m_span))
    for key in standard_basis(max_weight):
        w = Vec.basis(ring, key)
        wwt, wpar = key_weight(key), key_parity(key)
        for u in gens:
            p, par = u.weight(), u.parity()
            for km in range(-m_span * k, m_span * k + 1):
                m = Fr(km, k)
                res = twisted_mode(u, m).apply(w)
                if res.is_zero():
                    continue
                expect = wwt + k * (p - m - 1)
                if res.weight() != expect or res.parity() != (wpar + par) % 2:
                    return CheckReport(
                        identity,
                        ("u^g_m maps weight n to weight n + k(wt u - m - 1), parity + |u|",),
                        window.render(),
                        "fail",
                        first_mismatch=f"u={u.render()}, m={m}, w={w.render()}: got {res.render()}",
                        k=k,
                    )
    return CheckReport(
        identity,
        ("u^g_m maps weight n to weight n + k(wt u - m - 1), parity + |u|",),
        window.render(),
        "pass",
        detail=f"generators psi, omega on basis through weight {max_weight}",
        k=k,
    )


def lg0_check(k: int, *, max_weight=3, identity: str = "twisted.grading-operator") -> CheckReport:
    """k times the slot-1 conformal mode at index 1 acts as L(0)/k + (k^2-1)/48k.

    At the integer exponent -2 every slot phase is trivial, so the slot-summed
    conformal field contributes k equal copies of the slot-1 one; the scalar
    (k^2-1)/48k is the twisted vacuum level for central charge 1/2 per slot.
    """
    ring = get_ring(k)
    act = twisted_mode(omega_vec(ring), 1)
    shift = Fr(k * k - 1, 48 * k)
    win = Window.of(x=(-2, -2))
    for key in standard_basis(max_weight):
        w = Vec.basis(ring, key)
        got = act.apply(w).scale(k)
        want = w.scale(Fr(key_weight(key)) / k + shift)
        if got != want:
            return CheckReport(
                identity,
                ("k * (omega slot-1 twisted mode at 1) == L(0)/k + (k^2-1)/48k",),
                win.render(),
                "fail",
                first_mismatch=f"on {w.render()}: {got.render()} != {want.render()}",
                k=k,
            )
    return CheckReport(
        identity,
        ("k * (omega slot-1 twisted mode at 1) == L(0)/k + (k^2-1)/48k",),
        win.render(),
        "pass",
        detail=f"basis through weight {max_weight}; vacuum level {shift}",
        k=k,
    )


# ---------------------------------------------------------------------------
# conjugation of a plain vertex operator by the dressing
# ---------------------------------------------------------------------------


def _root_diff_pow(ring: ScalarRing, e: int, z0_hi: int) -> FracSeries:
    """((z+z0)^{1/k} - z^{1/k})^e, exact in z, truncated at z0-degree z0_hi.

    Each z0-degree carries a single z-monomial, so the truncation in z0 is the
    only one needed.  Negative e goes through the invertible leading term
    (1/k) z^{1/k-1} z0.
    """
    k = ring.k
    order = z0_hi - min(e, 0) + 1
    root = binom_expand(ring, (1, {"z": 1}), (1, {"z0": 1}), Fr(1, k), order)
    base = root - FracSeries.monomial(ring, 1, {"z": Fr(1, k)})
    if e >= 0:
        out = FracSeries.one(ring)
        for _ in range(e):
            out = (out * base).truncate("z0", z0_hi)
        return out
    lead_inv = FracSeries.monomial(ring, k, {"z": 1 - Fr(1, k), "z0": -1})
    unit = base * lead_inv  # 1 + (positive z0-order tail)
    powed = unit_pow(unit, Fr(e), "z0", z0_hi - e)
    lead_pow = FracSeries.monomial(
        ring, Fr(k) ** (-e), {"z": (Fr(1, k) - 1) * e, "z0": Fr(e)}
    )
    return (powed * lead_pow).truncate("z0", z0_hi)


def conjugation_check(u: Vec, v: Vec, *, z0_hi: int = 3, a_override=None,
                      identity: str = "twisted.conjugation") -> CheckReport:
    """The dressing moves a plain vertex operator to the composed insertion:

      D(z) Y(u, z0) D(z)^{-1} v == sum_E (z+z0)^E Y(u_E, (z+z0)^{1/k} - z^{1/k}) v

    where D(z+z0)u = sum_E u_E (z+z0)^E runs over the dressing buckets of u.
    Both sides are exact in z at each z0-degree; compared through z0^z0_hi
    (the low side is the annihilation floor, so the comparison is complete).
    """
    ring = u.ring
    d_lo = min_exponent(u, v)
    # left: dress down, insert, dress up
    lhs = VecSeries(ring, ("z", "z0"))
    for (ez,), vJ in delta_apply(v, invert=True, var="z", a_override=a_override).terms.items():
        for d in range(min_exponent(u, vJ), z0_hi + 1):
            res = vertex_mode(u, -d - 1, vJ)
            if res.is_zero():
                continue
            for (ez2,), out_vec in delta_apply(res, var="z", a_override=a_override).terms.items():
                lhs.add_term((ez + ez2, Fr(d)), out_vec)
    # right: dress u at z+z0, insert at the root difference
    rhs = VecSeries(ring, ("z", "z0"))
    ypows: dict[int, FracSeries] = {}
    for (E,), uJ in delta_apply(u, var="z", a_override=a_override).terms.items():
        e_lo = min_exponent(uJ, v)
        # negative powers of the root difference reach down to z0^e, so the
        # prefactor needs the matching extra depth before the product
        pref = binom_expand(ring, (1, {"z": 1}), (1, {"z0": 1}), E, z0_hi - min(e_lo, 0))
        for e in range(e_lo, z0_hi + 1):
            coeff_vec = vertex_mode(uJ, -e - 1, v)
            if coeff_vec.is_zero():
                continue
            if e not in ypows:
                ypows[e] = _root_diff_pow(ring, e, z0_hi)
            fs = (pref * ypows[e]).truncate("z0", z0_hi)
            lift = VecSeries(ring, ("z", "z0"))
            lift.add_term((Fr(0), Fr(0)), coeff_vec)
            rhs = rhs + lift.mul_series(fs)
    win = Window.of(z0=(d_lo, z0_hi))  # z unconstrained: exact per z0-degree
    return vec_equal_on_window(
        lhs, rhs, win, identity,
        anchors=(
            "D(z) Y(u,z0) D(z)^-1 v == sum_E (z+z0)^E Y((D(z+z0)u)_E, (z+z0)^(1/k) - z^(1/k)) v",
        ),
        k=ring.k,
    )


# ---------------------------------------------------------------------------
# bracket of two twisted fields (residue pairing, exact on a box)
# ---------------------------------------------------------------------------


def _bracket_check(apply_field, u: Vec, v: Vec, w: Vec, box: Window, *,
                   offset: Fr, den: int, rhs_scale: Fr, identity: str,
                   anchors, k: int) -> CheckReport:
    """Shared engine: [F(u,x1), F(v,x2)] w (super-bracket) against

      rhs_scale * sum_{m>=0} sum_n C(n/den+offset, m)(-1)^m
          x1^{n/den+offset-m} x2^{-n/den-offset-1} F(u_m v, x2) w

    which is the x0^-1 coefficient of the Jacobi iterate side: the step-1/den
    delta, dressed by the offset exponent, paired with the iterate on the box
    x0 = -1, where the x0^m term of (x1-x0)^r meets F(u_m v, x2) w at
    x0^{-m-1}.  Only m >= 0 reach x0^-1: the residue kills the creation half.
    Exact coefficientwise on the box.
    """
    b = box.as_dict()
    p12 = two_sided(apply_field, u, v, w, b["x1"], b["x2"], ("x1", "x2"))
    p21 = two_sided(apply_field, v, u, w, b["x2"], b["x1"], ("x2", "x1"))
    eps = (-1) ** (u.parity() * v.parity())
    lhs = p12 - p21 if eps == 1 else p12 + p21
    rhs = iterate_side(
        w.ring, lambda r0, r2: [iterate_modesum(apply_field, u, v, w, r0, r2)],
        Window.of(x0=(-1, -1), x1=b["x1"], x2=b["x2"]), min_exponent(u, v),
        step=Fr(1, den), shift=offset, scale=rhs_scale,
    )
    return vec_equal_on_window(
        lhs, rhs.shift_exponents("x0", 1), box, identity, anchors=anchors, k=k
    )


def supercommutator_check(u: Vec, v: Vec, w: Vec, box: Window | None = None, *,
                          drop_factor: bool = False,
                          identity: str = "twisted.supercommutator") -> CheckReport:
    """[Ybar(u,x1), Ybar(v,x2)] w against the fractional residue pairing.

    The iterate side carries the dressing ((x1-x0)/x2)^beta with
    beta = |u|(1-k)/2k, folded here into the delta exponents n/k + beta; for
    odd k beta is a multiple of 1/k (reabsorbed by shifting n), for even k and
    odd u it is a genuine half-step off the lattice.  drop_factor omits it.
    """
    ring = w.ring
    k = ring.k
    if box is None:
        box = Window.of(x1=(-2, 2), x2=(-2, 2))
    beta = Fr(0) if drop_factor else Fr(u.parity() * (1 - k), 2 * k)
    field = lambda s, t, win, var: ybar(s, t, win, var=var)  # noqa: E731
    tag = "no dressing" if drop_factor else f"dressing exponent beta={beta}"
    return _bracket_check(
        apply_field=field, u=u, v=v, w=w, box=box, offset=beta, den=k,
        rhs_scale=Fr(1, k), identity=identity,
        anchors=(
            "[Ybar(u,x1),Ybar(v,x2)]w == (1/k) Res_x0 x2^-1 d((x1-x0)^(1/k)/x2^(1/k))"
            " ((x1-x0)/x2)^(|u|(1-k)/2k) Ybar(Y(u,x0)v,x2)w [" + tag + "]",
        ),
        k=k,
    )


def supercommutator_factor_witness(u: Vec, v: Vec, w: Vec, box: Window | None = None, *,
                                   identity: str = "twisted.supercommutator-factor-needed",
                                   ) -> CheckReport:
    """The bracket dressing is load-bearing where it is fractional: with it the
    bracket identity holds, with it omitted the two sides provably differ.
    Passes when the dressed check passes and the undressed one fails, and
    reports the witnessing monomial.
    """
    k = w.ring.k
    beta = Fr(u.parity() * (1 - k), 2 * k)
    if (k * beta).denominator == 1:
        return CheckReport(
            identity, ("dressed bracket passes AND undressed bracket fails",),
            (box or Window.of(x1=(-2, 2), x2=(-2, 2))).render(), "fail",
            detail=f"beta={beta} is on the (1/{k})Z lattice: nothing to witness",
            k=k,
        )
    dressed = supercommutator_check(u, v, w, box)
    undressed = supercommutator_check(u, v, w, box, drop_factor=True)
    ok = dressed.status == "pass" and undressed.status == "fail"
    return CheckReport(
        identity,
        ("dressed bracket passes AND undressed bracket fails",),
        dressed.window,
        "pass" if ok else "fail",
        detail=(
            f"undressed mismatch witness: {undressed.first_mismatch}"
            if ok
            else f"dressed: {dressed.status}, undressed: {undressed.status}"
        ),
        k=k,
    )


# ---------------------------------------------------------------------------
# iterates: Yg(Y(u-slot, x0) v-slot, x2) without forming two-slot states
# ---------------------------------------------------------------------------


def _iterate_shared(u: Vec, jobs, v: Vec, s2: int, w: Vec, N: int) -> list[VecSeries]:
    """Iterate fields for several slot combinations of u over one shared
    product rectangle.  jobs: list of (combo, x0_range, x2_range) with combo
    a tuple of (Scalar, slot).

    Uses the locality-regularized residue form: with Q = (y-x2)^N P and
    P = Ybar(u, y) Yg(v^{s2}, x2) w,

      coefficient of x0^{e0} x2^{e2} = sum_n C(n/k, e0+N) (-1)^{e0+N}
          phase(slot, n) Q_{-1-n/k+e0+N, e2+n/k+1}

    The n-sum is finite because Q vanishes below the one-field annihilation
    floors on both variables (the commuted ordering bounds y, the direct one
    bounds x2).  The slot phase eta^{(slot-1) k f1} is constant across the
    regularizer sum (k f1 moves by multiples of k), so one phase-free Q cache
    serves every job; per term it only depends on n mod k.
    """
    ring = w.ring
    k = ring.k
    out = [VecSeries(ring, ("x0", "x2")) for _ in jobs]
    live = []
    for ci, (combo, r0, r2) in enumerate(jobs):
        a0, b0 = int(r0[0]), int(r0[1])
        c2, d2 = Fr(r2[0]), Fr(r2[1])
        if a0 <= b0 and c2 <= d2:
            live.append((ci, combo, a0, b0, c2, d2))
    if not live:
        return out
    uflr = twisted_floor(u, w)
    vflr = twisted_floor(v, w)
    b0_max = max(j[3] for j in live)
    d2_max = max(j[5] for j in live)
    n_lo_g = math.ceil(k * (vflr - 1 - d2_max))
    n_hi_g = math.floor(k * (b0_max + N - 1 - uflr))
    if n_lo_g > n_hi_g:
        return out
    g1_hi = b0_max + N - 1 - Fr(n_lo_g, k)
    g2_hi = d2_max + Fr(n_hi_g, k) + 1
    # P is only ever read on the band f1 + f2 = x0e + x2e (the regularizer
    # shifts f1 and f2 oppositely), so build each x2-column of the rectangle
    # just across that band.
    band_lo = min(j[2] for j in live) + min(j[4] for j in live)
    band_hi = b0_max + d2_max
    inner = twisted_field(v, s2, w, Window.of(x2=(vflr - N, g2_hi)), var="x2")
    prect: dict[tuple[Fr, Fr], Vec] = {}
    for (f2,), ivec in sorted(inner.terms.items()):
        y_lo = max(uflr - N, band_lo - f2)
        y_hi = min(g1_hi, band_hi - f2)
        if y_lo > y_hi or ivec.is_zero():
            continue
        outer = ybar(u, ivec, Window.of(y=(y_lo, y_hi)), var="y")
        for (f1,), res in outer.terms.items():
            prect[(f1, f2)] = res
    binN = [ring.rational(math.comb(N, l) * (-1) ** l) for l in range(N + 1)]
    qcache: dict[tuple[Fr, Fr], Vec | None] = {}

    def qplain(g1: Fr, g2: Fr) -> Vec | None:
        # summed into a fresh vector: prect entries and cached results are
        # never mutated
        key = (g1, g2)
        if key in qcache:
            return qcache[key]
        acc = None
        for l in range(N + 1):
            p = prect.get((g1 - N + l, g2 - l))
            if p is None:
                continue
            if acc is None:
                acc = Vec(ring)
            acc.accumulate(p.terms.items(), binN[l])
        qcache[key] = acc
        return acc

    for ci, combo, a0, b0, c2, d2 in live:
        # phase of each n-class: eta^{(slot-1) k f1} with k f1 = -n mod k
        ph_tab = []
        for cls in range(k):
            ph = ring.zero
            for c, slot in combo:
                ph = ph + c * ring.eta(((slot - 1) * cls) % k)
            ph_tab.append(ph)
        n_lo_j = math.ceil(k * (vflr - 1 - d2))
        n_hi_j = math.floor(k * (b0 + N - 1 - uflr))
        x2e = Fr(math.ceil(k * c2), k)
        while x2e <= d2:
            n_lo_c = max(n_lo_j, math.ceil(k * (vflr - 1 - x2e)))
            for x0e in range(a0, b0 + 1):
                i = x0e + N
                if i < 0:
                    continue
                n_hi_c = min(n_hi_j, math.floor(k * (i - 1 - uflr)))
                buckets: dict[int, Vec] = {}
                sgn = Fr((-1) ** (i % 2))
                for n in range(n_lo_c, n_hi_c + 1):
                    cb = gbinom(Fr(n, k), i)
                    if cb == 0:
                        continue
                    q = qplain(-1 - Fr(n, k) + i, x2e + Fr(n, k) + 1)
                    if q is None or q.is_zero():
                        continue
                    bucket = buckets.setdefault((-n) % k, Vec(ring))
                    bucket.accumulate(q.terms.items(), ring.rational(cb * sgn))
                acc = Vec(ring)
                for cls, vecsum in buckets.items():
                    acc.accumulate(vecsum.terms.items(), ph_tab[cls])
                out[ci].add_term((Fr(x0e), x2e), acc)
            x2e += Fr(1, k)
    return out


def twisted_iterate(u: Vec, su: int, v: Vec, sv: int, w: Vec,
                    x0_range, x2_range, *, N: int | None = None) -> VecSeries:
    """Yg(Y(u-in-slot-su, x0) v-in-slot-sv, x2) w on the rectangle, by the
    locality-regularized residue form (never materializing two-slot states).

    x0 exponents are integral (plain modes of the two-slot product state);
    x2 runs on the (1/k)Z lattice.  N defaults to one past the deepest
    nonvanishing same-slot product mode; any larger N gives the same answer
    (checked in the tests), which is the regularization being well-defined.
    """
    if N is None:
        N = max(1, -min_exponent(u, v))
    job = (((w.ring.one, su),), x0_range, x2_range)
    return _iterate_shared(u, [job], v, sv, w, N)[0]


def iterate_vs_modes_check(u: Vec, v: Vec, w: Vec, *, slot: int = 1,
                           x0_range=(-3, 1), x2_range=(-1, 1),
                           identity: str = "twisted.iterate-vs-modes") -> CheckReport:
    """Same-slot iterate == the mode-by-mode sum over plain products:

      Yg(Y(u^s, x0) v^s, x2) w == sum_{e0} x0^{e0} Yg((u_{-e0-1} v)^s, x2) w
    """
    got = twisted_iterate(u, slot, v, slot, w, x0_range, x2_range)
    want = iterate_modesum(_slot_field(slot), u, v, w, x0_range, x2_range)
    box = Window.of(x0=x0_range, x2=x2_range)
    return vec_equal_on_window(
        got, want, box, identity,
        anchors=("Yg(Y(u^s,x0)v^s,x2)w == sum_e0 x0^e0 Yg((u_(-e0-1)v)^s,x2)w",),
        k=w.ring.k,
    )


# ---------------------------------------------------------------------------
# the twisted Jacobi identity
# ---------------------------------------------------------------------------


def twisted_jacobi_check(u: Vec, s1: int, v: Vec, s2: int, w: Vec,
                         box: Window | None = None, *,
                         identity: str = "twisted.jacobi") -> CheckReport:
    """The full twisted Jacobi identity on one target, slots s1 and s2:

      x0^-1 d((x1-x2)/x0) Yg(u^s1,x1) Yg(v^s2,x2) w
        - (-1)^{|u||v|} x0^-1 d((x2-x1)/-x0) Yg(v^s2,x2) Yg(u^s1,x1) w
      == (1/k) x2^-1 sum_{j mod k} d(eta^j (x1-x0)^{1/k} / x2^{1/k})
             Yg(Y(g^j u^s1, x0) v^s2, x2) w

    coefficientwise on the box (x0 integral, x1 and x2 on the 1/k lattice).
    g^j moves slot s1 to slot s1 - j (mod k, 1-indexed).  The leg whose
    iterate lands back in slot s2 is a plain mode sum over product states;
    the cross-slot legs (where no one-slot product state exists) are
    evaluated by the shared-rectangle residue form.
    """
    ring = w.ring
    k = ring.k
    if box is None:
        box = Window.of(x0=(-2, 1), x1=(-1, 1), x2=(-1, 1))
    one = ring.one
    lhs = jacobi_products(
        _parts_field, ((one, u, s1),), ((one, v, s2),), w, box,
        (twisted_floor(u, w), twisted_floor(v, w)), (-1) ** (u.parity() * v.parity()),
    )
    # -- iterate side: j-sum of eta-phased fractional deltas.  The same-slot
    # leg (g^j u^s1 in slot s2) reaches down to the deepest product mode and
    # is a plain mode sum.  A cross-slot iterate has x0-floor 0 (the other
    # slot's field can only create out of its vacuum), so the cross-slot legs
    # share one window and one residue-form rectangle.
    e0min = min_exponent(u, v)
    N = max(1, -e0min)

    def phase(j):
        return lambda n: ring.eta((j * n) % k)

    j_same = (s1 - s2) % k
    cross = [j for j in range(k) if j != j_same]

    def cross_legs(r0, r2):
        jobs = [(((one, ((s1 - 1 - j) % k) + 1),), r0, r2) for j in cross]
        return _iterate_shared(u, jobs, v, s2, w, N)

    rhs = iterate_side(
        ring, lambda r0, r2: [iterate_modesum(_slot_field(s2), u, v, w, r0, r2)],
        box, e0min, step=Fr(1, k), scale=Fr(1, k), phases=(phase(j_same),),
    )
    if cross:
        rhs = rhs + iterate_side(
            ring, cross_legs, box, 0, step=Fr(1, k), scale=Fr(1, k),
            phases=tuple(phase(j) for j in cross),
        )
    return vec_equal_on_window(
        lhs, rhs, box, identity,
        anchors=(
            "x0^-1 d((x1-x2)/x0) Yg(u^s1,x1)Yg(v^s2,x2)w"
            " - (-1)^|u||v| x0^-1 d((x2-x1)/-x0) Yg(v^s2,x2)Yg(u^s1,x1)w"
            " == (1/k) x2^-1 sum_j d(eta^j (x1-x0)^(1/k)/x2^(1/k)) Yg(Y(g^j u^s1,x0)v^s2,x2)w",
        ),
        k=k,
    )


def twisted_jacobi_eigen_check(u: Vec, r: int, v: Vec, s2: int, w: Vec,
                               box: Window | None = None, *,
                               identity: str = "twisted.jacobi-eigen") -> CheckReport:
    """Jacobi in eigencomponent form: for the eta^r eigenvector
    A = (1/k) sum_i eta^{-ir} g^i u^1, the j-sum collapses to one delta with a
    fractional dressing:

      [products of Yg(A,x1), Yg(v^s2,x2) as in the full identity]
      == x2^-1 ((x1-x0)/x2)^{-r/k} d((x1-x0)/x2) Yg(Y(A,x0)v^s2,x2) w
    """
    ring = w.ring
    k = ring.k
    if box is None:
        box = Window.of(x0=(-2, 1), x1=(-1, 1), x2=(-1, 1))
    parts_a = tuple(
        (ring.eta((-i * r) % k) * Fr(1, k), u, ((-i) % k) + 1) for i in range(k)
    )
    lhs = jacobi_products(
        _parts_field, parts_a, ((ring.one, v, s2),), w, box,
        (twisted_floor(u, w), twisted_floor(v, w)), (-1) ** (u.parity() * v.parity()),
    )
    e0min = min_exponent(u, v)
    N = max(1, -e0min)
    # split A into its slot-s2 component (direct mode sum) and the rest
    # (residue form); all share one delta, hence one window.
    c_same = next(c for c, _state, slot in parts_a if slot == s2)
    cross = tuple((c, slot) for c, _state, slot in parts_a if slot != s2)

    def iterate_a(r0, r2):
        it = iterate_modesum(_slot_field(s2), u, v, w, r0, r2).scale(c_same)
        if cross:
            it = it + _iterate_shared(u, [(cross, r0, r2)], v, s2, w, N)[0]
        return [it]

    rhs = iterate_side(ring, iterate_a, box, e0min, shift=Fr(-r, k))
    return vec_equal_on_window(
        lhs, rhs, box, identity,
        anchors=(
            "for A = (1/k) sum_i eta^(-ir) g^i u^1: two-sided delta products of"
            " Yg(A,x1), Yg(v^s2,x2) == x2^-1 ((x1-x0)/x2)^(-r/k) d((x1-x0)/x2)"
            " Yg(Y(A,x0)v^s2,x2)w",
        ),
        k=k,
    )


# ---------------------------------------------------------------------------
# the inverse direction: plain fields rebuilt from twisted data
# ---------------------------------------------------------------------------


def untwist(u: Vec, w: Vec, window: Window, *, var: str = "x") -> VecSeries:
    """The rebuilt plain field Y_M(u, x) w = Yg((D(x^k)^{-1} u)^1, x^k) w.

    Principal branch (x^k)^{1/k} = x throughout.  The exponents are integral
    for every k: the dressing offset and the field coset cancel parity-wise.
    Completeness on the window is inherited from the slot-1 field.
    """
    ring = w.ring
    k = ring.k
    bounds = window.as_dict()
    if var not in bounds:
        raise ValueError(f"window must bound {var}")
    lo, hi = Fr(bounds[var][0]), Fr(bounds[var][1])
    out = VecSeries(ring, (var,))
    for (E,), uJ in delta_apply(u, invert=True).terms.items():
        sub = Window.of(**{var: (Fr(lo, k) - E, Fr(hi, k) - E)})
        for (e,), vec in ybar(uJ, w, sub, var=var).terms.items():
            exp = k * (e + E)
            if exp.denominator != 1:
                raise CompositionDomainError(
                    f"rebuilt field exponent {exp} not integral (k={k})"
                )
            out.add_term((exp,), vec)
    return out


def untwist_commutator_check(u: Vec, v: Vec, w: Vec, box: Window | None = None, *,
                             offset: Fr | None = None,
                             identity: str = "untwist.supercommutator") -> CheckReport:
    """Bracket of two rebuilt plain fields against the residue pairing with a
    dressing exponent c:

      [Y_M(u,x1), Y_M(v,x2)] w == Res_x0 x2^-1 d((x1-x0)/x2)
          ((x1-x0)/x2)^c Y_M(Y(u,x0)v, x2) w

    The integer-step delta absorbs any integral c, so all integer offsets are
    equivalent (checkable by passing several); the default 0 is the form the
    plain Jacobi identity requires.  A genuinely half-integral c -- the even-k
    branch of the rebuilt bracket -- is a different identity altogether;
    see untwist_evenbranch_witness.
    """
    ring = w.ring
    k = ring.k
    if box is None:
        box = Window.of(x1=(-2, 2), x2=(-2, 2))
    c = Fr(0) if offset is None else Fr(offset)
    field = lambda s, t, win, var: untwist(s, t, win, var=var)  # noqa: E731
    return _bracket_check(
        apply_field=field, u=u, v=v, w=w, box=box, offset=c, den=1,
        rhs_scale=Fr(1), identity=identity,
        anchors=(
            "[Y_M(u,x1),Y_M(v,x2)]w == Res_x0 x2^-1 d((x1-x0)/x2)"
            f" ((x1-x0)/x2)^({c}) Y_M(Y(u,x0)v,x2)w",
        ),
        k=k,
    )


def untwist_evenbranch_witness(u: Vec, v: Vec, w: Vec, box: Window | None = None, *,
                               identity: str = "untwist.even-branch-witness") -> CheckReport:
    """For even k and parity-odd u the rebuilt-bracket identity's factor
    ((x1-x0)/x2)^{|u|/2} is a genuine half-integer power.  A bracket of
    honest Laurent fields has integral x1-exponents, so it can never equal a
    nonzero half-integrally-dressed pairing: any genuine order-k twisted input
    would force its rebuilt fields to satisfy both, hence cannot exist.

    Concretely, on cyclic-transport data the rebuilt fields are the plain
    ones: the integer-offset forms of the bracket hold and the half-integer
    form provably fails.  Passes when exactly that happens, reporting the
    witnessing monomial.
    """
    ring = w.ring
    k = ring.k
    par = u.parity()
    gamma = Fr(par * (1 - k), 2)
    if gamma.denominator == 1:
        return CheckReport(
            identity, ("integer-offset bracket holds AND half-integer-offset bracket fails",),
            (box or Window.of(x1=(-2, 2), x2=(-2, 2))).render(), "fail",
            detail=f"branch exponent {gamma} is integral (k={k}, |u|={par}): nothing to witness",
            k=k,
        )
    plain = untwist_commutator_check(u, v, w, box)
    shifted = untwist_commutator_check(u, v, w, box, offset=Fr(-par))
    branch = untwist_commutator_check(u, v, w, box, offset=Fr(par, 2))
    ok = plain.status == "pass" and shifted.status == "pass" and branch.status == "fail"
    return CheckReport(
        identity,
        ("integer-offset bracket holds AND half-integer-offset bracket fails",),
        plain.window,
        "pass" if ok else "fail",
        detail=(
            f"half-integer-dressed mismatch witness: {branch.first_mismatch}"
            if ok
            else f"offset 0: {plain.status}, offset {-par}: {shifted.status}, "
                 f"offset {Fr(par, 2)}: {branch.status}"
        ),
        k=k,
    )


def roundtrip_untwist_check(u: Vec, w: Vec, *, hi=3, var: str = "x",
                            identity: str = "twisted.roundtrip-untwist") -> CheckReport:
    """Untwisting the twisted fields returns the original vertex operator:
    Y_M(u, x) w == Y(u, x) w on the window (the two dressings cancel)."""
    ring = w.ring
    win = Window.of(**{var: (min_exponent(u, w), Fr(hi))})
    got = untwist(u, w, win, var=var)
    want = vertex_op(u, w, win, var=var)
    return vec_equal_on_window(
        got, want, win, identity,
        anchors=("Yg((D(x^k)^-1 u)^1, x^k) w == Y(u, x) w",), k=ring.k,
    )


def roundtrip_retwist_check(u: Vec, m: int, w: Vec, *,
                            identity: str = "twisted.roundtrip-retwist") -> CheckReport:
    """Plain modes rebuilt from twisted modes of the inverse-dressed pieces:

      u_m w == sum_E (twisted mode of u[E] at (m+1)/k + E - 1) w

    over the inverse-dressing buckets u[E]; the other composition order of
    the two functors at mode level.
    """
    ring = w.ring
    k = ring.k
    want = vertex_mode(u, m, w)
    got = Vec(ring)
    for (E,), uJ in delta_apply(u, invert=True).terms.items():
        got = got + twisted_mode(uJ, Fr(m + 1, k) + E - 1).apply(w)
    status = "pass" if got == want else "fail"
    mismatch = None if status == "pass" else f"{got.render()} != {want.render()}"
    return CheckReport(
        identity,
        ("u_m == sum over inverse-dressing buckets of twisted modes at (m+1)/k + E - 1",),
        Window.of(m=(m, m)).render(),
        status,
        first_mismatch=mismatch,
        k=k,
    )


# ---------------------------------------------------------------------------
# even order: the obstruction, stated and certified
# ---------------------------------------------------------------------------


def obstruction_report(k: int, u: Vec | None = None) -> CheckReport:
    """Inspect the actual exponent coset of the twisted field of u (default:
    the generator) and report the mode-lattice verdict for this k.

    Even k, odd u: every exponent sits in |u|/2k + (1/k)Z, so the field has
    no modes on (1/k)Z at all -- reported as an expected obstruction with the
    coset as certificate.  Odd k (or even-parity u): the lattice is (1/k)Z
    and the report passes.
    """
    ring = get_ring(k)
    if u is None:
        u = psi_vec(ring)
    par = u.parity()
    if par is None:
        raise ValueError("obstruction_report needs a parity-homogeneous state")
    w = vac_vec(ring)
    flo = twisted_floor(u, w)
    ser = ybar(u, w, Window.of(x=(flo, flo + 2)))
    cosets = {e % Fr(1, k) for e in ser.exponents_of("x")}
    expected = (Fr(par, 2 * k) % Fr(1, k)) if k % 2 == 0 else Fr(0)
    win = Window.of(x=(flo, flo + 2))
    anchors = ("field exponent coset modulo 1/k determines the mode lattice",)
    if cosets - {expected}:
        return CheckReport(
            "twisted.even-order-obstruction", anchors, win.render(), "fail",
            first_mismatch=f"unexpected exponent cosets {sorted(cosets)} (wanted {expected})",
            k=k,
        )
    if k % 2 == 0 and par % 2 == 1:
        return CheckReport(
            "twisted.even-order-obstruction", anchors, win.render(),
            "expected-obstruction",
            detail=(
                f"modes confined to {Fr(par, 2 * k)} + (1/{k})Z, disjoint from (1/{k})Z;"
                " no 1/k-graded module structure"
            ),
            k=k,
        )
    return CheckReport(
        "twisted.even-order-obstruction", anchors, win.render(), "pass",
        detail=f"exponents on the (1/{k})Z lattice (parity {par}); no lattice obstruction",
        k=k,
    )


def invariant_subspace_scan(k: int, max_weight=Fr(5, 2), *,
                            identity: str = "twisted.irreducible-scan") -> CheckReport:
    """Desk-scale irreducibility proxy for the twisted module.

    Every generator Clifford mode is a twisted mode (psi_n is reached at
    twisted index (2n+1-k)/2k up to the k^{-1/2} scalar), so it suffices that
    each basis state under the cutoff is connected to the vacuum in both
    directions by twisted generator modes.  That rules out any proper
    invariant subspace containing a basis vector up to the cutoff -- a
    certificate at desk scale, not a proof of irreducibility.
    """
    ring = get_ring(k)
    psi = psi_vec(ring)
    win = Window.of(wt=(0, Fr(max_weight)))
    for key in standard_basis(max_weight):
        if not key:
            continue
        down = Vec.basis(ring, key)
        for a in key:  # deepest letter first: annihilate psi_a via psi_{-1-a}
            down = twisted_mode(psi, Fr(-2 * a - k - 1, 2 * k)).apply(down)
        if down.is_zero() or set(down.terms) != {()}:
            return CheckReport(
                identity, ("every basis state reaches the vacuum and back",),
                win.render(), "fail",
                first_mismatch=f"annihilation chain from {key} ended at {down.render()}",
                k=k,
            )
        up = vac_vec(ring)
        for a in reversed(key):
            up = twisted_mode(psi, Fr(2 * a + 1 - k, 2 * k)).apply(up)
        if up.is_zero() or set(up.terms) != {key}:
            return CheckReport(
                identity, ("every basis state reaches the vacuum and back",),
                win.render(), "fail",
                first_mismatch=f"creation chain for {key} gave {up.render()}",
                k=k,
            )
    return CheckReport(
        identity, ("every basis state reaches the vacuum and back",),
        win.render(), "pass",
        detail=f"basis through weight {Fr(max_weight)} connected to the vacuum both ways",
        k=k,
    )
