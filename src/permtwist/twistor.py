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
from functools import lru_cache, partial, reduce
from operator import add

from .changeofvars import a_table
from .exactnum import get_ring
from .fermion import (
    Vec,
    VecSeries,
    iterate_modesum,
    jacobi_check,
    key_parity,
    key_twice_weight,
    key_weight,
    min_exponent,
    omega_vec,
    psi_vec,
    standard_basis,
    state_parity,
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
    delta_truncated,
    inverse_factorial,
    power_sum,
)

__all__ = [
    "ObstructionError",
    "delta_apply",
    "delta_roundtrip_check",
    "twisted_floor",
    "ybar",
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


def _a_coeffs(k: int, depth: int, a_override) -> tuple[Fr, ...]:
    base = a_table(k, max(depth, 2))
    if a_override is None:
        return base
    return (a_override + base[len(a_override):])[: len(base)]


def _flow_step(c: list, vec: Vec) -> Vec:
    """sum_j c[j-1] L(j) vec.  L(j) lowers the weight by j, so j runs only up
    to the maximum weight of vec."""
    out = Vec(vec.ring)
    for j, cj in enumerate(c[: vec.max_twice_weight() // 2], start=1):
        if cj:
            out.add_scaled(virasoro_mode(j, vec), cj)
    return out


@lru_cache(maxsize=2**12)  # bounded; a sweep pass dresses about a hundred keys
def _dress_key(key, k: int, invert: bool, a_override) -> VecSeries:
    """The dressing of one basis key (coefficient 1) as a series in x, as
    delta_apply below describes it, over its least den.  a_override is a
    tuple of Fractions or None.  Series entries are never mutated, and no
    caller adds into a series it did not build, so the cached series is
    handed out as it is."""
    ring = get_ring(k)
    p2 = key_twice_weight(key)  # p2 and q2 are twice the weights p and q
    depth = p2 // 2
    sign = -1 if invert else 1
    c = [sign * a for a in _a_coeffs(k, depth, a_override)[:depth]]
    # the flow ends after at most depth weight-lowering steps
    flowed = power_sum(Vec.basis(ring, key), partial(_flow_step, c), inverse_factorial, depth + 1)
    # each weight-q2 part at one x-power: its numerator over 2k, and its scalar
    if invert:
        parts = [(q2 * k - p2, vec * ring.sqrt_k_pow(q2)) for q2, vec in flowed.weight_components()]
    else:
        parts = [(q2 - p2 * k, vec * ring.sqrt_k_pow(-p2)) for q2, vec in flowed.weight_components()]
    g = math.gcd(2 * k, *(en for en, _vec in parts))
    return VecSeries._of(ring, ("x",), {(en // g,): vec for en, vec in reversed(parts)}, 2 * k // g)


def delta_apply(u: Vec, *, invert: bool = False, a_override=None) -> VecSeries:
    """The dressing operator D(x) (or its inverse) applied to u, a series in x.

    On a weight-p component the flow exp(sign * sum_j a_j L(j)) is one power
    sum; it lowers the weight by the total drop J, so its weight-q part is the
    J = p - q bucket.  Forward: scalar k^{-p}, the part lands at x^{q/k - p}.
    Inverse: the flow with opposite sign, then the scalar k^q, at x^{q - p/k}.
    The two compose to the identity.

    The dressing is linear: each basis key is dressed once, by the bounded
    cache _dress_key, and u's dressing is the sum of its coefficients times
    those series.  A key of coefficient one contributes the cached series
    itself.
    """
    ring = u.ring
    over = None if a_override is None else tuple(map(Fr, a_override))
    parts = []
    for key, c in u.terms.items():
        dressed = _dress_key(key, ring.k, invert, over)
        parts.append(dressed if c == ring.one else dressed.scale(c))
    return reduce(add, parts) if parts else VecSeries(ring, ("x",))


def delta_roundtrip_check(u: Vec) -> CheckReport:
    """D(x)^{-1} D(x) u == u: each forward bucket at x^e dressed back and
    moved by x^e."""
    ring = u.ring
    back = sum((delta_apply(vec, invert=True).shift_exponents("x", e)
                for e, vec in delta_apply(u).by_exponent()), VecSeries(ring, ("x",)))
    want = VecSeries(ring, ("x",))
    want.add_term((Fr(0),), u)
    exps = back.exponents_of("x") | {Fr(0)}
    win = Window.of(x=(min(exps), max(exps)))
    return vec_equal_on_window(
        back, want, win, "twisted.dressing-roundtrip",
        anchors=("D(x)^-1 D(x) u == u",), k=ring.k,
    )


# ---------------------------------------------------------------------------
# twisted fields
# ---------------------------------------------------------------------------


def twisted_floor(u: Vec, target: Vec) -> Fr:
    """Lower bound for the x-exponents of the slot fields of u on target."""
    k = u.ring.k
    lo = None
    for e, vec in delta_apply(u).by_exponent():
        cand = Fr(min_exponent(vec, target), k) + e
        lo = cand if lo is None else min(lo, cand)
    return Fr(0) if lo is None else lo


def ybar(u: Vec, target: Vec, window: Window, var: str = "x") -> VecSeries:
    """The slot-1 twisted field Ybar(u, x) target = Y(D(x)u, x^{1/k}) target.

    Complete on the window: every coefficient with var-exponent inside the
    bounds is the exact one (the annihilation floor cuts the low side).
    """
    ring = target.ring
    k = ring.k
    lo, hi = window.span(var)
    dressed = delta_apply(u)
    # x^(f/k + e) as an integer numerator over den, a multiple of k and of
    # the dressing's den
    den = math.lcm(k, dressed.den)
    out = VecSeries._of(ring, (var,), {}, den)
    for en, uJ in dressed.by_numerator(den):
        e = Fr(en, den)
        f_lo = max(math.ceil(k * (lo - e)), min_exponent(uJ, target))
        f_hi = math.floor(k * (hi - e))
        if not uJ.max_twice_weight():  # Y(|0>, x) is the identity: only f = 0
            f_lo, f_hi = max(f_lo, 0), min(f_hi, 0)
        for f in range(f_lo, f_hi + 1):
            out.add_at((f * (den // k) + en,), vertex_mode(uJ, -f - 1, target))
    return out


def twisted_field(u: Vec, slot: int, target: Vec, window: Window, *, var: str = "x") -> VecSeries:
    """The twisted field of u embedded in the given slot (1-indexed): the
    slot-1 field advanced by slot - 1 slots, which is the substitution
    x^{1/k} -> eta^{slot-1} x^{1/k}."""
    base = ybar(u, target, window, var=var)
    return base.eta_twist(var, slot - 1)


def _slot_field(slot: int):
    """twisted_field in one slot, as a field(state, target, window, var)."""
    return lambda state, target, window, var: twisted_field(state, slot, target, window, var=var)


def _parts_field(parts, target: Vec, window: Window, var: str = "x") -> VecSeries:
    """Field of a formal combination: parts is ((coeff, state, slot), ...).

    The slot-1 field of each distinct state is built once; each part applies
    its slot phase and coefficient to that finished series."""
    fields: list[tuple[Vec, VecSeries]] = []
    out = VecSeries(target.ring, (var,))
    for c, state, slot in parts:
        base = next((f for s, f in fields if s == state), None)
        if base is None:
            fields.append((state, base := ybar(state, target, window, var=var)))
        part = base.eta_twist(var, slot - 1)
        out = out + (part if c == target.ring.one else part.scale(c))
    return out


def lminus1_check(u: Vec, target: Vec, *, hi=2) -> CheckReport:
    """Ybar(L(-1)u, x) target == d/dx Ybar(u, x) target on a window."""
    ring = target.ring
    lo = min(twisted_floor(virasoro_mode(-1, u), target), twisted_floor(u, target) - 1)
    win = Window.of(x=(lo, Fr(hi)))
    lhs = ybar(virasoro_mode(-1, u), target, win)
    rhs = ybar(u, target, Window.of(x=(lo, Fr(hi) + 1)))
    rhs = rhs.derivative("x").truncate_window(win)
    return vec_equal_on_window(
        lhs, rhs, win, "twisted.l-minus-one",
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
            out.add_scaled(vertex_mode(vec, n, w))
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
    for e, uJ in delta_apply(u, a_override=a_override).by_exponent():
        n = k * (m + 1 + e) - 1
        if n.denominator != 1:
            raise CompositionDomainError(f"mode index {n} not integral (k={k}, m={m})")
        terms.append((uJ, int(n)))
    return ModeAction(k, m, tuple(terms))


def mode_vs_field_check(u: Vec, m, w: Vec) -> CheckReport:
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
        "twisted.mode-vs-field",
        ("twisted mode at index m == coefficient of x^(-m-1) in Ybar(u,x)w",),
        win.render(),
        status,
        first_mismatch=mismatch,
        k=ring.k,
    )


def mode_grading_check(k: int, *, max_weight=2, m_span: int = 2) -> CheckReport:
    """Twisted generator modes shift the plain weight by k(wt u - m - 1) and
    the parity by the state's parity, on every basis state under the cutoff.

    In the 1/k-relabelled grading of the twisted side this is exactly the
    degree shift wt u - m - 1, i.e. level n/k of the twisted module is the
    plain weight-n subspace.
    """
    ring = get_ring(k)
    gens = (psi_vec(ring), omega_vec(ring))
    report = partial(CheckReport, "twisted.mode-grading",
                     ("u^g_m maps weight n to weight n + k(wt u - m - 1), parity + |u|",),
                     Window.of(m=(-m_span, m_span)).render(), k=k)
    for key in standard_basis(max_weight):
        w = Vec.basis(ring, key)
        wwt, wpar = key_weight(key), key_parity(key)
        for u in gens:
            p, par = u.weight(), state_parity(u)
            for km in range(-m_span * k, m_span * k + 1):
                m = Fr(km, k)
                res = twisted_mode(u, m).apply(w)
                if res.is_zero():
                    continue
                expect = wwt + k * (p - m - 1)
                if res.weight() != expect or res.parity() != (wpar + par) % 2:
                    return report("fail",
                                  first_mismatch=f"u={u.render()}, m={m}, w={w.render()}: got {res.render()}")
    return report("pass", detail=f"generators psi, omega on basis through weight {max_weight}")


def lg0_check(k: int, *, max_weight=3) -> CheckReport:
    """k times the slot-1 conformal mode at index 1 acts as L(0)/k + (k^2-1)/48k.

    At the integer exponent -2 every slot phase is trivial, so the slot-summed
    conformal field contributes k equal copies of the slot-1 one; the scalar
    (k^2-1)/48k is the twisted vacuum level for central charge 1/2 per slot.
    """
    ring = get_ring(k)
    act = twisted_mode(omega_vec(ring), 1)
    shift = Fr(k * k - 1, 48 * k)
    report = partial(CheckReport, "twisted.grading-operator",
                     ("k * (omega slot-1 twisted mode at 1) == L(0)/k + (k^2-1)/48k",),
                     Window.of(x=(-2, -2)).render(), k=k)
    for key in standard_basis(max_weight):
        w = Vec.basis(ring, key)
        got = act.apply(w).scale(k)
        want = w.scale(Fr(key_weight(key)) / k + shift)
        if got != want:
            return report("fail", first_mismatch=f"on {w.render()}: {got.render()} != {want.render()}")
    return report("pass", detail=f"basis through weight {max_weight}; vacuum level {shift}")


# ---------------------------------------------------------------------------
# conjugation of a plain vertex operator by the dressing
# ---------------------------------------------------------------------------


def conjugation_check(u: Vec, v: Vec, *, z0_hi: int = 3, a_override=None) -> CheckReport:
    """The dressing moves a plain vertex operator to the composed insertion:

      D(z) Y(u, z0) D(z)^{-1} v == sum_E (z+z0)^E Y(u_E, (z+z0)^{1/k} - z^{1/k}) v

    where D(z+z0)u = sum_E u_E (z+z0)^E runs over the dressing buckets of u.
    Both sides are exact in z at each z0-degree; compared through z0^z0_hi
    (the low side is the annihilation floor, so the comparison is complete).
    """
    ring, k = u.ring, u.ring.k
    d_lo = min_exponent(u, v)
    win = Window.of(z0=(d_lo, z0_hi))  # z unconstrained: exact per z0-degree
    # left: dress down, insert, dress up
    lhs = VecSeries(ring, ("z", "z0"))
    for ez, vJ in delta_apply(v, invert=True, a_override=a_override).by_exponent():
        for d in range(min_exponent(u, vJ), z0_hi + 1):
            res = vertex_mode(u, -d - 1, vJ)
            if res.is_zero():
                continue
            for ez2, out_vec in delta_apply(res, a_override=a_override).by_exponent():
                lhs.add_term((ez + ez2, Fr(d)), out_vec)
    # right: sum_E (z+z0)^E Y(u_E, y) v, then y -> (z+z0)^{1/k} - z^{1/k}
    buckets = list(delta_apply(u, a_override=a_override).by_exponent())
    # negative powers of the root difference reach down to z0^e, so each
    # prefactor needs the matching extra depth before the substitution
    deep = z0_hi - min([0, *(min_exponent(uJ, v) for _E, uJ in buckets)])
    insert = VecSeries(ring, ("y", "z", "z0"))
    for E, uJ in buckets:
        pref = binom_expand(ring, (1, {"z": 1}), (1, {"z0": 1}), E, deep)
        # vertex_op starts at uJ's own floor, at or above d_lo
        insert = insert + vertex_op(uJ, v, Window.of(y=(d_lo, z0_hi)), "y").mul_series(pref)
    # the root has z0-order 1: its inverse, chained down to z0^{e_lo}, holds
    # every term through z0_hi only when the root holds z0^(deep + 1)
    root = binom_expand(ring, (1, {"z": 1}), (1, {"z0": 1}), Fr(1, k), deep + 1)
    rhs = insert.substitute("y", root - FracSeries.monomial(ring, 1, {"z": Fr(1, k)}), "z0", z0_hi)
    return vec_equal_on_window(
        lhs, rhs, win, "twisted.conjugation",
        anchors=(
            "D(z) Y(u,z0) D(z)^-1 v == sum_E (z+z0)^E Y((D(z+z0)u)_E, (z+z0)^(1/k) - z^(1/k)) v",
        ),
        k=k,
    )


# ---------------------------------------------------------------------------
# bracket of two twisted fields: the x0^-1 slice of the Jacobi identity
# ---------------------------------------------------------------------------


def supercommutator_check(u: Vec, v: Vec, w: Vec, box: Window | None = None, *,
                          drop_factor: bool = False) -> CheckReport:
    """[Ybar(u,x1), Ybar(v,x2)] w against the fractional residue pairing.

    The iterate side carries the dressing ((x1-x0)/x2)^beta with
    beta = |u|(1-k)/2k, folded here into the delta exponents n/k + beta; for
    odd k beta is a multiple of 1/k (reabsorbed by shifting n), for even k and
    odd u it is a genuine half-step off the lattice.  drop_factor omits it.
    The bracket is the x0^-1 slice of jacobi_check (a box without x0).
    """
    k = w.ring.k
    if box is None:
        box = Window.of(x1=(-2, 2), x2=(-2, 2))
    beta = Fr(0) if drop_factor else Fr(state_parity(u) * (1 - k), 2 * k)
    tag = "no dressing" if drop_factor else f"dressing exponent beta={beta}"
    return jacobi_check(
        ybar, u, v, w, box, (twisted_floor(u, w), twisted_floor(v, w)),
        [(lambda r0, r2: [iterate_modesum(ybar, u, v, w, r0, r2)], min_exponent(u, v),
          {"step": Fr(1, k), "shift": beta, "scale": Fr(1, k)})],
        "twisted.supercommutator",
        ("[Ybar(u,x1),Ybar(v,x2)]w == (1/k) Res_x0 x2^-1 d((x1-x0)^(1/k)/x2^(1/k))"
         " ((x1-x0)/x2)^(|u|(1-k)/2k) Ybar(Y(u,x0)v,x2)w [" + tag + "]",),
    )


def supercommutator_factor_witness(u: Vec, v: Vec, w: Vec, box: Window | None = None) -> CheckReport:
    """The bracket dressing is load-bearing where it is fractional: with it the
    bracket identity holds, with it omitted the two sides provably differ.
    Passes when the dressed check passes and the undressed one fails, and
    reports the witnessing monomial.
    """
    k = w.ring.k
    beta = Fr(state_parity(u) * (1 - k), 2 * k)
    report = partial(CheckReport, "twisted.supercommutator-factor-needed",
                     ("dressed bracket passes AND undressed bracket fails",),
                     (box or Window.of(x1=(-2, 2), x2=(-2, 2))).render(), k=k)
    if (k * beta).denominator == 1:
        return report("fail", detail=f"beta={beta} is on the (1/{k})Z lattice: nothing to witness")
    dressed = supercommutator_check(u, v, w, box)
    undressed = supercommutator_check(u, v, w, box, drop_factor=True)
    if dressed.status == "pass" and undressed.status == "fail":
        return report("pass", detail=f"undressed mismatch witness: {undressed.first_mismatch}")
    return report("fail", detail=f"dressed: {dressed.status}, undressed: {undressed.status}")


# ---------------------------------------------------------------------------
# iterates: Yg(Y(u-slot, x0) v-slot, x2) without forming two-slot states
# ---------------------------------------------------------------------------


def _iterate_shared(u: Vec, jobs, v: Vec, s2: int, w: Vec, N: int) -> list[VecSeries]:
    """Iterate fields for several slot combinations of u over one shared
    product rectangle.  jobs: list of (combo, x0_range, x2_range) with combo
    a tuple of (Scalar, slot).

    By weak associativity the iterate is one delta pairing: with
    P = Ybar(u, x1) Yg(v^{s2}, x2) w and Q = (x1-x2)^N P,

      Yg(Y(u,x0)v,x2)w = x0^-N Res_x1 x1^-1 d((x2+x0)^{1/k}/x1^{1/k}) Q

    Locality makes Q vanish below both one-field floors, so the x1-residue
    reads finitely many of its terms.  The slot phase eta^{(slot-1)c} of the
    delta term ((x2+x0)/x1)^{n/k} depends only on c = n mod k: the delta is
    split by c, each class is paired with Q once, rationally, and each job
    sums the pairings with its phases.
    """
    ring = w.ring
    k = ring.k
    out = [VecSeries(ring, ("x0", "x2")) for _ in jobs]
    live = [(i, combo, r0, r2) for i, (combo, r0, r2) in enumerate(jobs)
            if r0[0] <= r0[1] and r2[0] <= r2[1]]
    if not live:
        return out
    uflr = twisted_floor(u, w)
    vflr = twisted_floor(v, w)
    # the union of the job windows
    a0, b0 = min(int(r0[0]) for _i, _c, r0, _r2 in live), max(int(r0[1]) for _i, _c, r0, _r2 in live)
    c2, d2 = min(Fr(r2[0]) for *_, r2 in live), max(Fr(r2[1]) for *_, r2 in live)
    # Q is read on g1 >= uflr, g2 >= vflr and g1 + g2 <= b0 + N + d2
    g1_hi, g2_hi = b0 + N + d2 - vflr, b0 + N + d2 - uflr
    if g1_hi < uflr or b0 + N < 0:
        return out
    # P is only ever read on the band f1 + f2 = x0e + x2e
    P = two_sided(_parts_field, ((ring.one, u, 1),), ((ring.one, v, s2),), w,
                  (uflr - N, g1_hi), (vflr - N, g2_hi), ("x1", "x2"), (a0 + c2, b0 + d2))
    Q = P.mul_series(binom_expand(ring, (1, {"x1": 1}), (-1, {"x2": 1}), N, N),
                     Window.of(x1=(uflr, g1_hi), x2=(vflr, g2_hi)))
    pair = Window.of(x0=(max(a0 + N, 0), b0 + N), x1=(-1, -1), x2=(c2, d2))
    classes = []
    for c in range(k):
        s = Fr(c, k)
        delta = delta_truncated(
            ring, (1, {"x2": 1}), (1, {"x0": 1}), (1, {"x1": 1}), shift=s,
            n_range=(math.ceil(uflr - s), math.floor(g1_hi - s)), tail_order=b0 + N,
            prefix=(1, {"x1": -1}),
        )
        classes.append(Q.mul_series(delta, pair).coefficient_in("x1", -1).shift_exponents("x0", -N))
    for i, combo, r0, r2 in live:
        acc = VecSeries(ring, ("x0", "x2"))
        for c, pairing in enumerate(classes):
            ph = sum((coef * ring.eta((slot - 1) * c) for coef, slot in combo), ring.zero)
            if not ph.is_zero():
                acc = acc + (pairing if ph == ring.one else pairing.scale(ph))
        out[i] = acc.truncate_window(Window.of(x0=r0, x2=r2))
    return out


# ---------------------------------------------------------------------------
# the twisted Jacobi identity
# ---------------------------------------------------------------------------


def twisted_jacobi_check(u: Vec, s1: int, v: Vec, s2: int, w: Vec,
                         box: Window | None = None) -> CheckReport:
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
    # -- iterate side: j-sum of eta-phased fractional deltas.  The same-slot
    # leg (g^j u^s1 in slot s2) reaches down to the deepest product mode and
    # is a plain mode sum.  A cross-slot iterate has x0-floor 0 (the other
    # slot's field can only create out of its vacuum), so the cross-slot legs
    # share one window and one residue-form rectangle.
    e0min = min_exponent(u, v)
    N = max(1, -e0min)
    j_same = (s1 - s2) % k
    cross = tuple(j for j in range(k) if j != j_same)

    def cross_legs(r0, r2):
        jobs = [(((one, ((s1 - 1 - j) % k) + 1),), r0, r2) for j in cross]
        return _iterate_shared(u, jobs, v, s2, w, N)

    delta = {"step": Fr(1, k), "scale": Fr(1, k)}
    legs = [(lambda r0, r2: [iterate_modesum(_slot_field(s2), u, v, w, r0, r2)], e0min,
             {**delta, "phases": (j_same,)})]
    if cross:
        legs.append((cross_legs, 0, {**delta, "phases": cross}))
    return jacobi_check(
        _parts_field, ((one, u, s1),), ((one, v, s2),), w, box,
        (twisted_floor(u, w), twisted_floor(v, w)), legs, "twisted.jacobi",
        ("x0^-1 d((x1-x2)/x0) Yg(u^s1,x1)Yg(v^s2,x2)w"
         " - (-1)^|u||v| x0^-1 d((x2-x1)/-x0) Yg(v^s2,x2)Yg(u^s1,x1)w"
         " == (1/k) x2^-1 sum_j d(eta^j (x1-x0)^(1/k)/x2^(1/k)) Yg(Y(g^j u^s1,x0)v^s2,x2)w",),
    )


def twisted_jacobi_eigen_check(u: Vec, r: int, v: Vec, s2: int, w: Vec,
                               box: Window | None = None) -> CheckReport:
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

    return jacobi_check(
        _parts_field, parts_a, ((ring.one, v, s2),), w, box,
        (twisted_floor(u, w), twisted_floor(v, w)), [(iterate_a, e0min, {"shift": Fr(-r, k)})],
        "twisted.jacobi-eigen",
        ("for A = (1/k) sum_i eta^(-ir) g^i u^1: two-sided delta products of"
         " Yg(A,x1), Yg(v^s2,x2) == x2^-1 ((x1-x0)/x2)^(-r/k) d((x1-x0)/x2)"
         " Yg(Y(A,x0)v^s2,x2)w",),
    )


# ---------------------------------------------------------------------------
# the inverse direction: plain fields rebuilt from twisted data
# ---------------------------------------------------------------------------


def untwist(u: Vec, w: Vec, window: Window, var: str = "x") -> VecSeries:
    """The rebuilt plain field Y_M(u, x) w = Yg((D(x^k)^{-1} u)^1, x^k) w.

    Principal branch (x^k)^{1/k} = x throughout.  The exponents are integral
    for every k: the dressing offset and the field coset cancel parity-wise.
    Completeness on the window is inherited from the slot-1 field.
    """
    ring = w.ring
    k = ring.k
    lo, hi = window.span(var)
    out = VecSeries(ring, (var,))
    for E, uJ in delta_apply(u, invert=True).by_exponent():
        sub = Window.of(**{var: (Fr(lo, k) - E, Fr(hi, k) - E)})
        out = out + ybar(uJ, w, sub, var).shift_exponents(var, E)
    out = out.scale_exponents(var, k)
    bad = [e for e in out.exponents_of(var) if e.denominator != 1]
    if bad:
        raise CompositionDomainError(f"rebuilt field exponent {min(bad)} not integral (k={k})")
    return out


def _untwist_floor(u: Vec, w: Vec) -> Fr:
    """Lower bound for the x-exponents of untwist(u, w, .)."""
    k = w.ring.k
    return min(k * (twisted_floor(uJ, w) + E) for E, uJ in delta_apply(u, invert=True).by_exponent())


def untwist_commutator_check(u: Vec, v: Vec, w: Vec, box: Window | None = None, *,
                             offset: Fr | None = None) -> CheckReport:
    """Bracket of two rebuilt plain fields against the residue pairing with a
    dressing exponent c:

      [Y_M(u,x1), Y_M(v,x2)] w == Res_x0 x2^-1 d((x1-x0)/x2)
          ((x1-x0)/x2)^c Y_M(Y(u,x0)v, x2) w

    The integer-step delta absorbs any integral c, so all integer offsets are
    equivalent (checkable by passing several); the default 0 is the form the
    plain Jacobi identity requires.  A genuinely half-integral c -- the even-k
    branch of the rebuilt bracket -- is a different identity altogether;
    see untwist_evenbranch_witness.  The bracket is the x0^-1 slice of
    jacobi_check (a box without x0).
    """
    if box is None:
        box = Window.of(x1=(-2, 2), x2=(-2, 2))
    c = Fr(0) if offset is None else Fr(offset)
    return jacobi_check(
        untwist, u, v, w, box, (_untwist_floor(u, w), _untwist_floor(v, w)),
        [(lambda r0, r2: [iterate_modesum(untwist, u, v, w, r0, r2)], min_exponent(u, v), {"shift": c})],
        "untwist.supercommutator",
        ("[Y_M(u,x1),Y_M(v,x2)]w == Res_x0 x2^-1 d((x1-x0)/x2)"
         f" ((x1-x0)/x2)^({c}) Y_M(Y(u,x0)v,x2)w",),
    )


def untwist_evenbranch_witness(u: Vec, v: Vec, w: Vec, box: Window | None = None) -> CheckReport:
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
    k = w.ring.k
    par = state_parity(u)
    gamma = Fr(par * (1 - k), 2)
    report = partial(CheckReport, "untwist.even-branch-witness",
                     ("integer-offset bracket holds AND half-integer-offset bracket fails",),
                     (box or Window.of(x1=(-2, 2), x2=(-2, 2))).render(), k=k)
    if gamma.denominator == 1:
        return report("fail", detail=f"branch exponent {gamma} is integral (k={k}, |u|={par}): nothing to witness")
    plain = untwist_commutator_check(u, v, w, box)
    shifted = untwist_commutator_check(u, v, w, box, offset=Fr(-par))
    branch = untwist_commutator_check(u, v, w, box, offset=Fr(par, 2))
    if plain.status == "pass" and shifted.status == "pass" and branch.status == "fail":
        return report("pass", detail=f"half-integer-dressed mismatch witness: {branch.first_mismatch}")
    return report("fail", detail=f"offset 0: {plain.status}, offset {-par}: {shifted.status}, "
                                 f"offset {Fr(par, 2)}: {branch.status}")


def roundtrip_untwist_check(u: Vec, w: Vec, *, hi=3) -> CheckReport:
    """Untwisting the twisted fields returns the original vertex operator:
    Y_M(u, x) w == Y(u, x) w on the window (the two dressings cancel)."""
    ring = w.ring
    win = Window.of(x=(min_exponent(u, w), Fr(hi)))
    got = untwist(u, w, win)
    want = vertex_op(u, w, win)
    return vec_equal_on_window(
        got, want, win, "twisted.roundtrip-untwist",
        anchors=("Yg((D(x^k)^-1 u)^1, x^k) w == Y(u, x) w",), k=ring.k,
    )


def roundtrip_retwist_check(u: Vec, m: int, w: Vec) -> CheckReport:
    """Plain modes rebuilt from twisted modes of the inverse-dressed pieces:

      u_m w == sum_E (twisted mode of u[E] at (m+1)/k + E - 1) w

    over the inverse-dressing buckets u[E]; the other composition order of
    the two functors at mode level.
    """
    ring = w.ring
    k = ring.k
    want = vertex_mode(u, m, w)
    got = Vec(ring)
    for E, uJ in delta_apply(u, invert=True).by_exponent():
        got = got + twisted_mode(uJ, Fr(m + 1, k) + E - 1).apply(w)
    status = "pass" if got == want else "fail"
    mismatch = None if status == "pass" else f"{got.render()} != {want.render()}"
    return CheckReport(
        "twisted.roundtrip-retwist",
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
    par = state_parity(u)
    w = vac_vec(ring)
    flo = twisted_floor(u, w)
    win = Window.of(x=(flo, flo + 2))
    cosets = {e % Fr(1, k) for e in ybar(u, w, win).exponents_of("x")}
    expected = (Fr(par, 2 * k) % Fr(1, k)) if k % 2 == 0 else Fr(0)
    report = partial(CheckReport, "twisted.even-order-obstruction",
                     ("field exponent coset modulo 1/k determines the mode lattice",), win.render(), k=k)
    if cosets - {expected}:
        return report("fail", first_mismatch=f"unexpected exponent cosets {sorted(cosets)} (wanted {expected})")
    if k % 2 == 0 and par % 2 == 1:
        return report("expected-obstruction",
                      detail=f"modes confined to {Fr(par, 2 * k)} + (1/{k})Z, disjoint from (1/{k})Z;"
                             " no 1/k-graded module structure")
    return report("pass", detail=f"exponents on the (1/{k})Z lattice (parity {par}); no lattice obstruction")


def invariant_subspace_scan(k: int, max_weight=Fr(5, 2)) -> CheckReport:
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
    report = partial(CheckReport, "twisted.irreducible-scan",
                     ("every basis state reaches the vacuum and back",),
                     Window.of(wt=(0, Fr(max_weight))).render(), k=k)
    for key in standard_basis(max_weight):
        if not key:
            continue
        down = Vec.basis(ring, key)
        for a in key:  # deepest letter first: annihilate psi_a via psi_{-1-a}
            down = twisted_mode(psi, Fr(-2 * a - k - 1, 2 * k)).apply(down)
        if down.is_zero() or set(down.keys()) != {()}:
            return report("fail", first_mismatch=f"annihilation chain from {key} ended at {down.render()}")
        up = vac_vec(ring)
        for a in reversed(key):
            up = twisted_mode(psi, Fr(2 * a + 1 - k, 2 * k)).apply(up)
        if up.is_zero() or set(up.keys()) != {key}:
            return report("fail", first_mismatch=f"creation chain for {key} gave {up.render()}")
    return report("pass", detail=f"basis through weight {Fr(max_weight)} connected to the vacuum both ways")
