"""The free-fermion vertex superalgebra (central charge 1/2), its tensor
powers with Koszul signs, and brute-force oracles for the untwisted axioms.

Conventions.  Modes use integer indexing throughout: the generator field is
Y(psi, x) = sum_{n in Z} psi_n x^{-n-1} with anticommutator
{psi_a, psi_b} = delta_{a+b,-1}, so psi_n has weight -n - 1/2 and the physics
half-integer label of psi_n is n + 1/2.  A basis state is a strictly
increasing tuple of negative mode indices applied to the vacuum; a tensor
basis state is a tuple of such tuples, one per slot.

A module vector (`Vec`) is integer arithmetic: per basis slot of the scalar
ring, a dict from basis key to int, over one int denominator.  The integer
vertex-mode tables add straight into those dicts, and the field enters only
through the ring's integer product table.  Weights are kept doubled, as
ints, and read back as `Fraction`s only at the boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction as Fr
from functools import lru_cache
from types import MappingProxyType

from .exactnum import RingMismatchError, Scalar, ScalarRing
from .fseries import (
    CheckReport,
    FracSeries,
    Window,
    compare_on_window,
    delta_truncated,
)

State = tuple  # strictly increasing negative ints
TKey = tuple  # tuple of States


# ---------------------------------------------------------------------------
# basis states
# ---------------------------------------------------------------------------


def _twice_weight(s: State) -> int:
    # 2 wt(psi_{a1} ... psi_{ar} |0>) = -2 (a1 + ... + ar) - r, an integer
    return -2 * sum(s) - len(s)


def state_weight(s: State) -> Fr:
    return Fr(_twice_weight(s), 2)


def is_tensor_key(key) -> bool:
    return bool(key) and isinstance(key[0], tuple)


def key_twice_weight(key) -> int:
    return sum(map(_twice_weight, key)) if is_tensor_key(key) else _twice_weight(key)


def key_weight(key) -> Fr:
    return Fr(key_twice_weight(key), 2)


def key_parity(key) -> int:
    if is_tensor_key(key):
        return sum(len(s) for s in key) % 2
    return len(key) % 2


def render_state(s: State) -> str:
    if not s:
        return "|0>"
    return "".join(f"psi({Fr(2 * a + 1, 2)})" for a in s) + "|0>"


def render_key(key) -> str:
    if is_tensor_key(key):
        return " (x) ".join(render_state(s) for s in key)
    return render_state(key)


def standard_basis(max_weight) -> list:
    """All basis states of weight <= max_weight, sorted by (weight, modes)."""
    cap = Fr(max_weight)
    out: list[State] = []

    def rec(prefix: tuple, next_mode: int, budget: Fr) -> None:
        out.append(prefix)
        a = next_mode
        while -a - Fr(1, 2) <= budget:
            rec((a,) + prefix, a - 1, budget - (-a - Fr(1, 2)))
            a -= 1

    rec((), -1, cap)
    return sorted(out, key=lambda s: (state_weight(s), s))


def tensor_basis(k: int, max_weight) -> list:
    """All k-slot tensor basis states of total weight <= max_weight."""
    singles = standard_basis(max_weight)
    out: list[TKey] = []

    def rec(prefix: tuple, slots_left: int, budget: Fr) -> None:
        if slots_left == 0:
            out.append(prefix)
            return
        for s in singles:
            w = state_weight(s)
            if w <= budget:
                rec(prefix + (s,), slots_left - 1, budget - w)

    rec((), k, Fr(max_weight))
    return sorted(out, key=lambda key: (key_weight(key), key))


def graded_dims(keys) -> dict:
    out: dict[Fr, int] = {}
    for key in keys:
        w = key_weight(key)
        out[w] = out.get(w, 0) + 1
    return out


# ---------------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------------


def _add_into(slots: dict, slot: int, pairs, m: int) -> None:
    """slots[slot] += m * pairs ((key, int) pairs with distinct keys, m != 0),
    dropping zeros and an emptied slot."""
    tgt = slots.get(slot)
    if tgt is None:
        slots[slot] = dict(pairs) if m == 1 else {key: c * m for key, c in pairs}
        return
    get = tgt.get
    for key, c in pairs:
        n = get(key, 0) + c * m
        if n:
            tgt[key] = n
        else:
            del tgt[key]
    if not tgt:
        del slots[slot]


class Vec:
    """Sparse vector over the scalar ring, stored by field slot.

    For each nonzero basis slot (sqrt k)^eps eta^m of the ring, `slots` holds
    a dict from basis key (a State or TKey) to int numerator, all over one
    positive int `den`.  No slot dict holds a zero or is empty, so the zero
    vector has no slots.  `den` need not be in lowest terms: `reduce()`
    cancels it once a vector is finished.  `terms` is the key -> Scalar view.
    """

    __slots__ = ("ring", "den", "slots")

    def __init__(self, ring: ScalarRing, terms=None):
        self.ring, self.den, self.slots = ring, 1, {}
        if terms:
            cs = {key: c if isinstance(c, Scalar) else ring.rational(c) for key, c in terms.items()}
            # over the lcm of lowest-terms denominators the result is reduced
            den = self.den = math.lcm(*(c.den for c in cs.values()))
            for key, c in cs.items():
                m = den // c.den
                for slot, n in enumerate(c.num):
                    if n:
                        self.slots.setdefault(slot, {})[key] = n * m

    @classmethod
    def _of(cls, ring: ScalarRing, slots: dict, den: int) -> "Vec":
        v = object.__new__(cls)
        v.ring, v.slots, v.den = ring, slots, den
        return v

    @staticmethod
    def basis(ring: ScalarRing, key, coeff=1) -> "Vec":
        return Vec(ring, {key: coeff})

    def _columns(self) -> dict:
        """key -> ((slot, int), ...), the transpose of slots."""
        if len(self.slots) == 1:
            ((slot, d),) = self.slots.items()
            return {key: ((slot, c),) for key, c in d.items()}
        cols: dict = {}
        for slot, d in self.slots.items():
            for key, c in d.items():
                cols.setdefault(key, []).append((slot, c))
        return cols

    @property
    def terms(self) -> MappingProxyType:
        """Read-only key -> Scalar view, built on each access: for rendering,
        mismatch texts and tests, not for arithmetic."""
        ring, den, n = self.ring, self.den, len(self.ring.table)
        out = {}
        for key, parts in self._columns().items():
            num = [0] * n
            for slot, c in parts:
                num[slot] = c
            out[key] = ring.from_numerators(num, den)
        return MappingProxyType(out)

    def keys(self):
        """The support: every key with a nonzero coefficient."""
        if len(self.slots) == 1:
            return next(iter(self.slots.values())).keys()
        return set().union(*self.slots.values())

    def add_scaled(self, other: "Vec", factor=1) -> None:
        """self += factor * other, in place; factor is an int, a Fraction or
        a Scalar.  A rational factor scales ints slot by slot; a field factor
        sends each source slot through its row of `Scalar.rows`."""
        if isinstance(factor, Scalar):
            if factor.ring.k != self.ring.k:
                raise RingMismatchError(f"cannot scale a k={self.ring.k} vector by a k={factor.ring.k} scalar")
            rows = None if factor.rat else factor.rows
            num, fden = (factor.num[0] if rows is None else 1), factor.den
        elif isinstance(factor, int):
            rows, num, fden = None, factor, 1
        else:
            rows, num, fden = None, factor.numerator, factor.denominator
        if other.ring.k != self.ring.k:
            raise RingMismatchError(f"cannot add a k={other.ring.k} vector to a k={self.ring.k} one")
        if not num or not other.slots:
            return
        if other is self:
            other = self.copy()
        oden = other.den * fden
        if not self.slots:
            self.den = oden
        elif self.den % oden:
            m = math.lcm(self.den, oden) // self.den
            for d in self.slots.values():
                for key in d:
                    d[key] *= m
            self.den *= m
        mult = num * (self.den // oden)
        slots = self.slots
        for slot, src in other.slots.items():
            if rows is None:
                _add_into(slots, slot, src.items(), mult)
            else:
                for dest, c in rows[slot]:
                    _add_into(slots, dest, src.items(), c * mult)

    def reduce(self) -> "Vec":
        """Cancel the gcd of den and every numerator, in place; returns self."""
        g = self.den
        for d in self.slots.values():
            if g == 1:
                return self
            g = math.gcd(g, *d.values())
        if g == 1:
            return self
        for d in self.slots.values():
            for key in d:
                d[key] //= g
        self.den //= g
        return self

    def copy(self) -> "Vec":
        return Vec._of(self.ring, {slot: dict(d) for slot, d in self.slots.items()}, self.den)

    def __add__(self, other: "Vec") -> "Vec":
        out = self.copy()
        out.add_scaled(other)
        return out

    def __sub__(self, other: "Vec") -> "Vec":
        out = self.copy()
        out.add_scaled(other, -1)
        return out

    def __neg__(self) -> "Vec":
        slots = {slot: {key: -c for key, c in d.items()} for slot, d in self.slots.items()}
        return Vec._of(self.ring, slots, self.den)

    def scale(self, c) -> "Vec":
        out = Vec(self.ring)
        out.add_scaled(self, c)
        return out

    __mul__ = scale

    def is_zero(self) -> bool:
        return not self.slots

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vec) or self.ring.k != other.ring.k:
            return False
        if self.den == other.den:
            return self.slots == other.slots
        if self.slots.keys() != other.slots.keys():
            return False
        g = math.gcd(self.den, other.den)
        ma, mb = other.den // g, self.den // g
        for slot, d in self.slots.items():
            e = other.slots[slot]
            if d.keys() != e.keys() or any(c * ma != e[key] * mb for key, c in d.items()):
                return False
        return True

    def __hash__(self):
        raise TypeError("Vec is mutable; not hashable")

    def weight_components(self) -> list[tuple[int, "Vec"]]:
        """(twice the weight, homogeneous component) pairs, by ascending weight."""
        comps: dict[int, dict] = {}
        for slot, d in self.slots.items():
            for key, c in d.items():
                comps.setdefault(key_twice_weight(key), {}).setdefault(slot, {})[key] = c
        return [(tw, Vec._of(self.ring, slots, self.den)) for tw, slots in sorted(comps.items())]

    def weight(self):
        """Common weight of all terms, or None if mixed or zero."""
        ws = set(map(key_twice_weight, self.keys()))
        return Fr(ws.pop(), 2) if len(ws) == 1 else None

    def parity(self):
        ps = set(map(key_parity, self.keys()))
        return ps.pop() if len(ps) == 1 else None

    def max_twice_weight(self) -> int:
        return max(map(key_twice_weight, self.keys()), default=0)

    def render(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        return " + ".join(f"{terms[key].render()} * {render_key(key)}"
                          for key in sorted(terms, key=lambda key: (key_twice_weight(key), key)))

    def __repr__(self):
        return f"Vec({self.render()})"


def vac_vec(ring: ScalarRing, k_slots: int | None = None) -> Vec:
    key = ((),) * k_slots if k_slots else ()
    return Vec.basis(ring, key)


def psi_vec(ring: ScalarRing) -> Vec:
    return Vec.basis(ring, (-1,))


def omega_vec(ring: ScalarRing) -> Vec:
    """Conformal vector (1/2) psi_{-2} psi_{-1} |0>, central charge 1/2."""
    return Vec._of(ring, {0: {(-2, -1): 1}}, 2)


def slot_embed(u: Vec, k: int, slot: int = 1) -> Vec:
    """u in the given slot (1-indexed), vacuum elsewhere."""
    pre, post = ((),) * (slot - 1), ((),) * (k - slot)
    slots = {s: {pre + (key,) + post: c for key, c in d.items()} for s, d in u.slots.items()}
    return Vec._of(u.ring, slots, u.den)


def tensor_omega(ring: ScalarRing, k: int) -> Vec:
    """Conformal vector of the k-th tensor power: the sum over slots."""
    out = Vec(ring)
    for slot in range(1, k + 1):
        out = out + slot_embed(omega_vec(ring), k, slot)
    return out


# ---------------------------------------------------------------------------
# Clifford action
# ---------------------------------------------------------------------------


def clifford_apply_state(a: int, s: State):
    """psi_a on a basis state: (sign, state) or None if it annihilates."""
    if a <= -1:
        if a in s:
            return None
        pos = 0
        while pos < len(s) and s[pos] < a:
            pos += 1
        return ((-1) ** pos, s[:pos] + (a,) + s[pos:])
    partner = -1 - a
    if partner not in s:
        return None
    i = s.index(partner)
    return ((-1) ** i, s[:i] + s[i + 1 :])


# ---------------------------------------------------------------------------
# vertex operator modes (normal-ordered recursion)
# ---------------------------------------------------------------------------


def _q_max(twice_weight: int) -> int:
    # largest integer q with a_q nonzero on weight grounds: q <= weight - 1
    return (twice_weight - 2) // 2


@lru_cache(maxsize=2**18)  # bounded; criterion 08 fills far fewer entries
def _mode_single(u: State, n: int, v: State):
    """u_n applied to basis state v; returns ((state, int), ...), sorted, no zeros.

    Recursion: for u = psi_{-m-1} a,

      u_N = sum_{r<=-1} C(-r-1, m) psi_r a_{N-r-m-1}
          + (-1)^{|a|} sum_{r>=0} C(-r-1, m) a_{N-r-m-1} psi_r

    i.e. the normal-ordered product of the m-th divided-power derivative of
    the generator field with Y(a, x), with the Koszul sign on the
    annihilation half.  Base cases: vacuum modes are delta_{N,-1} id, and a
    single generator is one Clifford mode, Y(psi_{-m-1}|0>, x) = d^(m) psi(x),
    so u_N = C(-r-1, m) psi_r with r = N - m (the one nonzero term of either
    half).  Every coefficient is an integer and none depends on k: the table
    is shared by all twist orders and enters the scalar ring only in
    vertex_mode.
    """
    if not u:
        return ((v, 1),) if n == -1 else ()
    a1, rest = u[0], u[1:]
    m = -a1 - 1
    if not rest:
        r = n - m
        # C(-r-1, m) at the negative integer -r-1 is (-1)^m C(m+r, m)
        cmb = math.comb(-r - 1, m) if r < 0 else (-1) ** m * math.comb(m + r, m)
        hit = clifford_apply_state(r, v) if cmb else None
        return () if hit is None else ((hit[1], hit[0] * cmb),)
    out: dict = {}
    # creation half: psi_r after a rest-mode
    qm = _q_max(_twice_weight(rest) + _twice_weight(v))
    r = -1
    while n - r - m - 1 <= qm:
        cmb = math.comb(-r - 1, m)
        if cmb:
            for s, c in _mode_single(rest, n - r - m - 1, v):
                hit = clifford_apply_state(r, s)
                if hit is not None:
                    sign, new = hit
                    out[new] = out.get(new, 0) + sign * cmb * c
        r -= 1
    # annihilation half: psi_r first, then the rest-mode; C(-r-1, m) at the
    # negative integer b = -r-1 is (-1)^m C(m-b-1, m), never zero
    par = (-1) ** (len(rest) % 2)
    for b in v:
        r = -1 - b
        sign, stripped = clifford_apply_state(r, v)
        f = par * sign * (-1) ** m * math.comb(m - b - 1, m)
        for s, c in _mode_single(rest, n - r - m - 1, stripped):
            out[s] = out.get(s, 0) + f * c
    return tuple(sorted((s, c) for s, c in out.items() if c))


@lru_cache(maxsize=2**18)
def _mode_tensor(u_key: TKey, n: int, v_key: TKey):
    """(u1 (x) R)_n on (v1 (x) S) = (-1)^{|R||v1|} sum_{p+q=n-1} u1_p v1 (x) R_q S."""
    if len(u_key) == 1:
        return tuple(((s,), c) for s, c in _mode_single(u_key[0], n, v_key[0]))
    u1, rest = u_key[0], u_key[1:]
    v1, vrest = v_key[0], v_key[1:]
    sign = (-1) ** (key_parity(rest) * key_parity(v1))
    out = []  # u1_p v1 has weight wt(u1) + wt(v1) - p - 1, so no key repeats
    p_hi = _q_max(_twice_weight(u1) + _twice_weight(v1))
    p_lo = n - 1 - _q_max(sum(map(_twice_weight, rest + vrest)))
    for p in range(p_lo, p_hi + 1):
        first = _mode_single(u1, p, v1)
        if not first:
            continue
        second = _mode_tensor(rest, n - 1 - p, vrest)
        out.extend(((s1,) + skey, sign * c1 * c2) for s1, c1 in first for skey, c2 in second)
    return tuple(sorted(out))


def _mode_on_key(u_key, n: int, v_key):
    if is_tensor_key(u_key) or is_tensor_key(v_key):
        if len(u_key) != len(v_key):
            raise ValueError("tensor keys must have the same number of slots")
        return _mode_tensor(u_key, n, v_key)
    return _mode_single(u_key, n, v_key)


def vertex_mode(u: Vec, n: int, target: Vec) -> Vec:
    """The mode u_n of Y(u, x) applied to target (single or tensor keys).

    The integer mode tables go straight into the result's slot dicts: the
    table of a key pair, times a slot-i entry of u and a slot-j entry of
    target, lands in the slots of the ring's product table[i][j]."""
    ring = target.ring
    if u.ring.k != ring.k:
        raise RingMismatchError(f"cannot apply a k={u.ring.k} state to a k={ring.k} vector")
    table = ring.table
    slots: dict = {}
    tcols = target._columns()
    for uk, uparts in u._columns().items():
        for tk, tparts in tcols.items():
            tab = _mode_on_key(uk, n, tk)
            if not tab:
                continue
            for i, a in uparts:
                for j, b in tparts:
                    ab = a * b
                    for slot, c in table[i][j]:
                        _add_into(slots, slot, tab, ab * c)
    return Vec._of(ring, slots, u.den * target.den).reduce()


def min_exponent(u: Vec, target: Vec) -> int:
    """Smallest x-exponent of Y(u,x)target (weight floor of the module)."""
    return -_q_max(u.max_twice_weight() + target.max_twice_weight()) - 1


def virasoro_mode(n: int, target: Vec) -> Vec:
    """L(n) = omega_{n+1}, with the slot-summed omega on tensor keys."""
    some_key = next(iter(target.keys()), None)
    if some_key is not None and is_tensor_key(some_key):
        om = tensor_omega(target.ring, len(some_key))
    else:
        om = omega_vec(target.ring)
    return vertex_mode(om, n + 1, target)


# ---------------------------------------------------------------------------
# series with vector coefficients
# ---------------------------------------------------------------------------


class VecSeries(FracSeries):
    """A series whose coefficients are Vecs.  All series arithmetic is
    FracSeries'; the class supplies the zero and the multiply-accumulate.

    Series entries are never mutated: every `add_scaled` or `reduce` receiver
    is a fresh accumulator, so a result may share its operands' Vec objects.
    """

    __slots__ = ()

    zero_coefficient = Vec

    @staticmethod
    def sum_of_products(pairs: list) -> Vec:
        out = Vec(pairs[0][0].ring)
        for vec, c in pairs:
            out.add_scaled(vec, c)
        return out.reduce()

    def mul_series(self, s: FracSeries, box: Window | None = None) -> "VecSeries":
        """`mul` by a scalar series, under the name the benchmark tracer wraps."""
        return self.mul(s, box)

    def truncate_window(self, window: Window) -> "VecSeries":
        """The kernel's cut, under the name the benchmark tracer wraps."""
        return super().truncate_window(window)


def vec_equal_on_window(
    a: VecSeries,
    b: VecSeries,
    window: Window,
    identity: str,
    anchors=(),
    k=None,
    detail=None,
) -> CheckReport:
    """Coefficient-vector comparison inside the window; first mismatch wins."""
    return compare_on_window(a, b, window, identity, anchors, k, detail, _vec_mismatch)


def _vec_mismatch(mono: str, va: Vec, vb: Vec) -> str:
    """The first differing basis key of two coefficient vectors, rendered."""
    zero = va.ring.zero
    ta, tb = va.terms, vb.terms
    bad = min(key for key in ta.keys() | tb.keys() if ta.get(key, zero) != tb.get(key, zero))
    ca = ta.get(bad, zero).render()
    cb = tb.get(bad, zero).render()
    return f"at {mono}, {render_key(bad)}: {ca} != {cb}"


def vertex_op(u: Vec, target: Vec, window: Window, var: str = "x") -> VecSeries:
    """Y(u, x) target restricted to the window's x-exponent range.

    The series is bounded below by the weight floor; the window supplies the
    upper exponent cutoff (the creation direction is infinite).
    """
    lo, hi = window.span(var)
    lo = max(lo, Fr(min_exponent(u, target)))
    out = VecSeries(target.ring, (var,))
    e = math.ceil(lo)
    while e <= hi:
        vec = vertex_mode(u, -e - 1, target)
        out.add_term((e,), vec)
        e += 1
    return out


# ---------------------------------------------------------------------------
# exact two-sided products for the identity oracles
# ---------------------------------------------------------------------------


def two_sided(field, u, v, w: Vec, win1, win2, vars, band) -> VecSeries:
    """field(u, v1) field(v, v2) w on the rectangle win1 x win2, each x2-column
    built only across the band lo <= f1 + f2 <= hi its caller reads (each
    entry exact).

    field(state, target, window, var) is a one-variable field complete on its
    window, such as vertex_op; u and v are whatever it takes as its state.
    """
    v1, v2 = vars
    lo, hi = band
    if not (win1[0] <= win1[1] and win2[0] <= win2[1]):
        return VecSeries(w.ring, vars)
    inner = field(v, w, Window.of(**{v2: win2}), v2)
    cols = []
    for n2, vec in inner.by_numerator(inner.den):
        f2 = Fr(n2, inner.den)
        a, b = max(win1[0], lo - f2), min(win1[1], hi - f2)
        if a <= b:
            cols.append((n2, field(u, vec, Window.of(**{v1: (a, b)}), v1)))
    # every (f1, f2) is one term: keyed by int numerators over a common den,
    # in sorted variable order
    den = math.lcm(inner.den, *(outer.den for _n2, outer in cols))
    m2 = den // inner.den
    terms = {}
    for n2, outer in cols:
        for n1, res in outer.by_numerator(den):
            terms[(n2 * m2, n1) if v1 > v2 else (n1, n2 * m2)] = res
    return VecSeries._of(w.ring, tuple(sorted(vars)), terms, den)


def iterate_modesum(field, u: Vec, v: Vec, w: Vec, x0_range, x2_range) -> VecSeries:
    """sum_e0 x0^e0 field(u_(-e0-1)v, x2) w on the rectangle (each entry exact).

    This is the iterate field(Y(u,x0)v, x2) w by its meaning, one plain
    product state per x0-exponent.  field is as in two_sided, with a Vec as
    its state.
    """
    out = VecSeries(w.ring, ("x0", "x2"))
    lo2, hi2 = Fr(x2_range[0]), Fr(x2_range[1])
    if lo2 > hi2:
        return out
    win2 = Window.of(x2=(lo2, hi2))
    for e0 in range(math.ceil(Fr(x0_range[0])), math.floor(Fr(x0_range[1])) + 1):
        uv = vertex_mode(u, -e0 - 1, v)
        if uv.is_zero():
            continue
        for f2, vec in field(uv, w, win2, "x2").by_exponent():
            out.add_term((Fr(e0), f2), vec)
    return out


def jacobi_products(field, u, v, w: Vec, box: Window, floors, eps) -> VecSeries:
    """The two product sides of a Jacobi identity, on the box (x0 integral):

      x0^-1 d((x1-x2)/x0) F(u,x1)F(v,x2)w - eps x0^-1 d((x2-x1)/-x0) F(v,x2)F(u,x1)w

    F is field (as in two_sided) and floors = (lowest exponent of F(u,.)w,
    lowest exponent of F(v,.)w).  The x0-exponent of the n-th delta term is
    -n-1, so n runs over [-h0-1, -l0-1]; each binomial tail reaches down to
    the inner field's floor (only to the largest n when every n >= 0), and
    the outer field's rectangle reaches as high as the deepest tail term
    needs, so every box coefficient is exact.  The n-th term moves f1 + f2
    by n: the rectangle is built only on the band that can reach the box.
    """
    b = box.as_dict()
    l0, h0 = int(b["x0"][0]), int(b["x0"][1])
    sides = []
    for p, q, a, c, floor, sign in (("x1", "x2", u, v, floors[1], 1),
                                    ("x2", "x1", v, u, floors[0], -1)):
        (lp, hp), (lq, hq) = b[p], b[q]
        tail = math.floor(hq - floor)
        if h0 < 0:
            tail = min(tail, -l0 - 1)
        rect = two_sided(
            field, a, c, w, (lp + l0 + 1, hp + h0 + 1 + tail), (max(floor, lq - tail), hq), (p, q),
            (lp + lq + l0 + 1, hp + hq + h0 + 1),
        )
        delta = delta_truncated(
            w.ring, (1, {p: 1}), (-1, {q: 1}), (sign, {"x0": 1}),
            n_range=(-h0 - 1, -l0 - 1), tail_order=tail, prefix=(1, {"x0": -1}),
        )
        sides.append(rect.mul_series(delta, box))
    return sides[0] - sides[1] if eps == 1 else sides[0] + sides[1]


def iterate_side(ring: ScalarRing, build, box: Window, e0, *, step=1, shift=0, scale=1,
                 phases=(0,)) -> VecSeries:
    """The iterate side of a Jacobi identity, on the box (x0 integral):

      x2^-1 scale sum_i sum_n eta^(j_i n) ((x1-x0)/x2)^(n*step+shift) I_i(x0,x2)

    build(x0_range, x2_range) returns the iterates I_i, one per phase j_i of
    phases (0 for no phase), each exact on that rectangle and zero below x0^e0.  The
    binomial tail of (x1-x0)^r reaches from the box's top x0 down to e0; n
    runs over every r that puts some tail term's x1 inside the box, and the
    x2 rectangle is what those r need, so every box coefficient is exact.  A
    box wholly below x0^e0 gives zero without building anything.
    """
    b = box.as_dict()
    (l0, h0), (l1, h1), (l2, h2) = b["x0"], b["x1"], b["x2"]
    step, shift = Fr(step), Fr(shift)
    out = VecSeries(ring, ("x0", "x1", "x2"))
    tail = int(h0 - e0)
    if tail < 0:
        return out
    n_lo = math.ceil((l1 - shift) / step)
    n_hi = math.floor((h1 + tail - shift) / step)
    rects = build((max(e0, int(l0) - tail), int(h0)),
                  (l2 + n_lo * step + shift + 1, h2 + n_hi * step + shift + 1))
    for phase, rect in zip(phases, rects, strict=True):
        delta = delta_truncated(
            ring, (1, {"x1": 1}), (-1, {"x0": 1}), (1, {"x2": 1}),
            step=step, shift=shift, n_range=(n_lo, n_hi), tail_order=tail, phase=phase,
            prefix=(scale, {"x2": -1}),
        )
        out = out + rect.mul_series(delta, box)
    return out


def state_parity(state) -> int:
    """|u| of a field state (a Vec, or parts ((coeff, Vec, slot), ...)); every
    Koszul sign reads it here.  A mixed state raises ValueError naming it."""
    vecs = (state,) if isinstance(state, Vec) else tuple(vec for _c, vec, _slot in state)
    ps = {vec.parity() for vec in vecs}
    if len(ps) != 1 or None in ps:
        raise ValueError(f"state {' + '.join(vec.render() for vec in vecs)} is not parity-homogeneous")
    return ps.pop()


def jacobi_check(field, u, v, w: Vec, box: Window, floors, legs, identity: str, anchors) -> CheckReport:
    """The Jacobi identity of a field on one target, coefficientwise on the box:

      x0^-1 d((x1-x2)/x0) F(u,x1)F(v,x2)w - (-1)^{|u||v|} x0^-1 d((x2-x1)/-x0) F(v,x2)F(u,x1)w
        == the sum over legs of iterate_side(build, e0, **delta)

    The product side is jacobi_products (field and floors as there); each leg
    is (build, e0, delta) with delta the keywords of iterate_side.  A box
    without x0 asks for the x0^-1 coefficient, the supercommutator
    [F(u,x1), F(v,x2)] w: both sides are built on x0 = -1 (delta index
    n = 0), shifted back to x0^0 and compared on the (x1, x2) box.
    """
    eps = (-1) ** (state_parity(u) * state_parity(v))
    bracket = "x0" not in box.as_dict()
    full = Window.of(x0=(-1, -1), **box.as_dict()) if bracket else box
    lhs = jacobi_products(field, u, v, w, full, floors, eps)
    rhs = VecSeries(w.ring, ("x0", "x1", "x2"))
    for build, e0, delta in legs:
        rhs = rhs + iterate_side(w.ring, build, full, e0, **delta)
    if bracket:
        lhs, rhs = lhs.shift_exponents("x0", 1), rhs.shift_exponents("x0", 1)
    return vec_equal_on_window(lhs, rhs, box, identity, anchors=anchors, k=w.ring.k)


def untwisted_jacobi_check(u: Vec, v: Vec, w: Vec, box: Window | None = None) -> CheckReport:
    """Brute-force Jacobi identity on one target vector:

      x0^-1 d((x1-x2)/x0) Y(u,x1)Y(v,x2)w
        - (-1)^{|u||v|} x0^-1 d((x2-x1)/-x0) Y(v,x2)Y(u,x1)w
        = x2^-1 d((x1-x0)/x2) Y(Y(u,x0)v, x2)w

    compared coefficient-by-coefficient inside the box.  Every truncation
    used is deep enough that box coefficients are exact: the delta sums are
    cut by the box itself plus the module weight floors.
    """
    if box is None:
        box = Window.of(x0=(-3, 3), x1=(-3, 3), x2=(-3, 3))
    return jacobi_check(
        vertex_op, u, v, w, box, (min_exponent(u, w), min_exponent(v, w)),
        [(lambda r0, r2: [iterate_modesum(vertex_op, u, v, w, r0, r2)], min_exponent(u, v), {})],
        "untwisted.jacobi",
        ("x0^-1 d((x1-x2)/x0) Y(u,x1)Y(v,x2)w - (-1)^|u||v| x0^-1 d((x2-x1)/-x0) Y(v,x2)Y(u,x1)w"
         " == x2^-1 d((x1-x0)/x2) Y(Y(u,x0)v,x2)w",),
    )
