"""The free-fermion vertex superalgebra (central charge 1/2), its tensor
powers with Koszul signs, and brute-force oracles for the untwisted axioms.

Conventions.  Modes use integer indexing throughout: the generator field is
Y(psi, x) = sum_{n in Z} psi_n x^{-n-1} with anticommutator
{psi_a, psi_b} = delta_{a+b,-1}, so psi_n has weight -n - 1/2 and the physics
half-integer label of psi_n is n + 1/2.  A basis state is a strictly
increasing tuple of negative mode indices applied to the vacuum; a tensor
basis state is a tuple of such tuples, one per slot.
"""

from __future__ import annotations

import math
from fractions import Fraction as Fr
from functools import lru_cache

from .exactnum import Scalar, ScalarRing, get_ring
from .fseries import CheckReport, FracSeries, Window, delta_truncated, gbinom

State = tuple  # strictly increasing negative ints
TKey = tuple  # tuple of States


# ---------------------------------------------------------------------------
# basis states
# ---------------------------------------------------------------------------


def state_weight(s: State) -> Fr:
    return sum((-a - Fr(1, 2) for a in s), Fr(0))


def is_tensor_key(key) -> bool:
    return bool(key) and isinstance(key[0], tuple)


def key_weight(key) -> Fr:
    if is_tensor_key(key):
        return sum((state_weight(s) for s in key), Fr(0))
    return state_weight(key)


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


class Vec:
    """Sparse vector: basis key -> Scalar.  Keys are States or TKeys."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ScalarRing, terms=None):
        self.ring = ring
        self.terms = {}
        for key, c in (terms or {}).items():
            c = c if isinstance(c, Scalar) else ring.rational(Fr(c))
            if not c.is_zero():
                self.terms[key] = c

    @staticmethod
    def basis(ring: ScalarRing, key, coeff=1) -> "Vec":
        return Vec(ring, {key: coeff})

    def accumulate(self, pairs, factor: Scalar) -> None:
        if factor.is_zero():
            return
        for key, c in pairs:
            cur = self.terms.get(key)
            new = c * factor if cur is None else cur + c * factor
            if new.is_zero():
                self.terms.pop(key, None)
            else:
                self.terms[key] = new

    def _merge(self, other: "Vec", sub: bool) -> "Vec":
        # coefficients add or subtract directly: no scalar multiplication
        terms = dict(self.terms)
        for key, c in other.terms.items():
            cur = terms.get(key)
            new = (-c if sub else c) if cur is None else (cur - c if sub else cur + c)
            if new.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = new
        out = Vec(self.ring)
        out.terms = terms
        return out

    def __add__(self, other: "Vec") -> "Vec":
        return self._merge(other, False)

    def __sub__(self, other: "Vec") -> "Vec":
        return self._merge(other, True)

    def __neg__(self) -> "Vec":
        out = Vec(self.ring)
        out.terms = {key: -c for key, c in self.terms.items()}
        return out

    def scale(self, c) -> "Vec":
        c = c if isinstance(c, Scalar) else self.ring.rational(Fr(c))
        return Vec(self.ring, {key: v * c for key, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Vec) and self.ring.k == other.ring.k and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Vec is mutable; not hashable")

    def weight(self):
        """Common weight of all terms, or None if mixed or zero."""
        ws = {key_weight(key) for key in self.terms}
        return ws.pop() if len(ws) == 1 else None

    def parity(self):
        ps = {key_parity(key) for key in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def max_weight(self) -> Fr:
        return max((key_weight(key) for key in self.terms), default=Fr(0))

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=lambda key: (key_weight(key), key)):
            bits.append(f"{self.terms[key].render()} * {render_key(key)}")
        return " + ".join(bits)

    def __repr__(self):
        return f"Vec({self.render()})"


def vac_vec(ring: ScalarRing, k_slots: int | None = None) -> Vec:
    key = ((),) * k_slots if k_slots else ()
    return Vec.basis(ring, key)


def psi_vec(ring: ScalarRing) -> Vec:
    return Vec.basis(ring, (-1,))


def omega_vec(ring: ScalarRing) -> Vec:
    """Conformal vector (1/2) psi_{-2} psi_{-1} |0>, central charge 1/2."""
    return Vec(ring, {(-2, -1): Fr(1, 2)})


def slot_embed(u: Vec, k: int, slot: int = 1) -> Vec:
    """u in the given slot (1-indexed), vacuum elsewhere."""
    out = Vec(u.ring)
    for key, c in u.terms.items():
        tkey = ((),) * (slot - 1) + (key,) + ((),) * (k - slot)
        out.terms[tkey] = c
    return out


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


def clifford_apply(a: int, target: Vec) -> Vec:
    """The generator mode psi_a, extended linearly."""
    out = Vec(target.ring)
    for key, c in target.terms.items():
        hit = clifford_apply_state(a, key)
        if hit is not None:
            sign, new = hit
            out.accumulate(((new, target.ring.rational(Fr(sign))),), c)
    return out


# ---------------------------------------------------------------------------
# vertex operator modes (normal-ordered recursion)
# ---------------------------------------------------------------------------


def _q_max(weight: Fr) -> int:
    # largest integer q with a_q nonzero on weight grounds: q <= weight - 1
    return math.floor(weight - 1)


@lru_cache(maxsize=None)
def _mode_single(ring_k: int, u: State, n: int, v: State):
    """u_n applied to basis state v; returns ((state, Scalar), ...).

    Recursion: for u = psi_{-m-1} a,

      u_N = sum_{r<=-1} C(-r-1, m) psi_r a_{N-r-m-1}
          + (-1)^{|a|} sum_{r>=0} C(-r-1, m) a_{N-r-m-1} psi_r

    i.e. the normal-ordered product of the m-th divided-power derivative of
    the generator field with Y(a, x), with the Koszul sign on the
    annihilation half.  Base case: vacuum modes are delta_{N,-1} id.
    """
    ring = get_ring(ring_k)
    if not u:
        return ((v, ring.one),) if n == -1 else ()
    a1, rest = u[0], u[1:]
    m = -a1 - 1
    out = Vec(ring)
    # creation half: psi_r after a rest-mode
    qm = _q_max(state_weight(rest) + state_weight(v))
    r = -1
    while n - r - m - 1 <= qm:
        cmb = math.comb(-r - 1, m) if -r - 1 >= m else 0
        if cmb:
            inner = _mode_single(ring_k, rest, n - r - m - 1, v)
            for s, c in inner:
                hit = clifford_apply_state(r, s)
                if hit is not None:
                    sign, new = hit
                    out.accumulate(((new, c),), ring.rational(Fr(sign * cmb)))
        r -= 1
    # annihilation half: psi_r first, then the rest-mode
    par = (-1) ** (len(rest) % 2)
    for b in v:
        r = -1 - b
        cmb = gbinom(Fr(-r - 1), m)
        if not cmb:
            continue
        sign, stripped = clifford_apply_state(r, v)
        inner = _mode_single(ring_k, rest, n - r - m - 1, stripped)
        out.accumulate(inner, ring.rational(par * sign * cmb))
    return tuple(sorted(out.terms.items()))


@lru_cache(maxsize=None)
def _mode_tensor(ring_k: int, u_key: TKey, n: int, v_key: TKey):
    """(u1 (x) R)_n on (v1 (x) S) = (-1)^{|R||v1|} sum_{p+q=n-1} u1_p v1 (x) R_q S."""
    ring = get_ring(ring_k)
    if len(u_key) == 1:
        inner = _mode_single(ring_k, u_key[0], n, v_key[0])
        return tuple(((s,), c) for s, c in inner)
    u1, rest = u_key[0], u_key[1:]
    v1, vrest = v_key[0], v_key[1:]
    sign = (-1) ** (key_parity(rest) * key_parity(v1))
    out = Vec(ring)
    p_hi = _q_max(state_weight(u1) + state_weight(v1))
    p_lo = n - 1 - _q_max(key_weight(rest) + key_weight(vrest))
    for p in range(p_lo, p_hi + 1):
        first = _mode_single(ring_k, u1, p, v1)
        if not first:
            continue
        second = _mode_tensor(ring_k, rest, n - 1 - p, vrest)
        for s1, c1 in first:
            for skey, c2 in second:
                out.accumulate((((s1,) + skey, c2),), c1 * Fr(sign))
    return tuple(sorted(out.terms.items()))


def _mode_on_key(ring_k: int, u_key, n: int, v_key):
    if is_tensor_key(u_key) or is_tensor_key(v_key):
        if len(u_key) != len(v_key):
            raise ValueError("tensor keys must have the same number of slots")
        return _mode_tensor(ring_k, u_key, n, v_key)
    return _mode_single(ring_k, u_key, n, v_key)


def vertex_mode(u: Vec, n: int, target: Vec) -> Vec:
    """The mode u_n of Y(u, x) applied to target (single or tensor keys)."""
    out = Vec(target.ring)
    for uk, uc in u.terms.items():
        for tk, tc in target.terms.items():
            out.accumulate(_mode_on_key(target.ring.k, uk, n, tk), uc * tc)
    return out


def min_exponent(u: Vec, target: Vec) -> int:
    """Smallest x-exponent of Y(u,x)target (weight floor of the module)."""
    return -_q_max(u.max_weight() + target.max_weight()) - 1


def virasoro_mode(n: int, target: Vec) -> Vec:
    """L(n) = omega_{n+1}, with the slot-summed omega on tensor keys."""
    some_key = next(iter(target.terms), None)
    if some_key is not None and is_tensor_key(some_key):
        om = tensor_omega(target.ring, len(some_key))
    else:
        om = omega_vec(target.ring)
    return vertex_mode(om, n + 1, target)


# ---------------------------------------------------------------------------
# series with vector coefficients
# ---------------------------------------------------------------------------


class VecSeries:
    """Sparse formal series whose coefficients are Vecs.

    terms: exponent tuple (aligned with vars, all Fractions) -> Vec.  Unlike
    FracSeries there is no phi slot; parity lives in the vectors.
    """

    __slots__ = ("ring", "vars", "terms")

    def __init__(self, ring: ScalarRing, vars, terms=None):
        self.ring = ring
        self.vars = tuple(vars)
        self.terms = {}
        for exps, vec in (terms or {}).items():
            if not vec.is_zero():
                self.terms[tuple(Fr(e) for e in exps)] = vec

    def add_term(self, exps, vec: Vec, factor=None) -> None:
        exps = tuple(Fr(e) for e in exps)
        if factor is not None:
            vec = vec.scale(factor)
        if vec.is_zero():
            return
        cur = self.terms.get(exps)
        new = vec if cur is None else cur + vec
        if new.is_zero():
            self.terms.pop(exps, None)
        else:
            self.terms[exps] = new

    def _aligned(self, other: "VecSeries"):
        if self.ring.k != other.ring.k:
            raise ValueError("mixed scalar rings")
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))

        def remap(s: "VecSeries"):
            pos = {v: s.vars.index(v) for v in s.vars}
            out = {}
            for exps, vec in s.terms.items():
                key = tuple(exps[pos[v]] if v in pos else Fr(0) for v in allvars)
                out[key] = vec
            return out

        return allvars, remap(self), remap(other)

    def _merge(self, other: "VecSeries", sub: bool) -> "VecSeries":
        allvars, ta, tb = self._aligned(other)
        out = VecSeries(self.ring, allvars, ta)
        for exps, vec in tb.items():
            cur = out.terms.get(exps)
            new = (-vec if sub else vec) if cur is None else (cur - vec if sub else cur + vec)
            if new.is_zero():
                out.terms.pop(exps, None)
            else:
                out.terms[exps] = new
        return out

    def __add__(self, other: "VecSeries") -> "VecSeries":
        return self._merge(other, False)

    def __sub__(self, other: "VecSeries") -> "VecSeries":
        return self._merge(other, True)

    def scale(self, c) -> "VecSeries":
        return VecSeries(
            self.ring, self.vars, {e: vec.scale(c) for e, vec in self.terms.items()}
        )

    def mul_series(self, s: FracSeries, box: Window | None = None) -> "VecSeries":
        """Multiply by a scalar series (no phi part): the convolution of supports.

        With a box, only the products whose exponent lies in the box are
        formed, and the result is mul_series(s).truncate_window(box) term for
        term: each box coefficient is still the sum of every product that
        lands on it.  It is the true coefficient of the full product when both
        operands hold every term that can reach it.
        """
        allvars = tuple(sorted(set(self.vars) | set(s.vars)))
        if any(phi for _exps, phi in s.terms):
            raise ValueError("vector series carry no odd coordinate")

        def aligned(vars, exps) -> tuple:
            return tuple(Fr(exps[vars.index(v)]) if v in vars else Fr(0) for v in allvars)

        rows = [(aligned(self.vars, e), vec) for e, vec in self.terms.items()]
        cols = [(aligned(s.vars, e), c) for (e, _phi), c in s.terms.items()]
        # the box test runs on integer numerators over one common denominator
        den = math.lcm(*(x.denominator for row, _ in rows + cols for x in row))
        bounds = box.as_dict() if box is not None else {}
        limits = [(i, math.ceil(bounds[v][0] * den), math.floor(bounds[v][1] * den))
                  for i, v in enumerate(allvars) if v in bounds]
        rows = [(row, tuple(int(x * den) for x in row), vec) for row, vec in rows]
        out = VecSeries(self.ring, allvars)
        for srow, c in cols:
            sint = tuple(int(x * den) for x in srow)
            for vrow, vint, vec in rows:
                if any(not lo <= vint[i] + sint[i] <= hi for i, lo, hi in limits):
                    continue
                key = tuple(a + b for a, b in zip(vrow, srow))
                acc = out.terms.get(key)
                if acc is None:
                    acc = out.terms[key] = Vec(self.ring)
                acc.accumulate(vec.terms.items(), c)
        out.terms = {e: vec for e, vec in out.terms.items() if not vec.is_zero()}
        return out

    def coefficient(self, assignment: dict) -> Vec:
        target = tuple(Fr(assignment.get(v, 0)) for v in self.vars)
        return self.terms.get(target, Vec(self.ring))

    def truncate_window(self, window: Window) -> "VecSeries":
        return VecSeries(
            self.ring,
            self.vars,
            {e: vec for e, vec in self.terms.items() if window.contains(self.vars, e)},
        )

    def shift_exponents(self, var: str, delta) -> "VecSeries":
        i = self.vars.index(var)
        d = Fr(delta)
        return VecSeries(
            self.ring,
            self.vars,
            {e[:i] + (e[i] + d,) + e[i + 1 :]: vec for e, vec in self.terms.items()},
        )

    def scale_exponents(self, var: str, factor) -> "VecSeries":
        i = self.vars.index(var)
        f = Fr(factor)
        return VecSeries(
            self.ring,
            self.vars,
            {e[:i] + (e[i] * f,) + e[i + 1 :]: vec for e, vec in self.terms.items()},
        )

    def phase_by_exponent(self, var: str, phase) -> "VecSeries":
        """Multiply each term by phase(exponent of var), a Scalar-valued map."""
        i = self.vars.index(var)
        out = VecSeries(self.ring, self.vars)
        for e, vec in self.terms.items():
            out.add_term(e, vec.scale(phase(e[i])))
        return out

    def derivative(self, var: str) -> "VecSeries":
        i = self.vars.index(var)
        out = VecSeries(self.ring, self.vars)
        for e, vec in self.terms.items():
            if e[i] != 0:
                out.add_term(e[:i] + (e[i] - 1,) + e[i + 1 :], vec.scale(e[i]))
        return out

    def support(self) -> set:
        return set(self.terms)

    def exponents_of(self, var: str) -> set:
        i = self.vars.index(var)
        return {e[i] for e in self.terms}

    def is_zero(self) -> bool:
        return not self.terms

    def render(self) -> str:
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(f"{v}^{x}" for v, x in zip(self.vars, e) if x != 0) or "1"
            bits.append(f"[{mono}] ({self.terms[e].render()})")
        return " + ".join(bits) if bits else "0"


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
    allvars, ta, tb = a._aligned(b)
    keys = {e for e in ta if window.contains(allvars, e)}
    keys |= {e for e in tb if window.contains(allvars, e)}
    zero = Vec(a.ring)
    for e in sorted(keys):
        va = ta.get(e, zero)
        vb = tb.get(e, zero)
        if va != vb:
            mono = "*".join(f"{v}^{x}" for v, x in zip(allvars, e) if x != 0) or "1"
            diffs = [
                key
                for key in set(va.terms) | set(vb.terms)
                if va.terms.get(key, a.ring.zero) != vb.terms.get(key, a.ring.zero)
            ]
            bad = sorted(diffs)[0]
            ca = va.terms.get(bad, a.ring.zero).render()
            cb = vb.terms.get(bad, a.ring.zero).render()
            return CheckReport(
                identity,
                tuple(anchors),
                window.render(),
                "fail",
                first_mismatch=f"at {mono}, {render_key(bad)}: {ca} != {cb}",
                detail=detail,
                k=k,
            )
    return CheckReport(identity, tuple(anchors), window.render(), "pass", detail=detail, k=k)


def vertex_op(u: Vec, target: Vec, window: Window, var: str = "x") -> VecSeries:
    """Y(u, x) target restricted to the window's x-exponent range.

    The series is bounded below by the weight floor; the window supplies the
    upper exponent cutoff (the creation direction is infinite).
    """
    bounds = window.as_dict()
    if var not in bounds:
        raise ValueError(f"window must bound {var}")
    lo, hi = bounds[var]
    lo = max(Fr(lo), Fr(min_exponent(u, target)))
    out = VecSeries(target.ring, (var,))
    e = math.ceil(lo)
    while e <= hi:
        vec = vertex_mode(u, -e - 1, target)
        out.add_term((e,), vec)
        e += 1
    return out


# ---------------------------------------------------------------------------
# permutation action
# ---------------------------------------------------------------------------


def permute_key(key: TKey):
    """Left action of the k-cycle: v1 (x) ... (x) vk -> signed rotation."""
    p1 = len(key[0]) % 2
    prest = sum(len(s) for s in key[1:]) % 2
    sign = -1 if p1 and prest else 1
    return sign, key[1:] + (key[0],)


def permute(w: Vec, power: int = 1) -> Vec:
    """g^power with g the k-cycle acting by signed left rotation."""
    out = Vec(w.ring)
    for key, c in w.terms.items():
        if not is_tensor_key(key):
            raise ValueError("permute needs tensor keys")
        sign = 1
        cur = key
        for _ in range(power % len(key)):
            s, cur = permute_key(cur)
            sign *= s
        out.accumulate(((cur, c),), w.ring.rational(Fr(sign)))
    return out


def eigenprojection(w: Vec, j: int, k: int) -> Vec:
    """(1/k) sum_i eta^{-ij} g^i w: the eta^j eigencomponent."""
    ring = w.ring
    if ring.k != k:
        raise ValueError("ring order and k disagree")
    out = Vec(ring)
    for i in range(k):
        out = out + permute(w, i).scale(ring.eta((-i * j) % k))
    return out.scale(Fr(1, k))


# ---------------------------------------------------------------------------
# exact two-sided products for the identity oracles
# ---------------------------------------------------------------------------


def two_sided(field, u, v, w: Vec, win1, win2, vars) -> VecSeries:
    """field(u, v1) field(v, v2) w on the rectangle win1 x win2 (each entry exact).

    field(state, target, window, var) is a one-variable field complete on its
    window, such as vertex_op; u and v are whatever it takes as its state.
    """
    v1, v2 = vars
    out = VecSeries(w.ring, vars)
    if win1[0] > win1[1] or win2[0] > win2[1]:
        return out
    inner = field(v, w, Window.of(**{v2: win2}), v2)
    for (f2,), vec in inner.terms.items():
        outer = field(u, vec, Window.of(**{v1: win1}), v1)
        for (f1,), res in outer.terms.items():
            out.add_term((f1, f2), res)
    return out


def two_point(u: Vec, v: Vec, w: Vec, e1_range, e2_range, vars=("x1", "x2")) -> VecSeries:
    """Y(u,x1)Y(v,x2)w on an exponent rectangle (each entry exact)."""
    return two_sided(vertex_op, u, v, w, e1_range, e2_range, vars)


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
        for (f2,), vec in field(uv, w, win2, "x2").terms.items():
            out.add_term((Fr(e0), f2), vec)
    return out


def jacobi_products(field, u, v, w: Vec, box: Window, floors, eps) -> VecSeries:
    """The two product sides of a Jacobi identity, on the box (x0 integral):

      x0^-1 d((x1-x2)/x0) F(u,x1)F(v,x2)w - eps x0^-1 d((x2-x1)/-x0) F(v,x2)F(u,x1)w

    F is field (as in two_sided) and floors = (lowest exponent of F(u,.)w,
    lowest exponent of F(v,.)w).  The x0-exponent of the n-th delta term is
    -n-1, so n runs over [-h0-1, -l0-1]; each binomial tail reaches down to
    the inner field's floor, and the outer field's rectangle reaches as high
    as the deepest tail term needs, so every box coefficient is exact.
    """
    b = box.as_dict()
    l0, h0 = int(b["x0"][0]), int(b["x0"][1])
    sides = []
    for p, q, a, c, floor, sign in (("x1", "x2", u, v, floors[1], 1),
                                    ("x2", "x1", v, u, floors[0], -1)):
        (lp, hp), (lq, hq) = b[p], b[q]
        tail = math.floor(hq - floor)
        rect = two_sided(
            field, a, c, w, (lp + l0 + 1, hp + h0 + 1 + tail), (max(floor, lq - tail), hq), (p, q)
        )
        delta = delta_truncated(
            w.ring, (1, {p: 1}), (-1, {q: 1}), (sign, {"x0": 1}),
            n_range=(-h0 - 1, -l0 - 1), tail_order=tail, prefix=(1, {"x0": -1}),
        )
        sides.append(rect.mul_series(delta, box))
    return sides[0] - sides[1] if eps == 1 else sides[0] + sides[1]


def iterate_side(ring: ScalarRing, build, box: Window, e0, *, step=1, shift=0, scale=1,
                 phases=(None,)) -> VecSeries:
    """The iterate side of a Jacobi identity, on the box (x0 integral):

      x2^-1 scale sum_i sum_n phase_i(n) ((x1-x0)/x2)^(n*step+shift) I_i(x0,x2)

    build(x0_range, x2_range) returns the iterates I_i, one per phase (None
    for no phase), each exact on that rectangle and zero below x0^e0.  The
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


def untwisted_jacobi_check(
    u: Vec,
    v: Vec,
    w: Vec,
    box: Window | None = None,
    identity: str = "untwisted.jacobi",
) -> CheckReport:
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
    eps = (-1) ** (u.parity() * v.parity())
    floors = (Fr(min_exponent(u, w)), Fr(min_exponent(v, w)))
    lhs = jacobi_products(vertex_op, u, v, w, box, floors, eps)
    rhs = iterate_side(
        w.ring, lambda r0, r2: [iterate_modesum(vertex_op, u, v, w, r0, r2)],
        box, min_exponent(u, v),
    )
    return vec_equal_on_window(
        lhs,
        rhs,
        box,
        identity,
        anchors=(
            "x0^-1 d((x1-x2)/x0) Y(u,x1)Y(v,x2)w - (-1)^|u||v| x0^-1 d((x2-x1)/-x0) Y(v,x2)Y(u,x1)w"
            " == x2^-1 d((x1-x0)/x2) Y(Y(u,x0)v,x2)w",
        ),
        k=w.ring.k,
    )


def skew_symmetry_check(u: Vec, v: Vec, hi: int = 6, identity: str = "untwisted.skew") -> CheckReport:
    """Y(u,x)v == (-1)^{|u||v|} exp(x L(-1)) Y(v,-x)u, coefficientwise."""
    ring = u.ring
    lo = min(min_exponent(u, v), min_exponent(v, u))
    win = Window.of(x=(lo, hi))
    lhs = vertex_op(u, v, win)
    eps = (-1) ** (u.parity() * v.parity())
    rhs = VecSeries(ring, ("x",))
    for e in range(lo, hi + 1):
        acc = Vec(ring)
        fact = Fr(1)
        for m in range(0, e - lo + 1):
            if m:
                fact /= m
            inner = vertex_mode(v, -(e - m) - 1, u).scale(Fr((-1) ** (e - m)))
            cur = inner
            for _ in range(m):
                cur = virasoro_mode(-1, cur)
            acc = acc + cur.scale(fact * eps)
        rhs.add_term((Fr(e),), acc)
    return vec_equal_on_window(
        lhs, rhs, win, identity,
        anchors=("Y(u,x)v == (-1)^|u||v| exp(x L(-1)) Y(v,-x)u",), k=ring.k,
    )


def l_derivative_check(u: Vec, target: Vec, hi: int = 5,
                       identity: str = "untwisted.l-minus-one") -> CheckReport:
    """Y(L(-1)u, x) == d/dx Y(u, x) applied to target."""
    ring = u.ring
    lo = min_exponent(u, target) - 2
    win = Window.of(x=(lo, hi))
    lhs = vertex_op(virasoro_mode(-1, u), target, win)
    rhs = vertex_op(u, target, Window.of(x=(lo, hi + 1))).derivative("x").truncate_window(win)
    return vec_equal_on_window(
        lhs, rhs, win, identity,
        anchors=("Y(L(-1)u,x) == d/dx Y(u,x)",), k=ring.k,
    )


def virasoro_bracket_check(max_weight=4, m_range=(-3, 3), k_slots: int | None = None,
                           identity: str = "untwisted.virasoro-bracket") -> CheckReport:
    """[L(m), L(n)] == (m-n)L(m+n) + (m^3-m)/12 delta_{m+n,0} c, with c = 1/2
    per slot, on every basis state up to the weight cutoff."""
    ring = get_ring(1) if k_slots is None else get_ring(k_slots)
    keys = standard_basis(max_weight) if k_slots is None else tensor_basis(k_slots, max_weight)
    c_total = Fr(1, 2) * (1 if k_slots is None else k_slots)
    win = Window.of(m=(m_range[0], m_range[1]))
    for key in keys:
        w = Vec.basis(ring, key)
        for m in range(m_range[0], m_range[1] + 1):
            for n in range(m_range[0], m_range[1] + 1):
                lhs = virasoro_mode(m, virasoro_mode(n, w)) - virasoro_mode(n, virasoro_mode(m, w))
                rhs = virasoro_mode(m + n, w).scale(Fr(m - n))
                if m + n == 0:
                    rhs = rhs + w.scale(Fr(m**3 - m, 12) * c_total)
                if lhs != rhs:
                    return CheckReport(
                        identity,
                        ("[L(m),L(n)] == (m-n)L(m+n) + (m^3-m)/12 delta_{m+n,0} c",),
                        win.render(),
                        "fail",
                        first_mismatch=f"m={m}, n={n} on {render_key(key)}: "
                        f"{(lhs - rhs).render()}",
                        k=ring.k,
                    )
    return CheckReport(
        identity,
        ("[L(m),L(n)] == (m-n)L(m+n) + (m^3-m)/12 delta_{m+n,0} c",),
        win.render(),
        "pass",
        detail=f"central charge {c_total}, basis cutoff weight {max_weight}",
        k=ring.k,
    )
