"""Independent oracles shared by the tests: the Clifford action, the cyclic
permutation action and its eigenprojections, per-key Scalar arithmetic on
module vectors, the vertex-mode recursion with only the vacuum as its base
case, and the bracket of two fields assembled by hand.

None of this is on a check path of the package.  The per-key reference
re-does, one `Scalar` at a time, what `fermion.Vec` does on its integer
slot dicts, so the two can be compared on random vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction as Fr

from permtwist.fermion import (
    Vec,
    _mode_on_key,
    _q_max,
    _twice_weight,
    clifford_apply_state,
    is_tensor_key,
    iterate_modesum,
    iterate_side,
    min_exponent,
    two_sided,
    vec_equal_on_window,
)
from permtwist.fseries import CheckReport, Window

# ---------------------------------------------------------------------------
# Clifford action
# ---------------------------------------------------------------------------


def clifford_apply(a: int, target: Vec) -> Vec:
    """The generator mode psi_a, extended linearly."""
    out = Vec(target.ring)
    for key, c in target.terms.items():
        hit = clifford_apply_state(a, key)
        if hit is not None:
            sign, new = hit
            out.add_scaled(Vec.basis(target.ring, new, c), sign)
    return out


def mode_single_by_vacuum(u: tuple, n: int, v: tuple) -> dict:
    """u_n v as {state: int}, by the normal-ordered recursion of
    fermion._mode_single down to the vacuum alone: a single generator runs
    both halves, against the vacuum modes delta_{N,-1} id.  Uncached."""
    if not u:
        return {v: 1} if n == -1 else {}
    a1, rest = u[0], u[1:]
    m = -a1 - 1
    out: dict = {}
    qm = _q_max(_twice_weight(rest) + _twice_weight(v))
    r = -1
    while n - r - m - 1 <= qm:
        cmb = math.comb(-r - 1, m)
        if cmb:
            for s, c in mode_single_by_vacuum(rest, n - r - m - 1, v).items():
                hit = clifford_apply_state(r, s)
                if hit is not None:
                    sign, new = hit
                    out[new] = out.get(new, 0) + sign * cmb * c
        r -= 1
    par = (-1) ** (len(rest) % 2)
    for b in v:
        r = -1 - b
        sign, stripped = clifford_apply_state(r, v)
        f = par * sign * (-1) ** m * math.comb(m - b - 1, m)
        for s, c in mode_single_by_vacuum(rest, n - r - m - 1, stripped).items():
            out[s] = out.get(s, 0) + f * c
    return {s: c for s, c in out.items() if c}


# ---------------------------------------------------------------------------
# permutation action
# ---------------------------------------------------------------------------


def permute_key(key):
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
        out.add_scaled(Vec.basis(w.ring, cur, c), sign)
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
# per-key Scalar arithmetic
# ---------------------------------------------------------------------------


def _dropping_zeros(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if not c.is_zero()}


def terms_add(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b on key -> Scalar dicts."""
    out = dict(a)
    for key, c in b.items():
        out[key] = out[key] + c * sign if key in out else c * sign
    return _dropping_zeros(out)


def terms_scale(a: dict, factor) -> dict:
    """factor * a, one Scalar product per key."""
    return _dropping_zeros({key: c * factor for key, c in a.items()})


def terms_vertex_mode(ring, u: dict, n: int, target: dict) -> dict:
    """u_n target: every integer table entry lifted into the ring and scaled
    by the product of the two input coefficients."""
    out: dict = {}
    for uk, uc in u.items():
        for tk, tc in target.items():
            f = uc * tc
            for key, c in _mode_on_key(uk, n, tk):
                t = ring.rational(c) * f
                out[key] = out[key] + t if key in out else t
    return _dropping_zeros(out)


# ---------------------------------------------------------------------------
# the bracket of two fields, product sides and residue pairing by hand
# ---------------------------------------------------------------------------


def bracket_reference(field, u: Vec, v: Vec, w: Vec, box: Window, *, offset, den: int,
                      rhs_scale, identity: str, anchors) -> CheckReport:
    """[F(u,x1), F(v,x2)] w on the (x1, x2) box against

      rhs_scale * sum_{m>=0} sum_n C(n/den+offset, m)(-1)^m
          x1^{n/den+offset-m} x2^{-n/den-offset-1} F(u_m v, x2) w

    the x0^-1 coefficient of the Jacobi iterate side: the step-1/den delta,
    dressed by the offset exponent, paired with the iterate on the box
    x0 = -1.  The product sides are the two full rectangles of the box,
    subtracted with the Koszul sign.
    """
    b = box.as_dict()
    (l1, h1), (l2, h2) = b["x1"], b["x2"]
    p12 = two_sided(field, u, v, w, (l1, h1), (l2, h2), ("x1", "x2"), (l1 + l2, h1 + h2))
    p21 = two_sided(field, v, u, w, (l2, h2), (l1, h1), ("x2", "x1"), (l1 + l2, h1 + h2))
    lhs = p12 - p21 if u.parity() * v.parity() == 0 else p12 + p21
    rhs = iterate_side(
        w.ring, lambda r0, r2: [iterate_modesum(field, u, v, w, r0, r2)],
        Window.of(x0=(-1, -1), x1=(l1, h1), x2=(l2, h2)), min_exponent(u, v),
        step=Fr(1, den), shift=offset, scale=rhs_scale,
    )
    return vec_equal_on_window(lhs, rhs.shift_exponents("x0", 1), box, identity, anchors, w.ring.k)
