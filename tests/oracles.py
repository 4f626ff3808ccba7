"""Independent oracles shared by the tests: the Clifford action, the cyclic
permutation action and its eigenprojections, and per-key Scalar arithmetic
on module vectors.

None of this is on a check path of the package.  The per-key reference
re-does, one `Scalar` at a time, what `fermion.Vec` does on its integer
slot dicts, so the two can be compared on random vectors.
"""

from __future__ import annotations

from fractions import Fraction as Fr

from permtwist.fermion import Vec, _mode_on_key, clifford_apply_state, is_tensor_key

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
