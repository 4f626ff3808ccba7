"""Independent oracles shared by the tests: the Clifford action, the cyclic
permutation action and its eigenprojections, per-key Scalar arithmetic on
module vectors, the vertex-mode recursion with only the vacuum as its base
case, the bracket of two fields assembled by hand, the cross-slot iterate
as a residue sum over explicit indices, the substitution of a monomial
for a variable, term by term, the right side of the conjugation formula
from hand-built powers of the root difference, the dressing flowed one
weight component at a time without a cache, the series product from
every term pair and by a grouped vector pairing of its own, and one step
of a flow exponential as a sum over its generators.

None of this is on a check path of the package.  The per-key reference
re-does, one `Scalar` at a time, what `fermion.Vec` does on its integer
slot dicts, so the two can be compared on random vectors.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction as Fr
from operator import add

from permtwist.changeofvars import a_table
from permtwist.fermion import (
    Vec,
    VecSeries,
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
    vertex_mode,
    virasoro_mode,
)
from permtwist.fseries import CheckReport, CompositionDomainError, FracSeries, Window, binom_expand, unit_pow
from permtwist.twistor import _parts_field, delta_apply, twisted_floor

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


# ---------------------------------------------------------------------------
# the cross-slot iterate, one residue-sum index at a time
# ---------------------------------------------------------------------------


def iterate_residue_reference(u: Vec, jobs, v: Vec, s2: int, w: Vec, N: int) -> list[VecSeries]:
    """twistor._iterate_shared by hand: the iterate fields of several slot
    combinations of u over one shared product rectangle, with jobs as there
    (a list of (combo, x0_range, x2_range), combo a tuple of (Scalar, slot)).

    Uses the locality-regularized residue form: with Q = (x1-x2)^N P and
    P = Ybar(u, x1) Yg(v^{s2}, x2) w,

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
    # shifts f1 and f2 oppositely)
    band = (min(j[2] for j in live) + min(j[4] for j in live), b0_max + d2_max)
    P = two_sided(_parts_field, ((ring.one, u, 1),), ((ring.one, v, s2),), w,
                  (uflr - N, g1_hi), (vflr - N, g2_hi), ("x1", "x2"), band)
    if P.is_zero():
        return out
    # P and Q are keyed (f1, f2) by integer exponent numerators over P's den,
    # a multiple of k as every twisted field's is; 1/k is r/den
    prect, den = P.terms, P.den
    r = den // k
    binN = [math.comb(N, l) * (-1) ** l for l in range(N + 1)]
    qcache: dict[tuple[int, int], Vec | None] = {}

    def qplain(g1: int, g2: int) -> Vec | None:
        # summed into a fresh vector: prect entries and cached results are
        # never mutated
        key = (g1, g2)
        if key in qcache:
            return qcache[key]
        acc = None
        for l in range(N + 1):
            p = prect.get((g1 - (N - l) * den, g2 - l * den))
            if p is None:
                continue
            if acc is None:
                acc = Vec(ring)
            acc.add_scaled(p, binN[l])
        qcache[key] = acc
        return acc

    # C(n/k, i) (-1)^i over the den k^i i! of every n: binrows[i][n - n_lo_g]
    # is the int numerator (-1)^i n (n-k) ... (n-(i-1)k)
    binrows: dict[int, list[int]] = {}
    for ci, combo, a0, b0, c2, d2 in live:
        # phase of each n-class: eta^{(slot-1) k f1} with k f1 = -n mod k
        ph_tab = []
        for cls in range(k):
            ph = ring.zero
            for c, slot in combo:
                ph = ph + c * ring.eta(((slot - 1) * cls) % k)
            ph_tab.append(ph)
        # ... times the binomial den 1/(k^i i!), per i
        ph_by_i: dict[int, list] = {}
        n_lo_j = math.ceil(k * (vflr - 1 - d2))
        n_hi_j = math.floor(k * (b0 + N - 1 - uflr))
        x2e = Fr(math.ceil(k * c2), k)
        while x2e <= d2:
            n_lo_c = max(n_lo_j, math.ceil(k * (vflr - 1 - x2e)))
            x2n = int(x2e * den)
            for x0e in range(a0, b0 + 1):
                i = x0e + N
                if i < 0:
                    continue
                n_hi_c = min(n_hi_j, math.floor(k * (i - 1 - uflr)))
                if i not in binrows:
                    binrows[i] = [(-1) ** i * math.prod(range(n, n - i * k, -k))
                                  for n in range(n_lo_g, n_hi_g + 1)]
                row = binrows[i]
                buckets: dict[int, Vec] = {}
                for n in range(n_lo_c, n_hi_c + 1):
                    cb = row[n - n_lo_g]
                    if not cb:
                        continue
                    q = qplain((i - 1) * den - n * r, x2n + n * r + den)
                    if q is None or q.is_zero():
                        continue
                    bucket = buckets.setdefault((-n) % k, Vec(ring))
                    bucket.add_scaled(q, cb)
                if i not in ph_by_i:
                    inv = Fr(1, k**i * math.factorial(i))
                    ph_by_i[i] = [ph * inv for ph in ph_tab]
                acc = Vec(ring)
                for cls, vecsum in buckets.items():
                    acc.add_scaled(vecsum, ph_by_i[i][cls])
                out[ci].add_term((Fr(x0e), x2e), acc.reduce())
            x2e += Fr(1, k)
    return out


# ---------------------------------------------------------------------------
# monomial substitution, term by term
# ---------------------------------------------------------------------------


def substitute_monomial(s: FracSeries, var: str, coeff: Fr, exps: dict) -> FracSeries:
    """Substitute var -> coeff * prod(v^e) exactly (no truncation needed).

    var-exponents must be nonnegative integers unless coeff == 1 (a general
    rational raised to a fractional power has no canonical value here).
    """
    if var not in s.vars:
        return s
    coeff = Fr(coeff)
    i = s.vars.index(var)
    rest = s.vars[:i] + s.vars[i + 1 :]
    allvars = tuple(sorted(set(rest) | set(exps)))
    idx = [rest.index(v) if v in rest else None for v in allvars]
    # over den = s.den * m, a var-numerator d lands d * exps[v] * m on v
    m = math.lcm(*(Fr(e).denominator for e in exps.values()))
    spread = [int(Fr(exps.get(v, 0)) * m) for v in allvars]
    out = FracSeries._of(s.ring, allvars, {}, s.den * m)
    for old, c in s.terms.items():
        d = old[i]
        power, r = divmod(d, s.den)
        if r or d < 0:
            if coeff != 1:
                raise CompositionDomainError(f"cannot raise coefficient {coeff} to power {Fr(d, s.den)}")
            scaled = c
        else:
            scaled = c * coeff ** power
        old_rest = old[:i] + old[i + 1 :]
        out.add_at(tuple((0 if j is None else old_rest[j] * m) + d * t for j, t in zip(idx, spread)),
                   scaled)
    return out


# ---------------------------------------------------------------------------
# the dressing, one weight component at a time, without the per-key cache
# ---------------------------------------------------------------------------


def dress_by_components(u: Vec, *, invert: bool = False, a_override=None) -> VecSeries:
    """D(x) u (or its inverse) as a series in x, with no cache: each
    weight-p component of u is flowed as a whole by the exponential series
    sum_n (sign * sum_j a_j L(j))^n / n!, and its weight-q part lands at
    x^(q/k - p) times k^-p (forward) or at x^(q - p/k) times k^q (inverse)."""
    ring = u.ring
    k = ring.k
    sign = -1 if invert else 1
    out = VecSeries(ring, ("x",))
    for p2, comp in u.weight_components():
        a = list(a_table(k, max(p2 // 2, 2)))
        if a_override is not None:
            a[: len(a_override)] = map(Fr, a_override)
        flowed = power = comp
        for n in range(1, p2 // 2 + 1):  # each step lowers the weight by at least 1
            step = Vec(ring)
            for j in range(1, power.max_twice_weight() // 2 + 1):
                step.add_scaled(virasoro_mode(j, power), sign * a[j - 1] / n)
            power = step
            flowed = flowed + power
        for q2, part in flowed.weight_components():
            p, q = Fr(p2, 2), Fr(q2, 2)
            if invert:
                out.add_term((q - p / k,), part * ring.sqrt_k_pow(q2))
            else:
                out.add_term((q / k - p,), part * ring.sqrt_k_pow(-p2))
    return out


# ---------------------------------------------------------------------------
# the conjugation formula's right side, one (bucket, power) pair at a time
# ---------------------------------------------------------------------------


def root_diff_pow(ring, e: int, z0_hi: int) -> FracSeries:
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
            out = (out * base).truncate_window(Window.below("z0", z0_hi))
        return out
    lead_inv = FracSeries.monomial(ring, k, {"z": 1 - Fr(1, k), "z0": -1})
    unit = base * lead_inv  # 1 + (positive z0-order tail)
    powed = unit_pow(unit, Fr(e), "z0", z0_hi - e)
    lead_pow = FracSeries.monomial(ring, Fr(k) ** (-e), {"z": (Fr(1, k) - 1) * e, "z0": Fr(e)})
    return (powed * lead_pow).truncate_window(Window.below("z0", z0_hi))


def conjugation_rhs_by_powers(u: Vec, v: Vec, z0_hi: int, a_override=None) -> VecSeries:
    """sum_E (z+z0)^E Y(u_E, (z+z0)^{1/k} - z^{1/k}) v through z0^z0_hi: each
    mode (u_E)_{-e-1} v times its prefactor and its root-difference power."""
    ring = u.ring
    rhs = VecSeries(ring, ("z", "z0"))
    for E, uJ in delta_apply(u, a_override=a_override).by_exponent():
        e_lo = min_exponent(uJ, v)
        pref = binom_expand(ring, (1, {"z": 1}), (1, {"z0": 1}), E, z0_hi - min(e_lo, 0))
        for e in range(e_lo, z0_hi + 1):
            vec = vertex_mode(uJ, -e - 1, v)
            if not vec.is_zero():
                fs = (pref * root_diff_pow(ring, e, z0_hi)).truncate_window(Window.below("z0", z0_hi))
                rhs = rhs + VecSeries(ring, ("z", "z0"), {(0, 0): vec}).mul_series(fs)
    return rhs


# ---------------------------------------------------------------------------
# series products, independent of FracSeries.mul
# ---------------------------------------------------------------------------


def product_all_pairs(a: FracSeries, b: FracSeries) -> FracSeries:
    """a * b from every term pair, in a's class: a vector series times a
    scalar one goes through `Vec.__mul__`."""
    allvars, den, ta, tb = a._aligned(b)
    acc: dict = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            key = tuple(map(add, e1, e2))
            acc[key] = c1 * c2 if key not in acc else acc[key] + c1 * c2
    return a._of(a.ring, allvars, _dropping_zeros(acc), den)


def cut_by_window(s: FracSeries, window: Window) -> FracSeries:
    """The terms of s inside the window, read one Fraction exponent at a
    time: a variable s does not carry has exponent 0, and None leaves a side
    open."""
    def inside(key):
        exps = dict(zip(s.vars, (Fr(n, s.den) for n in key)))
        return all((lo is None or lo <= exps.get(v, 0)) and (hi is None or exps.get(v, 0) <= hi)
                   for v, (lo, hi) in window.bounds)

    return s._of(s.ring, s.vars, {key: c for key, c in s.terms.items() if inside(key)}, s.den)


def mul_series_grouped(vs: VecSeries, s: FracSeries, box: Window | None = None) -> VecSeries:
    """The vector-by-scalar product by a grouped pairing of its own: only the
    pairs inside the box, the vector terms grouped by the box's narrowest
    bounded variable, and a unit monomial on the scalar side only moving
    keys."""
    allvars, den, a, b = vs._aligned(s)
    limits = box.limits(allvars, den) if box is not None else []
    if limits is None:
        return vs._of(vs.ring, allvars, {}, den)
    if len(b) == 1 and next(iter(b.values())) == vs.ring.one:
        (sint,) = b
        moved = ((tuple(map(add, vint, sint)), vec) for vint, vec in a.items())
        terms = {key: vec for key, vec in moved if all(lo <= key[i] <= hi for i, lo, hi in limits)}
        return vs._of(vs.ring, allvars, terms, den)
    ix, glo, ghi = min(limits, key=lambda lim: lim[2] - lim[1]) if limits else (None, 0, 0)
    groups: dict = {}
    for vint, vec in a.items():
        groups.setdefault(0 if ix is None else vint[ix], []).append((vint, vec))
    cols = sorted(groups)
    acc: dict = {}
    for sint, c in b.items():
        d = 0 if ix is None else sint[ix]
        # the box shifted by this scalar term: bounds on vint itself
        bounds = [(i, lo - sint[i], hi - sint[i]) for i, lo, hi in limits if i != ix]
        for col in cols[bisect_left(cols, glo - d):bisect_right(cols, ghi - d)]:
            for vint, vec in groups[col]:
                for i, lo, hi in bounds:
                    if not lo <= vint[i] <= hi:
                        break
                else:
                    key = tuple(map(add, vint, sint))
                    cur = acc.get(key)
                    if cur is None:
                        cur = acc[key] = Vec(vs.ring)
                    cur.add_scaled(vec, c)
    terms = {key: vec.reduce() for key, vec in acc.items() if not vec.is_zero()}
    return vs._of(vs.ring, allvars, terms, den)


# ---------------------------------------------------------------------------
# one flow step, generator by generator, independent of changeofvars.flow_step
# ---------------------------------------------------------------------------


def flow_step_by_generators(coeffs: dict, var: str, s: FracSeries, sign: int, box: Window) -> FracSeries:
    """(sign * sum_j coeffs[j] var^{j+1} d/dvar) s in the box, for series
    coeffs: one shifted derivative times coeffs[j] per generator, every term
    pair formed and cut afterwards."""
    ds = s.derivative(var)
    out = FracSeries.zero(s.ring, s.vars)
    for j, c in coeffs.items():
        out = out + cut_by_window(product_all_pairs(ds.shift_exponents(var, j + 1), c), box)
    return out * Fr(sign)


def superfield_step_by_generators(a, k: int, s: FracSeries, odd: bool, trunc_order) -> FracSeries:
    """sum_j a[j-1] z^{-j/k} L_j(x, phi) s with L_j(x, phi) = -(x^{j+1} d/dx
    + ((j+1)/2) x^j phi d/dphi), for odd s standing for phi s.  L_j raises
    every x-exponent by j, so it is fed s cut at trunc_order - j."""
    out = FracSeries.zero(s.ring, s.vars)
    for j, aj in enumerate(a, start=1):
        cur = s.truncate_window(Window.below("x", trunc_order - j))
        gen = cur.derivative("x").shift_exponents("x", j + 1)
        if odd:
            gen = gen + cur.shift_exponents("x", j) * Fr(j + 1, 2)
        out = out - gen.shift_exponents("z", Fr(-j, k)) * aj
    return out
