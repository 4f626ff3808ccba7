"""Series kernel tests: arithmetic, binomials, substitutions, delta identities."""

import math
from fractions import Fraction as Fr
from operator import add

import pytest
import sympy
from hypothesis import Phase, find, given, settings, strategies as st

from permtwist.exactnum import get_ring
from permtwist.fermion import Vec, VecSeries
from permtwist.fseries import (
    CompositionDomainError,
    FracSeries,
    Window,
    assert_equal_on_window,
    binom_expand,
    delta_identity_checks,
    delta_root_average_check,
    delta_root_swap_check,
    delta_three_term_check,
    delta_two_sided_check,
    exp_series,
    gbinom,
    invert_series,
    log_series,
    power_sum,
    unit_pow,
)
from oracles import cut_by_window, mul_series_grouped, product_all_pairs

R1 = get_ring(1)


def mono(ring, coeff, exps):
    return FracSeries.monomial(ring, coeff, exps)


def test_gbinom_matches_integer_binomial():
    for n in range(8):
        for j in range(10):
            want = math.comb(n, j) if j <= n else 0
            assert gbinom(Fr(n), j) == want


def test_gbinom_cache_is_bounded_and_exact():
    assert gbinom.cache_info().maxsize is not None
    for n in range(10):
        for j in range(12):
            first = gbinom(n, j)
            hits = gbinom.cache_info().hits
            assert gbinom(n, j) == first == math.comb(n, j)  # math.comb is 0 for j > n
            assert gbinom.cache_info().hits == hits + 1


def test_gbinom_half():
    # (1+u)^(1/2) coefficients
    assert [gbinom(Fr(1, 2), j) for j in range(4)] == [1, Fr(1, 2), Fr(-1, 8), Fr(1, 16)]


def test_mul_basic():
    x_half = mono(R1, 1, {"x": Fr(1, 2)})
    assert (x_half * x_half) == mono(R1, 1, {"x": 1})
    a = mono(R1, 1, {}) + mono(R1, 1, {"x": 1})
    b = mono(R1, 1, {}) - mono(R1, 1, {"x": 1})
    assert a * b == mono(R1, 1, {}) - mono(R1, 1, {"x": 2})


def test_binom_expand_exact_polynomial():
    # (x1 - x2)^2 terminates with no truncation loss
    s = binom_expand(R1, (1, {"x1": 1}), (-1, {"x2": 1}), 2, order=5)
    want = (
        mono(R1, 1, {"x1": 2})
        + mono(R1, -2, {"x1": 1, "x2": 1})
        + mono(R1, 1, {"x2": 2})
    )
    assert s == want


def test_binom_expand_half_power():
    s = binom_expand(R1, (1, {"u": 1}), (1, {}), Fr(1, 2), order=3)
    # (u + 1)^(1/2) = u^(1/2) + (1/2)u^(-1/2) - (1/8)u^(-3/2) + (1/16)u^(-5/2)
    assert s.coefficient({"u": Fr(1, 2)}) == R1.one
    assert s.coefficient({"u": Fr(-1, 2)}) == R1.rational(Fr(1, 2))
    assert s.coefficient({"u": Fr(-3, 2)}) == R1.rational(Fr(-1, 8))
    assert s.coefficient({"u": Fr(-5, 2)}) == R1.rational(Fr(1, 16))


def test_binom_expand_negative_third():
    # (x2 + x0)^(-1/3) through x0^2
    s = binom_expand(R1, (1, {"x2": 1}), (1, {"x0": 1}), Fr(-1, 3), order=2)
    assert s.coefficient({"x2": Fr(-1, 3)}) == R1.one
    assert s.coefficient({"x2": Fr(-4, 3), "x0": 1}) == R1.rational(Fr(-1, 3))
    assert s.coefficient({"x2": Fr(-7, 3), "x0": 2}) == R1.rational(Fr(2, 9))


def test_residue_and_coefficient():
    s = mono(R1, 1, {"x": -1}) + mono(R1, 2, {}) + mono(R1, 1, {"x": 1, "y": 2})
    assert s.coefficient_in("x", -1) == FracSeries.one(R1)
    assert s.coefficient_in("y", -1).is_zero()
    assert s.coefficient({"x": 1, "y": 2}) == R1.one


def test_derivative_product_rule():
    a = mono(R1, 1, {"x": 2}) + mono(R1, 3, {"x": -1})
    b = mono(R1, 1, {"x": Fr(1, 2)})
    lhs = (a * b).derivative("x")
    rhs = a.derivative("x") * b + a * b.derivative("x")
    assert lhs == rhs


def test_scale_exponents_principal_branch():
    s = mono(R1, 1, {"x": 2})
    assert s.scale_exponents("x", Fr(1, 3)) == mono(R1, 1, {"x": Fr(2, 3)})
    # (x^k)^(1/k) = x: scaling by k then 1/k is the identity
    assert s.scale_exponents("x", 3).scale_exponents("x", Fr(1, 3)) == s
    # x -> x^0 would merge every power into one key
    with pytest.raises(CompositionDomainError):
        s.scale_exponents("x", 0)


def test_eta_twist():
    ring = get_ring(3)
    s = FracSeries.monomial(ring, 1, {"x": Fr(1, 3)})
    t = s.eta_twist("x", 1)
    assert t.coefficient({"x": Fr(1, 3)}) == ring.eta(1)
    # k applications return the original series
    back = s
    for _ in range(3):
        back = back.eta_twist("x", 1)
    assert back == s
    # integer exponents are fixed by... eta^(3m) = 1
    s2 = FracSeries.monomial(ring, 1, {"x": 2})
    assert s2.eta_twist("x", 1) == s2


def test_invert_series_roundtrip():
    s = mono(R1, 2, {"x": -1}) + mono(R1, 1, {}) + mono(R1, 3, {"x": 2})
    inv = invert_series(s, "x", 8)
    cut = Window.below("x", 6)
    assert (s * inv).truncate_window(cut) == FracSeries.one(R1).with_vars(("x",)).truncate_window(cut)


def test_absent_truncation_variable_has_exponent_zero():
    # a monomial that does not mention x inverts exactly at any order
    assert invert_series(mono(R1, 2, {"z": 1}), "x", 3) == mono(R1, Fr(1, 2), {"z": -1})
    # a series that does not mention x has no tail of positive x-order
    with pytest.raises(CompositionDomainError, match="x"):
        unit_pow(FracSeries.one(R1) + mono(R1, 1, {"z": 1}), Fr(1, 2), "x", 3)
    # z + z^2 has two leading x-terms, both at x^0
    repl = mono(R1, 1, {"z": 1}) + mono(R1, 1, {"z": 2})
    with pytest.raises(CompositionDomainError, match="x"):
        mono(R1, 1, {"y": -1}).substitute("y", repl, "x", 4)


def test_unit_pow_log_exp():
    s = FracSeries.one(R1) + mono(R1, 1, {"x": 1})
    sq = unit_pow(s, Fr(1, 2), "x", 5)
    cut = Window.below("x", 5)
    assert (sq * sq).truncate_window(cut) == s.with_vars(("x",)).truncate_window(cut)
    lg = log_series(s, "x", 6)
    assert lg.coefficient({"x": 1}) == R1.one
    assert lg.coefficient({"x": 2}) == R1.rational(Fr(-1, 2))
    cut = Window.below("x", 6)
    assert exp_series(lg, "x", 6).truncate_window(cut) == s.with_vars(("x",)).truncate_window(cut)


def test_substitute_polynomial():
    s = mono(R1, 1, {"y": 2}) + mono(R1, 1, {"y": -1})
    repl = mono(R1, 1, {"x": 1}) + mono(R1, 1, {"x": 2})  # x + x^2
    out = s.substitute("y", repl, "x", 4)
    # y^2 -> x^2 + 2x^3 + x^4; y^-1 -> x^-1 (1+x)^-1 = x^-1 - 1 + x - x^2 ...
    assert out.coefficient({"x": 2}) == R1.rational(1 - 1)  # x^2 cancels: 1 + (-1)
    assert out.coefficient({"x": -1}) == R1.one
    assert out.coefficient({"x": 3}) == R1.rational(2 + 1)


def test_substitute_negative_powers_hold_the_whole_window():
    # 1/(x + x^2) has x-order -1, so its powers need terms above x^4 before
    # the last truncation: closed forms x^-n (1+x)^-n through x^4
    repl = mono(R1, 1, {"x": 1}) + mono(R1, 1, {"x": 2})
    inv1 = mono(R1, 1, {"y": -1}).substitute("y", repl, "x", 4)
    inv2 = mono(R1, 1, {"y": -2}).substitute("y", repl, "x", 4)
    for t in range(-1, 5):
        assert inv1.coefficient({"x": t}) == R1.rational((-1) ** (t + 1))
    for t in range(-2, 5):
        assert inv2.coefficient({"x": t}) == R1.rational((-1) ** t * (t + 3))
    assert inv1.exponents_of("x") == set(range(-1, 5))
    assert inv2.exponents_of("x") == set(range(-2, 5))


def test_substitute_chains_powers_like_the_per_power_loop():
    ring = get_ring(3)
    s = FracSeries.zero(ring)
    for e in range(-3, 4):
        s = s + mono(ring, e + 5, {"y": e, "z": Fr(e, 3)})
    s = s + mono(ring, ring.eta(1), {"y": 2, "z": Fr(1, 3)})
    repl = mono(ring, 1, {"x": 1}) + mono(ring, 2, {"x": 2}) + mono(ring, ring.eta(2), {"x": 3})
    order = 6
    got = s.substitute("y", repl, "x", order)
    # every power built from one by |e| truncated products, as written out;
    # 1/repl has x-order -1, so the inverse and its powers run 3 orders deeper
    deep = order + 3
    inv = invert_series(repl, "x", deep)
    want = FracSeries.zero(ring)
    for e in range(-3, 4):
        p = FracSeries.one(ring)
        for _ in range(abs(e)):
            p = (p * (repl if e > 0 else inv)).truncate_window(Window.below("x", order if e > 0 else deep))
        want = want + s.coefficient_in("y", e) * p
    assert not got.is_zero()
    assert got == want.truncate_window(Window.below("x", order))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_substitute_keeps_vector_series_and_is_linear(k):
    # a VecSeries substitutes like a scalar series: per basis key, the result
    # is the scalar substitute of that key's coefficient series
    ring = get_ring(k)
    keys = ((), (-1,), (-2, -1))
    per_key = {key: FracSeries.zero(ring) for key in keys}
    vs = VecSeries(ring, ("y", "z"))
    for e in range(-2, 3):
        for j, key in enumerate(keys):
            c = ring.rational(Fr(e + 3 * j + 1, j + 2)) + ring.eta(e + j) * ring.sqrt_k()
            per_key[key] = per_key[key] + mono(ring, c, {"y": e, "z": Fr(j, k)})
            vs.add_term((Fr(e), Fr(j, k)), Vec.basis(ring, key, c))
    root = binom_expand(ring, (1, {"z": 1}), (1, {"z0": 1}), Fr(1, k), 8) - mono(ring, 1, {"z": Fr(1, k)})
    got = vs.substitute("y", root, "z0", 4)
    assert type(got) is VecSeries
    assert min(got.exponents_of("z0")) == -2
    for key, scalar in per_key.items():
        column = {m: vec.terms[key] for m, vec in got.terms.items() if key in vec.terms}
        assert FracSeries._of(ring, got.vars, column, got.den) == scalar.substitute("y", root, "z0", 4), key


def test_substitute_rejects_fractional_powers():
    s = mono(R1, 1, {"y": Fr(1, 2)})
    with pytest.raises(CompositionDomainError):
        s.substitute("y", mono(R1, 1, {"x": 1}), "x", 4)


def test_power_sum_raises_when_step_never_reaches_zero():
    x = mono(R1, 1, {"x": 1})
    with pytest.raises(RuntimeError):
        power_sum(x, lambda acc: acc * 2, lambda j: 1, 5)
    # a step that reaches zero at the limit is a finished sum
    got = power_sum(x, lambda acc: (acc * x).truncate_window(Window.below("x", 3)), lambda j: j + 1, 3)
    assert got == x + x * x * 2 + x * x * x * 3


# -- an independent oracle for the power sums: sympy's series expansion -------

_X = sympy.symbols("x")


def _sympy_coefficient(expr, t: int) -> Fr:
    c = sympy.Rational(sympy.expand(expr).coeff(_X, t))
    return Fr(int(c.p), int(c.q))


def _assert_matches_sympy(got: FracSeries, expr, lo: int, hi: int):
    """got agrees with sympy's expansion of expr at x = 0 on x^lo..x^hi."""
    want = sympy.series(expr, _X, 0, hi + 1).removeO()
    for t in range(lo, hi + 1):
        assert got.coefficient({"x": t}) == R1.rational(_sympy_coefficient(want, t)), (expr, t)


_TAIL = st.dictionaries(
    st.integers(1, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda q: q != 0),
    min_size=1, max_size=3,
)


@settings(max_examples=15, deadline=None)
@given(_TAIL, st.integers(2, 5), st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(
    lambda q: q != 0), st.integers(-1, 1))
def test_power_sums_match_sympy_series(tail, order, lead, shift):
    r = FracSeries.zero(R1)
    for e, q in tail.items():
        r = r + mono(R1, q, {"x": e})
    r_sym = sum(sympy.Rational(q.numerator, q.denominator) * _X**e for e, q in tail.items())
    one = FracSeries.one(R1)
    _assert_matches_sympy(exp_series(r, "x", order), sympy.exp(r_sym), 0, order)
    _assert_matches_sympy(log_series(one + r, "x", order), sympy.log(1 + r_sym), 0, order)
    for e in (Fr(1, 2), Fr(-1, 3), Fr(2)):
        _assert_matches_sympy(unit_pow(one + r, e, "x", order),
                              (1 + r_sym) ** sympy.Rational(e.numerator, e.denominator), 0, order)
    # 1/s for s = x^shift (lead + r): the inverse holds through x^(order - shift)
    s = (r + mono(R1, lead, {})).shift_exponents("x", shift)
    lead_sym = sympy.Rational(lead.numerator, lead.denominator)
    _assert_matches_sympy(invert_series(s, "x", order),
                          _X ** (-shift) / (lead_sym + r_sym), -shift, order - shift)


def test_window_and_report():
    w = Window.of(x=(-2, 2))
    a = mono(R1, 1, {"x": 1})
    b = mono(R1, 1, {"x": 1}) + mono(R1, 1, {"x": 5})
    rep = assert_equal_on_window(a, b, w, identity="t")
    assert rep.passed  # x^5 is outside the window
    rep2 = assert_equal_on_window(a, b, Window.of(x=(-6, 6)), identity="t")
    assert not rep2.passed
    assert "x^5" in rep2.first_mismatch


# -- canonical form against plain dict arithmetic --------------------------------

XY = ("x", "y")
_EXPONENT = st.builds(Fr, st.integers(-6, 6), st.sampled_from((1, 2, 3, 6)))
# q * s^eps * eta^m pieces; at k = 5, where s is an eta sum, sums of them can
# cancel s against eta terms
_PIECES = st.lists(
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=4), st.integers(0, 1), st.integers(0, 4)),
    min_size=1,
    max_size=2,
)
# ((x, y) exponents, coefficient pieces) per term, plus a layout:
# 0 declares vars (x, y), 1 declares them as (y, x), 2 declares x alone
_RAW = st.tuples(st.lists(st.tuples(st.tuples(_EXPONENT, _EXPONENT), _PIECES), max_size=5),
                 st.integers(0, 2))


def _scalar(ring, pieces):
    out = ring.zero
    for q, eps, m in pieces:
        out = out + ring.rational(q) * (ring.sqrt_k() if eps else ring.one) * ring.eta(m)
    return out


def _plain_and_series(ring, raw, vec=False):
    """A plain {(ex, ey): coefficient} dict and the series built from it.

    With vec, each coefficient c becomes the vector c psi(-1/2)|0> +
    c^2 psi(-3/2)psi(-1/2)|0> of a VecSeries.
    """
    terms, layout = raw
    plain = {}
    for (ex, ey), pieces in terms:
        key = (ex, Fr(0) if layout == 2 else ey)
        plain[key] = plain.get(key, ring.zero) + _scalar(ring, pieces)
    if vec:
        plain = {key: Vec(ring, {(-1,): c, (-2, -1): c * c}) for key, c in plain.items()}
    cls = VecSeries if vec else FracSeries
    if layout == 0:
        return plain, cls(ring, XY, plain)
    if layout == 1:
        return plain, cls(ring, ("y", "x"), {(ey, ex): c for (ex, ey), c in plain.items()})
    return plain, cls(ring, ("x",), {(ex,): c for (ex, _ey), c in plain.items()})


def _plus(out, key, c):
    out[key] = c if key not in out else out[key] + c


def _plain_sum(a, b, sign=1):
    out = dict(a)
    for key, c in b.items():
        _plus(out, key, c if sign > 0 else -c)
    return out


def _plain_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            _plus(out, tuple(map(add, e1, e2)), c1 * c2)
    return out


def _on_x(plain, f):
    """Apply f to the x-exponent of every key; f returns None to drop a term."""
    out = {}
    for (ex, ey), c in plain.items():
        hit = f(ex, c)
        if hit is not None:
            out[(hit[0], ey)] = hit[1]
    return out


def _assert_canonical(s, cls):
    assert type(s) is cls
    assert s.vars == tuple(sorted(s.vars))
    assert type(s.den) is int and s.den > 0
    for key, c in s.terms.items():
        assert type(key) is tuple and len(key) == len(s.vars) and all(type(n) is int for n in key)
        assert not c.is_zero()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((1, 3, 5)), _RAW, _RAW, st.booleans())
def test_results_are_canonical_and_match_plain_dict_arithmetic(k, raw_a, raw_b, vec):
    ring = get_ring(k)
    pa, a = _plain_and_series(ring, raw_a, vec)
    pb, b = _plain_and_series(ring, raw_b, vec)
    if vec:  # a vector series is multiplied by a scalar series
        ps, s = _plain_and_series(ring, raw_b)
        product = (a.mul_series(s), _plain_product(pa, ps))
    else:
        product = (a * b, _plain_product(pa, pb))
    cases = [
        product,
        (a + b, _plain_sum(pa, pb)),
        (a - b, _plain_sum(pa, pb, sign=-1)),
        (a.derivative("x"), _on_x(pa, lambda e, c: (e - 1, c * e) if e != 0 else None)),
        (a.truncate_window(Window.below("x", Fr(1, 2))), _on_x(pa, lambda e, c: (e, c) if e <= Fr(1, 2) else None)),
        (a.shift_exponents("x", Fr(-5, 6)), _on_x(pa, lambda e, c: (e - Fr(5, 6), c))),
        (a.scale_exponents("x", Fr(-3, 2)), _on_x(pa, lambda e, c: (e * Fr(-3, 2), c))),
    ]
    cls = VecSeries if vec else FracSeries
    for got, plain in cases:
        _assert_canonical(got, cls)
        assert got == cls(ring, XY, plain)


# -- the one box-aware product against every term pair, cut afterwards -----------

# an operand: a random series, or a monomial of coefficient one
_OPERAND = st.one_of(_RAW, st.tuples(st.tuples(_EXPONENT, _EXPONENT), st.integers(0, 2)).map(
    lambda t: ([(t[0], [(Fr(1), 0, 0)])], t[1])))


def _boxes_near(raw_a, raw_b):
    """Boxes over x, y and z, each side open or where product terms land:
    on x and y a sum of the operands' exponents, on z, which no operand
    carries, near 0."""
    pairs = [(ea, eb) for ea, _ in raw_a[0] for eb, _ in raw_b[0]]
    sides = {v: sorted({ea[i] + eb[i] for ea, eb in pairs} | {Fr(0)}) for i, v in enumerate("xy")}
    sides["z"] = [Fr(-1), Fr(0), Fr(1, 2)]
    bounds = {
        v: st.tuples(*[st.one_of(st.none(), st.sampled_from(vals))] * 2).map(
            lambda b: b if None in b or b[0] <= b[1] else b[::-1])
        for v, vals in sides.items()
    }
    return st.fixed_dictionaries({}, optional=bounds).map(lambda b: Window.of(**b))


_PRODUCT_CASE = st.tuples(_OPERAND, _OPERAND).flatmap(
    lambda ab: st.tuples(st.integers(1, 5), st.just(ab[0]), st.just(ab[1]), _boxes_near(*ab), st.booleans()))


def _boxed_product_and_oracle(k, raw_a, raw_b, box, vec):
    """a.mul(b, box) and the all-pairs product cut by the box, for a scalar
    or vector a and a scalar b."""
    ring = get_ring(k)
    _pa, a = _plain_and_series(ring, raw_a, vec)
    _pb, b = _plain_and_series(ring, raw_b)
    return a, b, a.mul(b, box), cut_by_window(product_all_pairs(a, b), box)


def _product_misses_oracle(case) -> bool:
    _a, _b, got, want = _boxed_product_and_oracle(*case)
    return got != want


@settings(max_examples=150, deadline=None)
@given(_PRODUCT_CASE)
def test_boxed_product_is_the_all_pairs_product_cut_by_the_box(case):
    a, b, got, want = _boxed_product_and_oracle(*case)
    _assert_canonical(got, type(a))
    assert got == want
    box = case[3]
    if isinstance(a, VecSeries):  # and the grouped vector pairing agrees
        assert got == mul_series_grouped(a, b, box)


def test_a_box_one_step_narrow_in_the_grouping_variable_fails_the_oracle(monkeypatch):
    limits = Window.limits

    def narrowed(self, vars, den):
        out = limits(self, vars, den)
        if out:  # the product groups by the first bound of least width
            j = min(range(len(out)), key=lambda j: out[j][2] - out[j][1])
            i, lo, hi = out[j]
            out[j] = (i, lo, hi - 1)
        return out

    monkeypatch.setattr(Window, "limits", narrowed)
    # the oracle reads the box exponent by exponent, so only the product moves
    find(_PRODUCT_CASE, _product_misses_oracle,
         settings=settings(max_examples=500, database=None, phases=[Phase.generate]))


def test_a_bound_on_an_absent_variable_reads_its_exponent_as_zero():
    ring = get_ring(3)
    x1 = FracSeries(ring, ("x",), {(1,): 1})
    zero = FracSeries.zero(ring, ("x",))
    # both sides are zero on y in [1, 2]; on y in [-1, 2] they differ at x^1
    assert assert_equal_on_window(x1, zero, Window.of(x=(0, 3), y=(1, 2)), "t").status == "pass"
    assert assert_equal_on_window(x1, zero, Window.of(x=(0, 3), y=(-1, 2)), "t").first_mismatch == "at x^1: 1 != 0"
    assert x1.truncate_window(Window.below("y", -1)).is_zero()
    assert x1.truncate_window(Window.below("y", 0)) == x1
    assert x1.truncate_window(Window.of(y=(Fr(1, 2), None))).is_zero()
    assert x1.mul(x1, Window.of(y=(1, None))).is_zero()
    assert x1.mul(x1, Window.of(x=(None, 2), y=(None, 0))) == x1 * x1
    vs = VecSeries(ring, ("x",), {(1,): Vec.basis(ring, (-1,))})
    assert vs.truncate_window(Window.of(z=(-2, -1))).is_zero()
    assert vs.mul_series(x1, Window.of(z=(-2, -1))).is_zero()
    assert vs.mul_series(x1, Window.of(z=(0, 0))) == vs.mul_series(x1)


def test_sqrt5_is_an_eta_sum_and_scale_keeps_every_term():
    # the Gauss sum at k = 5: sqrt 5 = eta + eta^4 - eta^2 - eta^3, three slots
    ring = get_ring(5)
    s, g = ring.sqrt_k(), ring.eta(1) + ring.eta(4) - ring.eta(2) - ring.eta(3)
    assert s == g and s == -ring.one - ring.eta(2) * 2 - ring.eta(3) * 2
    assert sum(1 for n in s.num if n) == 3
    a = mono(ring, s, {"x": Fr(1, 5)}) + mono(ring, 1, {"x": 2})
    assert a.scale(s - g).is_zero() and not a.scale(s - g).terms
    assert a.scale(s + g) == mono(ring, 10, {"x": Fr(1, 5)}) + mono(ring, s * 2, {"x": 2})


def test_add_term_off_the_lattice_refines_den_and_keeps_earlier_terms():
    s = FracSeries(R1, ("x", "y"), {(1, 2): 3, (Fr(-1, 2), 0): 5})
    assert s.den == 2
    s.add_term((Fr(1, 3), Fr(-2, 3)), R1.rational(7))
    assert s.den == 6
    assert s.coefficient({"x": 1, "y": 2}) == R1.rational(3)
    assert s.coefficient({"x": Fr(-1, 2)}) == R1.rational(5)
    assert s.coefficient({"x": Fr(1, 3), "y": Fr(-2, 3)}) == R1.rational(7)
    assert s == FracSeries(R1, ("x", "y"), {(1, 2): 3, (Fr(-1, 2), 0): 5, (Fr(1, 3), Fr(-2, 3)): 7})
    # on the lattice the den stays, and a zero sum drops the term
    s.add_term((1, 2), R1.rational(-3))
    assert s.den == 6 and s.coefficient({"x": 1, "y": 2}).is_zero() and len(s.terms) == 2
    _assert_canonical(s, FracSeries)


def test_window_limits_at_negative_fractional_bounds():
    w = Window.of(x=(Fr(-5, 3), Fr(7, 2)), z=(Fr(-1, 4), Fr(-1, 5)))
    # over den 6: ceil(-10) = -10 and floor(21) = 21; z: ceil(-3/2), floor(-6/5)
    assert w.limits(("x", "y", "z"), 6) == [(0, -10, 21), (2, -1, -2)]
    # an x-only series has z^0 everywhere, outside z's bound: the box is empty
    assert w.limits(("x",), 4) is None
    wx = Window.of(x=(Fr(-5, 3), Fr(7, 2)))
    assert wx.limits(("x",), 4) == [(0, -6, 14)]  # ceil(-20/3), floor(14)
    # the limits keep exactly the keys of the window
    s = FracSeries(R1, ("x",), {(Fr(n, 6),): 1 for n in range(-14, 26)})
    kept = {e for e, _c in s.truncate_window(Window.below("x", Fr(7, 2))).by_exponent() if e >= Fr(-5, 3)}
    assert kept == {Fr(n, 6) for n in range(-10, 22)}
    vs = VecSeries(R1, ("x",), {(Fr(n, 6),): Vec.basis(R1, ()) for n in range(-14, 26)})
    assert {e for e, _v in vs.truncate_window(wx).by_exponent()} == kept
    assert vs.truncate_window(w).is_zero()


def test_exponents_read_back_as_fractions():
    s = FracSeries(R1, ("x", "y"), {(Fr(1, 2), 2): 1, (Fr(-4, 3), 0): 2})
    assert s.exponents_of("x") == {Fr(1, 2), Fr(-4, 3)}
    assert all(type(e) is Fr for e in s.exponents_of("x") | s.exponents_of("y"))
    one_var = s.coefficient_in("y", 0)
    assert list(one_var.by_exponent()) == [(Fr(-4, 3), R1.rational(2))]
    assert all(type(e) is Fr for e, _c in mono(R1, 1, {"x": 3}).by_exponent())


# -- the four delta identities ------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("r", [Fr(0), Fr(1, 3), Fr(1, 2)])
def test_delta_two_sided(k, r):
    rep = delta_two_sided_check(get_ring(k), r, N=4)
    assert rep.passed, rep.first_mismatch


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_delta_root_average(k):
    rep = delta_root_average_check(get_ring(k), N=3)
    assert rep.passed, rep.first_mismatch


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_delta_root_swap(k):
    rep = delta_root_swap_check(get_ring(k), N=3)
    assert rep.passed, rep.first_mismatch


@pytest.mark.parametrize("k", [1, 2, 3])
def test_delta_three_term(k):
    rep = delta_three_term_check(get_ring(k), N=4)
    assert rep.passed, rep.first_mismatch


def test_delta_checks_bundle():
    reports = delta_identity_checks(get_ring(2), r_values=(Fr(0), Fr(1, 2)), N=3)
    assert all(r.passed for r in reports)
    assert len(reports) == 5


def test_delta_check_catches_injected_error():
    # sanity: the comparison is not vacuous — a wrong r on one side must fail
    ring = get_ring(1)
    from permtwist.fseries import delta_truncated

    lhs = delta_truncated(
        ring, (1, {"x1": 1}), (-1, {"x0": 1}), (1, {"x2": 1}),
        shift=Fr(1, 2), n_range=(-6, 6), tail_order=3, prefix=(1, {"x2": -1}),
    )
    rhs = delta_truncated(
        ring, (1, {"x2": 1}), (1, {"x0": 1}), (1, {"x1": 1}),
        shift=Fr(-1, 3), n_range=(-6, 6), tail_order=3, prefix=(1, {"x1": -1}),
    )
    rep = assert_equal_on_window(lhs, rhs, Window.of(x0=(0, 3), x1=(-3, 3), x2=(-3, 3)), identity="neg")
    assert not rep.passed
