"""Field-level sanity for the exact scalar field Q(eta, sqrt k)."""

import re
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from sympy.polys.polyerrors import IsomorphismFailed
from hypothesis import given, settings, strategies as st

from permtwist.exactnum import (
    RingMismatchError,
    Scalar,
    cyclotomic_poly,
    ScalarRing,
    get_ring,
)


# the grammar of Scalar.render, read back: only these tests parse scalars
_TERM_RE = re.compile(
    r"^(?P<coeff>-?\d+(?:/\d+)?)?(?:(?<=\d)\*)?(?P<s>s)?(?:\*?t(?:\^(?P<m>\d+))?)?$"
)


def parse_scalar(ring: ScalarRing, text: str) -> Scalar:
    """Parse the grammar emitted by Scalar.render."""
    text = text.strip()
    if text == "0":
        return ring.zero
    # split on top-level ' + ' / ' - ' (no parentheses in the grammar)
    out = ring.zero
    for signed in re.finditer(r"([+-]?)\s*([^+\-\s][^+\-]*)", text.replace(" - ", " + -")):
        neg = signed.group(1) == "-"
        chunk = signed.group(2).strip()
        if chunk.startswith("-"):
            neg = not neg
            chunk = chunk[1:].strip()
        m = _TERM_RE.match(chunk)
        if not m or not chunk:
            raise ValueError(f"cannot parse scalar term {chunk!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if neg:
            coeff = -coeff
        term = ring.rational(coeff)
        if m.group("s"):
            term = term * ring.sqrt_k()
        if "t" in chunk:
            power = int(m.group("m")) if m.group("m") else 1
            term = term * ring.eta(power)
        out = out + term
    return out


def test_cyclotomic_small_cases():
    # classic table, lowest degree first
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("k", range(1, 9))
def test_sqrt_relation(k):
    ring = get_ring(k)
    s = ring.sqrt_k()
    assert s * s == ring.rational(k)
    assert (s * s).is_rational() and (s * s).as_rational() == k
    # sqrt k is rational exactly for square k
    assert s.is_rational() == (k in (1, 4))


@pytest.mark.parametrize("k", range(1, 9))
def test_eta_order(k):
    ring = get_ring(k)
    t = ring.eta()
    prod = ring.one
    for _ in range(k):
        prod = prod * t
    assert prod == ring.one
    assert t * ring.eta(k - 1) == ring.one


def test_phi3_relation():
    ring = get_ring(3)
    t = ring.eta()
    assert ring.one + t + t * t == ring.zero


@pytest.mark.parametrize("k", range(1, 7))
def test_eta_projection_identity(k):
    # (1/k) sum_i t^(i p) is 1 when k | p and 0 otherwise
    ring = get_ring(k)
    for p in range(0, 2 * k + 1):
        expected = ring.one if p % k == 0 else ring.zero
        average = ring.zero
        for i in range(k):
            average = average + ring.eta(i * p)
        assert average * Fraction(1, k) == expected, (k, p)


def test_invert_rational_and_monomials():
    ring = get_ring(3)
    two = ring.rational(2)
    assert two.invert() == ring.rational(Fraction(1, 2))
    s = ring.sqrt_k()
    assert s.invert() * s == ring.one
    assert s.invert() == s * Fraction(1, 3)
    t = ring.eta()
    assert (t * t).invert() * (t * t) == ring.one


def test_invert_hidden_monomial():
    # 1 + t is -t^2 for k=3: a monomial unit whose reduced form looks like a sum
    ring = get_ring(3)
    u = ring.one + ring.eta()
    assert u.invert() * u == ring.one


def test_invert_rejects_non_units():
    # in a field zero is the only non-unit
    ring = get_ring(5)
    u = ring.one + ring.eta()  # a unit of Z[eta], but not a monomial
    assert u.invert() * u == ring.one
    assert u.invert() == -(ring.eta(1) + ring.eta(3))
    with pytest.raises(ZeroDivisionError):
        ring.zero.invert()


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        get_ring(2).one + get_ring(3).one


def test_sqrt_k_pow_negative():
    ring = get_ring(3)
    assert ring.sqrt_k_pow(-1) * ring.sqrt_k() == ring.one
    assert ring.sqrt_k_pow(-2) == ring.rational(Fraction(1, 3))
    assert ring.sqrt_k_pow(3) == ring.rational(3) * ring.sqrt_k()
    ring4 = get_ring(4)
    assert ring4.sqrt_k_pow(-3) == ring4.rational(Fraction(1, 8))


def _recipes(k, max_size=3):
    """Lists of ((eps, m), q), each standing for the sum of q * s^eps * t^m."""
    rats = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    keys = st.tuples(st.integers(0, 1), st.integers(0, k - 1))
    return st.lists(st.tuples(keys, rats), max_size=max_size)


def _build(ring, pairs):
    out = ring.zero
    for (eps, m), q in pairs:
        mono = ring.rational(q)
        if eps:
            mono = mono * ring.sqrt_k()
        mono = mono * ring.eta(m)
        out = out + mono
    return out


def _elements(k):
    return _recipes(k).map(lambda pairs: _build(get_ring(k), pairs))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: st.tuples(*[_elements(k)] * 3)))
def test_ring_axioms(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * a.ring.one == a
    assert a + (-a) == a.ring.zero


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: _elements(k)))
def test_render_parse_roundtrip(a):
    assert parse_scalar(a.ring, a.render()) == a


def test_render_fixed_forms():
    ring = get_ring(3)
    assert ring.zero.render() == "0"
    assert ring.sqrt_k().render() == "s"
    assert (-ring.sqrt_k()).render() == "-s"
    assert (ring.eta() * Fraction(1, 2)).render() == "1/2*t"
    x = ring.rational(2) + ring.sqrt_k() * ring.eta(2) * Fraction(-1, 3)
    assert parse_scalar(ring, x.render()) == x


def test_scalar_hash_consistency():
    ring = get_ring(3)
    a = ring.eta() + ring.one
    b = ring.one + ring.eta()
    assert a == b and hash(a) == hash(b)
    assert a == a * ring.one


# -- an independent oracle: sympy's number fields -----------------------------


_T, _S = sympy.symbols("t s")


@lru_cache(maxsize=32)
def _sympy_sqrt(k):
    """sqrt k as sympy's polynomial r(t) in t = exp(2 pi i/k), or None when
    sympy finds sqrt k outside Q(exp(2 pi i/k))."""
    try:
        alg = sympy.to_number_field(sympy.sqrt(k), sympy.exp(2 * sympy.pi * sympy.I / k))
    except IsomorphismFailed:
        return None
    return alg.as_poly(_T).as_expr()


def _sympy_of(pairs):
    return sum((sympy.Rational(q.numerator, q.denominator) * _S**eps * _T**m
                for (eps, m), q in pairs), sympy.Integer(0))


def _sympy_normal_form(k, expr):
    """{(eps, m): Fraction} of expr reduced by sympy, modulo Phi_k(t) and
    s - r(t) where sympy embeds sqrt k as r(t), else s^2 - k."""
    r = _sympy_sqrt(k)
    rel = _S**2 - k if r is None else _S - r
    # s before t: the leading terms s^(1 or 2) and t^deg are coprime, so the
    # two relations are a Groebner basis and the remainder is the normal form
    _, rem = sympy.reduced(sympy.expand(expr), [sympy.cyclotomic_poly(k, _T), rel], _S, _T)
    return {
        (eps, m): Fraction(int(c.p), int(c.q))
        for (m, eps), c in sympy.Poly(rem, _T, _S).as_dict().items() if c
    }


def _coefficients(x):
    deg = x.ring.degree
    return {divmod(slot, deg): Fraction(n, x.den) for slot, n in enumerate(x.num) if n}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(st.just(k), _recipes(k, 4), _recipes(k, 4))))
def test_kernel_matches_sympy_reduction(case):
    # sqrt k lies in Q(eta) at k = 1, 4, 5, 8 and has a slot of its own at k = 2, 3, 6, 7
    k, pa, pb = case
    ring = get_ring(k)
    a, b = _build(ring, pa), _build(ring, pb)
    fa, fb = _sympy_of(pa), _sympy_of(pb)
    assert _coefficients(a * b) == _sympy_normal_form(k, fa * fb)
    assert _coefficients(a + b) == _sympy_normal_form(k, fa + fb)
    assert _coefficients(a - b) == _sympy_normal_form(k, fa - fb)


@pytest.mark.parametrize("k", range(1, 17))
def test_sqrt_k_matches_sympy_embedding(k):
    ring = get_ring(k)
    phi = sympy.totient(k)
    r = _sympy_sqrt(k)
    s = ring.sqrt_k()
    assert s * s == k
    if r is None:
        assert len(ring.table) == 2 * phi
        assert _coefficients(s) == {(1, 0): 1}
    else:
        assert len(ring.table) == phi
        assert _coefficients(s) == _sympy_normal_form(k, r)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(st.just(k), _recipes(k, 5))))
def test_every_nonzero_element_inverts(case):
    k, pairs = case
    ring = get_ring(k)
    x = _build(ring, pairs)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.invert()
        return
    assert x * x.invert() == ring.one
    assert x.invert().invert() == x


# -- canonical form and the rational fast path ---------------------------------


def test_canonical_form_is_route_independent():
    ring = get_ring(3)
    one = ring.one
    routes = [ring.rational(Fraction(2, 4)), ring.rational(1) * Fraction(1, 2),
              (one + one) * Fraction(1, 4)]
    for x in routes:
        assert x == routes[0] and hash(x) == hash(routes[0])
        assert x.render() == "1/2"
        assert (x.num[0], x.den) == (1, 2)


@pytest.mark.parametrize("k", [3, 5])
def test_cancelling_eta_sum_is_zero_over_one(k):
    ring = get_ring(k)
    acc = ring.zero
    for i in range(k):
        acc = acc + ring.eta(i) * Fraction(2, 7)
    assert acc == ring.zero and acc.is_zero() and acc.den == 1
    assert hash(acc) == hash(ring.zero)


@pytest.mark.parametrize("k", [3, 5])
def test_rational_fast_path_matches_table_product(k):
    # y * q through the fast path against y * (q + eta) - y * eta, whose two
    # products have no rational operand and so go through the product table;
    # y = x * 4 has even numerators, so the denominator of q = -3/4 cancels
    ring = get_ring(k)
    eta = ring.eta()
    x = ring.eta(2) * Fraction(-7, 6) + ring.sqrt_k() * eta + ring.rational(Fraction(2, 3))
    for y in (x, x * 4):

        def via_table(q):
            return y * (ring.rational(q) + eta) - y * eta

        for q in (Fraction(-3, 4), Fraction(5, 1), Fraction(0)):
            assert ring.rational(q) * y == via_table(q)
            assert y * ring.rational(q) == via_table(q)
        assert y * 3 == via_table(3)
        assert y * Fraction(2, 9) == via_table(Fraction(2, 9))
        assert 2 - y == (ring.rational(2) + eta) - (y + eta)


def test_ring_caches_are_bounded():
    assert get_ring.cache_info().maxsize is not None
    assert cyclotomic_poly.cache_info().maxsize is not None
    # a rebuilt ring mixes with scalars of an evicted one: rings compare by k
    old_half = get_ring(3).rational(Fraction(1, 2))
    get_ring.cache_clear()
    assert get_ring(3) is not old_half.ring
    assert old_half + get_ring(3).rational(Fraction(1, 2)) == get_ring(3).one

