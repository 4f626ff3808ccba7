"""Slot-vector arithmetic of `fermion.Vec` against per-key Scalar arithmetic.

A Vec stores integer numerators per basis slot of the ring over one den;
the oracles in `oracles.py` redo every operation one `Scalar` at a time.
k runs over 1..8: sqrt k lies in Q(eta) at k = 1, 4, 5, 8 (an eta sum,
rational at the squares 1 and 4) and has slots of its own at k = 2, 3, 6, 7.
"""

from __future__ import annotations

import importlib
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import terms_add, terms_scale, terms_vertex_mode
from permtwist import exactnum
from permtwist.changeofvars import _a_solved
from permtwist.exactnum import RingMismatchError, get_ring
from permtwist.fermion import Vec, psi_vec, standard_basis, vertex_mode
from permtwist.fseries import FracSeries

ROOT = Path(__file__).resolve().parent.parent
KEYS = standard_basis(3)  # 14 states, vacuum through weight 3


def _scalars(k):
    """Sums of q * s^eps * t^m built by ring arithmetic, so always canonical."""
    ring = get_ring(k)
    rats = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    monos = st.tuples(st.integers(0, 1), st.integers(0, k - 1), rats)

    def build(parts):
        out = ring.zero
        for eps, m, q in parts:
            mono = ring.rational(q) * ring.eta(m)
            out = out + (mono * ring.sqrt_k() if eps else mono)
        return out

    return st.lists(monos, min_size=1, max_size=3).map(build)


def _terms(k, max_size=6):
    return st.dictionaries(st.sampled_from(KEYS), _scalars(k), max_size=max_size).map(
        lambda d: {key: c for key, c in d.items() if not c.is_zero()})


def _case(k):
    rats = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    return st.tuples(st.just(k), _terms(k), _terms(k), rats, _scalars(k))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8).flatmap(_case))
def test_slot_vectors_match_per_key_scalar_arithmetic(case):
    k, a, b, q, f = case
    ring = get_ring(k)
    va, vb = Vec(ring, a), Vec(ring, b)
    assert dict(va.terms) == a
    assert dict((va + vb).terms) == terms_add(a, b)
    assert dict((va - vb).terms) == terms_add(a, b, -1)
    assert dict((-va).terms) == terms_scale(a, -1)
    for factor in (q, ring.rational(q), f, f * q):
        acc = va.copy()
        acc.add_scaled(vb, factor)
        want = terms_add(a, terms_scale(b, factor))
        assert dict(acc.terms) == want
        assert acc == Vec(ring, want)
        assert acc.is_zero() == (not want)
        assert set(acc.keys()) == set(want)
        assert dict(va.scale(factor).terms) == terms_scale(a, factor)
    # an unreduced den reads the same through terms, ==, and after reduce()
    acc = va.copy()
    acc.add_scaled(vb, F(1, 6))
    acc.add_scaled(vb, F(-1, 6))
    assert acc == va and dict(acc.terms) == a
    assert acc.reduce().den == va.den


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.just(k), _terms(k, 3), _terms(k, 4), st.integers(-4, 3))))
def test_vertex_mode_matches_per_key_scalar_lift(case):
    k, u, t, n = case
    ring = get_ring(k)
    got = vertex_mode(Vec(ring, u), n, Vec(ring, t))
    assert dict(got.terms) == terms_vertex_mode(ring, u, n, t)
    assert got.den == got.reduce().den  # results come back in lowest terms


def _nonzero_case(k):
    nonzero = _scalars(k).filter(lambda c: not c.is_zero())
    return st.tuples(st.just(k), nonzero, nonzero, _terms(k).filter(bool))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(_nonzero_case))
def test_nonzero_products_stay_nonzero(case):
    # the ring is a field, so FracSeries.scale keeps every term of a nonzero factor
    k, a, b, terms = case
    ring = get_ring(k)
    assert not (a * b).is_zero()
    v = Vec(ring, terms).scale(a)
    assert not v.is_zero() and set(v.keys()) == set(terms)
    series = FracSeries(ring, ("x",), {(i,): c for i, c in enumerate((a, b, a * b))})
    assert len(series.scale(b).terms) == 3


def test_add_scaled_into_itself():
    ring = get_ring(3)
    v = Vec(ring, {(-1,): ring.eta(), (-2, -1): F(1, 2)})
    want = v.scale(3)
    v.add_scaled(v, 2)
    assert v == want


def test_mixing_rings_raises():
    v3, v5 = psi_vec(get_ring(3)), psi_vec(get_ring(5))
    with pytest.raises(RingMismatchError):
        v3.add_scaled(v5)
    with pytest.raises(RingMismatchError):
        v3.scale(get_ring(5).eta())
    with pytest.raises(RingMismatchError):
        vertex_mode(v5, -1, v3)


def test_terms_view_is_read_only():
    ring = get_ring(3)
    v = Vec(ring, {(-1,): ring.eta(), (-2, -1): F(1, 2)})
    with pytest.raises(TypeError):
        v.terms[(-1,)] = ring.one
    with pytest.raises(TypeError):
        del v.terms[(-1,)]
    assert v.terms == {(-1,): ring.eta(), (-2, -1): ring.rational(F(1, 2))}


# Scalar.__mul__ calls (both operand orders) in one cold run of the jacobi
# workload check below, at the tree before vectors were stored by slot.
PARENT_SCALAR_MULS = 22439


def test_one_jacobi_check_makes_few_scalar_products(monkeypatch):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "bench"))
    check = next(c for c in workloads.build("jacobi") if c.id == "jacobi.k3.psi1-omega2.vac")
    calls = [0]
    mul = exactnum.Scalar.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(exactnum.Scalar, "__mul__", counted)
    monkeypatch.setattr(exactnum.Scalar, "__rmul__", counted)
    _a_solved.cache_clear()  # solve the change of variables inside the count
    check.run()
    assert 0 < calls[0] <= PARENT_SCALAR_MULS // 10, calls[0]
