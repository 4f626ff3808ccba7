"""Tests for exact q-series and the twisted character identity."""

from __future__ import annotations

import re
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from permtwist import qchar
from permtwist.qchar import (
    QSeries,
    char_plain,
    char_twisted,
    corollary_check,
    evidence_even,
    qseries_equal,
    tensor_power_check,
)

# ---------------------------------------------------------------------------
# the series container
# ---------------------------------------------------------------------------


def test_qseries_add_and_lattice_guard():
    s = QSeries.census(48, F(2), [(F(-1, 48), 1), (F(23, 48), 3), (F(23, 48), -1), (F(5), 7)])
    # F(5) lies beyond the cutoff: dropped
    assert s.terms() == [(F(-1, 48), 1), (F(23, 48), 3 - 1)]
    assert s.cutoff == F(2)
    with pytest.raises(ValueError, match="not on the 1/48 lattice"):
        QSeries.census(48, F(2), [(F(1, 7), 1)])


def test_qseries_subs_root():
    s = QSeries.census(48, F(1), [(F(-1, 48), 1), (F(1, 2), 3)])
    r = s.subs_root(3)
    assert r.terms() == [(F(-1, 144), 1), (F(1, 6), 3)]
    assert r.cutoff == F(1, 3)


def test_qseries_product_truncation():
    # cutoff bookkeeping: the product is complete through
    # min(cutoff_a + lead_b, cutoff_b + lead_a)
    a = QSeries.census(2, F(3), [(F(-1, 2), 1), (F(1), 1)])
    b = QSeries.census(2, F(2), [(F(0), 2), (F(1, 2), 5)])
    p = a * b
    assert p.cutoff == F(3, 2)  # from b's cutoff plus a's leading -1/2
    assert dict(p.terms()) == {F(-1, 2): 2, F(0): 5, F(1): 2, F(3, 2): 5}


@settings(max_examples=30, deadline=None)
@given(
    ca=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
    cb=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
)
def test_qseries_product_matches_convolution(ca, cb):
    a = QSeries.census(2, F(6), [(F(i, 2), c) for i, c in enumerate(ca)])
    b = QSeries.census(2, F(6), [(F(i, 2), c) for i, c in enumerate(cb)])
    p = dict((a * b).terms())
    for key in range(0, 8):
        want = sum(ca[i] * cb[key - i] for i in range(len(ca)) if 0 <= key - i < len(cb))
        assert p.get(F(key, 2), 0) == want


def test_qseries_equal_reports_first_witness():
    a = QSeries.census(48, F(1), [(F(-1, 48), 1), (F(23, 48), 1)])
    b = QSeries.census(48, F(1), [(F(-1, 48), 1), (F(23, 48), 2)])
    ok, witness = qseries_equal(a, b, F(1))
    assert not ok and witness == "at q^(23/48): 1 != 2"
    # beyond the window nothing is compared
    c = QSeries.census(48, F(1, 3), [(F(-1, 48), 1)])
    assert qseries_equal(a, c, F(1, 3)) == (True, None)
    # a window past either cutoff is refused, naming the short cutoff
    for x, y in ((a, c), (c, a)):
        with pytest.raises(ValueError, match=re.escape("complete only through q^(1/3), compared through q^(1)")):
            qseries_equal(x, y, F(1))


# -- the carried cutoff --------------------------------------------------------

DEN = 2


@st.composite
def _cut_series(draw):
    """A longer q-series on the 1/DEN lattice, as {exponent: coefficient}, and
    a cutoff somewhere from below its first term to above its last."""
    lo = draw(st.integers(-4, 4))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
    cut = draw(st.integers(lo - 2, lo + len(coeffs)))
    return {F(lo + i, DEN): c for i, c in enumerate(coeffs) if c}, F(cut, DEN)


def _product_is_complete(pair) -> bool:
    """Cut both series at their cutoffs and multiply them as QSeries: on q <=
    the carried cutoff the product equals the uncut product."""
    (fa, cut_a), (fb, cut_b) = pair
    p = QSeries.census(DEN, cut_a, fa.items()) * QSeries.census(DEN, cut_b, fb.items())
    full = {}
    for ea, ca in fa.items():
        for eb, cb in fb.items():
            full[ea + eb] = full.get(ea + eb, 0) + ca * cb
    return dict(p.terms()) == {e: c for e, c in full.items() if c and e <= p.cutoff}


@settings(max_examples=200, deadline=None)
@given(st.tuples(_cut_series(), _cut_series()))
def test_qseries_product_is_complete_below_its_carried_cutoff(pair):
    assert _product_is_complete(pair)


def test_a_cutoff_one_step_higher_is_caught(monkeypatch):
    rule = QSeries.product_cutoff
    monkeypatch.setattr(QSeries, "product_cutoff", lambda a, b: rule(a, b) + F(1, DEN))
    # raises NoSuchExample if no pair of series exposes the mutant
    find(st.tuples(_cut_series(), _cut_series()), lambda pair: not _product_is_complete(pair),
         settings=settings(max_examples=500, database=None), random=Random(0))


def test_corollary_reads_each_spectrum_once(monkeypatch):
    calls = {"char_twisted": 0, "char_plain": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(qchar, name), **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(qchar, name, counted)
    assert corollary_check(3, 1).status == "pass"
    assert calls == {"char_twisted": 1, "char_plain": 1}


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_plain_character_leading_terms():
    # NS fermion: weights 0, 1/2, 3/2, 2, 5/2, 3, 7/2, 4 (double), shifted by -1/48
    ch = char_plain(4)
    dims = dict(ch.terms())
    expect = {
        F(-1, 48): 1, F(23, 48): 1, F(71, 48): 1, F(95, 48): 1,
        F(119, 48): 1, F(143, 48): 1, F(167, 48): 1, F(191, 48): 2,
    }
    assert dims == expect


def test_twisted_character_vacuum_exponent():
    ct = char_twisted(3, F(1, 2))
    assert ct.terms()[0] == (F(-1, 144), 1)


def test_twisted_character_spacing_k3():
    # eigenvalue spacing is 1/3 of the plain one
    ct = char_twisted(3, F(1))
    exps = [e for e, _c in ct.terms()]
    assert exps[:3] == [F(-1, 144), F(-1, 144) + F(1, 6), F(-1, 144) + F(1, 2)]


@pytest.mark.parametrize("k,cutoff", [(1, 4), (3, 2), (5, 1)])
def test_character_corollary(k, cutoff):
    rep = corollary_check(k, cutoff)
    assert rep.status == "pass", rep.first_mismatch


def test_character_corollary_negative_controls():
    # off-lattice perturbation of the quadratic flow coefficient
    bad = (F(-1), F(2, 3) + F(1, 7), F(-2, 3), F(7, 9), F(-26, 27))
    rep = corollary_check(3, 1, a_override=bad)
    assert rep.status == "fail" and "unusable" in rep.first_mismatch
    # on-lattice perturbation: spectrum exists but the identity breaks
    bad2 = (F(-1), F(2, 3) + F(1, 4), F(-2, 3), F(7, 9), F(-26, 27))
    rep2 = corollary_check(3, 1, a_override=bad2)
    assert rep2.status == "fail" and "-1/144" in rep2.first_mismatch


@pytest.mark.parametrize("k", [2, 3])
def test_tensor_power_census(k):
    rep = tensor_power_check(k, 2)
    assert rep.status == "pass", rep.first_mismatch


@pytest.mark.parametrize("k", [3, 5])
def test_tensor_power_factor_one_step_short_raises(monkeypatch, k):
    # the factor is built at the exact depth cutoff + (k-1)/48: one 1/48 step
    # less leaves the k-th power complete only through cutoff - 1/48
    plain = qchar.char_plain
    monkeypatch.setattr(qchar, "char_plain", lambda cutoff: plain(cutoff - F(1, 48)))
    with pytest.raises(ValueError, match=re.escape("complete only through q^(47/48), compared through q^(1)")):
        tensor_power_check(k, 1)


# ---------------------------------------------------------------------------
# even order
# ---------------------------------------------------------------------------


def test_evidence_even_records_refusal():
    rep = evidence_even(2)
    assert rep.status == "expected-obstruction"
    assert "1/4 + 1/2*Z" in rep.detail
    assert "no spectral realization" in rep.detail
    rep4 = evidence_even(4)
    assert rep4.status == "expected-obstruction"
    assert "1/8 + 1/4*Z" in rep4.detail


def test_evidence_even_rejects_odd_k():
    with pytest.raises(ValueError):
        evidence_even(3)
