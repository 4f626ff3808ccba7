"""Tests for the coordinate-change solver, coefficient table, Theta series,
and the covering-map representation identities."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permtwist.changeofvars import (
    ExpCoeffs,
    a_table,
    compositional_inverse,
    compute_a,
    covering_series,
    exp_flow,
    f_and_inverse,
    f_inverse_checks,
    recomposed_series,
    recomposition_cross_check,
    rep_apply,
    rep_identity_check,
    solve_exp_coeffs,
    substitute_monomial,
    superfield_exp_check,
    theta_extract,
    theta_verify,
)
from permtwist.exactnum import NotAUnitError, get_ring
from permtwist.fseries import (
    CompositionDomainError,
    FracSeries,
    Window,
    assert_equal_on_window,
)


# ---------------------------------------------------------------------------
# independent oracle: a dict-based flow engine sharing no code with fseries
# ---------------------------------------------------------------------------


def tiny_exp_flow(coeffs, order):
    """exp(-sum_j coeffs[j-1] x^{j+1} d/dx) . x as {degree: Fraction}, through x^order."""
    cur = {1: F(1)}
    out = {1: F(1)}
    fact = F(1)
    for i in range(1, order + 2):
        fact /= i
        nxt = {}
        for d, c in cur.items():
            for j, a in enumerate(coeffs, start=1):
                nd = d + j
                if nd <= order:
                    nxt[nd] = nxt.get(nd, F(0)) - a * c * d
        cur = {d: c for d, c in nxt.items() if c}
        if not cur:
            break
        for d, c in cur.items():
            out[d] = out.get(d, F(0)) + c * fact
    return {d: c for d, c in out.items() if c}


def tiny_solve(fbar, order):
    """Order-by-order inverse of tiny_exp_flow (leading coefficient 1)."""
    coeffs = []
    for m in range(1, order + 1):
        flow = tiny_exp_flow(coeffs, m + 1)
        coeffs.append(flow.get(m + 1, F(0)) - fbar.get(m + 1, F(0)))
    return coeffs


def test_tiny_engine_agrees_with_itself():
    coeffs = tiny_solve({1: F(1), 2: F(1), 3: F(1, 3)}, 4)
    assert tiny_exp_flow(coeffs, 4) == {1: F(1), 2: F(1), 3: F(1, 3)}


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


def test_identity_series_solves_trivially():
    ring = get_ring(1)
    f = FracSeries.monomial(ring, 1, {"x": 1})
    sol = solve_exp_coeffs(f, "x", 4, -1)
    assert sol.a0 == ring.one
    assert all(c.is_zero() for c in sol.A)


def test_pure_dilation_solves_trivially():
    ring = get_ring(1)
    f = FracSeries.monomial(ring, 2, {"x": 1})
    sol = solve_exp_coeffs(f, "x", 4, -1)
    assert sol.a0.as_rational() == 2
    assert all(c.is_zero() for c in sol.A)


def test_k3_solver_example():
    ring = get_ring(3)
    sol = solve_exp_coeffs(covering_series(ring, 3), "x", 2, -1)
    assert sol.rationals() == (F(-1), F(2, 3))


def test_zero_leading_coefficient_rejected():
    ring = get_ring(1)
    f = FracSeries.monomial(ring, 1, {"x": 2})
    with pytest.raises(NotAUnitError):
        solve_exp_coeffs(f, "x", 2, -1)


def test_solver_input_domain_rejected():
    ring = get_ring(1)
    with pytest.raises(CompositionDomainError):
        solve_exp_coeffs(
            FracSeries.one(ring, ("x",)) + FracSeries.monomial(ring, 1, {"x": 1}), "x", 2, -1
        )
    with pytest.raises(CompositionDomainError):
        solve_exp_coeffs(FracSeries.monomial(ring, 1, {"x": F(1, 2)}), "x", 2, -1)


@pytest.mark.parametrize("k", range(1, 9))
def test_a1_a2_closed_forms(k):
    a = a_table(k, 2)
    assert a[0] == F(1 - k, 2)
    assert a[1] == F(k * k - 1, 12)


def test_a_k2_values():
    assert a_table(2, 2) == (F(-1, 2), F(1, 4))


def test_a_k1_all_zero():
    assert all(c == 0 for c in a_table(1, 6))


@pytest.mark.parametrize("k", [3, 5])
def test_a_table_matches_independent_tiny_solver(k):
    fbar = {}
    # ((1+x)^k - 1)/k by direct binomial coefficients
    from math import comb

    for i in range(1, k + 1):
        fbar[i] = F(comb(k, i), k)
    assert list(a_table(k, 5)) == tiny_solve(fbar, 5)


def test_a3_k3_satisfies_order4_match():
    coeffs = [F(c) for c in a_table(3, 3)]
    flow = tiny_exp_flow(coeffs, 4)
    assert flow == {1: F(1), 2: F(1), 3: F(1, 3)}
    # and the match is destroyed by any perturbation of a_3
    bad = coeffs[:2] + [coeffs[2] + 1]
    assert tiny_exp_flow(bad, 4).get(4) == F(-1)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=9)


@settings(max_examples=40, deadline=None)
@given(
    a0=small_fractions.filter(lambda q: q != 0),
    cs=st.lists(small_fractions, min_size=4, max_size=4),
)
def test_solver_reconstructs_random_series(a0, cs):
    ring = get_ring(1)
    terms = {((F(1),), 0): a0}
    for i, c in enumerate(cs, start=2):
        if c:
            terms[((F(i),), 0)] = c
    f = FracSeries(ring, ("x",), terms)
    sol = solve_exp_coeffs(f, "x", 4, -1)
    rebuilt = exp_flow(ring, sol.A, "x", 5, -1, a0=sol.a0)
    rep = assert_equal_on_window(rebuilt, f, Window.of(x=(0, 5)), "solver.roundtrip")
    assert rep.status == "pass", rep.first_mismatch


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=5),
    m=st.integers(min_value=1, max_value=4),
    eps=small_fractions.filter(lambda q: q != 0),
)
def test_solver_uniqueness_under_perturbation(k, m, eps):
    ring = get_ring(k)
    f = covering_series(ring, k)
    good = [F(c) for c in a_table(k, 4)]
    bad = list(good)
    bad[m - 1] += eps
    rebuilt = exp_flow(ring, bad, "x", 5, -1)
    # matches below the perturbed order, first breaks exactly at x^{m+1}
    low = assert_equal_on_window(rebuilt, f, Window.of(x=(0, m)), "pre")
    assert low.status == "pass"
    diff = (rebuilt - f).coefficient({"x": m + 1})
    assert diff.as_rational() == -eps


def test_parametric_solve_roundtrip_k3():
    ts = theta_extract(3, 3, trunc_order=4)
    ring = get_ring(3)
    big_f = recomposed_series(ring, 3, 4)
    rebuilt = exp_flow(ring, ts.theta[1:], "w", 4, +1, a0=ts.a0, trunc=("x", 4))
    rep = assert_equal_on_window(
        rebuilt, big_f, Window.of(w=(0, 4), x=(0, 4)), "theta.roundtrip"
    )
    assert rep.status == "pass", rep.first_mismatch


# ---------------------------------------------------------------------------
# f and its inverse
# ---------------------------------------------------------------------------


def test_f_k1_collapse():
    ring = get_ring(1)
    f, finv = f_and_inverse(1, 6, ring)
    assert f == FracSeries.monomial(ring, 1, {"x": 1, "z": 1})
    assert finv == FracSeries.monomial(ring, 1, {"x": 1, "z": -1})


def test_finv_k2_binomial_oracle():
    ring = get_ring(2)
    _, finv = f_and_inverse(2, 3, ring)
    assert finv.coefficient({"x": 1, "z": F(-1, 2)}).as_rational() == 1
    assert finv.coefficient({"x": 2, "z": -1}).as_rational() == F(-1, 2)
    assert finv.coefficient({"x": 3, "z": F(-3, 2)}).as_rational() == F(1, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_f_inverse_checks_order_10(k):
    for rep in f_inverse_checks(k, order=10):
        assert rep.status == "pass", (rep.identity, rep.first_mismatch)


def test_compositional_inverse_is_independent_of_closed_form():
    # inverse of a series that has no binomial closed form
    ring = get_ring(1)
    f = FracSeries(ring, ("x",), {((F(1),), 0): 1, ((F(2),), 0): F(3), ((F(5),), 0): F(-2)})
    g = compositional_inverse(f, "x", 8)
    comp = f.substitute("x", g, "x", 8)
    rep = assert_equal_on_window(
        comp, FracSeries.monomial(ring, 1, {"x": 1}), Window.of(x=(0, 8)), "inv"
    )
    assert rep.status == "pass", rep.first_mismatch


# ---------------------------------------------------------------------------
# Theta series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_recomposition_product_form(k):
    rep = recomposition_cross_check(k)
    assert rep.status == "pass", rep.first_mismatch


def test_theta_k1_trivial():
    ts = theta_extract(1, 3)
    assert all(t.is_zero() for t in ts.theta[1:])
    assert ts.exp_theta0 == FracSeries.one(get_ring(1))


def test_theta1_k3_at_x_zero():
    # Theta_1 at x = 0 reduces to -a_1 z^{-1/3} = z^{-1/3}
    ts = theta_extract(3, 1, trunc_order=3)
    const = ts.theta[1].coefficient_in("x", 0)
    assert const == FracSeries.monomial(get_ring(3), 1, {"z": F(-1, 3)})


def test_exp_theta0_k3_first_order():
    # exp(Theta_0) -> z^{-1/3}(z+z0)^{1/3}; its z0^1 coefficient is (1/3) z^{-1}
    ts = theta_extract(3, 1, trunc_order=3)
    sub = substitute_monomial(ts.exp_theta0, "x", F(1, 3), {"z": F(-2, 3), "z0": 1})
    c1 = sub.coefficient_in("z0", 1)
    assert c1 == FracSeries.monomial(get_ring(3), F(1, 3), {"z": -1})


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_theta_closed_forms(k):
    for rep in theta_verify(k, order=4, z0_order=6):
        assert rep.status == "pass", (rep.identity, rep.first_mismatch)
        assert "exp(+Theta_0)" in (rep.detail or "")


def test_theta_negative_control_wrong_sign():
    # flipping the sign of the closed form must be caught
    ring = get_ring(3)
    ts = theta_extract(3, 1, trunc_order=4)
    lhs = substitute_monomial(ts.theta[1], "x", F(1, 3), {"z": F(-2, 3), "z0": 1})
    from permtwist.fseries import binom_expand

    a = a_table(3, 2)
    wrong = binom_expand(ring, (1, {"z": 1}), (1, {"z0": 1}), F(-1, 3), 4) * a[0]
    rep = assert_equal_on_window(lhs, wrong, Window.of(z0=(0, 4)), "theta.bad")
    assert rep.status == "fail"


# ---------------------------------------------------------------------------
# covering map on C[x,x^-1][phi]
# ---------------------------------------------------------------------------


def test_rep_closed_form_k2_forward_x():
    ring = get_ring(2)
    img = rep_apply(ring, 2, 1, False, 6)
    expect = FracSeries(ring, ("x", "z"), {((F(1), F(1, 2)), 0): 2, ((F(2), F(0)), 0): 1})
    assert img == expect


def test_rep_k1_is_identity():
    ring = get_ring(1)
    for n in (-3, 0, 2):
        assert rep_apply(ring, 1, n, False, 6) == FracSeries.monomial(ring, 1, {"x": n})
        odd = rep_apply(ring, 1, n, True, 6)
        assert odd == FracSeries.monomial(ring, 1, {"x": n}, phi=1)


def test_rep_inverse_x_lowest_term_k3():
    # the x^1 coefficient of the inverse image of x is z^{1/3-1}/3
    ring = get_ring(3)
    img = rep_apply(ring, 3, 1, False, 5, forward=False)
    assert img.coefficient({"x": 1, "z": F(-2, 3)}).as_rational() == F(1, 3)


def test_rep_forward_inverse_compose_on_x():
    # substituting the inverse image into the forward image of x returns x
    ring = get_ring(3)
    fwd = rep_apply(ring, 3, 1, False, 8)
    inv = rep_apply(ring, 3, 1, False, 8, forward=False)
    comp = fwd.substitute("x", inv, "x", 6)
    rep = assert_equal_on_window(
        comp, FracSeries.monomial(ring, 1, {"x": 1}), Window.of(x=(0, 6)), "rep.comp"
    )
    assert rep.status == "pass", rep.first_mismatch


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_rep_transport_identities(k):
    for rep in rep_identity_check(k, n_window=6, trunc_order=8):
        assert rep.status == "pass", (rep.identity, rep.first_mismatch)


def test_rep_transport_negative_control():
    # dropping the 1/k factor breaks the forward identity for k = 3
    ring = get_ring(3)
    img = rep_apply(ring, 3, 2, False, 6)
    t_db = rep_apply(ring, 3, 1, False, 6) * F(2)
    lhs_bad = -t_db + img.derivative("x").shift_exponents("z", F(1, 3) - 1)
    rhs = img.derivative("z")
    rep = assert_equal_on_window(lhs_bad, rhs, Window.of(x=(0, 5)), "rep.bad")
    assert rep.status == "fail"


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_superfield_exponential_route(k):
    for rep in superfield_exp_check(k):
        assert rep.status == "pass", (rep.identity, rep.first_mismatch)
