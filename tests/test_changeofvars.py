"""Tests for the coordinate-change solver, coefficient table, Theta series,
and the covering-map representation identities."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from permtwist.changeofvars import (
    a_table,
    compositional_inverse,
    compute_a,
    covering_series,
    exp_flow,
    f_and_inverse,
    f_inverse_checks,
    flow_step,
    recomposed_series,
    recomposition_cross_check,
    rep_apply,
    rep_identity_check,
    rep_walk,
    solve_exp_coeffs,
    superfield_exp_check,
    superfield_transform,
    theta_extract,
    theta_verify,
)
from permtwist.exactnum import get_ring
from permtwist.fseries import (
    CompositionDomainError,
    FracSeries,
    Window,
    assert_equal_on_window,
)

from oracles import (
    cut_by_window,
    flow_step_by_generators,
    substitute_monomial,
    superfield_step_by_generators,
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
    with pytest.raises(ZeroDivisionError):
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


@pytest.mark.parametrize("k", range(1, 9))
def test_a_table_prefixes_come_from_one_solve(k, monkeypatch):
    import permtwist.changeofvars as cv

    full = a_table(k, 8)
    # the a_j do not depend on the order solved to
    assert all(compute_a(k, m).rationals() == full[:m] for m in (1, 4))
    solves = []
    monkeypatch.setattr(cv, "compute_a", lambda *args: solves.append(args))
    for m in range(9):
        assert a_table(k, m) == full[:m]
    assert solves == []


def test_a_table_cache_is_bounded():
    import permtwist.changeofvars as cv

    assert cv._a_solved.cache_info().maxsize is not None


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
    terms = {(F(1),): a0}
    for i, c in enumerate(cs, start=2):
        if c:
            terms[(F(i),)] = c
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
    f = FracSeries(ring, ("x",), {(F(1),): 1, (F(2),): F(3), (F(5),): F(-2)})
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


def _theta_point(k):
    """(1/k) z^(1/k-1) z0, the point the Theta closed forms are read at."""
    return FracSeries.monomial(get_ring(k), F(1, k), {"z": F(1, k) - 1, "z0": 1})


def test_exp_theta0_k3_first_order():
    # exp(Theta_0) -> z^{-1/3}(z+z0)^{1/3}; its z0^1 coefficient is (1/3) z^{-1}
    ts = theta_extract(3, 1, trunc_order=3)
    sub = ts.exp_theta0.substitute("x", _theta_point(3), "z0", 3)
    c1 = sub.coefficient_in("z0", 1)
    assert c1 == FracSeries.monomial(get_ring(3), F(1, 3), {"z": -1})


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=5),
    terms=st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=-6, max_value=6)),
        small_fractions.filter(lambda q: q != 0),
        max_size=6,
    ),
    c=small_fractions.filter(lambda q: q != 0),
    a=st.fractions(min_value=-2, max_value=2, max_denominator=5),
)
def test_substitute_matches_the_monomial_reference(k, terms, c, a):
    # s(x, z) with nonnegative integer x-powers; x -> c z^a z0 is exact in
    # z0 through the largest x-power, so substitute truncates nothing
    ring = get_ring(k)
    s = FracSeries(ring, ("x", "z"), {(F(d), F(n, k)): v for (d, n), v in terms.items()})
    mono = FracSeries.monomial(ring, c, {"z": a, "z0": 1})
    assert s.substitute("x", mono, "z0", 4) == substitute_monomial(s, "x", c, {"z": a, "z0": 1})


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_theta_closed_forms(k):
    for rep in theta_verify(k, order=4, z0_order=6):
        assert rep.status == "pass", (rep.identity, rep.first_mismatch)
        assert "exp(+Theta_0)" in (rep.detail or "")


def test_theta_negative_control_wrong_sign():
    # flipping the sign of the closed form must be caught
    ring = get_ring(3)
    ts = theta_extract(3, 1, trunc_order=4)
    lhs = ts.theta[1].substitute("x", _theta_point(3), "z0", 4)
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
    expect = FracSeries(ring, ("x", "z"), {(F(1), F(1, 2)): 2, (F(2), F(0)): 1})
    assert img == expect


def test_rep_k1_is_identity():
    ring = get_ring(1)
    for n in (-3, 0, 2):
        assert rep_apply(ring, 1, n, False, 6) == FracSeries.monomial(ring, 1, {"x": n})
        # phi x^n maps to phi x^n: the odd image is the series phi multiplies
        assert rep_apply(ring, 1, n, True, 6) == FracSeries.monomial(ring, 1, {"x": n})


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


def test_rep_identity_check_fails_on_a_perturbed_odd_image(monkeypatch):
    # one coefficient of the forward odd image of phi x^1 is off by one
    import permtwist.changeofvars as cv

    walk = cv.rep_walk

    def perturbed(ring, k, lo, hi, trunc_order, forward=True):
        for n, (even, odd) in enumerate(walk(ring, k, lo, hi, trunc_order, forward), lo):
            if forward and n == 1:
                key = min(odd.terms)  # lowest x-exponent, inside the window
                odd = odd + FracSeries(ring, odd.vars, {tuple(F(e, odd.den) for e in key): 1})
            yield even, odd

    monkeypatch.setattr(cv, "rep_walk", perturbed)
    fwd, inv = rep_identity_check(3, n_window=2, trunc_order=6)
    assert fwd.status == "fail"
    assert fwd.first_mismatch.startswith("[phi x^1] at ")
    assert inv.status == "pass"


@pytest.mark.parametrize("trunc_order", [6, 8])
@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_rep_walk_matches_per_power_rep_apply(k, forward, trunc_order):
    # one walk from x^-7 (one substitute, then one product per power) against
    # a substitute of its own for every power and parity
    ring = get_ring(k)
    walk = rep_walk(ring, k, -7, 6, trunc_order, forward)
    for n, images in enumerate(walk, -7):
        for odd, img in zip((False, True), images):
            assert img == rep_apply(ring, k, n, odd, trunc_order, forward), (n, odd)


def test_rep_identity_check_runs_one_substitute_per_direction(monkeypatch):
    # the image of the lowest power is the only substitute (and the only
    # inversion) of each direction; every higher power is one product
    import permtwist.fseries as fs

    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(fs, "invert_series", counting("invert_series", fs.invert_series))
    monkeypatch.setattr(FracSeries, "substitute", counting("substitute", FracSeries.substitute))
    rep_identity_check(3, n_window=2, trunc_order=8)
    assert calls.count("invert_series") == 2
    assert calls.count("substitute") == 2


def test_rep_identity_check_rejects_a_negative_window():
    # n_window = -1 would compare nothing and pass
    with pytest.raises(ValueError, match="n_window"):
        rep_identity_check(3, n_window=-1)
    assert [r.status for r in rep_identity_check(1, n_window=0, trunc_order=4)] == ["pass", "pass"]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_superfield_exponential_route(k):
    for rep in superfield_exp_check(k):
        assert rep.status == "pass", (rep.identity, rep.first_mismatch)


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("n", [-3, -2, -1, 0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_superfield_exponential_is_multiplicative_in_both_parities(k, n, odd):
    # the operator exponential on x^n (or phi x^n) is the n-th power of the
    # closed-form even coordinate (times the odd dressing): this reaches the
    # phi d/dphi term of L_j at every x-degree.  A seed below x^-1 needs the
    # flow coefficients and the flow steps from its own lowest x-power up to
    # the cut, not from x^0
    ring = get_ring(k)
    got = superfield_transform(k, FracSeries.monomial(ring, 1, {"x": n}, vars=("z",)), odd, 7)
    win = Window.of(x=(min(n, 0), 7))
    rep = assert_equal_on_window(got, rep_apply(ring, k, n, odd, 7), win, "superfield.power")
    assert rep.status == "pass", rep.first_mismatch


# -- one flow step against its generators, one by one ------------------------

# k, the box's top x-exponent, an (x, z) series as (x-exponent, -k * z-exponent,
# coefficient) triples and an optional top z-exponent (times -k) for the solver
_FLOW_CASE = st.tuples(
    st.integers(1, 5),
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 7), st.integers(1, 8), st.integers(-3, 3).filter(bool)),
             min_size=1, max_size=6),
    st.one_of(st.none(), st.integers(0, 12)),
)


def _flow_steps_and_references(k, top, raw, ztop, narrow=0, half=F(1, 2)):
    """(flow_step, reference, box) for one random series: the superfield step
    at density 0 and 1/2 (sign -1), and the solver's step at sign +-1 and
    density 0.  narrow and half change only the flow_step side."""
    ring = get_ring(k)
    s = FracSeries(ring, ("x", "z"), {(ex, F(-ez, k)): c for ex, ez, c in raw})
    a = a_table(k, top + 1)
    field = FracSeries(ring, ("x", "z"), {(j + 1, F(-j, k)): aj for j, aj in enumerate(a, 1)})
    zbound = {} if ztop is None else {"z": (None, F(-ztop, k))}
    box, cut = Window.of(x=(None, top), **zbound), Window.of(x=(None, top - narrow), **zbound)
    out = []
    for odd in (False, True):
        got = flow_step(s, -field, "x", Window.below("x", top - narrow), half if odd else 0)
        out.append((got, superfield_step_by_generators(a, k, s, odd, top), Window.below("x", top)))
    coeffs = {j: FracSeries.monomial(ring, aj, {"z": F(-j, k)}) for j, aj in enumerate(a, 1)}
    for sign in (1, -1):
        out.append((flow_step(s, field * sign, "x", cut, 0), flow_step_by_generators(coeffs, "x", s, sign, box), box))
    return out


def _flow_step_misses_reference(case, **mutant) -> bool:
    return any(cut_by_window(got, box) != cut_by_window(want, box)
               for got, want, box in _flow_steps_and_references(*case, **mutant))


@settings(max_examples=80, deadline=None)
@given(_FLOW_CASE)
def test_one_flow_step_is_the_sum_over_its_generators(case):
    assert not _flow_step_misses_reference(case)


@pytest.mark.parametrize("mutant", [{"narrow": 1}, {"half": F(1)}], ids=["box-one-step-narrow", "density-one"])
def test_a_narrow_box_or_a_wrong_density_fails_the_reference(mutant):
    find(_FLOW_CASE, lambda case: _flow_step_misses_reference(case, **mutant),
         settings=settings(max_examples=500, database=None, phases=[Phase.generate]))
