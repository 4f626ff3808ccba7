"""Tests for the free-fermion algebra, tensor powers, and untwisted oracles."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permtwist.exactnum import get_ring
from permtwist.fermion import (
    Vec,
    VecSeries,
    clifford_apply,
    clifford_apply_state,
    eigenprojection,
    graded_dims,
    iterate_modesum,
    iterate_side,
    jacobi_products,
    key_parity,
    key_weight,
    l_derivative_check,
    min_exponent,
    omega_vec,
    permute,
    psi_vec,
    render_key,
    render_state,
    skew_symmetry_check,
    slot_embed,
    standard_basis,
    state_weight,
    tensor_basis,
    tensor_omega,
    two_point,
    untwisted_jacobi_check,
    vac_vec,
    vec_equal_on_window,
    vertex_mode,
    vertex_op,
    virasoro_bracket_check,
    virasoro_mode,
)
from permtwist.fseries import Window

R1 = get_ring(1)


def _psi2_vec(ring):
    # psi_{-2}|0>, the weight-3/2 state
    return Vec.basis(ring, (-2,))


# ---------------------------------------------------------------------------
# states and Clifford action
# ---------------------------------------------------------------------------


def test_state_weights_and_render():
    assert state_weight(()) == 0
    assert state_weight((-1,)) == F(1, 2)
    assert state_weight((-4, -1)) == 4
    assert render_state((-4, -1)) == "psi(-7/2)psi(-1/2)|0>"
    assert render_state(()) == "|0>"
    assert render_key(((-1,), ())) == "psi(-1/2)|0> (x) |0>"


def test_clifford_examples():
    # annihilation against the partner mode
    assert clifford_apply_state(0, (-1,)) == (1, ())
    # creation
    assert clifford_apply_state(-1, ()) == (1, (-1,))
    # annihilation on vacuum
    assert clifford_apply_state(0, ()) is None
    # double occupation
    assert clifford_apply_state(-1, (-1,)) is None
    # reordering sign: psi_{-2} on psi_{-3}psi_{-1}|0> passes one operator
    assert clifford_apply_state(-2, (-3, -1)) == (-1, (-3, -2, -1))


def test_clifford_apply_linear():
    v = clifford_apply(0, psi_vec(R1))
    assert v == vac_vec(R1)
    assert clifford_apply(3, psi_vec(R1)).is_zero()


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(min_value=-5, max_value=4),
    b=st.integers(min_value=-5, max_value=4),
    idx=st.integers(min_value=0, max_value=7),
)
def test_anticommutator_oracle(a, b, idx):
    basis = standard_basis(F(7, 2))
    w = Vec.basis(R1, basis[idx % len(basis)])
    lhs = clifford_apply(a, clifford_apply(b, w)) + clifford_apply(b, clifford_apply(a, w))
    expect = w.scale(1) if a + b == -1 else Vec(R1)
    assert lhs == expect


def test_standard_basis_dims():
    dims = graded_dims(standard_basis(4))
    assert [dims.get(F(n, 2), 0) for n in range(9)] == [1, 1, 0, 1, 1, 1, 1, 1, 2]


def test_tensor_basis_weights_and_parity():
    keys = tensor_basis(2, F(3, 2))
    assert ((), ()) in keys
    assert key_weight(((-1,), (-1,))) == 1
    assert key_parity(((-1,), (-1,))) == 0
    assert key_parity(((-2,), ())) == 1
    for key in keys:
        assert key_weight(key) <= F(3, 2)


# ---------------------------------------------------------------------------
# vertex operator modes
# ---------------------------------------------------------------------------


def test_vacuum_field_is_identity():
    w = Vec.basis(R1, (-3, -1))
    for n in range(-4, 4):
        out = vertex_mode(vac_vec(R1), n, w)
        assert out == (w if n == -1 else Vec(R1))


def test_generator_field_reproduces_clifford():
    w = Vec.basis(R1, (-2, -1))
    for n in range(-4, 4):
        assert vertex_mode(psi_vec(R1), n, w) == clifford_apply(n, w)


def test_creation_axiom():
    # Y(v, x)|0> at x^0 recovers v
    for s in standard_basis(F(5, 2)):
        v = Vec.basis(R1, s)
        assert vertex_mode(v, -1, vac_vec(R1)) == v


def test_x_minus_one_of_psi_on_psi():
    out = vertex_mode(psi_vec(R1), 0, psi_vec(R1))
    assert out == vac_vec(R1)


def test_virasoro_eigenvalues_match_state_weights():
    for s in standard_basis(4):
        w = Vec.basis(R1, s)
        assert virasoro_mode(0, w) == w.scale(state_weight(s))


def test_l_minus_one_on_psi():
    assert virasoro_mode(-1, psi_vec(R1)) == Vec.basis(R1, (-2,))


def test_l_two_on_omega_gives_half_central():
    # L(2) omega = (c/2) vac with c = 1/2
    assert virasoro_mode(2, omega_vec(R1)) == vac_vec(R1).scale(F(1, 4))


def test_omega_is_l_minus_two_vacuum():
    assert virasoro_mode(-2, vac_vec(R1)) == omega_vec(R1)


def test_virasoro_bracket_c_half():
    rep = virasoro_bracket_check(max_weight=4, m_range=(-3, 3))
    assert rep.status == "pass", rep.first_mismatch


def test_virasoro_bracket_tensor_c_sums():
    rep = virasoro_bracket_check(max_weight=2, m_range=(-2, 2), k_slots=2)
    assert rep.status == "pass", rep.first_mismatch
    assert "central charge 1" in rep.detail


def test_vertex_op_window():
    win = Window.of(x=(-4, 2))
    s = vertex_op(omega_vec(R1), psi_vec(R1), win)
    assert all(-4 <= e[0] <= 2 for e in s.support())
    # L(0) psi = psi/2 sits at exponent -2 (mode 1 of omega)
    assert s.coefficient({"x": -2}) == psi_vec(R1).scale(F(1, 2))


# ---------------------------------------------------------------------------
# tensor factors and Koszul signs
# ---------------------------------------------------------------------------


def test_first_slot_acts_without_sign():
    vac2 = vac_vec(R1, 2)
    out = vertex_mode(slot_embed(psi_vec(R1), 2, 1), -1, vac2)
    assert out == slot_embed(psi_vec(R1), 2, 1)


def test_koszul_sign_second_slot_past_odd_vector():
    # Y(vac (x) psi, x)(psi (x) vac) carries the sign (-1)^{|psi||psi|}
    u = slot_embed(psi_vec(R1), 2, 2)
    target = slot_embed(psi_vec(R1), 2, 1)
    out = vertex_mode(u, -1, target)
    expect = Vec.basis(R1, ((-1,), (-1,))).scale(-1)
    assert out == expect


def test_tensor_grading_is_sum_of_factor_weights():
    ring = get_ring(2)
    for key in tensor_basis(2, 2):
        w = Vec.basis(ring, key)
        assert virasoro_mode(0, w) == w.scale(key_weight(key))


def test_tensor_omega_squares_like_virasoro():
    ring = get_ring(2)
    om = tensor_omega(ring, 2)
    # L(2) omega_total = (c_total/2) vac with c_total = 1
    assert vertex_mode(om, 3, om) == vac_vec(ring, 2).scale(F(1, 2))


# ---------------------------------------------------------------------------
# permutation action and eigenprojections
# ---------------------------------------------------------------------------


def test_transposition_sign_on_psi_psi():
    ring = get_ring(2)
    w = Vec.basis(ring, ((-1,), (-1,)))
    assert permute(w) == w.scale(-1)


def test_cycle_moves_slot_labels_down():
    ring = get_ring(3)
    v2 = slot_embed(psi_vec(ring), 3, 2)
    v1 = slot_embed(psi_vec(ring), 3, 1)
    assert permute(v2) == v1


def test_cycle_power_k_is_identity():
    ring = get_ring(3)
    for key in tensor_basis(3, F(3, 2))[::3]:
        w = Vec.basis(ring, key)
        assert permute(w, 3) == w


@settings(max_examples=25, deadline=None)
@given(idx=st.integers(min_value=0, max_value=30), j=st.integers(min_value=0, max_value=2))
def test_eigenprojection_properties(idx, j):
    ring = get_ring(3)
    keys = tensor_basis(3, F(3, 2))
    w = Vec.basis(ring, keys[idx % len(keys)])
    proj = eigenprojection(w, j, 3)
    # defining property g P_j w = eta^j P_j w
    assert permute(proj) == proj.scale(ring.eta(j))
    # resolution of identity
    total = Vec(ring)
    for jj in range(3):
        total = total + eigenprojection(w, jj, 3)
    assert total == w


def test_eigenprojection_symmetric_sum():
    ring = get_ring(3)
    w = (
        slot_embed(psi_vec(ring), 3, 1)
        + slot_embed(psi_vec(ring), 3, 2)
        + slot_embed(psi_vec(ring), 3, 3)
    )
    # fully symmetric even vector: pure eta^0 eigenvector
    assert eigenprojection(w, 0, 3) == w
    assert eigenprojection(w, 1, 3).is_zero()
    assert eigenprojection(w, 2, 3).is_zero()


# ---------------------------------------------------------------------------
# axiom oracles
# ---------------------------------------------------------------------------


def _test_vectors(ring):
    return {
        "psi": psi_vec(ring),
        "omega": omega_vec(ring),
        "dpsi": _psi2_vec(ring),
    }


@pytest.mark.parametrize("uname", ["psi", "omega", "dpsi"])
@pytest.mark.parametrize("vname", ["psi", "omega", "dpsi"])
def test_untwisted_jacobi(uname, vname):
    vecs = _test_vectors(R1)
    box = Window.of(x0=(-3, 3), x1=(-3, 3), x2=(-3, 3))
    for s in standard_basis(3):
        rep = untwisted_jacobi_check(vecs[uname], vecs[vname], Vec.basis(R1, s), box)
        assert rep.status == "pass", (uname, vname, render_state(s), rep.first_mismatch)


def test_untwisted_jacobi_tensor_slots():
    ring = get_ring(2)
    u = slot_embed(psi_vec(ring), 2, 1)
    v = slot_embed(psi_vec(ring), 2, 2)
    box = Window.of(x0=(-2, 2), x1=(-2, 2), x2=(-2, 2))
    for key in (((), ()), ((-1,), ())):
        rep = untwisted_jacobi_check(u, v, Vec.basis(ring, key), box)
        assert rep.status == "pass", rep.first_mismatch


def _mismatch_exponents(first_mismatch: str, vars) -> tuple:
    """Exponents of the monomial named by a "at x0^a*x1^b, ..." mismatch."""
    mono = first_mismatch.removeprefix("at ").split(",")[0]
    exps = dict(part.split("^") for part in mono.split("*") if part != "1")
    return tuple(F(exps.get(v, 0)) for v in vars)


def test_jacobi_negative_control():
    # psi/psi Jacobi holds with the Koszul sign (-1)^{|psi||psi|} = -1 ...
    w = vac_vec(R1)
    psi = psi_vec(R1)
    box = Window.of(x0=(-2, 2), x1=(-2, 2), x2=(-2, 2))
    rep = untwisted_jacobi_check(psi, psi, w, box)
    assert rep.status == "pass"
    # ... and the comparison fails once the product sides take the even sign
    floors = (F(min_exponent(psi, w)), F(min_exponent(psi, w)))
    wrong = jacobi_products(vertex_op, psi, psi, w, box, floors, eps=1)
    iterate = iterate_side(
        R1, lambda r0, r2: [iterate_modesum(vertex_op, psi, psi, w, r0, r2)],
        box, min_exponent(psi, psi),
    )
    bad = vec_equal_on_window(wrong, iterate, box, "untwisted.jacobi-even-sign")
    assert bad.status == "fail"
    assert box.contains(("x0", "x1", "x2"), _mismatch_exponents(bad.first_mismatch, ("x0", "x1", "x2")))
    # sanity: the two-point function itself is nonzero somewhere in the box
    tp = two_point(psi, psi, w, (-3, 3), (-3, 3))
    assert not tp.is_zero()


def test_iterate_modesum_matches_nested_modes():
    # Y(Y(u,x0)v, x2)w coefficient by coefficient: the x0^e0 x2^e2 term is
    # (u_(-e0-1)v)_(-e2-1) w, including the zero ones below the weight floors
    v, w = psi_vec(R1), Vec.basis(R1, (-2, -1))
    for uname, u in _test_vectors(R1).items():
        it = iterate_modesum(vertex_op, u, v, w, (-4, 1), (-4, 2))
        assert it.vars == ("x0", "x2") and not it.is_zero()
        assert it.exponents_of("x0") <= set(range(-4, 2))
        assert it.exponents_of("x2") <= set(range(-4, 3))
        for e0 in range(-4, 2):
            for e2 in range(-4, 3):
                want = vertex_mode(vertex_mode(u, -e0 - 1, v), -e2 - 1, w)
                assert it.coefficient({"x0": e0, "x2": e2}) == want, (uname, e0, e2)


def test_iterate_side_below_x0_floor_is_zero_without_building():
    # the x0^-1 box of a bracket against an iterate with x0-floor 0 (a
    # cross-slot leg): no delta term can reach it, so nothing is built
    def build(_r0, _r2):
        raise AssertionError("build called for a box below the x0 floor")

    box = Window.of(x0=(-1, -1), x1=(-2, 2), x2=(-2, 2))
    side = iterate_side(R1, build, box, 0, step=F(1, 3), shift=F(1, 3), scale=F(1, 3))
    assert side.is_zero() and side.vars == ("x0", "x1", "x2")


@pytest.mark.parametrize("uname", ["psi", "omega", "dpsi"])
@pytest.mark.parametrize("vname", ["psi", "omega", "dpsi"])
def test_skew_symmetry(uname, vname):
    vecs = _test_vectors(R1)
    rep = skew_symmetry_check(vecs[uname], vecs[vname])
    assert rep.status == "pass", (uname, vname, rep.first_mismatch)


@pytest.mark.parametrize("uname", ["psi", "omega", "dpsi"])
def test_l_derivative(uname):
    vecs = _test_vectors(R1)
    for target in (psi_vec(R1), Vec.basis(R1, (-2, -1))):
        rep = l_derivative_check(vecs[uname], target)
        assert rep.status == "pass", (uname, rep.first_mismatch)


def test_l_derivative_vacuum_trivial():
    rep = l_derivative_check(vac_vec(R1), psi_vec(R1))
    assert rep.status == "pass"


# ---------------------------------------------------------------------------
# VecSeries plumbing
# ---------------------------------------------------------------------------


def test_vecseries_alignment_and_arith():
    a = VecSeries(R1, ("x",), {(F(1),): psi_vec(R1)})
    b = VecSeries(R1, ("z",), {(F(2),): psi_vec(R1)})
    c = a + b
    assert c.coefficient({"x": 1}) == psi_vec(R1)
    assert c.coefficient({"z": 2}) == psi_vec(R1)
    assert (c - c).is_zero()


def test_vecseries_mul_series_exponents():
    from permtwist.fseries import FracSeries

    a = VecSeries(R1, ("x",), {(F(-1),): psi_vec(R1)})
    s = FracSeries.monomial(R1, F(3), {"x": F(1, 2), "z": 2})
    out = a.mul_series(s)
    assert out.coefficient({"x": F(-1, 2), "z": 2}) == psi_vec(R1).scale(3)


def test_vecseries_exponent_maps():
    a = VecSeries(R1, ("x",), {(F(2),): psi_vec(R1)})
    assert a.shift_exponents("x", F(1, 3)).exponents_of("x") == {F(7, 3)}
    assert a.scale_exponents("x", F(1, 2)).exponents_of("x") == {F(1)}
    d = a.derivative("x")
    assert d.coefficient({"x": 1}) == psi_vec(R1).scale(2)


def test_min_exponent_floor():
    # Y(psi, x) psi bottoms out at the vacuum: modes kill below weight 0
    assert min_exponent(psi_vec(R1), psi_vec(R1)) == -1
    s = vertex_op(psi_vec(R1), psi_vec(R1), Window.of(x=(-5, 3)))
    assert min(e[0] for e in s.support()) >= -1
