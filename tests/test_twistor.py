"""Tests for the cyclic-orbifold engine: dressing, twisted fields and modes,
conjugation, brackets, the fractional Jacobi identity, untwisting, and the
even-order obstruction."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permtwist.exactnum import get_ring
from permtwist.fermion import (
    Vec,
    omega_vec,
    psi_vec,
    standard_basis,
    state_weight,
    vac_vec,
    vertex_op,
    virasoro_mode,
)
from permtwist.fseries import Window, delta_truncated, gbinom
from permtwist.twistor import (
    ObstructionError,
    conjugation_check,
    delta_apply,
    delta_roundtrip_check,
    invariant_subspace_scan,
    iterate_vs_modes_check,
    lg0_check,
    lminus1_check,
    mode_grading_check,
    mode_vs_field_check,
    obstruction_report,
    other_slots,
    roundtrip_retwist_check,
    roundtrip_untwist_check,
    supercommutator_check,
    supercommutator_factor_witness,
    twisted_field,
    twisted_iterate,
    twisted_jacobi_check,
    twisted_jacobi_eigen_check,
    twisted_mode,
    untwist,
    untwist_commutator_check,
    untwist_evenbranch_witness,
    ybar,
)

R1 = get_ring(1)
R2 = get_ring(2)
R3 = get_ring(3)


def _targets(ring, max_weight):
    return [Vec.basis(ring, key) for key in standard_basis(max_weight)]


# ---------------------------------------------------------------------------
# the dressing operator
# ---------------------------------------------------------------------------


def test_dressing_k1_is_identity():
    for u in (psi_vec(R1), omega_vec(R1), Vec.basis(R1, (-3, -2))):
        ser = delta_apply(u)
        assert set(ser.terms) == {(F(0),)}
        assert ser.terms[(F(0),)] == u


def test_dressing_generator_pins():
    # k=3: D(x) psi = 3^(-1/2) x^(-1/3) psi, one bucket, nothing else
    ser = delta_apply(psi_vec(R3))
    assert set(ser.terms) == {(F(-1, 3),)}
    vec = ser.terms[(F(-1, 3),)]
    assert vec.terms == {(-1,): R3.sqrt_k_pow(-1)}
    # k=2 (the dressing exists for every k; only module structure fails)
    ser2 = delta_apply(psi_vec(R2))
    assert set(ser2.terms) == {(F(-1, 4),)}
    assert ser2.terms[(F(-1, 4),)].terms == {(-1,): R2.sqrt_k_pow(-1)}


def test_dressing_conformal_vector_k3():
    # D(x) omega = (1/9) omega x^(-4/3) + (1/54) vac x^(-2).
    # The weight-0 bucket is a2 * L(2) omega scaled by k^(-2): (2/3)(1/4)(1/9).
    ser = delta_apply(omega_vec(R3))
    assert set(ser.terms) == {(F(-4, 3),), (F(-2),)}
    assert ser.terms[(F(-4, 3),)] == omega_vec(R3).scale(F(1, 9))
    assert ser.terms[(F(-2),)] == vac_vec(R3).scale(F(1, 54))


def test_inverse_dressing_conformal_vector_k2():
    # D(x)^-1 omega = 4 omega x + (-1/16) vac x^(-1)
    ser = delta_apply(omega_vec(R2), invert=True)
    assert set(ser.terms) == {(F(1),), (F(-1),)}
    assert ser.terms[(F(1),)] == omega_vec(R2).scale(4)
    assert ser.terms[(F(-1),)] == vac_vec(R2).scale(F(-1, 16))


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([1, 2, 3, 4, 5]), idx=st.integers(min_value=0, max_value=12))
def test_dressing_roundtrip_property(k, idx):
    ring = get_ring(k)
    basis = standard_basis(F(7, 2))
    u = Vec.basis(ring, basis[idx % len(basis)])
    assert delta_roundtrip_check(u).status == "pass"


def test_dressing_exponent_bookkeeping():
    # forward bucket J sits at (p-J)/k - p; check on the weight-5/2 state
    u = Vec.basis(R3, (-2,))
    p = F(3, 2)
    for (e,), _vec in delta_apply(u).terms.items():
        j = p - (e + p) * 3  # invert the exponent map
        assert j == int(j) and 0 <= j <= 1  # weight can drop at most to 1/2


# ---------------------------------------------------------------------------
# twisted fields
# ---------------------------------------------------------------------------


def test_field_k1_is_plain_vertex_operator():
    win = Window.of(x=(-3, 3))
    for u in (psi_vec(R1), omega_vec(R1)):
        for w in _targets(R1, F(3, 2)):
            got = ybar(u, w, win)
            want = vertex_op(u, w, win)
            assert (got - want).truncate_window(win).is_zero()


def test_field_generator_exponent_coset_k3():
    ser = ybar(psi_vec(R3), vac_vec(R3), Window.of(x=(F(-1, 3), 3)))
    exps = ser.exponents_of("x")
    assert exps and all((3 * e) % 1 == 0 for e in exps)
    assert F(-1, 3) in exps


def test_other_slot_phases():
    # slot s multiplies the exponent-e coefficient by eta^{(s-1) k e}
    win = Window.of(x=(F(-1, 3), F(5, 3)))
    base = ybar(psi_vec(R3), vac_vec(R3), win)
    slot2 = twisted_field(psi_vec(R3), 2, vac_vec(R3), win)
    for (e,), vec in base.terms.items():
        assert slot2.coefficient({"x": e}) == vec.scale(R3.eta((int(3 * e)) % 3))


@pytest.mark.parametrize("k", [1, 3])
def test_field_derivative_rule(k):
    ring = get_ring(k)
    for u in (psi_vec(ring), omega_vec(ring)):
        for w in (vac_vec(ring), Vec.basis(ring, (-1,))):
            assert lminus1_check(u, w).status == "pass"


# ---------------------------------------------------------------------------
# twisted modes
# ---------------------------------------------------------------------------


def test_generator_mode_tabulation_k3():
    # the slot-1 generator mode at index m is 3^(-1/2) psi_{3m+1}
    for m in (F(-1, 3), F(0), F(2, 3), F(1), F(-4, 3)):
        act = twisted_mode(psi_vec(R3), m)
        assert len(act.terms) == 1
        vec, n = act.terms[0]
        assert n == 3 * m + 1
        assert vec.terms == {(-1,): R3.sqrt_k_pow(-1)}


def test_mode_off_lattice_vanishes():
    assert twisted_mode(psi_vec(R3), F(1, 2)).is_zero()
    assert twisted_mode(omega_vec(R3), F(1, 6)).is_zero()


def test_mode_vs_field_sweep_k3():
    for u in (psi_vec(R3), omega_vec(R3)):
        for w in _targets(R3, 2):
            for n in range(-4, 5):
                rep = mode_vs_field_check(u, F(n, 3), w)
                assert rep.status == "pass", rep.first_mismatch


@pytest.mark.parametrize("k", [1, 3])
def test_mode_grading(k):
    assert mode_grading_check(k).status == "pass"


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=-6, max_value=6),
    idx=st.integers(min_value=0, max_value=10),
    pick=st.booleans(),
)
def test_mode_weight_shift_property(n, idx, pick):
    # weight(u^g_m w) = weight(w) + k (wt u - m - 1) whenever nonzero
    u = psi_vec(R3) if pick else omega_vec(R3)
    basis = standard_basis(F(5, 2))
    w = Vec.basis(R3, basis[idx % len(basis)])
    m = F(n, 3)
    got = twisted_mode(u, m).apply(w)
    if got.is_zero():
        return
    shift = 3 * (u.weight() - m - 1)
    for key in got.terms:
        assert state_weight(key) == state_weight(next(iter(w.terms))) + shift


@pytest.mark.parametrize("k", [1, 3, 5])
def test_grading_operator(k):
    assert lg0_check(k).status == "pass"


def test_twisted_vacuum_level_k3():
    # k * omega-mode(1) on the vacuum: pure vacuum anomaly (k^2-1)/48k = 1/18
    got = twisted_mode(omega_vec(R3), 1).apply(vac_vec(R3)).scale(3)
    assert got == vac_vec(R3).scale(F(1, 18))


# ---------------------------------------------------------------------------
# conjugation of a plain insertion by the dressing
# ---------------------------------------------------------------------------


def test_conjugation_vacuum_channel_closed_form():
    # D(z) Y(psi, z0) vac keeps its psi-component in one bucket:
    #   coefficient of z0^m on the psi channel = 3^(-1/2) C(-1/3, m) z^(-1/3-m)
    state = psi_vec(R3)
    fact = 1
    for m in range(4):
        if m:
            state = virasoro_mode(-1, state)
            fact *= m
        ser = delta_apply(state)
        hits = [(e, vec.terms[(-1,)]) for (e,), vec in ser.terms.items()
                if (-1,) in vec.terms]
        assert len(hits) == 1
        e, c = hits[0]
        assert e == F(-1, 3) - m
        assert c == R3.sqrt_k_pow(-1) * R3.rational(gbinom(F(-1, 3), m) * fact)


@pytest.mark.parametrize("k", [1, 3])
def test_conjugation_identity(k):
    ring = get_ring(k)
    for u in (psi_vec(ring), omega_vec(ring)):
        for v in (vac_vec(ring), Vec.basis(ring, (-1,)), Vec.basis(ring, (-2,))):
            rep = conjugation_check(u, v)
            assert rep.status == "pass", (k, rep.first_mismatch)


def test_conjugation_negative_control():
    # a perturbed flow coefficient must break the identity
    bad = (F(-1), F(2, 3) + F(1, 7), F(-2, 3), F(7, 9), F(-26, 27))
    rep = conjugation_check(psi_vec(R3), Vec.basis(R3, (-1,)), a_override=bad)
    assert rep.status == "fail"
    assert rep.first_mismatch is not None


# ---------------------------------------------------------------------------
# the twisted bracket
# ---------------------------------------------------------------------------


def test_supercommutator_k1_reduces_to_plain_bracket():
    rep = supercommutator_check(psi_vec(R1), psi_vec(R1), vac_vec(R1))
    assert rep.status == "pass"


def test_supercommutator_k3():
    psi, om = psi_vec(R3), omega_vec(R3)
    for u, v, w in [
        (psi, psi, vac_vec(R3)),
        (psi, psi, Vec.basis(R3, (-1,))),
        (psi, om, vac_vec(R3)),
        (om, psi, Vec.basis(R3, (-1,))),
        (om, om, vac_vec(R3)),
    ]:
        rep = supercommutator_check(u, v, w)
        assert rep.status == "pass", rep.first_mismatch


def test_supercommutator_fractional_factor_is_load_bearing_k2():
    # with the beta-dressing the k=2 bracket closes; without it, it provably fails
    psi = psi_vec(R2)
    assert supercommutator_check(psi, psi, vac_vec(R2)).status == "pass"
    assert supercommutator_check(psi, psi, vac_vec(R2), drop_factor=True).status == "fail"
    wit = supercommutator_factor_witness(psi, psi, vac_vec(R2))
    assert wit.status == "pass"
    assert "witness" in (wit.detail or "")


def test_supercommutator_witness_even_parity_declines():
    wit = supercommutator_factor_witness(omega_vec(R2), psi_vec(R2), vac_vec(R2))
    assert wit.status == "fail"
    assert "nothing to witness" in (wit.detail or "")


# ---------------------------------------------------------------------------
# iterates
# ---------------------------------------------------------------------------


def test_iterate_matches_mode_sum():
    psi, om = psi_vec(R3), omega_vec(R3)
    assert iterate_vs_modes_check(psi, psi, vac_vec(R3)).status == "pass"
    assert iterate_vs_modes_check(om, psi, Vec.basis(R3, (-1,))).status == "pass"
    assert iterate_vs_modes_check(psi, psi, vac_vec(R3), slot=2).status == "pass"


def test_iterate_regularization_is_stable():
    it1 = twisted_iterate(psi_vec(R3), 1, psi_vec(R3), 1, vac_vec(R3), (-2, 1), (-1, 1))
    it2 = twisted_iterate(psi_vec(R3), 1, psi_vec(R3), 1, vac_vec(R3), (-2, 1), (-1, 1), N=5)
    box = Window.of(x0=(-2, 1), x2=(-1, 1))
    assert (it1 - it2).truncate_window(box).is_zero()


def test_cross_slot_iterate_floor():
    # a field in another slot can only create out of that slot's vacuum:
    # no poles in x0
    ser = twisted_iterate(psi_vec(R3), 2, psi_vec(R3), 1, vac_vec(R3), (-3, 1), (-1, 1))
    for (e0, _e2), vec in ser.terms.items():
        if e0 < 0:
            assert vec.is_zero()


def test_iterate_k1_collapse():
    assert iterate_vs_modes_check(psi_vec(R1), psi_vec(R1), Vec.basis(R1, (-1,))).status == "pass"


# ---------------------------------------------------------------------------
# the fractional Jacobi identity
# ---------------------------------------------------------------------------


def test_jacobi_k1_degenerates_to_plain():
    rep = twisted_jacobi_check(psi_vec(R1), 1, omega_vec(R1), 1, Vec.basis(R1, (-1,)))
    assert rep.status == "pass", rep.first_mismatch


@pytest.mark.parametrize("slots", [(1, 1), (1, 2)])
def test_jacobi_k3_generators(slots):
    s1, s2 = slots
    rep = twisted_jacobi_check(psi_vec(R3), s1, psi_vec(R3), s2, vac_vec(R3))
    assert rep.status == "pass", rep.first_mismatch


def test_jacobi_k3_mixed_pair():
    rep = twisted_jacobi_check(psi_vec(R3), 1, omega_vec(R3), 2, Vec.basis(R3, (-1,)))
    assert rep.status == "pass", rep.first_mismatch


def test_mul_series_box_equals_truncated_product():
    # one cross-slot leg of twisted_jacobi_check at k=3: j=1 moves slot 1 to
    # slot 3, with the windows, tail and eta^j-phased step-1/3 delta that the
    # check picks for psi, psi on the vacuum and this box
    box = Window.of(x0=(-2, 1), x1=(-1, 1), x2=(-1, 1))
    it = twisted_iterate(psi_vec(R3), 3, psi_vec(R3), 1, vac_vec(R3), (0, 1), (-1, 4))
    d = delta_truncated(
        R3, (1, {"x1": 1}), (-1, {"x0": 1}), (1, {"x2": 1}),
        step=F(1, 3), n_range=(-3, 6), tail_order=1,
        phase=lambda n: R3.eta(n % 3), prefix=(F(1, 3), {"x2": -1}),
    )
    full = it.mul_series(d)
    cut = full.truncate_window(box)
    assert 0 < len(cut.terms) < len(full.terms)  # the box cuts the support
    got = it.mul_series(d, box)
    assert got.vars == cut.vars and got.terms == cut.terms
    # a box that misses the support entirely gives the zero series
    assert it.mul_series(d, Window.of(x0=(40, 41), x1=(-1, 1), x2=(-1, 1))).is_zero()


def test_jacobi_k3_conformal_pair():
    rep = twisted_jacobi_check(omega_vec(R3), 1, omega_vec(R3), 2, vac_vec(R3))
    assert rep.status == "pass", rep.first_mismatch


@pytest.mark.parametrize("r", [0, 1, 2])
def test_jacobi_eigencomponent_form(r):
    rep = twisted_jacobi_eigen_check(psi_vec(R3), r, psi_vec(R3), 1, vac_vec(R3))
    assert rep.status == "pass", rep.first_mismatch


# ---------------------------------------------------------------------------
# untwisting: plain fields rebuilt from the twisted side
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_untwist_reproduces_plain_field(k):
    ring = get_ring(k)
    for u in (psi_vec(ring), omega_vec(ring)):
        for w in (vac_vec(ring), Vec.basis(ring, (-1,))):
            rep = roundtrip_untwist_check(u, w)
            assert rep.status == "pass", (k, rep.first_mismatch)


def test_untwist_exponents_are_integral_even_k():
    # the half-integral dressing offset and the field coset cancel at k=2
    ser = untwist(psi_vec(R2), Vec.basis(R2, (-1,)), Window.of(x=(-2, 2)))
    assert all(e.denominator == 1 for e in ser.exponents_of("x"))


def test_retwist_mode_identity_k3():
    for u in (psi_vec(R3), omega_vec(R3)):
        for m in range(-2, 3):
            rep = roundtrip_retwist_check(u, m, Vec.basis(R3, (-1,)))
            assert rep.status == "pass", rep.first_mismatch


def test_untwist_bracket_offset_equivalence_k3():
    # the integer-step delta absorbs any integral dressing offset
    psi = psi_vec(R3)
    for off in (None, F(-1), F(1)):
        rep = untwist_commutator_check(psi, psi, vac_vec(R3), offset=off)
        assert rep.status == "pass", (off, rep.first_mismatch)


def test_untwist_bracket_even_k():
    rep = untwist_commutator_check(psi_vec(R2), psi_vec(R2), vac_vec(R2))
    assert rep.status == "pass", rep.first_mismatch


def test_even_branch_witness_k2():
    # rebuilt fields satisfy every integer-offset bracket but NOT the
    # half-integer branch a genuine order-2 twisted input would impose
    wit = untwist_evenbranch_witness(psi_vec(R2), psi_vec(R2), vac_vec(R2))
    assert wit.status == "pass"
    assert "half-integer" in (wit.detail or "")


def test_even_branch_witness_declines_when_integral():
    # parity-even u at k=2: branch exponent integral, nothing to witness
    wit = untwist_evenbranch_witness(omega_vec(R2), psi_vec(R2), vac_vec(R2))
    assert wit.status == "fail" and "nothing to witness" in (wit.detail or "")
    # odd k: same story
    wit3 = untwist_evenbranch_witness(psi_vec(R3), psi_vec(R3), vac_vec(R3))
    assert wit3.status == "fail" and "nothing to witness" in (wit3.detail or "")


# ---------------------------------------------------------------------------
# the even-order obstruction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,offset,step", [(2, F(1, 4), F(1, 2)), (4, F(1, 8), F(1, 4))])
def test_mode_construction_refuses_even_k(k, offset, step):
    ring = get_ring(k)
    with pytest.raises(ObstructionError) as exc:
        twisted_mode(psi_vec(ring), 0)
    assert exc.value.k == k
    assert exc.value.offset == offset
    assert exc.value.step == step


@pytest.mark.parametrize("k", [2, 4])
def test_obstruction_report_even(k):
    rep = obstruction_report(k)
    assert rep.status == "expected-obstruction"
    assert f"1/{2 * k} + (1/{k})Z" in (rep.detail or "")


def test_obstruction_report_odd_and_even_parity():
    assert obstruction_report(1).status == "pass"
    assert obstruction_report(3).status == "pass"
    # even k but parity-even state: lattice is fine
    assert obstruction_report(2, omega_vec(R2)).status == "pass"


def test_field_coset_certificate_k2():
    # the raw field exponents really do sit on 1/4 + (1/2)Z
    ser = ybar(psi_vec(R2), vac_vec(R2), Window.of(x=(F(-1, 4), 3)))
    exps = ser.exponents_of("x")
    assert exps and all(e % F(1, 2) == F(1, 4) for e in exps)


# ---------------------------------------------------------------------------
# the module holds together: connectivity scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 3, 5])
def test_invariant_subspace_scan(k):
    rep = invariant_subspace_scan(k)
    assert rep.status == "pass", rep.first_mismatch
