"""Tests for the cyclic-orbifold engine: dressing, twisted fields and modes,
conjugation, brackets, the fractional Jacobi identity, untwisting, and the
even-order obstruction."""

from __future__ import annotations

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permtwist.exactnum import get_ring
from permtwist.fermion import (
    Vec,
    VecSeries,
    iterate_modesum,
    min_exponent,
    omega_vec,
    psi_vec,
    standard_basis,
    state_weight,
    two_sided,
    untwisted_jacobi_check,
    vac_vec,
    vec_equal_on_window,
    vertex_op,
    virasoro_mode,
)
from permtwist.fseries import CheckReport, CompositionDomainError, FracSeries, Window, delta_truncated, gbinom
from permtwist import fermion, twistor
from permtwist.twistor import (
    ObstructionError,
    _dress_key,
    _iterate_shared,
    _parts_field,
    _slot_field,
    conjugation_check,
    delta_apply,
    delta_roundtrip_check,
    invariant_subspace_scan,
    lg0_check,
    lminus1_check,
    mode_grading_check,
    mode_vs_field_check,
    obstruction_report,
    roundtrip_retwist_check,
    roundtrip_untwist_check,
    supercommutator_check,
    supercommutator_factor_witness,
    twisted_field,
    twisted_floor,
    twisted_jacobi_check,
    twisted_jacobi_eigen_check,
    twisted_mode,
    untwist,
    untwist_commutator_check,
    untwist_evenbranch_witness,
    ybar,
)

from oracles import bracket_reference, conjugation_rhs_by_powers, dress_by_components, iterate_residue_reference

R1 = get_ring(1)
R2 = get_ring(2)
R3 = get_ring(3)

# a perturbed flow whose a_2 is off the (1/3)Z lattice; the same tuple is the
# conjugation negative control of the benchmark sweep
BAD_A_OFF_LATTICE = (F(-1), F(2, 3) + F(1, 7), F(-2, 3), F(7, 9), F(-26, 27))


# ---------------------------------------------------------------------------
# one iterate leg on its own, read only by these tests
# ---------------------------------------------------------------------------


def twisted_iterate(u: Vec, su: int, v: Vec, sv: int, w: Vec,
                    x0_range, x2_range, *, N: int | None = None) -> VecSeries:
    """Yg(Y(u-in-slot-su, x0) v-in-slot-sv, x2) w on the rectangle, by the
    locality-regularized residue form (never materializing two-slot states).

    x0 exponents are integral (plain modes of the two-slot product state);
    x2 runs on the (1/k)Z lattice.  N defaults to one past the deepest
    nonvanishing same-slot product mode; any larger N gives the same answer
    (checked in the tests), which is the regularization being well-defined.
    """
    if N is None:
        N = max(1, -min_exponent(u, v))
    job = (((w.ring.one, su),), x0_range, x2_range)
    return _iterate_shared(u, [job], v, sv, w, N)[0]


def iterate_vs_modes_check(u: Vec, v: Vec, w: Vec, *, slot: int = 1,
                           x0_range=(-3, 1), x2_range=(-1, 1)) -> CheckReport:
    """Same-slot iterate == the mode-by-mode sum over plain products:

      Yg(Y(u^s, x0) v^s, x2) w == sum_{e0} x0^{e0} Yg((u_{-e0-1} v)^s, x2) w
    """
    got = twisted_iterate(u, slot, v, slot, w, x0_range, x2_range)
    want = iterate_modesum(_slot_field(slot), u, v, w, x0_range, x2_range)
    box = Window.of(x0=x0_range, x2=x2_range)
    return vec_equal_on_window(
        got, want, box, "twisted.iterate-vs-modes",
        anchors=("Yg(Y(u^s,x0)v^s,x2)w == sum_e0 x0^e0 Yg((u_(-e0-1)v)^s,x2)w",),
        k=w.ring.k,
    )


def _targets(ring, max_weight):
    return [Vec.basis(ring, key) for key in standard_basis(max_weight)]


# ---------------------------------------------------------------------------
# the dressing operator
# ---------------------------------------------------------------------------


def test_dressing_k1_is_identity():
    for u in (psi_vec(R1), omega_vec(R1), Vec.basis(R1, (-3, -2))):
        ser = delta_apply(u)
        assert ser.exponents_of("x") == {F(0)}
        assert ser.coefficient({"x": 0}) == u


def test_dressing_generator_pins():
    # k=3: D(x) psi = 3^(-1/2) x^(-1/3) psi, one bucket, nothing else
    ser = delta_apply(psi_vec(R3))
    assert ser.exponents_of("x") == {F(-1, 3)}
    vec = ser.coefficient({"x": F(-1, 3)})
    assert vec.terms == {(-1,): R3.sqrt_k_pow(-1)}
    # k=2 (the dressing exists for every k; only module structure fails)
    ser2 = delta_apply(psi_vec(R2))
    assert ser2.exponents_of("x") == {F(-1, 4)}
    assert ser2.coefficient({"x": F(-1, 4)}).terms == {(-1,): R2.sqrt_k_pow(-1)}


def test_dressing_conformal_vector_k3():
    # D(x) omega = (1/9) omega x^(-4/3) + (1/54) vac x^(-2).
    # The weight-0 bucket is a2 * L(2) omega scaled by k^(-2): (2/3)(1/4)(1/9).
    ser = delta_apply(omega_vec(R3))
    assert ser.exponents_of("x") == {F(-4, 3), F(-2)}
    assert ser.coefficient({"x": F(-4, 3)}) == omega_vec(R3).scale(F(1, 9))
    assert ser.coefficient({"x": -2}) == vac_vec(R3).scale(F(1, 54))


def test_inverse_dressing_conformal_vector_k2():
    # D(x)^-1 omega = 4 omega x + (-1/16) vac x^(-1)
    ser = delta_apply(omega_vec(R2), invert=True)
    assert ser.exponents_of("x") == {F(1), F(-1)}
    assert ser.coefficient({"x": 1}) == omega_vec(R2).scale(4)
    assert ser.coefficient({"x": -1}) == vac_vec(R2).scale(F(-1, 16))


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
    for e in delta_apply(u).exponents_of("x"):
        j = p - (e + p) * 3  # invert the exponent map
        assert j == int(j) and 0 <= j <= 1  # weight can drop at most to 1/2


def _eta_combination(ring, powers: dict) -> Vec:
    """sum eta^p key over the (key, p) items of powers."""
    return Vec(ring, {key: ring.eta(p) for key, p in powers.items()})


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("invert", [False, True])
def test_dressing_is_linear_over_keys(k, invert):
    # each key is dressed once through the cache; a sum of keys with field
    # coefficients must still dress to the sum of their dressings, with keys
    # shared by a and b and several keys of one weight
    ring = get_ring(k)
    pairs = [
        ({(-1,): 1, (-2, -1): 2}, {(-3,): k - 1, (-2, -1): 0}),
        ({(-2,): 1, (-3, -1): 3}, {(-2, -1): 2, (-4,): 1}),
        ({(-3, -2, -1): 1, (-1,): 0}, {(-4, -1): 2, (-3, -2): k - 2}),
    ]
    for pa, pb in pairs:
        a, b = _eta_combination(ring, pa), _eta_combination(ring, pb)
        want = delta_apply(a, invert=invert) + delta_apply(b, invert=invert)
        assert delta_apply(a + b, invert=invert) == want
    # cancellation: a + (-a) dresses to the zero series
    assert delta_apply(a + (-a), invert=invert).is_zero()


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=5),
    invert=st.booleans(),
    perturbed=st.booleans(),
    powers=st.dictionaries(st.sampled_from(standard_basis(F(7, 2))), st.integers(min_value=0, max_value=4),
                           min_size=1, max_size=4),
)
def test_dressing_matches_component_flow(k, invert, perturbed, powers):
    # the cached per-key dressings, scaled and summed, against the flow of
    # each weight component of u as a whole, with no cache
    u = _eta_combination(get_ring(k), powers)
    over = BAD_A_OFF_LATTICE if perturbed else None
    assert delta_apply(u, invert=invert, a_override=over) == dress_by_components(u, invert=invert, a_override=over)


@pytest.mark.parametrize("invert", [False, True])
def test_single_key_dressing_is_the_cached_series(invert):
    # coefficient one hands out the cached series itself; any other
    # coefficient gives a scaled series with entries of its own
    key = (-3, -2)
    cached = _dress_key(key, 3, invert, None)
    assert len(cached.terms) > 1
    assert delta_apply(Vec.basis(R3, key), invert=invert) is cached
    scaled = delta_apply(Vec.basis(R3, key, R3.eta(1)), invert=invert)
    assert scaled == cached.scale(R3.eta(1))
    assert not any(vec is cached.terms.get(n) for n, vec in scaled.terms.items())


def test_dressing_override_does_not_leak_through_the_cache():
    # the perturbed and the true flow are cached apart, whichever runs first
    u, v = psi_vec(R3), Vec.basis(R3, (-1,))
    for order in ((BAD_A_OFF_LATTICE, None), (None, BAD_A_OFF_LATTICE)):
        _dress_key.cache_clear()
        for over in order:
            rep = conjugation_check(u, v, a_override=over)
            assert rep.status == ("pass" if over is None else "fail"), (order, over)


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
    for e, vec in base.by_exponent():
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
        hits = [(e, vec.terms[(-1,)]) for e, vec in ser.by_exponent()
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
    rep = conjugation_check(psi_vec(R3), Vec.basis(R3, (-1,)), a_override=BAD_A_OFF_LATTICE)
    assert rep.status == "fail"
    assert rep.first_mismatch is not None


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("z0_hi", [3, 5])
def test_conjugation_right_side_matches_hand_built_powers(monkeypatch, k, z0_hi):
    # the one substitute at the root difference against every (bucket, power)
    # pair built by hand, with the true and a perturbed flow, and for u = 0
    ring = get_ring(k)
    seen = []
    compare = twistor.vec_equal_on_window
    monkeypatch.setattr(twistor, "vec_equal_on_window",
                        lambda lhs, rhs, *args, **kw: seen.append(rhs) or compare(lhs, rhs, *args, **kw))
    for u in (psi_vec(ring), omega_vec(ring), Vec(ring)):
        for key in standard_basis(F(3, 2)):
            v = Vec.basis(ring, key)
            for over in (None, BAD_A_OFF_LATTICE):
                conjugation_check(u, v, z0_hi=z0_hi, a_override=over)
                assert seen.pop() == conjugation_rhs_by_powers(u, v, z0_hi, over), (u.render(), key, over)


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


def test_supercommutator_leaves_cached_dressings_unchanged(monkeypatch):
    # record the cached dressings that bracket checks, twisted modes and
    # conjugation checks read, then run them again: the same cached series
    # come back, holding the same Vec objects with the same integers.  The
    # second bracket dresses two keys of one weight, whose series meet at one
    # exponent; a twisted mode's terms are the cached Vecs themselves.
    seen = {}

    def recording(*args):
        seen[args] = out = _dress_key(*args)
        return out

    om, psi, vac, w = omega_vec(R3), psi_vec(R3), vac_vec(R3), Vec.basis(R3, (-1,))
    two_keys = Vec(R3, {(-4, -1): 1, (-3, -2): R3.eta(1)})
    runs = [
        lambda: supercommutator_check(om, om, vac).status,
        lambda: supercommutator_check(two_keys, psi, vac).status,
        lambda: twisted_mode(om, 1).apply(w),
        lambda: twisted_mode(two_keys.scale(F(1, 2)), F(-1, 3)).apply(w),
        lambda: conjugation_check(om, w).status,
        lambda: conjugation_check(psi, w, a_override=BAD_A_OFF_LATTICE).status,
    ]
    monkeypatch.setattr(twistor, "_dress_key", recording)
    first = [run() for run in runs]
    monkeypatch.undo()
    assert first[:2] == ["pass", "pass"] and first[4:] == ["pass", "fail"]
    assert not (first[2].is_zero() or first[3].is_zero())
    snap = {args: (out.den, [(key, vec, vec.den, vec.copy().slots) for key, vec in out.terms.items()])
            for args, out in seen.items()}
    assert [run() for run in runs] == first
    for args, (den, entries) in snap.items():
        out = _dress_key(*args)
        assert out is seen[args] and out.den == den and list(out.terms) == [key for key, *_ in entries]
        for key, vec, vec_den, slots in entries:
            assert out.terms[key] is vec and (vec.den, vec.slots) == (vec_den, slots), args


def test_supercommutator_fractional_factor_is_load_bearing_k2():
    # with the beta-dressing the k=2 bracket closes; without it, it provably fails
    psi = psi_vec(R2)
    assert supercommutator_check(psi, psi, vac_vec(R2)).status == "pass"
    assert supercommutator_check(psi, psi, vac_vec(R2), drop_factor=True).status == "fail"
    wit = supercommutator_factor_witness(psi, psi, vac_vec(R2))
    assert wit.status == "pass"
    assert "witness" in (wit.detail or "")


def _bracket_cases(ring):
    psi, om = psi_vec(ring), omega_vec(ring)
    return [(u, v, w) for u in (psi, om) for v in (psi, om) for w in (vac_vec(ring), psi)]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_supercommutator_matches_hand_built_bracket(k):
    # the x0^-1 slice of jacobi_check against the bracket assembled by hand:
    # both product rectangles of the box, minus the iterate side at x0 = -1
    ring = get_ring(k)
    box = Window.of(x1=(-2, 2), x2=(-2, 2))
    cases = [(u, v, w, False) for u, v, w in _bracket_cases(ring)]
    if k == 2:
        cases += [(psi_vec(ring), psi_vec(ring), vac_vec(ring), True)]
    for u, v, w, drop in cases:
        rep = supercommutator_check(u, v, w, drop_factor=drop)
        beta = F(0) if drop else F(u.parity() * (1 - k), 2 * k)
        ref = bracket_reference(ybar, u, v, w, box, offset=beta, den=k, rhs_scale=F(1, k),
                                identity="twisted.supercommutator", anchors=rep.anchors)
        assert rep.to_json() == ref.to_json(), (u.render(), v.render(), w.render(), drop)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("offset", [F(0), F(-1), F(1, 2)])
def test_untwist_commutator_matches_hand_built_bracket(k, offset):
    ring = get_ring(k)
    box = Window.of(x1=(-2, 2), x2=(-2, 2))
    for u, v, w in _bracket_cases(ring):
        rep = untwist_commutator_check(u, v, w, offset=offset)
        ref = bracket_reference(untwist, u, v, w, box, offset=offset, den=1, rhs_scale=F(1),
                                identity="untwist.supercommutator", anchors=rep.anchors)
        assert rep.to_json() == ref.to_json(), (u.render(), v.render(), w.render())


@pytest.mark.parametrize("k", [1, 3])
def test_bracket_builds_only_the_box_rectangles(monkeypatch, k):
    # the x0^-1 slice has one delta index, n = 0, so its binomial tail is
    # empty: a default-box bracket asks each product side only for the box,
    # with the inner variable cut at its field's floor
    ring = get_ring(k)
    seen = []

    def spy(field, u, v, w, win1, win2, vars, band):
        seen.append((vars, tuple(map(F, win1)), tuple(map(F, win2))))
        return two_sided(field, u, v, w, win1, win2, vars, band)

    monkeypatch.setattr(fermion, "two_sided", spy)
    for u, v, w in _bracket_cases(ring):
        seen.clear()
        assert supercommutator_check(u, v, w).status == "pass"
        fu, fv = twisted_floor(u, w), twisted_floor(v, w)
        assert seen == [(("x1", "x2"), (-2, 2), (max(fv, -2), 2)),
                        (("x2", "x1"), (-2, 2), (max(fu, -2), 2))]


def by_exponents(s: VecSeries) -> dict:
    """(Fraction exponents, Vec) of every term, in the series' vars."""
    return {tuple(F(n, s.den) for n in key): vec for key, vec in s.terms.items()}


@pytest.mark.parametrize("k", [1, 3])
def test_banded_two_sided_is_the_rectangle_cut_to_the_band(k):
    # a band only skips entries: every kept (f1, f2) is the rectangle's own
    ring = get_ring(k)
    one = ring.one
    w = Vec.basis(ring, (-2, -1))
    fields = [
        (vertex_op, omega_vec(ring), psi_vec(ring)),
        (_parts_field, ((one, omega_vec(ring), 1),), ((ring.eta(1 % k), psi_vec(ring), 2 if k > 1 else 1),)),
    ]
    win1, win2 = (F(-3), F(2)), (F(-2), F(3))
    for field, u, v in fields:
        full = by_exponents(two_sided(field, u, v, w, win1, win2, ("x1", "x2"), (F(-5), F(5))))
        assert len({f1 for f1, _f2 in full}) > 3
        for band in [(F(-1), F(1)), (F(-4, 3), F(0)), (F(2), F(2)), (F(7), F(9))]:
            got = by_exponents(two_sided(field, u, v, w, win1, win2, ("x1", "x2"), band))
            assert got == {fs: vec for fs, vec in full.items() if band[0] <= sum(fs) <= band[1]}, band


def test_checks_refuse_a_mixed_parity_state():
    # psi + omega has no Koszul sign: every Jacobi and bracket check, and the
    # witnesses reading its parity, raise ValueError naming the state
    ring = R3
    mixed, psi, vac = psi_vec(ring) + omega_vec(ring), psi_vec(ring), vac_vec(ring)
    calls = [
        lambda: untwisted_jacobi_check(psi_vec(R1) + omega_vec(R1), psi_vec(R1), vac_vec(R1)),
        lambda: twisted_jacobi_check(mixed, 1, psi, 2, vac),
        lambda: twisted_jacobi_check(psi, 1, mixed, 2, vac),
        lambda: twisted_jacobi_eigen_check(mixed, 1, psi, 1, vac),
        lambda: supercommutator_check(mixed, psi, vac),
        lambda: supercommutator_check(psi, mixed, vac, drop_factor=True),
        lambda: untwist_commutator_check(mixed, psi, vac),
        lambda: supercommutator_factor_witness(mixed, psi, vac),
        lambda: untwist_evenbranch_witness(mixed, psi, vac),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"psi\(-1/2\)\|0> \+ .* is not parity-homogeneous"):
            call()


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


# psi(-3/2)psi(-1/2)|0> is 2 omega: the same field on an integer den
_GRID_STATES = {"psi": psi_vec, "omega": omega_vec, "pp": lambda ring: Vec.basis(ring, (-2, -1))}
_GRID_PAIRS = [("psi", "psi"), ("psi", "pp"), ("omega", "psi"), ("omega", "pp")]


@pytest.mark.parametrize("k, uname, vname", [
    (k, un, vn) for k in (1, 3, 5) for un, vn in _GRID_PAIRS if k < 5 or "psi" in (un, vn)
])
def test_iterate_shared_matches_residue_reference(k, uname, vname):
    # the delta pairing against the residue sum taken one index at a time:
    # every slot, a two-slot combination with eta-valued coefficients, four
    # window shapes in one call, three targets, s2 <= 3 and two regularizers
    # (one at k = 5, where the pairs with a weight-2 state are the slowest)
    ring = get_ring(k)
    u, v = _GRID_STATES[uname](ring), _GRID_STATES[vname](ring)
    combos = [((ring.one, s),) for s in range(1, k + 1)]
    if k > 1:
        combos.append(((ring.eta(1), 2), (ring.eta(2) * F(1, 3), k)))
    wins = [((0, 1), (-1, 1)), ((-2, 0), (F(-1, k), 1)), ((0, 0), (0, 0)), ((-1, -1), (-1, F(2, k)))]
    N0 = max(1, -min_exponent(u, v))
    for w in (vac_vec(ring), Vec.basis(ring, (-1,)), Vec.basis(ring, (-2, -1))):
        for s2 in range(1, min(k, 3) + 1):
            for N in (N0, N0 + 1) if k < 5 else (N0,):
                jobs = [(c, r0, r2) for c in combos for r0, r2 in wins]
                got = _iterate_shared(u, jobs, v, s2, w, N)
                want = iterate_residue_reference(u, jobs, v, s2, w, N)
                for job, a, b in zip(jobs, got, want, strict=True):
                    assert a == b, (w, s2, N, job)


def test_iterate_shared_edge_windows():
    # an empty window, a window wholly below x0^-N and one that starts
    # below it, alone and beside a live job
    psi = psi_vec(R3)
    w = Vec.basis(R3, (-1,))
    N = max(1, -min_exponent(psi, psi))
    live = (((R3.one, 2),), (0, 1), (-1, 1))
    for r0, r2 in [((1, 0), (-1, 1)), ((0, 1), (1, 0)), ((-N - 3, -N - 1), (-1, 1)), ((-N - 2, 0), (-1, 1))]:
        for jobs in ([(((R3.one, 3),), r0, r2)], [(((R3.one, 3),), r0, r2), live]):
            got = _iterate_shared(psi, jobs, psi, 1, w, N)
            assert got == iterate_residue_reference(psi, jobs, psi, 1, w, N), (r0, r2)
            if r0[1] + N < 0 or r0[0] > r0[1] or r2[0] > r2[1]:
                assert got[0].is_zero()


def test_iterate_builds_one_product_rectangle(monkeypatch):
    # at k = 5 the Jacobi check hands its four cross-slot legs to one
    # _iterate_shared call, which builds one two_sided rectangle for all of them
    rects, calls = [], []
    real_two_sided, real_iterate = twistor.two_sided, twistor._iterate_shared

    def spy_two_sided(*args):
        rects.append(args)
        return real_two_sided(*args)

    def spy_iterate(u, jobs, *rest):
        calls.append(len(jobs))
        return real_iterate(u, jobs, *rest)

    monkeypatch.setattr(twistor, "two_sided", spy_two_sided)
    monkeypatch.setattr(twistor, "_iterate_shared", spy_iterate)
    R5 = get_ring(5)
    rep = twisted_jacobi_check(psi_vec(R5), 1, psi_vec(R5), 2, vac_vec(R5))
    assert rep.status == "pass", rep.first_mismatch
    assert calls == [4]
    assert len(rects) == len(calls)


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
        phase=1, prefix=(F(1, 3), {"x2": -1}),
    )
    full = it.mul_series(d)
    cut = full.truncate_window(box)
    assert 0 < len(cut.terms) < len(full.terms)  # the box cuts the support
    got = it.mul_series(d, box)
    assert got.vars == cut.vars and got.terms == cut.terms
    # a box that pins a variable, and one that bounds only some variables
    for part in (Window.of(x0=(0, 1), x1=(F(1, 3), F(1, 3)), x2=(-1, 1)), Window.of(x1=(-1, 0))):
        cut = full.truncate_window(part)
        assert 0 < len(cut.terms) < len(full.terms)
        got = it.mul_series(d, part)
        assert got.vars == cut.vars and got.terms == cut.terms
    # a box that misses the support entirely gives the zero series
    assert it.mul_series(d, Window.of(x0=(40, 41), x1=(-1, 1), x2=(-1, 1))).is_zero()
    # a unit monomial moves keys only: the entries are shared, not copied
    got = it.mul_series(FracSeries.monomial(R3, 1, {"x0": -1}), Window.of(x0=(-1, -1)))
    assert got == it.shift_exponents("x0", -1).truncate_window(Window.of(x0=(-1, -1)))
    assert got.terms and all(vec is it.terms[(0,) + key[1:]] for key, vec in got.terms.items())


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


@pytest.mark.parametrize("window", [Window.of(x=(None, 2)), Window.of(x=(-1, None)), Window.of(y=(0, 1))],
                         ids=["open-below", "open-above", "no-x"])
@pytest.mark.parametrize("field", [vertex_op, ybar, untwist])
def test_a_field_window_open_on_a_side_or_without_x_is_a_value_error(field, window):
    with pytest.raises(ValueError, match=r"window must bound x on both sides"):
        field(psi_vec(R3), vac_vec(R3), window)
    assert Window.of(x=(-1, 2), y=(None, 0)).span("x") == (F(-1), F(2))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_untwist_names_the_lowest_off_lattice_exponent(monkeypatch, k):
    # inverse-dressing buckets moved 1/2k off the lattice move every rebuilt
    # exponent by 1/2; the window keeps the rebuilt exponents from lo to hi - 1
    ring = get_ring(k)
    u, w = psi_vec(ring), Vec.basis(ring, (-1,))
    lowest = min(untwist(u, w, Window.of(x=(-3, 2))).exponents_of("x")) + F(1, 2)
    dress = twistor.delta_apply

    def off_lattice(v, *, invert=False, **kw):
        out = dress(v, invert=invert, **kw)
        return out.shift_exponents("x", F(1, 2 * k)) if invert else out

    monkeypatch.setattr(twistor, "delta_apply", off_lattice)
    message = f"rebuilt field exponent {lowest} not integral (k={k})"
    with pytest.raises(CompositionDomainError, match=re.escape(message)):
        untwist(u, w, Window.of(x=(-3, 3)))


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
