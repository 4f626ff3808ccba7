"""Exponential coordinate-change solver and the k-th-power covering map.

Everything here revolves around one change of variable,

    f(x) = z^{1/k}((1+x)^k - 1)/k,

the local coordinate of a k-fold cover.  The module provides:

  * one flow exponential exp(sign * (V d/dx + w dV/dx)) of a vector field
    V = sum_j c_j x^{j+1} on weight-w densities, one boxed product per step,
  * a generic order-by-order solver writing a series f in x*R[[x]] as
        f = exp(sign * sum_j A_j x^{j+1} d/dx) . a0^{x d/dx} . x,
  * the coefficient table a_j of the covering map (sign -1 normalization,
    a_1 = (1-k)/2, a_2 = (k^2-1)/12),
  * f^{-1} both as a binomial closed form and as an independently solved
    compositional inverse,
  * the shifted recomposition F(w) = f(z^{-1/k} w + f^{-1}(x)) - x and the
    coefficient series Theta_j extracted from it, with closed-form checks
    under the substitution x = (1/k) z^{1/k-1} z0,
  * the action of the covering map on C[x,x^{-1}][phi] (one even and one
    Grassmann coordinate), its two first-order transport identities and its
    superfield route: the same flow, with phi a density of weight 1/2.

All series are exact sparse fractional-exponent series; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, floor

from .exactnum import ScalarRing, get_ring
from .fseries import (
    CheckReport,
    CompositionDomainError,
    FracSeries,
    Window,
    assert_equal_on_window,
    binom_expand,
    exp_series,
    inverse_factorial,
    invert_series,
    log_series,
    power_sum,
    unit_pow,
)

Fr = Fraction


# ---------------------------------------------------------------------------
# solved exponential data
# ---------------------------------------------------------------------------


@dataclass
class ExpCoeffs:
    """Solution of f = exp(sign * sum_j A_j var^{j+1} d/dvar) a0^{var d/dvar} var,
    var and sign as given to solve_exp_coeffs.

    A[j-1] holds A_j and a0 is the coefficient of var^1.  A scalar solve
    (no trunc) holds each constant entry as a Scalar; a parametric solve
    holds FracSeries in the remaining variables.
    """

    a0: object
    A: list

    def rationals(self) -> tuple[Fraction, ...]:
        """The A_j as plain rationals (scalar solves only)."""
        return tuple(c.as_rational() for c in self.A)


@dataclass
class ThetaSeries:
    """Coefficient series Theta_0..Theta_N of the shifted recomposition.

    F(w) = f(z^{-1/k} w + f^{-1}(x)) - x is again a series in w * R[[w]], so
    the solver applies with sign +1 and a0-slot e^{2 Theta_0}:

        F = exp(+ sum_j Theta_j w^{j+1} d/dw) (e^{2 Theta_0})^{w d/dw} w.

    theta[0] = Theta_0 = log(a0)/2 and exp_theta0 = a0^{1/2} (principal
    branch).  The odd coordinate of the transformed superfield scales by
    exp(+Theta_0); the + sign is the choice consistent with the generator
    normalization L_0(w, rho) rho = -rho/2 and it is recorded in reports.
    """

    k: int
    order: int
    trunc_order: int
    theta: list[FracSeries]
    exp_theta0: FracSeries
    a0: FracSeries


# ---------------------------------------------------------------------------
# the order-by-order solver
# ---------------------------------------------------------------------------


def _maybe_scalar(s: FracSeries):
    """The Scalar value of s if s is a constant (possibly zero), else s."""
    if not s.terms:
        return s.ring.zero
    if len(s.terms) == 1:
        (exps, c), = s.terms.items()
        if not any(exps):
            return c
    return s


def flow_step(s: FracSeries, field: FracSeries, var: str, box: Window, density) -> FracSeries:
    """(V d/dvar + density * dV/dvar) s in the box, V = field."""
    out = s.derivative(var).mul(field, box)
    if density:
        out = out + s.mul(field.derivative(var) * density, box)
    return out


def flow_exponential(seed: FracSeries, field: FracSeries, var: str, sign: int, box: Window,
                     density) -> FracSeries:
    """exp(sign * (V d/dvar + density * dV/dvar)) . seed in the box, V = field: V has
    var-order >= 2, so each step raises the var-degree by at least one, and the
    box bounds var above: the steps run out between the seed's lowest
    var-power and the box's top."""
    hi = box.as_dict()[var][1]
    limit = max(floor(hi - min(seed.exponents_of(var), default=hi)), 0) + 1
    field = field * sign
    return power_sum(seed, lambda s: flow_step(s, field, var, box, density), inverse_factorial, limit)


def exp_flow(ring: ScalarRing, coeffs, var: str, order, sign: int, a0=None, trunc=None) -> FracSeries:
    """exp(sign * sum_j coeffs[j-1] var^{j+1} d/dvar) . a0^{var d/dvar} . var,
    truncated above var^order; `trunc` optionally bounds a second variable
    when the coefficients are themselves series."""
    field = sum((FracSeries.monomial(ring, 1, {var: j + 1}) * c for j, c in enumerate(coeffs, 1)),
                FracSeries.zero(ring))
    seed = FracSeries.monomial(ring, 1, {var: 1})
    if a0 is not None:
        seed = seed * a0
    box = Window.of(**{var: (None, order)}, **({trunc[0]: (None, trunc[1])} if trunc else {}))
    return flow_exponential(seed, field, var, sign, box, 0)


def solve_exp_coeffs(f: FracSeries, var: str, order: int, sign: int, *, trunc=None) -> ExpCoeffs:
    """Solve f = exp(sign * sum_{j<=order} A_j var^{j+1} d/dvar) a0^{var d/dvar} var.

    f must lie in var * R[[var]] (integer var-exponents >= 1).  At order
    var^{m+1} the unknown A_m enters linearly with coefficient sign * a0 and
    everything else is already determined, so the solution is unique and is
    read off order by order.  Division happens only by a0, through
    invert_series: a monomial a0 inverts exactly, a series-valued a0 needs
    trunc=(aux_var, aux_order).  Without trunc the solve is a scalar solve
    and every constant entry is returned as a Scalar.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    for e in f.exponents_of(var):
        if e < 1 or e.denominator != 1:
            raise CompositionDomainError(f"solver input must lie in {var}*R[[{var}]], found {var}^{e}")
    a0 = f.coefficient_in(var, 1)
    if a0.is_zero():
        raise ZeroDivisionError("zero leading coefficient")
    a0_inv = invert_series(a0, *(trunc or (var, 0)))
    known: list = []
    for m in range(1, order + 1):
        built = exp_flow(f.ring, known, var, m + 1, sign, a0=a0, trunc=trunc)
        resid = (f.coefficient_in(var, m + 1) - built.coefficient_in(var, m + 1)).mul(
            a0_inv, None if trunc is None else Window.below(*trunc))
        known.append(resid * Fr(sign))
    if trunc is None:
        a0, known = _maybe_scalar(a0), [_maybe_scalar(c) for c in known]
    return ExpCoeffs(a0, known)


# ---------------------------------------------------------------------------
# the covering map and its coefficient table
# ---------------------------------------------------------------------------


def covering_series(ring: ScalarRing, k: int, var: str = "x") -> FracSeries:
    """((1+x)^k - 1)/k, the z-free core of the covering map (exact polynomial)."""
    terms = {(Fr(i),): Fr(comb(k, i), k) for i in range(1, k + 1)}
    return FracSeries(ring, (var,), terms)


def compute_a(k: int, order: int) -> ExpCoeffs:
    """The coefficient table a_1..a_order of the covering map for cycle length k.

    Computed by the solver with the flow sign -1, never assumed: f = exp(-sum
    a_j x^{j+1} d/dx) x for the core f = ((1+x)^k - 1)/k.  a_1 = (1-k)/2 and
    a_2 = (k^2-1)/12 are test oracles, not inputs.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    return solve_exp_coeffs(covering_series(get_ring(k), k), "x", order, -1)


@lru_cache(maxsize=64)
def _a_solved(k: int) -> list:
    """A one-entry holder of a_1..a_m for k, m the largest order solved so far."""
    return [()]


def a_table(k: int, order: int = 8) -> tuple[Fraction, ...]:
    """a_1..a_order as plain rationals.  The a_j do not depend on the order
    solved to, so each k is solved once, at the largest order asked for so
    far, and sliced."""
    solved = _a_solved(k)
    if len(solved[0]) < order:
        solved[0] = compute_a(k, order).rationals()
    return solved[0][: max(order, 0)]


def f_and_inverse(k: int, order: int, ring: ScalarRing | None = None):
    """The covering map f(x) = z^{1/k}((1+x)^k - 1)/k (exact) and its inverse.

    The inverse is the binomial closed form (1 + k z^{-1/k} x)^{1/k} - 1,
    expanded about x = 0 with 1^{1/k} = 1, through x^order.
    """
    ring = ring or get_ring(k)
    f = FracSeries(
        ring, ("x", "z"), {(Fr(i), Fr(1, k)): Fr(comb(k, i), k) for i in range(1, k + 1)}
    )
    finv = binom_expand(
        ring, (1, {}), (k, {"x": 1, "z": Fr(-1, k)}), Fr(1, k), order
    ) - FracSeries.one(ring)
    return f, finv


def compositional_inverse(f: FracSeries, var: str, order: int) -> FracSeries:
    """Order-by-order compositional inverse g of f, with f(g) = var + O(var^{order+1}).

    Independent of any closed form: g_m is solved from the var^m coefficient
    of f(g) = var, dividing only by the leading coefficient of f.
    """
    f1inv = invert_series(f.coefficient_in(var, 1), var, 0)
    g = f1inv * FracSeries.monomial(f.ring, 1, {var: 1})
    for m in range(2, order + 1):
        comp = f.substitute(var, g, var, m)
        resid = comp.coefficient_in(var, m)
        if not resid.is_zero():
            g = g - (f1inv * resid) * FracSeries.monomial(f.ring, 1, {var: m})
    return g


def f_inverse_checks(k: int, order: int = 10) -> list[CheckReport]:
    """f o f^{-1} = id, f^{-1} o f = id, and solved inverse == binomial form."""
    ring = get_ring(k)
    f, finv = f_and_inverse(k, order, ring)
    xm = FracSeries.monomial(ring, 1, {"x": 1})
    win = Window.of(x=(0, order))
    out = [
        assert_equal_on_window(
            f.substitute("x", finv, "x", order), xm, win,
            "covering.f-after-finv",
            anchors=("f((1+k z^-1/k x)^(1/k) - 1) == x",), k=k,
        ),
        assert_equal_on_window(
            finv.substitute("x", f, "x", order), xm, win,
            "covering.finv-after-f",
            anchors=("f^-1(z^(1/k)((1+x)^k - 1)/k) == x",), k=k,
        ),
        assert_equal_on_window(
            compositional_inverse(f, "x", order), finv, win,
            "covering.solved-inverse-matches-binomial",
            anchors=("order-by-order inverse of f == (1+k z^-1/k x)^(1/k) - 1",), k=k,
        ),
    ]
    return out


# ---------------------------------------------------------------------------
# Theta extraction and closed forms
# ---------------------------------------------------------------------------


def recomposed_series(ring: ScalarRing, k: int, trunc_order: int) -> FracSeries:
    """F(w) = f(z^{-1/k} w + f^{-1}(x)) - x, built in product form.

    With C = (1 + k z^{-1/k} x)^{1/k} one has 1 + z^{-1/k}w + f^{-1}(x) =
    C + z^{-1/k}w, the w^0 term cancels exactly against x, and

        F = sum_{i=1..k} C(k,i)/k * C^{k-i} * z^{(1-i)/k} * w^i,

    a degree-k polynomial in w whose coefficients carry one z-power per
    x-degree.  (recomposition_cross_check verifies this against the honest
    composition.)
    """
    u = FracSeries.monomial(ring, k, {"x": 1, "z": Fr(-1, k)}) + FracSeries.one(ring)
    out = FracSeries.zero(ring, ("w", "x", "z"))
    for i in range(1, k + 1):
        c_pow = unit_pow(u, Fr(k - i, k), "x", trunc_order)
        mono = FracSeries.monomial(ring, Fr(comb(k, i), k), {"w": i, "z": Fr(1 - i, k)})
        out = out + c_pow * mono
    return out


def recomposition_cross_check(k: int, trunc_order: int = 5) -> CheckReport:
    """Product-form F(w) == the honest composition f(z^{-1/k}w + f^{-1}(x)) - x."""
    ring = get_ring(k)
    f, finv = f_and_inverse(k, trunc_order, ring)
    arg = FracSeries.monomial(ring, 1, {"w": 1, "z": Fr(-1, k)}) + finv
    comp = f.substitute("x", arg, "x", trunc_order) - FracSeries.monomial(ring, 1, {"x": 1})
    direct = recomposed_series(ring, k, trunc_order)
    return assert_equal_on_window(
        comp, direct, Window.of(w=(0, k), x=(0, trunc_order)),
        "theta.recomposition-product-form",
        anchors=("f(z^(-1/k)w + f^-1(x)) - x == sum_i C(k,i)/k C^(k-i) z^((1-i)/k) w^i",),
        k=k,
    )


def theta_extract(k: int, order: int, trunc_order: int | None = None) -> ThetaSeries:
    """Extract Theta_1..Theta_order (and Theta_0) for the covering map.

    Runs the solver parametrically on F(w) with sign +1; the a0-slot is
    e^{2 Theta_0}, so Theta_0 = log(a0)/2 and exp_theta0 = a0^{1/2} with the
    principal branch (leading coefficient of a0 is exactly 1).
    """
    ring = get_ring(k)
    ox = trunc_order if trunc_order is not None else order + 2
    big_f = recomposed_series(ring, k, ox)
    sol = solve_exp_coeffs(big_f, "w", order, +1, trunc=("x", ox))
    theta0 = log_series(sol.a0, "x", ox) * Fr(1, 2)
    exp0 = unit_pow(sol.a0, Fr(1, 2), "x", ox)
    return ThetaSeries(k, order, ox, [theta0] + list(sol.A), exp0, sol.a0)


def theta_verify(k: int, order: int = 4, z0_order: int = 6) -> list[CheckReport]:
    """Closed-form checks for the Theta series under x = (1/k) z^{1/k-1} z0:

        Theta_j      ->  -a_j (z + z0)^{-j/k}              (j = 1..order)
        exp(Theta_0) ->  z^{-(k-1)/2k} (z + z0)^{(k-1)/2k}

    with (z + z0)^e expanded in nonnegative integer powers of z0.  Every
    report records the adopted odd-coordinate convention exp(+Theta_0).
    """
    ring = get_ring(k)
    ts = theta_extract(k, order, trunc_order=z0_order)
    a = a_table(k, max(order, 2))
    sub = FracSeries.monomial(ring, Fr(1, k), {"z": Fr(1, k) - 1, "z0": 1})
    win = Window.of(z0=(0, z0_order))
    convention = "odd coordinate scales by exp(+Theta_0)"
    reports = []
    for j in range(1, order + 1):
        lhs = ts.theta[j].substitute("x", sub, "z0", z0_order)
        rhs = binom_expand(ring, (1, {"z": 1}), (1, {"z0": 1}), Fr(-j, k), z0_order) * (-a[j - 1])
        reports.append(
            assert_equal_on_window(
                lhs, rhs, win, f"theta.closed-form.j{j}",
                anchors=(f"Theta_{j} at x=(1/k)z^(1/k-1)z0 == -a_{j} (z+z0)^(-{j}/{k})",),
                k=k, detail=convention,
            )
        )
    lhs0 = ts.exp_theta0.substitute("x", sub, "z0", z0_order)
    rhs0 = binom_expand(
        ring, (1, {"z": 1}), (1, {"z0": 1}), Fr(k - 1, 2 * k), z0_order
    ).shift_exponents("z", -Fr(k - 1, 2 * k))
    reports.append(
        assert_equal_on_window(
            lhs0, rhs0, win, "theta.closed-form.exp0",
            anchors=("exp(Theta_0) at x=(1/k)z^(1/k-1)z0 == z^(-(k-1)/2k) (z+z0)^((k-1)/2k)",),
            k=k, detail=convention,
        )
    )
    # internal consistency: the a0-slot really is exp(2 Theta_0)
    e2 = exp_series(ts.theta[0] * 2, "x", ts.trunc_order)
    reports.append(
        assert_equal_on_window(
            e2, ts.a0, Window.of(x=(0, ts.trunc_order)), "theta.exp0-squared",
            anchors=("exp(2 Theta_0) == leading-slot a0 of the recomposition",),
            k=k, detail=convention,
        )
    )
    return reports


# ---------------------------------------------------------------------------
# the covering map on C[x, x^-1][phi]
# ---------------------------------------------------------------------------


def rep_apply(ring: ScalarRing, k: int, n: int, odd: bool, trunc_order, forward: bool = True) -> FracSeries:
    """Image of x^n (odd=False) or phi x^n (odd=True) under the covering map.

    forward:  x -> (z^{1/k}+x)^k - z,      phi -> phi k^{1/2}  (z^{1/k}+x)^{(k-1)/2}
    inverse:  x -> (x+z)^{1/k} - z^{1/k},  phi -> phi k^{-1/2} (x+z)^{(1-k)/2k}

    The map preserves parity, so an odd result is the series that phi
    multiplies: the image of phi x^n is phi times the returned series.  The
    action is multiplicative: the image of x^n is the n-th power of the
    image of x, and the odd dressing multiplies on.  All fractional powers
    are expanded in ascending powers of x (for (x+z)^e this means nonnegative
    integer x-powers about x = 0).
    """
    return next(rep_walk(ring, k, n, n, trunc_order, forward, (odd,)))[0]


def rep_walk(ring: ScalarRing, k: int, lo: int, hi: int, trunc_order, forward: bool = True,
             parities=(False, True)):
    """For n = lo..hi, yield the tuple of rep_apply(ring, k, n, odd, ...) over
    odd in parities.  The image of x and the dressing are built once, at the
    depth x^lo needs; x^lo is one substitute and each next power one product."""
    deep = Fr(trunc_order) + max(0, -lo)
    if forward:
        base = FracSeries(ring, ("x", "z"), {(Fr(i), Fr(k - i, k)): comb(k, i) for i in range(1, k + 1)})
        dress_exp, dress_lead, scale = Fr(k - 1, 2), {"z": Fr(1, k)}, ring.sqrt_k()
    else:
        full = binom_expand(ring, (1, {"z": 1}), (1, {"x": 1}), Fr(1, k), int(deep) + 1)
        base = full - FracSeries.monomial(ring, 1, {"z": Fr(1, k)})
        dress_exp, dress_lead, scale = Fr(1 - k, 2 * k), {"z": 1}, ring.sqrt_k_pow(-1)
    if True in parities:
        # the dressing must reach degree trunc_order + |lo|: low-degree terms of
        # x^lo pair with high-degree dressing terms inside the trusted window
        dress = binom_expand(ring, (1, dress_lead), (1, {"x": 1}), dress_exp, int(deep) + 1) * scale
    img = FracSeries.monomial(ring, 1, {"y": lo}).substitute("y", base, "x", trunc_order)
    cut = Window.below("x", trunc_order)
    for n in range(lo, hi + 1):
        if n > lo:
            # base has x-order 1, so a term x^e (e > trunc_order) missing from
            # the image of x^(n-1) only reaches exponents above trunc_order + 1
            img = img.mul(base, cut)
        yield tuple(img.mul(dress, cut) if odd else img for odd in parities)


def rep_identity_check(k: int, n_window: int = 6, trunc_order: int = 8) -> list[CheckReport]:
    """The two transport identities of the covering map on C[x,x^{-1}][phi]:

        -T d/dx + (1/k) z^{1/k-1} (d/dx) T    == d/dz T        (forward T)
        -S d/dx + k z^{-1/k+1} (d/dx) S       == k z^{-1/k+1} d/dz S   (inverse S)

    applied to every basis vector x^n and phi x^n with |n| <= n_window,
    comparing exact coefficients for x-exponents within the trusted window.
    """
    if n_window < 0:
        raise ValueError(f"n_window must be >= 0, got {n_window}")
    ring = get_ring(k)
    out = []
    for forward, name, anchor, dz, c in (
        (True, "rep.forward-transport",
         "-T d/dx + (1/k) z^(1/k-1) d/dx T == d/dz T on x^n, phi x^n", Fr(1, k) - 1, Fr(1, k)),
        (False, "rep.inverse-transport",
         "-S d/dx + k z^(-1/k+1) d/dx S == k z^(-1/k+1) d/dz S on x^n, phi x^n", 1 - Fr(1, k), Fr(k)),
    ):
        win = Window.of(x=(-n_window - 1, trunc_order - 1))
        failure = None
        walk = rep_walk(ring, k, -n_window - 1, n_window, trunc_order, forward)
        # the images of x^(n-1) and phi x^(n-1), carried over from the step before
        prev = next(walk)
        for n, imgs in enumerate(walk, -n_window):
            for odd, (img, before) in enumerate(zip(imgs, prev)):
                # T(d/dx basis) = n * T(basis with exponent n-1), by linearity
                t_db = before * Fr(n)
                lhs = -t_db + img.derivative("x").shift_exponents("z", dz) * c
                rhs = img.derivative("z") if forward else img.derivative("z").shift_exponents("z", dz) * c
                sub = assert_equal_on_window(lhs, rhs, win, name, k=k)
                if sub.status != "pass":
                    failure = f"[{'phi ' if odd else ''}x^{n}] {sub.first_mismatch}"
                    break
            if failure:
                break
            prev = imgs
        out.append(
            CheckReport(
                name, (anchor,), win.render(),
                "fail" if failure else "pass",
                first_mismatch=failure,
                detail=f"basis x^n and phi x^n, |n| <= {n_window}",
                k=k,
            )
        )
    return out


# ---------------------------------------------------------------------------
# superfield generators: the exponential route to the same closed forms
# ---------------------------------------------------------------------------


def superfield_transform(k: int, s: FracSeries, odd: bool, trunc_order: int) -> FracSeries:
    """exp(sum_j a_j z^{-j/k} L_j(x,phi)) . (graded dilation) . s, where
    L_j(x,phi) = -(x^{j+1} d/dx + ((j+1)/2) x^j phi d/dphi).

    For odd, s stands for phi s, and the result is the series that phi
    multiplies in the image.  The graded dilation is the substitution
    x -> k z^{(k-1)/k} x, and on phi the factor k^{1/2} z^{(k-1)/2k}; then
    the exponential of the degree-raising generators is applied, truncated
    in x: sum_j a_j z^{-j/k} L_j is the flow of V = sum_j a_j z^{-j/k} x^{j+1}
    with sign -1, phi s a density of weight 1/2.  The whole transform is the
    operator route to the closed forms of rep_apply(..., forward=True) and is
    checked against them.
    """
    ring = s.ring
    dilation = FracSeries.monomial(ring, k, {"x": 1, "z": Fr(k - 1, k)})
    seed = s.substitute("x", dilation, "x", trunc_order)
    # L_j raises the x-degree by j, so the seed's lowest x-power needs a_j up
    # to j = trunc_order - lowest; the floor at x^-1 keeps the table order
    # trunc_order + 1 that other callers share
    lowest = min(min(seed.exponents_of("x"), default=0), -1)
    a = a_table(k, int(trunc_order) - floor(lowest))
    if odd:
        seed = seed.shift_exponents("z", Fr(k - 1, 2 * k)) * ring.sqrt_k()
    field = FracSeries(ring, ("x", "z"), {(j + 1, Fr(-j, k)): aj for j, aj in enumerate(a, 1)})
    return flow_exponential(seed, field, "x", -1, Window.below("x", trunc_order), Fr(1, 2) if odd else 0)


def superfield_exp_check(k: int, trunc_order: int = 7) -> list[CheckReport]:
    """The operator exponential reproduces both closed-form coordinates, and
    the odd dressing squares to the x-derivative of the even coordinate."""
    ring = get_ring(k)
    win = Window.of(x=(0, trunc_order))
    xm = FracSeries.monomial(ring, 1, {"x": 1}, vars=("z",))
    one = FracSeries.one(ring, vars=("x", "z"))
    even = superfield_transform(k, xm, False, trunc_order)
    odd = superfield_transform(k, one, True, trunc_order)
    reports = [
        assert_equal_on_window(
            even, rep_apply(ring, k, 1, False, trunc_order), win,
            "superfield.exp-even-coordinate",
            anchors=("exp(sum a_j z^(-j/k) L_j) k-dilation x == (z^(1/k)+x)^k - z",), k=k,
        ),
        assert_equal_on_window(
            odd, rep_apply(ring, k, 0, True, trunc_order), win,
            "superfield.exp-odd-coordinate",
            anchors=("exp(sum a_j z^(-j/k) L_j) k-dilation phi == phi k^(1/2) (z^(1/k)+x)^((k-1)/2)",), k=k,
        ),
    ]
    cut = Window.below("x", trunc_order)
    sq = odd.mul(odd, cut)
    deriv = rep_apply(ring, k, 1, False, int(trunc_order) + 1).derivative("x").truncate_window(cut)
    reports.append(
        assert_equal_on_window(
            sq, deriv, win, "superfield.odd-squares-to-derivative",
            anchors=("(odd coordinate / phi)^2 == d/dx (even coordinate)",), k=k,
        )
    )
    return reports
