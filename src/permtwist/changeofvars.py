"""Exponential coordinate-change solver and the k-th-power covering map.

Everything here revolves around one change of variable,

    f(x) = z^{1/k}((1+x)^k - 1)/k,

the local coordinate of a k-fold cover.  The module provides:

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
    Grassmann coordinate) and its two first-order transport identities.

All series are exact sparse fractional-exponent series; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactnum import NotAUnitError, Scalar, ScalarRing, get_ring
from .fseries import (
    CheckReport,
    CompositionDomainError,
    FracSeries,
    Window,
    assert_equal_on_window,
    binom_expand,
    exp_series,
    invert_series,
    log_series,
    unit_pow,
)

Fr = Fraction


# ---------------------------------------------------------------------------
# solved exponential data
# ---------------------------------------------------------------------------


@dataclass
class ExpCoeffs:
    """Solution of f = exp(sign * sum_j A_j var^{j+1} d/dvar) a0^{var d/dvar} var.

    A[j-1] holds A_j.  Entries are Scalars for a scalar solve and FracSeries
    (in the remaining variables) for a parametric solve.  a0 is the
    coefficient of var^1; a0_sqrt is a chosen square root of it when one is
    available (always, in the parametric unit-leading-coefficient case).
    """

    var: str
    sign: int
    a0: object
    a0_sqrt: object
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


def _maybe_scalar(s: FracSeries) -> Scalar | None:
    """The constant value of s if s is a constant (possibly zero), else None."""
    if not s.terms:
        return s.ring.zero
    if len(s.terms) == 1:
        ((exps, phi), c), = s.terms.items()
        if phi == 0 and all(e == 0 for e in exps):
            return c
    return None


def _series_reciprocal(s: FracSeries, trunc):
    """1/s: monomial fast path, else invert_series on the trunc variable."""
    if len(s.terms) == 1:
        ((exps, phi), c), = s.terms.items()
        if phi == 0:
            return FracSeries(s.ring, s.vars, {(tuple(-e for e in exps), 0): c.invert()})
    if trunc is None:
        raise CompositionDomainError("series-valued leading coefficient needs trunc=(var, order)")
    return invert_series(s, trunc[0], trunc[1])


def _apply_flow(coeffs: dict, var: str, s: FracSeries, sign: int) -> FracSeries:
    """(sign * sum_j coeffs[j] var^{j+1} d/dvar) applied to s."""
    ds = s.derivative(var)
    out = FracSeries.zero(s.ring, s.vars)
    for j, c in coeffs.items():
        t = ds.shift_exponents(var, j + 1) * c
        out = out + t
    return out * Fr(sign)


def exp_flow(ring: ScalarRing, coeffs, var: str, order, sign: int, a0=None, trunc=None) -> FracSeries:
    """exp(sign * sum_j coeffs[j-1] var^{j+1} d/dvar) . a0^{var d/dvar} . var.

    Truncated above var^order (each generator raises the var-degree by at
    least one, so the loop provably terminates); `trunc` optionally bounds a
    second variable when the coefficients are themselves series.
    """
    cmap = {j + 1: c for j, c in enumerate(coeffs)}
    seed = FracSeries.monomial(ring, 1, {var: 1})
    if a0 is not None:
        seed = seed * a0
    out = seed
    acc = seed
    fact = Fr(1)
    i = 0
    while not acc.is_zero():
        i += 1
        if i > int(Fraction(order)) + 2:
            raise RuntimeError("exponential flow failed to terminate within the window")
        fact = fact / i
        acc = _apply_flow(cmap, var, acc, sign).truncate(var, order)
        if trunc is not None:
            acc = acc.truncate(trunc[0], trunc[1])
        if acc.is_zero():
            break
        out = out + acc * fact
    return out


def solve_exp_coeffs(
    f: FracSeries,
    var: str,
    order: int,
    sign: int,
    *,
    trunc=None,
    want_sqrt: bool = True,
    collapse: bool = True,
) -> ExpCoeffs:
    """Solve f = exp(sign * sum_{j<=order} A_j var^{j+1} d/dvar) a0^{var d/dvar} var.

    f must lie in var * R[[var]] (integer var-exponents >= 1).  At order
    var^{m+1} the unknown A_m enters linearly with coefficient sign * a0 and
    everything else is already determined, so the solution is unique and is
    read off order by order.  Division happens only by a0: a monomial
    a0 inverts exactly, a series-valued a0 runs through invert_series and
    then requires trunc=(aux_var, aux_order).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    for e in f.exponents_of(var):
        if e < 1 or e.denominator != 1:
            raise CompositionDomainError(f"solver input must lie in {var}*R[[{var}]], found {var}^{e}")
    a0 = f.coefficient_in(var, 1)
    if a0.is_zero():
        raise NotAUnitError("zero leading coefficient")
    a0_inv = _series_reciprocal(a0, trunc)
    known: list = []
    for m in range(1, order + 1):
        built = exp_flow(f.ring, known, var, m + 1, sign, a0=a0, trunc=trunc)
        resid = (f.coefficient_in(var, m + 1) - built.coefficient_in(var, m + 1)) * a0_inv
        if trunc is not None:
            resid = resid.truncate(trunc[0], trunc[1])
        known.append(resid * Fr(sign))
    a0_sqrt = None
    if want_sqrt:
        c = _maybe_scalar(a0)
        if c is not None:
            if c == f.ring.one:
                a0_sqrt = f.ring.one
            elif c.is_rational() and c.as_rational() == f.ring.k:
                a0_sqrt = f.ring.sqrt_k()
        else:
            a0_sqrt = unit_pow(a0, Fr(1, 2), trunc[0], trunc[1])
    if collapse:
        a0c = _maybe_scalar(a0)
        a0 = a0c if a0c is not None else a0
        known = [(_maybe_scalar(c) if _maybe_scalar(c) is not None else c) for c in known]
    return ExpCoeffs(var, sign, a0, a0_sqrt, known)


# ---------------------------------------------------------------------------
# the covering map and its coefficient table
# ---------------------------------------------------------------------------


def covering_series(ring: ScalarRing, k: int, var: str = "x") -> FracSeries:
    """((1+x)^k - 1)/k, the z-free core of the covering map (exact polynomial)."""
    terms = {((Fr(i),), 0): Fr(comb(k, i), k) for i in range(1, k + 1)}
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


@lru_cache(maxsize=None)
def a_table(k: int, order: int = 8) -> tuple[Fraction, ...]:
    """compute_a as a cached tuple of plain rationals."""
    return compute_a(k, order).rationals()


def f_and_inverse(k: int, order: int, ring: ScalarRing | None = None):
    """The covering map f(x) = z^{1/k}((1+x)^k - 1)/k (exact) and its inverse.

    The inverse is the binomial closed form (1 + k z^{-1/k} x)^{1/k} - 1,
    expanded about x = 0 with 1^{1/k} = 1, through x^order.
    """
    ring = ring or get_ring(k)
    f = FracSeries(
        ring, ("x", "z"), {((Fr(i), Fr(1, k)), 0): Fr(comb(k, i), k) for i in range(1, k + 1)}
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
    f1inv = _series_reciprocal(f.coefficient_in(var, 1), None)
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
    sol = solve_exp_coeffs(big_f, "w", order, +1, trunc=("x", ox), collapse=False)
    theta0 = log_series(sol.a0, "x", ox) * Fr(1, 2)
    exp0 = sol.a0_sqrt
    if not isinstance(exp0, FracSeries):  # constant a0 (k = 1) collapses to a Scalar
        exp0 = FracSeries.monomial(ring, exp0, {}, vars=("x", "z"))
    return ThetaSeries(k, order, ox, [theta0] + list(sol.A), exp0, sol.a0)


def substitute_monomial(s: FracSeries, var: str, coeff: Fraction, exps: dict) -> FracSeries:
    """Substitute var -> coeff * prod(v^e) exactly (no truncation needed).

    var-exponents must be nonnegative integers unless coeff == 1 (a general
    rational raised to a fractional power has no canonical value here).
    """
    if var not in s.vars:
        return s
    coeff = Fr(coeff)
    i = s.vars.index(var)
    rest = s.vars[:i] + s.vars[i + 1 :]
    allvars = tuple(sorted(set(rest) | set(exps)))
    idx = [rest.index(v) if v in rest else None for v in allvars]
    out: dict = {}
    for (old, phi), c in s.terms.items():
        d = old[i]
        if d.denominator != 1 or d < 0:
            if coeff != 1:
                raise CompositionDomainError(f"cannot raise coefficient {coeff} to power {d}")
            scaled = c
        else:
            scaled = c * coeff ** int(d)
        old_rest = old[:i] + old[i + 1 :]
        key = tuple(
            (old_rest[j] if j is not None else Fr(0)) + d * Fr(exps.get(v, 0))
            for v, j in zip(allvars, idx)
        )
        cur = out.get((key, phi))
        val = scaled if cur is None else cur + scaled
        if val.is_zero():
            out.pop((key, phi), None)
        else:
            out[(key, phi)] = val
    return FracSeries(s.ring, allvars, out)


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
    sub = {"z": Fr(1, k) - 1, "z0": Fr(1)}
    win = Window.of(z0=(0, z0_order))
    convention = "odd coordinate scales by exp(+Theta_0)"
    reports = []
    for j in range(1, order + 1):
        lhs = substitute_monomial(ts.theta[j], "x", Fr(1, k), sub)
        rhs = binom_expand(ring, (1, {"z": 1}), (1, {"z0": 1}), Fr(-j, k), z0_order) * (-a[j - 1])
        reports.append(
            assert_equal_on_window(
                lhs, rhs, win, f"theta.closed-form.j{j}",
                anchors=(f"Theta_{j} at x=(1/k)z^(1/k-1)z0 == -a_{j} (z+z0)^(-{j}/{k})",),
                k=k, detail=convention,
            )
        )
    lhs0 = substitute_monomial(ts.exp_theta0, "x", Fr(1, k), sub)
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


def _int_pow(base: FracSeries, n: int, var: str, trunc_order) -> FracSeries:
    """base^n truncated in var; negative n via series inversion.

    For n < 0 the inverse is computed to trunc_order + |n| so that repeated
    multiplication by a term of var-order -1 cannot pull dropped terms back
    below the trusted window.
    """
    if n == 0:
        return FracSeries.one(base.ring)
    if n > 0:
        p = FracSeries.one(base.ring)
        for _ in range(n):
            p = (p * base).truncate(var, trunc_order)
        return p
    deep = Fr(trunc_order) + (-n)
    inv = invert_series(base, var, deep)
    p = FracSeries.one(base.ring)
    for _ in range(-n):
        p = (p * inv).truncate(var, deep)
    return p.truncate(var, trunc_order)


def rep_apply(ring: ScalarRing, k: int, n: int, odd: bool, trunc_order, forward: bool = True) -> FracSeries:
    """Image of x^n (odd=False) or phi x^n (odd=True) under the covering map.

    forward:  x -> (z^{1/k}+x)^k - z,      phi -> phi k^{1/2}  (z^{1/k}+x)^{(k-1)/2}
    inverse:  x -> (x+z)^{1/k} - z^{1/k},  phi -> phi k^{-1/2} (x+z)^{(1-k)/2k}

    The action is multiplicative: the image of x^n is the n-th power of the
    image of x, and the odd dressing multiplies on.  All fractional powers
    are expanded in ascending powers of x (for (x+z)^e this means nonnegative
    integer x-powers about x = 0).
    """
    deep = Fr(trunc_order) + max(0, -n)
    if forward:
        base = FracSeries(
            ring, ("x", "z"), {((Fr(i), Fr(k - i, k)), 0): comb(k, i) for i in range(1, k + 1)}
        )
        dress_exp, dress_lead, scale = Fr(k - 1, 2), {"z": Fr(1, k)}, ring.sqrt_k()
    else:
        full = binom_expand(ring, (1, {"z": 1}), (1, {"x": 1}), Fr(1, k), int(deep) + 1)
        base = full - FracSeries.monomial(ring, 1, {"z": Fr(1, k)})
        dress_exp, dress_lead, scale = Fr(1 - k, 2 * k), {"z": 1}, ring.sqrt_k_pow(-1)
    img = _int_pow(base, n, "x", trunc_order)
    if odd:
        # the dressing must reach degree trunc_order + |n|: low-degree terms of
        # x^n pair with high-degree dressing terms inside the trusted window
        dress = binom_expand(ring, (1, dress_lead), (1, {"x": 1}), dress_exp, int(deep) + 1)
        img = (img * dress).truncate("x", trunc_order) * scale
        img = img.times_phi()
    return img


def rep_identity_check(k: int, n_window: int = 6, trunc_order: int = 8) -> list[CheckReport]:
    """The two transport identities of the covering map on C[x,x^{-1}][phi]:

        -T d/dx + (1/k) z^{1/k-1} (d/dx) T    == d/dz T        (forward T)
        -S d/dx + k z^{-1/k+1} (d/dx) S       == k z^{-1/k+1} d/dz S   (inverse S)

    applied to every basis vector x^n and phi x^n with |n| <= n_window,
    comparing exact coefficients for x-exponents within the trusted window.
    """
    ring = get_ring(k)
    out = []
    for forward, name, anchor in (
        (True, "rep.forward-transport",
         "-T d/dx + (1/k) z^(1/k-1) d/dx T == d/dz T on x^n, phi x^n"),
        (False, "rep.inverse-transport",
         "-S d/dx + k z^(-1/k+1) d/dx S == k z^(-1/k+1) d/dz S on x^n, phi x^n"),
    ):
        win = Window.of(x=(-n_window - 1, trunc_order - 1))
        failure = None
        for n in range(-n_window, n_window + 1):
            for odd in (False, True):
                img = rep_apply(ring, k, n, odd, trunc_order, forward)
                d_img = img.derivative("x")
                # T(d/dx basis) = n * T(basis with exponent n-1), by linearity
                t_db = rep_apply(ring, k, n - 1, odd, trunc_order, forward) * Fr(n) if n != 0 \
                    else FracSeries.zero(ring)
                if forward:
                    lhs = -t_db + d_img.shift_exponents("z", Fr(1, k) - 1) * Fr(1, k)
                    rhs = img.derivative("z")
                else:
                    lhs = -t_db + d_img.shift_exponents("z", -Fr(1, k) + 1) * Fr(k)
                    rhs = img.derivative("z").shift_exponents("z", -Fr(1, k) + 1) * Fr(k)
                tag = ("phi " if odd else "") + f"x^{n}"
                sub = assert_equal_on_window(lhs, rhs, win, name, k=k)
                if sub.status != "pass":
                    failure = f"[{tag}] {sub.first_mismatch}"
                    break
            if failure:
                break
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


def superfield_generator(j: int, s: FracSeries, x: str = "x") -> FracSeries:
    """L_j(x, phi) s = -(x^{j+1} d/dx + ((j+1)/2) x^j phi d/dphi) s."""
    t1 = s.derivative(x).shift_exponents(x, j + 1)
    t2 = s.phi_part(1).shift_exponents(x, j) * Fr(j + 1, 2)
    return -(t1 + t2)


def superfield_transform(k: int, s: FracSeries, trunc_order: int, coeff_order: int | None = None) -> FracSeries:
    """exp(sum_j a_j z^{-j/k} L_j(x,phi)) . k^{-2L_0/2-ish graded scaling} . s.

    The graded part scales a term x^d phi^p by k^{d+p/2} z^{(k-1)(d+p/2)/k}
    (the group-like dilation that sends x to k z^{(k-1)/k} x); then the
    exponential of the degree-raising generators is applied, truncated in x.
    The whole transform is the operator route to the closed forms of
    rep_apply(..., forward=True) and is checked against them.
    """
    ring = s.ring
    a = a_table(k, coeff_order if coeff_order is not None else int(trunc_order) + 1)
    graded: dict = {}
    xi = s.vars.index("x") if "x" in s.vars else None
    for (exps, phi), c in s.terms.items():
        d = exps[xi] if xi is not None else Fr(0)
        half = d + Fr(phi, 2)
        if half.denominator == 1:
            factor = c * Fr(ring.k) ** int(half)
        else:
            factor = c * ring.sqrt_k_pow(int(2 * half))
        key = tuple(
            e + (Fr(k - 1, k) * half if v == "z" else 0) for v, e in zip(s.vars, exps)
        )
        graded[(key, phi)] = factor
    cur = FracSeries(ring, s.vars, graded).with_vars(("z",))
    out = cur
    fact = Fr(1)
    i = 0
    while not cur.is_zero():
        i += 1
        if i > int(trunc_order) + 2:
            raise RuntimeError("superfield exponential failed to terminate within the window")
        fact = fact / i
        nxt = FracSeries.zero(ring, cur.vars)
        for j, aj in enumerate(a, start=1):
            term = superfield_generator(j, cur).shift_exponents("z", Fr(-j, k)) * aj
            nxt = nxt + term
        cur = nxt.truncate("x", trunc_order)
        if cur.is_zero():
            break
        out = out + cur * fact
    return out


def superfield_exp_check(k: int, trunc_order: int = 7) -> list[CheckReport]:
    """The operator exponential reproduces both closed-form coordinates, and
    the odd dressing squares to the x-derivative of the even coordinate."""
    ring = get_ring(k)
    win = Window.of(x=(0, trunc_order))
    xm = FracSeries.monomial(ring, 1, {"x": 1}, vars=("z",))
    pm = FracSeries.monomial(ring, 1, {}, phi=1, vars=("x", "z"))
    even = superfield_transform(k, xm, trunc_order)
    odd = superfield_transform(k, pm, trunc_order)
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
    root = odd.strip_phi()
    sq = (root * root).truncate("x", trunc_order)
    deriv = rep_apply(ring, k, 1, False, int(trunc_order) + 1).derivative("x").truncate("x", trunc_order)
    reports.append(
        assert_equal_on_window(
            sq, deriv, win, "superfield.odd-squares-to-derivative",
            anchors=("(odd coordinate / phi)^2 == d/dx (even coordinate)",), k=k,
        )
    )
    return reports
