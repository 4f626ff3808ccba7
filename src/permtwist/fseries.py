"""Sparse multivariate formal Laurent series with fractional exponents.

The series kernel underneath every identity check in this package:

* exponents are exact `Fraction`s on a declared per-variable lattice
  (denominator 2k, 2, 48k, ... depending on the computation);
* an optional Grassmann variable phi with phi^2 = 0 rides along as a
  0/1 degree on each term;
* coefficients are `exactnum.Scalar` values (rationals extended by sqrt(k)
  and a k-th root of unity);
* infinite objects (delta functions, binomial tails, exp/log/inverse series)
  are truncated once at construction with the truncation recorded in `meta`;
  all subsequent arithmetic is exact on the finite objects, and every
  identity check compares coefficients only inside a window that the caller
  derived from those truncation orders.

The formal delta function is delta(Y) = sum_{n in Z} Y^n.  Binomials
(a - b)^r are always expanded in nonnegative integer powers of the second
written variable, with generalized binomial coefficients for fractional r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exactnum import Scalar, ScalarRing

Fr = Fraction

# A term key: exponent tuple aligned with the series' sorted variable tuple,
# plus the phi-degree (0 or 1).
Key = tuple[tuple[Fraction, ...], int]


class CompositionDomainError(ValueError):
    """Raised for ill-defined formal composition or substitution."""


def gbinom(r: Fraction, j: int) -> Fraction:
    """Generalized binomial coefficient C(r, j) = r(r-1)...(r-j+1)/j!."""
    out = Fraction(1)
    for i in range(j):
        out = out * (Fraction(r) - i) / (i + 1)
    return out


# ---------------------------------------------------------------------------
# core series type
# ---------------------------------------------------------------------------


class FracSeries:
    __slots__ = ("ring", "vars", "terms", "lattice", "meta")

    def __init__(self, ring: ScalarRing, vars, terms=None, lattice=None, meta: str = ""):
        vars = tuple(vars)
        order = tuple(sorted(vars))
        if order != vars:
            # canonicalize variable order once, remapping exponent tuples
            perm = [vars.index(v) for v in order]
            terms = {
                (tuple(key[0][i] for i in perm), key[1]): c
                for key, c in (terms or {}).items()
            }
            vars = order
        self.ring = ring
        self.vars = vars
        clean: dict[Key, Scalar] = {}
        for (exps, phi), c in (terms or {}).items():
            if isinstance(c, (int, Fraction)):
                c = ring.rational(c)
            if c.is_zero():
                continue
            clean[(tuple(Fraction(e) for e in exps), phi)] = c
        self.terms = clean
        if lattice is None:
            lattice = {}
        lat = {}
        for i, v in enumerate(vars):
            dens = [key[0][i].denominator for key in clean]
            lat[v] = lcm(lattice.get(v, 1), *dens) if dens else lattice.get(v, 1)
        self.lattice = lat
        self.meta = meta

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def monomial(ring, coeff, exps: dict | None = None, phi: int = 0, vars=()) -> "FracSeries":
        """coeff * prod v^e * phi^phi.  `vars` may declare extra variables."""
        exps = exps or {}
        allvars = tuple(sorted(set(exps) | set(vars)))
        key = (tuple(Fraction(exps.get(v, 0)) for v in allvars), phi)
        return FracSeries(ring, allvars, {key: coeff})

    @staticmethod
    def zero(ring, vars=()) -> "FracSeries":
        return FracSeries(ring, tuple(vars), {})

    @staticmethod
    def one(ring, vars=()) -> "FracSeries":
        return FracSeries.monomial(ring, 1, {}, vars=vars)

    # -- bookkeeping ------------------------------------------------------------

    def _aligned(self, other: "FracSeries"):
        if self.ring.k != other.ring.k:
            raise ValueError("series over different scalar rings")
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))

        def remap(series):
            idx = [series.vars.index(v) if v in series.vars else None for v in allvars]
            out = {}
            for (exps, phi), c in series.terms.items():
                out[(tuple(exps[i] if i is not None else Fraction(0) for i in idx), phi)] = c
            return out

        return allvars, remap(self), remap(other)

    def with_vars(self, vars) -> "FracSeries":
        """Same series viewed with extra (unused) variables declared."""
        allvars = tuple(sorted(set(self.vars) | set(vars)))
        if allvars == self.vars:
            return self
        idx = [self.vars.index(v) if v in self.vars else None for v in allvars]
        terms = {
            (tuple(exps[i] if i is not None else Fraction(0) for i in idx), phi): c
            for (exps, phi), c in self.terms.items()
        }
        return FracSeries(self.ring, allvars, terms, self.lattice, self.meta)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        _, a, b = self._aligned(other)
        return a == b

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "FracSeries") -> "FracSeries":
        allvars, a, b = self._aligned(other)
        out = dict(a)
        for key, c in b.items():
            cur = out.get(key)
            s = c if cur is None else cur + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        meta = self.meta or other.meta
        return FracSeries(self.ring, allvars, out, None, meta)

    def __neg__(self) -> "FracSeries":
        return FracSeries(
            self.ring, self.vars, {key: -c for key, c in self.terms.items()}, self.lattice, self.meta
        )

    def __sub__(self, other: "FracSeries") -> "FracSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        allvars, a, b = self._aligned(other)
        out: dict[Key, Scalar] = {}
        for (e1, p1), c1 in a.items():
            for (e2, p2), c2 in b.items():
                phi = p1 + p2
                if phi > 1:
                    continue  # phi^2 = 0
                key = (tuple(x + y for x, y in zip(e1, e2)), phi)
                c = c1 * c2
                cur = out.get(key)
                s = c if cur is None else cur + c
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return FracSeries(self.ring, allvars, out, None, self.meta or other.meta)

    __rmul__ = __mul__

    def scale(self, c) -> "FracSeries":
        if isinstance(c, (int, Fraction)):
            c = self.ring.rational(c)
        if c.is_zero():
            return FracSeries.zero(self.ring, self.vars)
        return FracSeries(
            self.ring, self.vars, {key: v * c for key, v in self.terms.items()}, self.lattice, self.meta
        )

    # -- extraction -------------------------------------------------------------

    def coefficient(self, assignment: dict, phi: int = 0) -> Scalar:
        """Coefficient of prod v^assignment[v] * phi^phi (missing vars: exponent 0)."""
        for v in assignment:
            if v not in self.vars:
                if Fraction(assignment[v]) != 0:
                    return self.ring.zero
        key = (tuple(Fraction(assignment.get(v, 0)) for v in self.vars), phi)
        return self.terms.get(key, self.ring.zero)

    def coefficient_in(self, var: str, e) -> "FracSeries":
        """The coefficient series of var^e (var removed from the result)."""
        e = Fraction(e)
        if var not in self.vars:
            return self if e == 0 else FracSeries.zero(self.ring, self.vars)
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        out = {}
        for (exps, phi), c in self.terms.items():
            if exps[i] == e:
                out[(exps[:i] + exps[i + 1 :], phi)] = c
        return FracSeries(self.ring, rest, out, None, self.meta)

    def residue(self, var: str) -> "FracSeries":
        """Res_var: the coefficient series of var^(-1)."""
        return self.coefficient_in(var, Fraction(-1))

    def exponents_of(self, var: str) -> set[Fraction]:
        if var not in self.vars:
            return {Fraction(0)} if self.terms else set()
        i = self.vars.index(var)
        return {exps[i] for (exps, _phi) in self.terms}

    def phi_part(self, phi: int) -> "FracSeries":
        return FracSeries(
            self.ring,
            self.vars,
            {key: c for key, c in self.terms.items() if key[1] == phi},
            self.lattice,
            self.meta,
        )

    def strip_phi(self) -> "FracSeries":
        """Divide the phi-linear part by phi (phi-degree 1 terms become degree 0)."""
        return FracSeries(
            self.ring,
            self.vars,
            {(exps, 0): c for (exps, phi), c in self.terms.items() if phi == 1},
            self.lattice,
            self.meta,
        )

    def times_phi(self) -> "FracSeries":
        """Multiply by phi on the left (kills existing phi-degree-1 terms)."""
        return FracSeries(
            self.ring,
            self.vars,
            {(exps, 1): c for (exps, phi), c in self.terms.items() if phi == 0},
            self.lattice,
            self.meta,
        )

    # -- calculus ----------------------------------------------------------------

    def derivative(self, var: str) -> "FracSeries":
        if var not in self.vars:
            return FracSeries.zero(self.ring, self.vars)
        i = self.vars.index(var)
        out = {}
        for (exps, phi), c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            key = (exps[:i] + (e - 1,) + exps[i + 1 :], phi)
            cur = out.get(key)
            s = c * e if cur is None else cur + c * e
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return FracSeries(self.ring, self.vars, out, None, self.meta)

    # -- substitutions -------------------------------------------------------------

    def scale_exponents(self, var: str, factor) -> "FracSeries":
        """Named substitution var -> var^factor by exponent scaling.

        With factor = k and the principal-branch rule (x^k)^(1/k) = x this also
        implements the reverse direction: exponents are multiplied exactly,
        never passed through a root choice.
        """
        factor = Fraction(factor)
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        terms = {
            (exps[:i] + (exps[i] * factor,) + exps[i + 1 :], phi): c
            for (exps, phi), c in self.terms.items()
        }
        return FracSeries(self.ring, self.vars, terms, None, self.meta)

    def shift_exponents(self, var: str, delta) -> "FracSeries":
        """Multiply by var^delta."""
        delta = Fraction(delta)
        s = self if var in self.vars else self.with_vars((var,))
        i = s.vars.index(var)
        terms = {
            (exps[:i] + (exps[i] + delta,) + exps[i + 1 :], phi): c
            for (exps, phi), c in s.terms.items()
        }
        return FracSeries(s.ring, s.vars, terms, None, s.meta)

    def eta_twist(self, var: str, j: int) -> "FracSeries":
        """The substitution var^(1/k) -> eta^j var^(1/k) for the ring's k.

        A term var^m (with k*m integral) picks up the factor eta^(j*k*m).
        """
        k = self.ring.k
        if var not in self.vars or j % k == 0:
            return self
        i = self.vars.index(var)
        out = {}
        for (exps, phi), c in self.terms.items():
            km = exps[i] * k
            if km.denominator != 1:
                raise CompositionDomainError(
                    f"exponent {exps[i]} of {var} is off the (1/{k})Z lattice"
                )
            key = (exps, phi)
            out[key] = c * self.ring.eta(j * int(km))
        return FracSeries(self.ring, self.vars, out, None, self.meta)

    def truncate(self, var: str, max_exp, min_exp=None) -> "FracSeries":
        """Drop terms with var-exponent above max_exp (or below min_exp)."""
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        max_exp = Fraction(max_exp)
        out = {}
        for (exps, phi), c in self.terms.items():
            if exps[i] > max_exp:
                continue
            if min_exp is not None and exps[i] < Fraction(min_exp):
                continue
            out[(exps, phi)] = c
        meta = f"{self.meta};trunc {var}<= {max_exp}" if self.meta else f"trunc {var}<={max_exp}"
        return FracSeries(self.ring, self.vars, out, self.lattice, meta)

    def substitute(self, var: str, repl: "FracSeries", trunc_var: str, trunc_order) -> "FracSeries":
        """Substitute a whole series for var.  Only integer powers of var are
        supported (fractional powers of a general series would need a branch
        choice); negative powers go through series inversion, which requires a
        unique invertible leading monomial in trunc_var.

        The result is truncated at trunc_order in trunc_var after every
        partial product, which is sound when repl has strictly positive
        trunc_var-order (asserted for the inverse path).
        """
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        powers: dict[int, FracSeries] = {}
        out = FracSeries.zero(self.ring, ())
        groups: dict[int, FracSeries] = {}
        for (exps, phi), c in self.terms.items():
            e = exps[i]
            if e.denominator != 1:
                raise CompositionDomainError(
                    f"substitute: fractional power {e} of {var} unsupported"
                )
            rest_key = (exps[:i] + exps[i + 1 :], phi)
            g = groups.setdefault(int(e), FracSeries.zero(self.ring, self.vars[:i] + self.vars[i + 1 :]))
            g.terms[rest_key] = g.terms.get(rest_key, self.ring.zero) + c
        inv = None
        for e, gser in sorted(groups.items()):
            gser = FracSeries(self.ring, gser.vars, gser.terms)  # renormalize
            if e == 0:
                out = out + gser
                continue
            if e > 0:
                base, n = repl, e
            else:
                if inv is None:
                    inv = invert_series(repl, trunc_var, trunc_order)
                base, n = inv, -e
            if e not in powers:
                p = FracSeries.one(self.ring)
                for _ in range(n):
                    p = (p * base).truncate(trunc_var, trunc_order)
                powers[e] = p
            out = out + gser * powers[e]
        return out.truncate(trunc_var, trunc_order)

    # -- rendering ----------------------------------------------------------------

    def render(self, max_terms: int | None = None) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (exps, phi), c in sorted(self.terms.items()):
            mono = [
                f"{v}^{e}" for v, e in zip(self.vars, exps) if e != 0
            ]
            if phi:
                mono.append("phi")
            body = "*".join(mono) if mono else "1"
            bits.append(f"({c.render()})*{body}")
            if max_terms and len(bits) >= max_terms:
                bits.append("...")
                break
        return " + ".join(bits)

    def to_json(self) -> list:
        """Canonical JSON rendering: sorted exponent vectors, scalar text."""
        out = []
        for (exps, phi), c in sorted(self.terms.items()):
            entry = {
                "exps": {v: str(e) for v, e in zip(self.vars, exps) if e != 0},
                "coeff": c.render(),
            }
            if phi:
                entry["phi"] = 1
            out.append(entry)
        return out

    def __repr__(self):
        return f"<FracSeries {self.render(max_terms=6)}>"


# ---------------------------------------------------------------------------
# series-level helpers (unit leading term)
# ---------------------------------------------------------------------------


def leading_term(s: FracSeries, var: str):
    """The unique term of minimal var-exponent; error if tied."""
    if not s.terms:
        raise CompositionDomainError("leading term of zero series")
    i = s.vars.index(var)
    emin = min(key[0][i] for key in s.terms)
    hits = [key for key in s.terms if key[0][i] == emin]
    if len(hits) != 1:
        raise CompositionDomainError(f"leading {var}-term not unique: {hits}")
    return hits[0], s.terms[hits[0]]


def invert_series(s: FracSeries, trunc_var: str, trunc_order) -> FracSeries:
    """1/s for s with a unique invertible leading monomial in trunc_var."""
    (lexps, lphi), lcoeff = leading_term(s, trunc_var)
    if lphi:
        raise CompositionDomainError("cannot invert a phi-odd series")
    lead_inv = FracSeries(
        s.ring, s.vars, {(tuple(-e for e in lexps), 0): lcoeff.invert()}
    )
    r = lead_inv * s - FracSeries.one(s.ring)
    return lead_inv * _geometric(r, trunc_var, trunc_order)


def _geometric(r: FracSeries, trunc_var: str, trunc_order) -> FracSeries:
    """sum (-r)^i for r of strictly positive trunc_var-order."""
    if r.is_zero():
        return FracSeries.one(r.ring)
    i = r.vars.index(trunc_var)
    emin = min(key[0][i] for key in r.terms)
    if emin <= 0:
        raise CompositionDomainError("inverse tail must have positive order")
    steps = int(Fraction(trunc_order) / emin) + 1
    out = FracSeries.one(r.ring)
    acc = FracSeries.one(r.ring)
    for _ in range(steps):
        acc = (acc * (-r)).truncate(trunc_var, trunc_order)
        if acc.is_zero():
            break
        out = out + acc
    return out


def unit_pow(s: FracSeries, e, trunc_var: str, trunc_order) -> FracSeries:
    """s^e for s = 1 + r with r of positive trunc_var-order; e may be fractional."""
    e = Fraction(e)
    one = FracSeries.one(s.ring)
    r = s - one.with_vars(s.vars)
    if r.is_zero():
        return one
    i = r.vars.index(trunc_var)
    emin = min(key[0][i] for key in r.terms)
    if emin <= 0:
        raise CompositionDomainError("unit_pow needs s = 1 + (positive-order tail)")
    steps = int(Fraction(trunc_order) / emin) + 1
    out = one
    acc = one
    for j in range(1, steps + 1):
        acc = (acc * r).truncate(trunc_var, trunc_order)
        if acc.is_zero():
            break
        out = out + acc * gbinom(e, j)
    return out


def log_series(s: FracSeries, trunc_var: str, trunc_order) -> FracSeries:
    """log(1 + r) for s = 1 + r of positive trunc_var-order."""
    one = FracSeries.one(s.ring)
    r = s - one.with_vars(s.vars)
    if r.is_zero():
        return FracSeries.zero(s.ring)
    i = r.vars.index(trunc_var)
    emin = min(key[0][i] for key in r.terms)
    if emin <= 0:
        raise CompositionDomainError("log_series needs 1 + (positive-order tail)")
    steps = int(Fraction(trunc_order) / emin) + 1
    out = FracSeries.zero(s.ring)
    acc = one
    for j in range(1, steps + 1):
        acc = (acc * r).truncate(trunc_var, trunc_order)
        if acc.is_zero():
            break
        out = out + acc * Fraction((-1) ** (j + 1), j)
    return out


def exp_series(r: FracSeries, trunc_var: str, trunc_order) -> FracSeries:
    """exp(r) for r of strictly positive trunc_var-order."""
    if r.is_zero():
        return FracSeries.one(r.ring)
    i = r.vars.index(trunc_var)
    emin = min(key[0][i] for key in r.terms)
    if emin <= 0:
        raise CompositionDomainError("exp_series needs positive-order argument")
    steps = int(Fraction(trunc_order) / emin) + 1
    out = FracSeries.one(r.ring)
    acc = FracSeries.one(r.ring)
    fact = Fraction(1)
    for j in range(1, steps + 1):
        acc = (acc * r).truncate(trunc_var, trunc_order)
        fact = fact / j
        if acc.is_zero():
            break
        out = out + acc * fact
    return out


# ---------------------------------------------------------------------------
# binomials and deltas
# ---------------------------------------------------------------------------

Monomial = tuple  # (coeff, {var: exponent})


def binom_expand(ring: ScalarRing, lead: Monomial, tail: Monomial, exponent, order: int) -> FracSeries:
    """(lead + tail)^exponent = sum_{j<=order} C(exponent,j) lead^(exponent-j) tail^j.

    Expansion is in nonnegative powers of the *second* argument, per the fixed
    binomial convention.  The leading monomial must have coefficient 1 so that
    fractional exponents never need a root of its coefficient.
    """
    exponent = Fraction(exponent)
    lc, lexps = lead
    tc, texps = tail
    if not isinstance(tc, Scalar):
        tc = ring.rational(tc)
    if (isinstance(lc, Scalar) and lc != ring.one) or (not isinstance(lc, Scalar) and Fraction(lc) != 1):
        raise ValueError("binom_expand: leading coefficient must be 1")
    vars_ = tuple(sorted(set(lexps) | set(texps)))
    terms: dict[Key, Scalar] = {}
    tpow = ring.one
    for j in range(order + 1):
        c = tpow * gbinom(exponent, j)
        if not c.is_zero():
            key = tuple(
                Fraction(lexps.get(v, 0)) * (exponent - j) + Fraction(texps.get(v, 0)) * j
                for v in vars_
            )
            terms[(key, 0)] = terms.get((key, 0), ring.zero) + c
        tpow = tpow * tc
    return FracSeries(ring, vars_, terms, None, meta=f"binom order<={order}")


def delta_truncated(
    ring: ScalarRing,
    lead: Monomial,
    tail: Monomial,
    den: Monomial,
    *,
    shift=Fraction(0),
    step=Fraction(1),
    n_range: tuple[int, int],
    tail_order: int,
    phase=None,
    prefix: Monomial = (1, {}),
) -> FracSeries:
    """A truncated delta-function expression

        prefix * sum_{n=n_lo}^{n_hi} phase(n) ((lead+tail)/den)^(n*step + shift)

    which covers delta((a-b)/c) and its fractional-power-dressed and k-th-root
    variants: delta itself is the step=1, shift=0 case; a prefactor ((a-b)/c)^r
    folds into shift=r; delta((a-b)^(1/k)/c^(1/k)) is step=1/k.

    `den` is a monomial with coefficient +-1; -1 needs integer net exponents.
    `phase(n)` (optional) multiplies the n-th term by a Scalar, e.g. eta^(jn).
    """
    shift, step = Fraction(shift), Fraction(step)
    dc, dexps = den
    pc, pexps = prefix
    if not isinstance(pc, Scalar):
        pc = ring.rational(pc)
    out = None
    for n in range(n_range[0], n_range[1] + 1):
        e = n * step + shift
        term = binom_expand(ring, lead, tail, e, tail_order)
        # den^(-e)
        if dc == -1:
            if e.denominator != 1:
                raise CompositionDomainError("(-mono)^fractional is ambiguous")
            sign = ring.rational((-1) ** int(e))
        elif dc == 1:
            sign = ring.one
        else:
            raise ValueError("delta denominator coefficient must be +-1")
        dmono = FracSeries.monomial(ring, sign, {v: -Fraction(x) * e for v, x in dexps.items()})
        term = term * dmono
        if phase is not None:
            term = term * phase(n)
        out = term if out is None else out + term
    if out is None:
        out = FracSeries.zero(ring)
    pmono = FracSeries.monomial(ring, pc, {v: Fraction(x) for v, x in pexps.items()})
    out = out * pmono
    out.meta = f"delta trunc n in {n_range}, tail<={tail_order}"
    return out


# ---------------------------------------------------------------------------
# windows and check reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """Closed per-variable exponent boxes; variables not listed are unconstrained."""

    bounds: tuple[tuple[str, tuple[Fraction, Fraction]], ...]

    @staticmethod
    def of(**bounds) -> "Window":
        norm = tuple(
            sorted((v, (Fraction(lo), Fraction(hi))) for v, (lo, hi) in bounds.items())
        )
        for v, (lo, hi) in norm:
            if lo > hi:
                raise ValueError(f"window for {v} has lo > hi")
        return Window(norm)

    def as_dict(self):
        return dict(self.bounds)

    def contains(self, vars: tuple[str, ...], exps) -> bool:
        b = self.as_dict()
        for v, e in zip(vars, exps):
            if v in b:
                lo, hi = b[v]
                if not (lo <= e <= hi):
                    return False
        return True

    def render(self) -> str:
        return ",".join(f"{v}:[{lo},{hi}]" for v, (lo, hi) in self.bounds)


@dataclass
class CheckReport:
    """Outcome of one identity check on one window.

    `identity` is the engine's canonical name for what was checked; `anchors`
    are self-describing ASCII renderings of the identity so a report line can
    be matched to the formula it verified without external context.
    """

    identity: str
    anchors: tuple[str, ...]
    window: str
    status: str  # "pass" | "fail" | "expected-obstruction"
    first_mismatch: str | None = None
    detail: str | None = None
    k: int | None = None

    @property
    def passed(self) -> bool:
        return self.status in ("pass", "expected-obstruction")

    def to_json(self) -> dict:
        out = {
            "identity": self.identity,
            "anchors": list(self.anchors),
            "window": self.window,
            "status": self.status,
        }
        if self.k is not None:
            out["k"] = self.k
        if self.first_mismatch is not None:
            out["first_mismatch"] = self.first_mismatch
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def assert_equal_on_window(
    a: FracSeries,
    b: FracSeries,
    window: Window,
    identity: str,
    anchors: tuple[str, ...] = (),
    k: int | None = None,
    detail: str | None = None,
) -> CheckReport:
    """Compare two series coefficient-wise inside the window.

    The caller is responsible for the window lying inside both operands'
    trusted regions (derived from their truncation orders); this function
    only reports the first differing coefficient.
    """
    allvars, ta, tb = a._aligned(b)
    keys = set()
    for key in ta:
        if window.contains(allvars, key[0]):
            keys.add(key)
    for key in tb:
        if window.contains(allvars, key[0]):
            keys.add(key)
    zero = a.ring.zero
    for key in sorted(keys):
        ca = ta.get(key, zero)
        cb = tb.get(key, zero)
        if ca != cb:
            exps, phi = key
            where = "*".join(
                [f"{v}^{e}" for v, e in zip(allvars, exps) if e != 0] + (["phi"] if phi else [])
            ) or "1"
            return CheckReport(
                identity,
                anchors,
                window.render(),
                "fail",
                first_mismatch=f"at {where}: {ca.render()} != {cb.render()}",
                detail=detail,
                k=k,
            )
    return CheckReport(identity, anchors, window.render(), "pass", detail=detail, k=k)


# ---------------------------------------------------------------------------
# the four delta-function identities (scalar calculus level)
# ---------------------------------------------------------------------------

X0, X1, X2 = "x0", "x1", "x2"


def delta_two_sided_check(ring: ScalarRing, r, N: int = 4) -> CheckReport:
    """x2^-1 ((x1-x0)/x2)^r d((x1-x0)/x2)  =  x1^-1 ((x2+x0)/x1)^-r d((x2+x0)/x1).

    Both sides expand in nonnegative powers of x0; each window coefficient is
    hit by exactly one (n, x0-order) pair, so n-range N+3 and tail order N
    cover the comparison box |e1|,|e2| <= N, 0 <= e0 <= N exactly.
    """
    r = Fraction(r)
    n_range = (-N - 3, N + 3)
    lhs = delta_truncated(
        ring,
        (1, {X1: 1}),
        (-1, {X0: 1}),
        (1, {X2: 1}),
        shift=r,
        n_range=n_range,
        tail_order=N,
        prefix=(1, {X2: -1}),
    )
    rhs = delta_truncated(
        ring,
        (1, {X2: 1}),
        (1, {X0: 1}),
        (1, {X1: 1}),
        shift=-r,
        n_range=n_range,
        tail_order=N,
        prefix=(1, {X1: -1}),
    )
    w = Window.of(x0=(0, N), x1=(-N, N), x2=(-N, N))
    return assert_equal_on_window(
        lhs,
        rhs,
        w,
        identity="delta.two-sided-binomial",
        anchors=(
            "x2^-1 ((x1-x0)/x2)^r d((x1-x0)/x2) = x1^-1 ((x2+x0)/x1)^-r d((x2+x0)/x1)",
            f"r={r}",
        ),
        k=ring.k,
    )


def delta_root_average_check(ring: ScalarRing, N: int = 4) -> CheckReport:
    """sum_{p<k} ((x1-x0)/x2)^(p/k) x2^-1 d((x1-x0)/x2) = x2^-1 d((x1-x0)^(1/k)/x2^(1/k))."""
    k = ring.k
    n_range = (-N - 3, N + 3)
    lhs = None
    for p in range(k):
        piece = delta_truncated(
            ring,
            (1, {X1: 1}),
            (-1, {X0: 1}),
            (1, {X2: 1}),
            shift=Fraction(p, k),
            n_range=n_range,
            tail_order=N,
            prefix=(1, {X2: -1}),
        )
        lhs = piece if lhs is None else lhs + piece
    rhs = delta_truncated(
        ring,
        (1, {X1: 1}),
        (-1, {X0: 1}),
        (1, {X2: 1}),
        step=Fraction(1, k),
        n_range=(k * n_range[0], k * n_range[1] + k - 1),
        tail_order=N,
        prefix=(1, {X2: -1}),
    )
    w = Window.of(x0=(0, N), x1=(-N, N), x2=(-N, N))
    return assert_equal_on_window(
        lhs,
        rhs,
        w,
        identity="delta.root-average",
        anchors=(
            "sum_{p=0}^{k-1} ((x1-x0)/x2)^(p/k) x2^-1 d((x1-x0)/x2) = x2^-1 d((x1-x0)^(1/k)/x2^(1/k))",
        ),
        k=k,
    )


def delta_root_swap_check(ring: ScalarRing, N: int = 4) -> CheckReport:
    """x2^-1 d((x1-x0)^(1/k)/x2^(1/k)) = x1^-1 d((x2+x0)^(1/k)/x1^(1/k))."""
    k = ring.k
    n_range = (-k * (N + 3), k * (N + 3))
    lhs = delta_truncated(
        ring,
        (1, {X1: 1}),
        (-1, {X0: 1}),
        (1, {X2: 1}),
        step=Fraction(1, k),
        n_range=n_range,
        tail_order=N,
        prefix=(1, {X2: -1}),
    )
    rhs = delta_truncated(
        ring,
        (1, {X2: 1}),
        (1, {X0: 1}),
        (1, {X1: 1}),
        step=Fraction(1, k),
        n_range=n_range,
        tail_order=N,
        prefix=(1, {X1: -1}),
    )
    w = Window.of(x0=(0, N), x1=(-N, N), x2=(-N, N))
    return assert_equal_on_window(
        lhs,
        rhs,
        w,
        identity="delta.root-swap",
        anchors=("x2^-1 d((x1-x0)^(1/k)/x2^(1/k)) = x1^-1 d((x2+x0)^(1/k)/x1^(1/k))",),
        k=k,
    )


def delta_three_term_check(ring: ScalarRing, N: int = 4) -> CheckReport:
    """x0^-1 d((x1-x2)/x0) - x0^-1 d((x2-x1)/-x0) = x2^-1 d((x1-x0)/x2)."""
    n_range = (-N - 3, N + 3)
    t1 = delta_truncated(
        ring,
        (1, {X1: 1}),
        (-1, {X2: 1}),
        (1, {X0: 1}),
        n_range=n_range,
        tail_order=N,
        prefix=(1, {X0: -1}),
    )
    t2 = delta_truncated(
        ring,
        (1, {X2: 1}),
        (-1, {X1: 1}),
        (-1, {X0: 1}),
        n_range=n_range,
        tail_order=N,
        prefix=(1, {X0: -1}),
    )
    rhs = delta_truncated(
        ring,
        (1, {X1: 1}),
        (-1, {X0: 1}),
        (1, {X2: 1}),
        n_range=n_range,
        tail_order=N,
        prefix=(1, {X2: -1}),
    )
    # Trusted box: the two left terms expand in x2 resp. x1, the right side in
    # x0; every key with all of |e0|,|e1|,|e2| <= N is term-locked within the
    # built ranges on whichever side carries it, so the full box is trusted.
    w = Window.of(x0=(-N, N), x1=(-N, N), x2=(-N, N))
    lhs = t1 - t2
    return assert_equal_on_window(
        lhs,
        rhs,
        w,
        identity="delta.three-term",
        anchors=("x0^-1 d((x1-x2)/x0) - x0^-1 d((x2-x1)/-x0) = x2^-1 d((x1-x0)/x2)",),
        k=ring.k,
    )


def delta_identity_checks(ring: ScalarRing, r_values=(Fraction(0),), N: int = 4) -> list[CheckReport]:
    """All four delta identities at window size N; the two-sided one per r."""
    out = [delta_two_sided_check(ring, r, N) for r in r_values]
    out.append(delta_root_average_check(ring, N))
    out.append(delta_root_swap_check(ring, N))
    out.append(delta_three_term_check(ring, N))
    return out
