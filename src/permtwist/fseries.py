"""Sparse multivariate formal Laurent series with fractional exponents.

The series kernel underneath every identity check in this package:

* every series is canonical: `vars` is sorted, each key of `terms` is a
  tuple of `Fraction` exponents aligned with `vars`, and no coefficient is
  zero.  `FracSeries(...)` normalises outside input into that form; every
  internal result is built canonical and wrapped as is by `FracSeries._of`.
  Products add exponents as integer numerators over the lcm of both
  operands' exponent denominators;
* a coefficient is an `exactnum.Scalar` (rationals extended by sqrt(k) and
  a k-th root of unity) or a module vector (`fermion.Vec`, held by the
  subclass `fermion.VecSeries`): anything with `+`, `-`, unary `-`,
  `is_zero()`, multiplication by a scalar and `render()`;
* infinite objects (delta functions, binomial tails, exp/log/inverse series)
  are truncated once at construction, at orders the caller chooses; all
  subsequent arithmetic is exact on the finite objects, and every identity
  check compares coefficients only inside a window that the caller derived
  from those truncation orders;
* every exponential, logarithm, binomial power, series inverse and flow
  exponential is one truncated power sum, `power_sum`.

The formal delta function is delta(Y) = sum_{n in Z} Y^n.  Binomials
(a - b)^r are always expanded in nonnegative integer powers of the second
written variable, with generalized binomial coefficients for fractional r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import add, attrgetter

from .exactnum import Scalar, ScalarRing

Fr = Fraction

# A term key: exponent tuple aligned with the series' sorted variable tuple.
Key = tuple[Fraction, ...]


class CompositionDomainError(ValueError):
    """Raised for ill-defined formal composition or substitution."""


def monomial_text(vars: tuple, exps: tuple) -> str:
    """prod v^e (zero exponents left out), '*'-joined, or '1'."""
    return "*".join(f"{v}^{e}" for v, e in zip(vars, exps) if e != 0) or "1"


def integer_exponents(*term_dicts):
    """One common denominator of every exponent in the term dicts, and each
    dict's terms as (exponent numerators over it, coefficient) rows."""
    den = lcm(*(e.denominator for terms in term_dicts for exps in terms for e in exps))
    return den, [[(tuple(e.numerator * (den // e.denominator) for e in exps), c)
                  for exps, c in terms.items()] for terms in term_dicts]


@lru_cache(maxsize=4096)
def gbinom(r: Fraction, j: int) -> Fraction:
    """Generalized binomial coefficient C(r, j) = r(r-1)...(r-j+1)/j!."""
    r = Fraction(r)
    out = Fraction(1)
    for i in range(j):
        out = out * (r - i) / (i + 1)
    return out


# ---------------------------------------------------------------------------
# core series type
# ---------------------------------------------------------------------------


class FracSeries:
    __slots__ = ("ring", "vars", "terms")

    # ring -> the zero coefficient, for keys a series does not hold
    zero_coefficient = attrgetter("zero")

    def __init__(self, ring: ScalarRing, vars, terms=None):
        """Normalise outside input: sort vars, make exponents `Fraction`s,
        lift int/Fraction coefficients into the ring and drop zeros."""
        vars = tuple(vars)
        order = tuple(sorted(vars))
        perm = [vars.index(v) for v in order]
        clean: dict[Key, Scalar] = {}
        for exps, c in (terms or {}).items():
            if isinstance(c, (int, Fraction)):
                c = ring.rational(c)
            if not c.is_zero():
                exps = [exps[i] for i in perm]
                clean[tuple(e if type(e) is Fraction else Fraction(e) for e in exps)] = c
        self.ring, self.vars, self.terms = ring, order, clean

    @classmethod
    def _of(cls, ring: ScalarRing, vars: tuple, terms: dict) -> "FracSeries":
        """Wrap terms that are already canonical (see the module docstring).
        Called on a series, it keeps that series' class."""
        s = object.__new__(cls)
        s.ring, s.vars, s.terms = ring, vars, terms
        return s

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def monomial(ring, coeff, exps: dict | None = None, vars=()) -> "FracSeries":
        """coeff * prod v^e.  `vars` may declare extra variables."""
        exps = exps or {}
        allvars = tuple(sorted(set(exps) | set(vars)))
        key = tuple(Fraction(exps.get(v, 0)) for v in allvars)
        return FracSeries(ring, allvars, {key: coeff})

    @staticmethod
    def zero(ring, vars=()) -> "FracSeries":
        return FracSeries(ring, tuple(vars), {})

    @staticmethod
    def one(ring, vars=()) -> "FracSeries":
        return FracSeries.monomial(ring, 1, {}, vars=vars)

    # -- bookkeeping ------------------------------------------------------------

    def _aligned(self, other: "FracSeries"):
        """(union of vars, self's terms, other's terms) over the union; only
        an operand that lacks some of those vars is remapped."""
        if self.ring.k != other.ring.k:
            raise ValueError("series over different scalar rings")
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))
        return allvars, self._terms_over(allvars), other._terms_over(allvars)

    def _terms_over(self, allvars: tuple) -> dict:
        """The terms with exponents aligned to allvars, a sorted superset of vars."""
        if allvars == self.vars:
            return self.terms
        idx = [self.vars.index(v) if v in self.vars else None for v in allvars]
        zero = Fraction(0)
        return {
            tuple(exps[i] if i is not None else zero for i in idx): c
            for exps, c in self.terms.items()
        }

    def with_vars(self, vars) -> "FracSeries":
        """Same series viewed with extra (unused) variables declared."""
        allvars = tuple(sorted(set(self.vars) | set(vars)))
        if allvars == self.vars:
            return self
        return self._of(self.ring, allvars, self._terms_over(allvars))

    def add_term(self, exps, c) -> None:
        """Add c * prod v^exps (exps aligned with vars) in place."""
        key = tuple(e if type(e) is Fraction else Fraction(e) for e in exps)
        cur = self.terms.get(key)
        new = c if cur is None else cur + c
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def by_exponent(self):
        """(exponent, coefficient) pairs of a one-variable series."""
        return ((e, c) for (e,), c in self.terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        _, a, b = self._aligned(other)
        return a == b

    # -- ring operations --------------------------------------------------------

    def _merge(self, other: "FracSeries", sub: bool) -> "FracSeries":
        allvars, a, b = self._aligned(other)
        out = dict(a)
        for key, c in b.items():
            cur = out.get(key)
            s = (-c if sub else c) if cur is None else (cur - c if sub else cur + c)
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return self._of(self.ring, allvars, out)

    def __add__(self, other: "FracSeries") -> "FracSeries":
        return self._merge(other, False)

    def __sub__(self, other: "FracSeries") -> "FracSeries":
        return self._merge(other, True)

    def __neg__(self) -> "FracSeries":
        return self._of(self.ring, self.vars, {key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        allvars, a, b = self._aligned(other)
        # exponents add as integer numerators over one common denominator
        den, (rows, cols) = integer_exponents(a, b)
        acc: dict = {}
        for e1, c1 in rows:
            for e2, c2 in cols:
                key = tuple(map(add, e1, e2))
                cur = acc.get(key)
                acc[key] = c1 * c2 if cur is None else cur + c1 * c2
        out = {tuple(Fraction(x, den) for x in e): c for e, c in acc.items() if not c.is_zero()}
        return self._of(self.ring, allvars, out)

    __rmul__ = __mul__

    def scale(self, c) -> "FracSeries":
        if isinstance(c, (int, Fraction)):
            c = self.ring.rational(c)
        # a product of nonzero scalars can vanish: the ring has zero divisors at k = 5
        terms = {key: p for key, v in self.terms.items() if not (p := v * c).is_zero()}
        return self._of(self.ring, self.vars, terms)

    # -- extraction -------------------------------------------------------------

    def coefficient(self, assignment: dict) -> Scalar:
        """Coefficient of prod v^assignment[v] (missing vars: exponent 0)."""
        zero = self.zero_coefficient(self.ring)
        for v in assignment:
            if v not in self.vars:
                if Fraction(assignment[v]) != 0:
                    return zero
        key = tuple(Fraction(assignment.get(v, 0)) for v in self.vars)
        return self.terms.get(key, zero)

    def coefficient_in(self, var: str, e) -> "FracSeries":
        """The coefficient series of var^e (var removed from the result)."""
        e = Fraction(e)
        if var not in self.vars:
            return self if e == 0 else self._of(self.ring, self.vars, {})
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        out = {exps[:i] + exps[i + 1 :]: c for exps, c in self.terms.items() if exps[i] == e}
        return self._of(self.ring, rest, out)

    def exponents_of(self, var: str) -> set[Fraction]:
        if var not in self.vars:
            return {Fraction(0)} if self.terms else set()
        i = self.vars.index(var)
        return {exps[i] for exps in self.terms}

    # -- calculus ----------------------------------------------------------------

    def derivative(self, var: str) -> "FracSeries":
        if var not in self.vars:
            return self._of(self.ring, self.vars, {})
        i = self.vars.index(var)
        # e -> e - 1 is injective and c * e != 0 for a nonzero rational e
        out = {
            exps[:i] + (exps[i] - 1,) + exps[i + 1 :]: c * exps[i]
            for exps, c in self.terms.items() if exps[i] != 0
        }
        return self._of(self.ring, self.vars, out)

    # -- substitutions -------------------------------------------------------------

    def scale_exponents(self, var: str, factor) -> "FracSeries":
        """Named substitution var -> var^factor by exponent scaling.

        With factor = k and the principal-branch rule (x^k)^(1/k) = x this also
        implements the reverse direction: exponents are multiplied exactly,
        never passed through a root choice.
        """
        factor = Fraction(factor)
        if factor == 0:
            raise CompositionDomainError(f"scale_exponents: {var} -> {var}^0 merges every power")
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        terms = {exps[:i] + (exps[i] * factor,) + exps[i + 1 :]: c for exps, c in self.terms.items()}
        return self._of(self.ring, self.vars, terms)

    def shift_exponents(self, var: str, delta) -> "FracSeries":
        """Multiply by var^delta."""
        delta = Fraction(delta)
        s = self if var in self.vars else self.with_vars((var,))
        i = s.vars.index(var)
        terms = {exps[:i] + (exps[i] + delta,) + exps[i + 1 :]: c for exps, c in s.terms.items()}
        return s._of(s.ring, s.vars, terms)

    def eta_twist(self, var: str, j: int) -> "FracSeries":
        """The substitution var^(1/k) -> eta^j var^(1/k) for the ring's k.

        A term var^m (with k*m integral) picks up the factor eta^(j*k*m), a
        unit, so no coefficient becomes zero.
        """
        k = self.ring.k
        if var not in self.vars or j % k == 0:
            return self
        i = self.vars.index(var)
        out = {}
        for exps, c in self.terms.items():
            km = exps[i] * k
            if km.denominator != 1:
                raise CompositionDomainError(
                    f"exponent {exps[i]} of {var} is off the (1/{k})Z lattice"
                )
            out[exps] = c * self.ring.eta(j * int(km))
        return self._of(self.ring, self.vars, out)

    def truncate(self, var: str, max_exp) -> "FracSeries":
        """Drop terms with var-exponent above max_exp."""
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        max_exp = Fraction(max_exp)
        out = {exps: c for exps, c in self.terms.items() if exps[i] <= max_exp}
        return self._of(self.ring, self.vars, out)

    def substitute(self, var: str, repl: "FracSeries", trunc_var: str, trunc_order) -> "FracSeries":
        """Substitute a whole series for var.  Only integer powers of var are
        supported (fractional powers of a general series would need a branch
        choice); negative powers go through series inversion, which requires a
        unique invertible leading monomial in trunc_var.

        Each power is the nearest power already built times repl (or its
        inverse), truncated.  Positive powers are truncated at trunc_order,
        which is sound when repl has strictly positive trunc_var-order d.  The
        inverse has order -d, so it is built, and the negative powers are
        chained, through trunc_order + |e| d for the most negative power e:
        then every power still holds each term through trunc_order.
        """
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        # var^e groups: dropping the var-exponent is injective within a group
        groups: dict[int, dict] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e.denominator != 1:
                raise CompositionDomainError(
                    f"substitute: fractional power {e} of {var} unsupported"
                )
            groups.setdefault(int(e), {})[exps[:i] + exps[i + 1 :]] = c
        powers = {0: FracSeries.one(self.ring)}
        # step -> (repl or its inverse, the depth its powers are chained at)
        base = {1: (repl, trunc_order)}
        out = FracSeries.zero(self.ring, ())
        for e, terms in sorted(groups.items()):
            if e not in powers:
                step = 1 if e > 0 else -1
                if step not in base:
                    d = min(repl.exponents_of(trunc_var), default=0)
                    deep = Fraction(trunc_order) - min(groups) * max(d, 0)
                    base[step] = (invert_series(repl, trunc_var, deep), deep)
                factor, depth = base[step]
                near = e - step
                while near not in powers:
                    near -= step
                for m in range(near + step, e + step, step):
                    powers[m] = (powers[m - step] * factor).truncate(trunc_var, depth)
            out = out + FracSeries._of(self.ring, rest, terms) * powers[e]
        return out.truncate(trunc_var, trunc_order)

    # -- rendering ----------------------------------------------------------------

    def render(self, max_terms: int | None = None) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps, c in sorted(self.terms.items()):
            bits.append(f"({c.render()})*{monomial_text(self.vars, exps)}")
            if max_terms and len(bits) >= max_terms:
                bits.append("...")
                break
        return " + ".join(bits)

    def __repr__(self):
        return f"<{type(self).__name__} {self.render(max_terms=6)}>"


# ---------------------------------------------------------------------------
# series-level helpers (unit leading term)
# ---------------------------------------------------------------------------


def leading_term(s: FracSeries, var: str):
    """The unique term of minimal var-exponent; error if tied."""
    if not s.terms:
        raise CompositionDomainError("leading term of zero series")
    i = s.vars.index(var)
    emin = min(exps[i] for exps in s.terms)
    hits = [exps for exps in s.terms if exps[i] == emin]
    if len(hits) != 1:
        raise CompositionDomainError(f"leading {var}-term not unique: {hits}")
    return hits[0], s.terms[hits[0]]


def power_sum(seed, step, coeff, limit: int):
    """sum_{j>=0} coeff(j) * step^j(seed), stopping at the first power that is zero.

    seed and the powers may be anything with is_zero(), + and * by a rational
    (a FracSeries, a Vec).  Raises RuntimeError when limit applications of
    step have not reached zero.
    """
    c0 = coeff(0)
    out = seed if c0 == 1 else seed * c0
    acc = seed
    for j in range(1, limit + 1):
        acc = step(acc)
        if acc.is_zero():
            return out
        out = out + acc * coeff(j)
    raise RuntimeError(f"truncated power sum not exhausted after {limit} steps")


def inverse_factorial(j: int) -> Fraction:
    """1/j!: the coefficients of an exponential as a power sum."""
    return Fraction(1, factorial(j))


def _tail_power_sum(r: FracSeries, coeff, trunc_var: str, trunc_order, name: str) -> FracSeries:
    """sum_j coeff(j) r^j truncated above trunc_var^trunc_order, for r of
    strictly positive trunc_var-order emin: r^j vanishes once j*emin exceeds
    trunc_order, so the sum always ends within its limit."""
    limit = 1
    if not r.is_zero():
        i = r.vars.index(trunc_var)
        emin = min(exps[i] for exps in r.terms)
        if emin <= 0:
            raise CompositionDomainError(f"{name} needs a tail of positive {trunc_var}-order")
        limit = int(Fraction(trunc_order) / emin) + 1
    return power_sum(FracSeries.one(r.ring), lambda acc: (acc * r).truncate(trunc_var, trunc_order),
                     coeff, limit)


def invert_series(s: FracSeries, trunc_var: str, trunc_order) -> FracSeries:
    """1/s for s with a unique invertible leading monomial in trunc_var."""
    lexps, lcoeff = leading_term(s, trunc_var)
    lead_inv = FracSeries._of(s.ring, s.vars, {tuple(-e for e in lexps): lcoeff.invert()})
    r = lead_inv * s - FracSeries.one(s.ring)
    return lead_inv * _tail_power_sum(r, lambda j: (-1) ** j, trunc_var, trunc_order, "invert_series")


def unit_pow(s: FracSeries, e, trunc_var: str, trunc_order) -> FracSeries:
    """s^e for s = 1 + r with r of positive trunc_var-order; e may be fractional."""
    e = Fraction(e)
    r = s - FracSeries.one(s.ring).with_vars(s.vars)
    return _tail_power_sum(r, lambda j: gbinom(e, j), trunc_var, trunc_order, "unit_pow")


def log_series(s: FracSeries, trunc_var: str, trunc_order) -> FracSeries:
    """log(1 + r) for s = 1 + r of positive trunc_var-order."""
    r = s - FracSeries.one(s.ring).with_vars(s.vars)
    return _tail_power_sum(r, lambda j: Fraction((-1) ** (j + 1), j) if j else 0,
                           trunc_var, trunc_order, "log_series")


def exp_series(r: FracSeries, trunc_var: str, trunc_order) -> FracSeries:
    """exp(r) for r of strictly positive trunc_var-order."""
    return _tail_power_sum(r, inverse_factorial, trunc_var, trunc_order, "exp_series")


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
    lead_exps = [Fraction(lexps.get(v, 0)) for v in vars_]
    tail_exps = [Fraction(texps.get(v, 0)) for v in vars_]
    terms: dict[Key, Scalar] = {}
    tpow = ring.one
    for j in range(order + 1):
        c = tpow * gbinom(exponent, j)
        if not c.is_zero():
            key = tuple(a * (exponent - j) + b * j for a, b in zip(lead_exps, tail_exps))
            cur = terms.get(key)
            terms[key] = c if cur is None else cur + c
        tpow = tpow * tc
    terms = {key: c for key, c in terms.items() if not c.is_zero()}
    return FracSeries._of(ring, vars_, terms)


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
    if dc not in (1, -1):
        raise ValueError("delta denominator coefficient must be +-1")
    pc, pexps = prefix
    if not isinstance(pc, Scalar):
        pc = ring.rational(pc)
    vars_, acc = (), {}
    for n in range(n_range[0], n_range[1] + 1):
        e = n * step + shift
        if dc == -1 and e.denominator != 1:
            raise CompositionDomainError("(-mono)^fractional is ambiguous")
        term = binom_expand(ring, lead, tail, e, tail_order)
        # times den^(-e): the sign of (-1)^(-e) and the phase in one scale
        for v, x in dexps.items():
            term = term.shift_exponents(v, -Fraction(x) * e)
        c = ring.rational(-1) if dc == -1 and e.numerator % 2 else ring.one
        if phase is not None:
            c = c * phase(n)
        # every n-term has the vars of lead, tail and den
        vars_ = term.vars
        for key, t in term.scale(c).terms.items():
            cur = acc.get(key)
            s = t if cur is None else cur + t
            if s.is_zero():
                acc.pop(key, None)
            else:
                acc[key] = s
    out = FracSeries._of(ring, vars_, acc)
    for v, x in pexps.items():
        out = out.shift_exponents(v, x)
    return out.scale(pc)


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
    return compare_on_window(a, b, window, identity, anchors, k, detail, _scalar_mismatch)


def _scalar_mismatch(mono: str, ca: Scalar, cb: Scalar) -> str:
    return f"at {mono}: {ca.render()} != {cb.render()}"


def compare_on_window(a: FracSeries, b: FracSeries, window: Window, identity: str, anchors,
                      k: int | None, detail: str | None, mismatch) -> CheckReport:
    """The window walk of every series comparison: over the union of both
    operands' keys inside the window, in sorted key order, the first key
    whose coefficients differ fails the report with the text
    mismatch(monomial text, coefficient of a, coefficient of b)."""
    allvars, ta, tb = a._aligned(b)
    keys = {key for key in ta if window.contains(allvars, key)}
    keys.update(key for key in tb if window.contains(allvars, key))
    zero = a.zero_coefficient(a.ring)
    for key in sorted(keys):
        ca = ta.get(key, zero)
        cb = tb.get(key, zero)
        if ca != cb:
            return CheckReport(
                identity,
                tuple(anchors),
                window.render(),
                "fail",
                first_mismatch=mismatch(monomial_text(allvars, key), ca, cb),
                detail=detail,
                k=k,
            )
    return CheckReport(identity, tuple(anchors), window.render(), "pass", detail=detail, k=k)


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
