"""Sparse multivariate formal Laurent series with fractional exponents.

The series kernel underneath every identity check in this package:

* every series is canonical: `vars` is sorted, `den` is a positive int,
  each key of `terms` is a tuple of ints aligned with `vars` (a variable's
  exponent is its int over `den`), and no coefficient is zero.
  `FracSeries(...)` normalises outside input into that form; every internal
  result is built canonical and wrapped as is by `FracSeries._of`.  All
  exponent arithmetic is on ints, two operands meeting over the lcm of
  their dens; `Fraction` exponents appear only at the boundary;
* a coefficient is an `exactnum.Scalar` (rationals extended by sqrt(k) and
  a k-th root of unity) or a module vector (`fermion.Vec`, held by the
  subclass `fermion.VecSeries`): anything with `+`, `-`, unary `-`,
  `is_zero()`, multiplication by a scalar and `render()`;
* infinite objects (delta functions, binomial tails, exp/log/inverse series)
  are truncated once at construction, at orders the caller chooses; all
  subsequent arithmetic is exact on the finite objects, and every identity
  check compares coefficients only inside a window that the caller derived
  from those truncation orders;
* there is one series product, `FracSeries.mul(other, box)`: it forms only
  the term pairs inside the box (a `Window`, whose sides may be open), and
  the class supplies the coefficient multiply-accumulate, `sum_of_products`;
* every exponential, logarithm, binomial power, series inverse and flow
  exponential is one truncated power sum, `power_sum`.

The formal delta function is delta(Y) = sum_{n in Z} Y^n.  Binomials
(a - b)^r are always expanded in nonnegative integer powers of the second
written variable, with generalized binomial coefficients for fractional r.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import starmap
from math import ceil, factorial, floor, inf, lcm
from operator import add, attrgetter, mul

from .exactnum import Scalar, ScalarRing

Fr = Fraction

# A term key: integer exponent numerators over the series' `den`, aligned
# with its sorted variable tuple.
Key = tuple[int, ...]


class CompositionDomainError(ValueError):
    """Raised for ill-defined formal composition or substitution."""


def monomial_text(vars: tuple, key: Key, den: int) -> str:
    """prod v^(n/den) (zero exponents left out), '*'-joined, or '1'."""
    return "*".join(f"{v}^{Fraction(n, den)}" for v, n in zip(vars, key) if n) or "1"


def _numerators(exps, den: int) -> Key | None:
    """Exponents (ints or Fractions) as integer numerators over den, or None
    when one of them is off the (1/den)Z lattice."""
    key = []
    for e in exps:
        n, r = divmod(e.numerator * den, e.denominator)
        if r:
            return None
        key.append(n)
    return tuple(key)


def _inside(items, box) -> dict:
    """The (key, value) items with key in box, a `Window.limits` list."""
    if box is None:
        return {}
    return {key: c for key, c in items if all(lo <= key[i] <= hi for i, lo, hi in box)}


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
    __slots__ = ("ring", "vars", "den", "terms")

    # ring -> the zero coefficient, for keys a series does not hold
    zero_coefficient = attrgetter("zero")

    def __init__(self, ring: ScalarRing, vars, terms=None):
        """Normalise outside input: sort vars, put every exponent (int,
        Fraction or anything Fraction() reads) over one common denominator,
        lift int/Fraction coefficients into the ring and drop zeros."""
        vars = tuple(vars)
        order = tuple(sorted(vars))
        perm = [vars.index(v) for v in order]
        self.ring, self.vars, self.den, self.terms = ring, order, 1, {}
        for exps, c in (terms or {}).items():
            c = ring.rational(c) if isinstance(c, (int, Fraction)) else c
            self.add_term([Fraction(exps[i]) for i in perm], c)

    @classmethod
    def _of(cls, ring: ScalarRing, vars: tuple, terms: dict, den: int) -> "FracSeries":
        """Wrap terms that are already canonical (see the module docstring).
        Called on a series, it keeps that series' class."""
        s = object.__new__(cls)
        s.ring, s.vars, s.terms, s.den = ring, vars, terms, den
        return s

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def monomial(ring, coeff, exps: dict | None = None, vars=()) -> "FracSeries":
        """coeff * prod v^e.  `vars` may declare extra variables."""
        exps = exps or {}
        allvars = tuple(sorted(set(exps) | set(vars)))
        key = tuple(exps.get(v, 0) for v in allvars)
        return FracSeries(ring, allvars, {key: coeff})

    @staticmethod
    def zero(ring, vars=()) -> "FracSeries":
        return FracSeries(ring, tuple(vars), {})

    @staticmethod
    def one(ring, vars=()) -> "FracSeries":
        return FracSeries.monomial(ring, 1, {}, vars=vars)

    # -- bookkeeping ------------------------------------------------------------

    def _aligned(self, other: "FracSeries"):
        """(union of vars, lcm of both dens, self's terms, other's terms), both
        over that union and den; only an operand that lacks some of those
        vars, or has a smaller den, is re-keyed."""
        if self.ring.k != other.ring.k:
            raise ValueError("series over different scalar rings")
        if self.vars == other.vars and self.den == other.den:
            return self.vars, self.den, self.terms, other.terms
        allvars = tuple(sorted(set(self.vars) | set(other.vars)))
        den = lcm(self.den, other.den)
        return allvars, den, self._terms_over(allvars, den), other._terms_over(allvars, den)

    def _terms_over(self, allvars: tuple, den: int) -> dict:
        """The terms re-keyed over allvars, a sorted superset of vars, and
        den, a multiple of self.den."""
        m = den // self.den
        if allvars == self.vars and m == 1:
            return self.terms
        idx = [self.vars.index(v) if v in self.vars else None for v in allvars]
        return {
            tuple(0 if i is None else key[i] * m for i in idx): c
            for key, c in self.terms.items()
        }

    def with_vars(self, vars) -> "FracSeries":
        """Same series viewed with extra (unused) variables declared."""
        allvars = tuple(sorted(set(self.vars) | set(vars)))
        if allvars == self.vars:
            return self
        return self._of(self.ring, allvars, self._terms_over(allvars, self.den), self.den)

    def add_term(self, exps, c) -> None:
        """Add c * prod v^exps (exps aligned with vars, ints or Fractions) in
        place.  An exponent off the (1/den)Z lattice first refines den."""
        key = _numerators(exps, self.den)
        if key is None:
            den = lcm(self.den, *(e.denominator for e in exps))
            self.terms, self.den = self._terms_over(self.vars, den), den
            key = _numerators(exps, den)
        self.add_at(key, c)

    def add_at(self, key: Key, c) -> None:
        """Add c at key, integer exponent numerators over den, in place; a
        zero sum drops the term."""
        cur = self.terms.get(key)
        new = c if cur is None else cur + c
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def by_exponent(self):
        """(Fraction exponent, coefficient) pairs of a one-variable series."""
        den = self.den
        return ((Fraction(n, den), c) for (n,), c in self.terms.items())

    def by_numerator(self, den: int):
        """(exponent numerator over den, coefficient) pairs of a one-variable
        series; den is a multiple of the series' den."""
        m = den // self.den
        return ((n * m, c) for (n,), c in self.terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        _, _, a, b = self._aligned(other)
        return a == b

    # -- ring operations --------------------------------------------------------

    def _merge(self, other: "FracSeries", sub: bool) -> "FracSeries":
        allvars, den, a, b = self._aligned(other)
        out = dict(a)
        for key, c in b.items():
            cur = out.get(key)
            s = (-c if sub else c) if cur is None else (cur - c if sub else cur + c)
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return self._of(self.ring, allvars, out, den)

    def __add__(self, other: "FracSeries") -> "FracSeries":
        return self._merge(other, False)

    def __sub__(self, other: "FracSeries") -> "FracSeries":
        return self._merge(other, True)

    def __neg__(self) -> "FracSeries":
        return self._of(self.ring, self.vars, {key: -c for key, c in self.terms.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return self.mul(other)

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs: list):
        """The multiply-accumulate of `mul`: sum c * s over the (c, s) pairs
        that land on one key."""
        return reduce(add, starmap(mul, pairs))

    def mul(self, other: "FracSeries", box: Window | None = None) -> "FracSeries":
        """The product by a scalar series; with a box, its terms inside the
        box, each still the sum of every pair that lands on it, and only
        those pairs are formed.  self's terms are grouped by their exponent
        in the box's narrowest bounded variable; a monomial of coefficient
        one on either side only moves keys, sharing the other's entries."""
        # over one common den, exponents add as their integer numerators
        allvars, den, a, b = self._aligned(other)
        limits = [] if box is None else box.limits(allvars, den)
        for unit, moved, owner in ((b, a, self), (a, b, other)):
            if len(unit) == 1 and next(iter(unit.values())) == self.ring.one:
                (shift,) = unit
                terms = _inside(((tuple(map(add, key, shift)), c) for key, c in moved.items()), limits)
                return owner._of(self.ring, allvars, terms, den)
        acc = defaultdict(list)
        if limits == []:
            for skey, s in b.items():
                for key, c in a.items():
                    acc[tuple(map(add, key, skey))].append((c, s))
        elif limits:  # None, the empty box, forms no pair
            ix, glo, ghi = min(limits, key=lambda lim: lim[2] - lim[1])
            groups = defaultdict(list)
            for key, c in a.items():
                groups[key[ix]].append((key, c))
            cols = sorted(groups)
            for skey, s in b.items():
                # the box shifted by this term of other: bounds on self's key
                bounds = [(i, lo - skey[i], hi - skey[i]) for i, lo, hi in limits if i != ix]
                for col in cols[bisect_left(cols, glo - skey[ix]):bisect_right(cols, ghi - skey[ix])]:
                    for key, c in groups[col]:
                        for i, lo, hi in bounds:
                            if not lo <= key[i] <= hi:
                                break
                        else:
                            acc[tuple(map(add, key, skey))].append((c, s))
        terms = zip(acc, map(self.sum_of_products, acc.values()))
        return self._of(self.ring, allvars, {key: c for key, c in terms if not c.is_zero()}, den)

    def scale(self, c) -> "FracSeries":
        if isinstance(c, (int, Fraction)):
            c = self.ring.rational(c)
        terms = {} if c.is_zero() else {key: v * c for key, v in self.terms.items()}
        return self._of(self.ring, self.vars, terms, self.den)

    # -- extraction -------------------------------------------------------------

    def coefficient(self, assignment: dict) -> Scalar:
        """Coefficient of prod v^assignment[v] (missing vars: exponent 0)."""
        zero = self.zero_coefficient(self.ring)
        if any(Fraction(e) != 0 for v, e in assignment.items() if v not in self.vars):
            return zero
        key = _numerators([Fraction(assignment.get(v, 0)) for v in self.vars], self.den)
        return zero if key is None else self.terms.get(key, zero)

    def coefficient_in(self, var: str, e) -> "FracSeries":
        """The coefficient series of var^e (var removed from the result)."""
        e = Fraction(e)
        if var not in self.vars:
            return self if e == 0 else self._of(self.ring, self.vars, {}, self.den)
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        n = e * self.den
        n = n.numerator if n.denominator == 1 else None  # off the lattice: no term
        out = {key[:i] + key[i + 1 :]: c for key, c in self.terms.items() if key[i] == n}
        return self._of(self.ring, rest, out, self.den)

    def exponents_of(self, var: str) -> set[Fraction]:
        if var not in self.vars:
            return {Fraction(0)} if self.terms else set()
        i = self.vars.index(var)
        return {Fraction(n, self.den) for n in {key[i] for key in self.terms}}

    # -- calculus ----------------------------------------------------------------

    def derivative(self, var: str) -> "FracSeries":
        if var not in self.vars:
            return self._of(self.ring, self.vars, {}, self.den)
        i, den = self.vars.index(var), self.den
        # e -> e - 1 is injective and c * e != 0 for a nonzero rational e
        out = {
            key[:i] + (key[i] - den,) + key[i + 1 :]: c * Fraction(key[i], den)
            for key, c in self.terms.items() if key[i]
        }
        return self._of(self.ring, self.vars, out, den)

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
        # var's numerator times p/q: over den * q, var's by p and the rest by q
        p, q = factor.numerator, factor.denominator
        mult = [q] * len(self.vars)
        mult[self.vars.index(var)] = p
        terms = {tuple(map(mul, key, mult)): c for key, c in self.terms.items()}
        return self._of(self.ring, self.vars, terms, self.den * q)

    def shift_exponents(self, var: str, delta) -> "FracSeries":
        """Multiply by var^delta."""
        delta = Fraction(delta)
        s = self if var in self.vars else self.with_vars((var,))
        den = lcm(s.den, delta.denominator)
        d = delta.numerator * (den // delta.denominator)
        i = s.vars.index(var)
        terms = {key[:i] + (key[i] + d,) + key[i + 1 :]: c for key, c in s._terms_over(s.vars, den).items()}
        return s._of(s.ring, s.vars, terms, den)

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
        for key, c in self.terms.items():
            km, r = divmod(key[i] * k, self.den)
            if r:
                raise CompositionDomainError(
                    f"exponent {Fraction(key[i], self.den)} of {var} is off the (1/{k})Z lattice"
                )
            out[key] = c * self.ring.eta(j * km)
        return self._of(self.ring, self.vars, out, self.den)

    def truncate_window(self, window: "Window") -> "FracSeries":
        """The terms inside the window's box."""
        terms = _inside(self.terms.items(), window.limits(self.vars, self.den))
        return self._of(self.ring, self.vars, terms, self.den)

    def substitute(self, var: str, repl: "FracSeries", trunc_var: str, trunc_order) -> "FracSeries":
        """Substitute a whole series for var.  Only integer powers of var are
        supported (fractional powers of a general series would need a branch
        choice); negative powers go through series inversion, which requires a
        unique invertible leading monomial in trunc_var.

        Each power is the nearest power already built times repl (or its
        inverse), a boxed product.  Positive powers are cut at trunc_order,
        which is sound when repl has strictly positive trunc_var-order d.  The
        inverse has order -d, so it is built, and the negative powers are
        chained, through trunc_order + |e| d for the most negative power e:
        then every power still holds each term through trunc_order.

        The result keeps self's class: a vector series substitutes like a
        scalar one, each vector group times a scalar power.
        """
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        # var^e groups: dropping the var-exponent is injective within a group
        groups: dict[int, dict] = {}
        for key, c in self.terms.items():
            e, r = divmod(key[i], self.den)
            if r:
                raise CompositionDomainError(
                    f"substitute: fractional power {Fraction(key[i], self.den)} of {var} unsupported"
                )
            groups.setdefault(e, {})[key[:i] + key[i + 1 :]] = c
        powers = {0: FracSeries.one(self.ring)}
        cut = Window.below(trunc_var, trunc_order)
        # step -> (repl or its inverse, the box its powers are chained in)
        base = {1: (repl, cut)}
        out = self._of(self.ring, (), {}, 1)
        for e, terms in sorted(groups.items()):
            if e not in powers:
                step = 1 if e > 0 else -1
                if step not in base:
                    d = min(repl.exponents_of(trunc_var), default=0)
                    deep = Fraction(trunc_order) - min(groups) * max(d, 0)
                    base[step] = (invert_series(repl, trunc_var, deep), Window.below(trunc_var, deep))
                factor, chain = base[step]
                near = e - step
                while near not in powers:
                    near -= step
                for m in range(near + step, e + step, step):
                    powers[m] = powers[m - step].mul(factor, chain)
            out = out + self._of(self.ring, rest, terms, self.den).mul(powers[e], cut)
        return out

    # -- rendering ----------------------------------------------------------------

    def render(self, max_terms: int | None = None) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key, c in sorted(self.terms.items()):
            bits.append(f"({c.render()})*{monomial_text(self.vars, key, self.den)}")
            if max_terms and len(bits) >= max_terms:
                bits.append("...")
                break
        return " + ".join(bits)

    def __repr__(self):
        return f"<{type(self).__name__} {self.render(max_terms=6)}>"


# ---------------------------------------------------------------------------
# series-level helpers (unit leading term)
# ---------------------------------------------------------------------------


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
    trunc_order, so the sum always ends within its limit.  A trunc_var that
    r does not mention has exponent 0 in it."""
    limit = 1
    if not r.is_zero():
        r = r.with_vars((trunc_var,))
        i = r.vars.index(trunc_var)
        emin = Fraction(min(key[i] for key in r.terms), r.den)
        if emin <= 0:
            raise CompositionDomainError(f"{name} needs a tail of positive {trunc_var}-order")
        limit = int(Fraction(trunc_order) / emin) + 1
    cut = Window.below(trunc_var, trunc_order)
    return power_sum(FracSeries.one(r.ring), lambda acc: acc.mul(r, cut), coeff, limit)


def invert_series(s: FracSeries, trunc_var: str, trunc_order) -> FracSeries:
    """1/s for s with a unique invertible leading monomial in trunc_var.  A
    trunc_var that s does not mention has exponent 0 in it, so a monomial
    inverts exactly at any trunc_order."""
    if not s.terms:
        raise CompositionDomainError("leading term of zero series")
    s = s.with_vars((trunc_var,))
    i = s.vars.index(trunc_var)
    emin = min(key[i] for key in s.terms)
    hits = [key for key in s.terms if key[i] == emin]
    if len(hits) != 1:
        shown = [monomial_text(s.vars, key, s.den) for key in hits]
        raise CompositionDomainError(f"leading {trunc_var}-term not unique: {shown}")
    lead_inv = FracSeries._of(s.ring, s.vars, {tuple(-n for n in hits[0]): s.terms[hits[0]].invert()}, s.den)
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
    return delta_truncated(ring, lead, tail, (1, {}), shift=exponent, n_range=(0, 0), tail_order=order)


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
    phase: int = 0,
    prefix: Monomial = (1, {}),
) -> FracSeries:
    """A truncated delta-function expression

        prefix * sum_{n=n_lo}^{n_hi} eta^(phase*n) ((lead+tail)/den)^(n*step + shift)

    which covers delta((a-b)/c) and its fractional-power-dressed and k-th-root
    variants: delta itself is the step=1, shift=0 case; a prefactor ((a-b)/c)^r
    folds into shift=r; delta((a-b)^(1/k)/c^(1/k)) is step=1/k.

    `den` is a monomial with coefficient +-1; -1 needs integer net exponents.
    `phase` is an int j: the n-th term is multiplied by eta^(jn), eta the
    ring's primitive k-th root of unity (j = 0: no phase).
    binom_expand is the one n = 0 term.  Every (n, j) term is added into one
    series over one common den.
    """
    shift, step = Fraction(shift), Fraction(step)
    lc, tc = lead[0], tail[0]
    if (isinstance(lc, Scalar) and lc != ring.one) or (not isinstance(lc, Scalar) and Fraction(lc) != 1):
        raise ValueError("binom_expand: leading coefficient must be 1")
    tc = tc if isinstance(tc, Scalar) else ring.rational(tc)
    dc, dexps = den
    if dc not in (1, -1):
        raise ValueError("delta denominator coefficient must be +-1")
    pc, pexps = prefix
    if not isinstance(pc, Scalar):
        pc = ring.rational(pc)
    lexps, texps = lead[1], tail[1]
    vars_ = tuple(sorted(set(lexps) | set(texps) | set(dexps) | set(pexps)))

    def exps(m):
        return [Fraction(m.get(v, 0)) for v in vars_]

    # with e = n*step + shift, the (n, j) term sits at
    # (lead - den)*e + prefix + j*(tail - lead)
    net = [a - d for a, d in zip(exps(lexps), exps(dexps))]
    rows = ([x * step for x in net], [x * shift + p for x, p in zip(net, exps(pexps))],
            [b - a for a, b in zip(exps(lexps), exps(texps))])
    lcm_den = lcm(*(x.denominator for row in rows for x in row))
    nstep, base, jstep = (_numerators(row, lcm_den) for row in rows)
    out = FracSeries._of(ring, vars_, {}, lcm_den)
    for n in range(n_range[0], n_range[1] + 1):
        e = n * step + shift
        if dc == -1 and e.denominator != 1:
            raise CompositionDomainError("(-mono)^fractional is ambiguous")
        # the sign of (-1)^(-e) and the phase, as one factor (None: 1)
        c = ring.rational(-1) if dc == -1 and e.numerator % 2 else None
        if phase:
            eta = ring.eta(phase * n)
            c = eta if c is None else c * eta
        at_n = [b + n * s for b, s in zip(base, nstep)]
        tpow = ring.one  # tc^j
        for j in range(tail_order + 1):
            t = tpow * gbinom(e, j)
            if not t.is_zero():
                out.add_at(tuple(b + j * s for b, s in zip(at_n, jstep)), t if c is None else t * c)
            tpow = tpow * tc
    return out if pc == ring.one else out.scale(pc)


# ---------------------------------------------------------------------------
# windows and check reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """Closed per-variable exponent boxes; variables not listed are unconstrained
    and a side given as None is open.  A series that lacks a variable has it at 0."""

    bounds: tuple[tuple[str, tuple[Fraction | None, Fraction | None]], ...]

    @staticmethod
    def of(**bounds) -> "Window":
        norm = tuple(sorted((v, tuple(None if e is None else Fraction(e) for e in lohi))
                            for v, lohi in bounds.items()))
        for v, (lo, hi) in norm:
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(f"window for {v} has lo > hi")
        return Window(norm)

    @staticmethod
    def below(var: str, hi) -> "Window":
        """The one-sided box var <= hi: a truncation."""
        return Window(((var, (None, Fraction(hi))),))

    def as_dict(self):
        return dict(self.bounds)

    def span(self, var: str) -> tuple[Fraction, Fraction]:
        """var's (lo, hi); ValueError naming var when a side is missing or open."""
        lo, hi = self.as_dict().get(var, (None, None))
        if lo is None or hi is None:
            raise ValueError(f"window must bound {var} on both sides, got {self.render() or 'no bounds'}")
        return lo, hi

    def limits(self, vars: tuple[str, ...], den: int) -> list[tuple[int, int, int]] | None:
        """(index into vars, ceil(lo*den), floor(hi*den)) of every bounded
        variable of vars, an open side as -inf or inf: the box on keys of
        integer exponent numerators over den.  None when the box holds no
        key: a bound that excludes 0 on a variable not in vars."""
        out = []
        for v, (lo, hi) in self.bounds:
            if v in vars:
                out.append((vars.index(v), -inf if lo is None else ceil(lo * den),
                            inf if hi is None else floor(hi * den)))
            elif not (lo or 0) <= 0 <= (hi or 0):  # an open side admits 0
                return None
        return out

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
    allvars, den, ta, tb = a._aligned(b)
    box = window.limits(allvars, den)
    keys = _inside(ta.items(), box).keys() | _inside(tb.items(), box).keys()
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
                first_mismatch=mismatch(monomial_text(allvars, key, den), ca, cb),
                detail=detail,
                k=k,
            )
    return CheckReport(identity, tuple(anchors), window.render(), "pass", detail=detail, k=k)


# ---------------------------------------------------------------------------
# the four delta-function identities (scalar calculus level)
# ---------------------------------------------------------------------------

X0, X1, X2 = "x0", "x1", "x2"


def _delta_x2(ring: ScalarRing, N: int, n_range, **kw) -> FracSeries:
    """x2^-1 d((x1-x0)/x2) in nonnegative powers of x0 through x0^N; kw are
    delta_truncated's shift and step."""
    return delta_truncated(ring, (1, {X1: 1}), (-1, {X0: 1}), (1, {X2: 1}), n_range=n_range,
                           tail_order=N, prefix=(1, {X2: -1}), **kw)


def _delta_x1(ring: ScalarRing, N: int, n_range, **kw) -> FracSeries:
    """x1^-1 d((x2+x0)/x1), likewise."""
    return delta_truncated(ring, (1, {X2: 1}), (1, {X0: 1}), (1, {X1: 1}), n_range=n_range,
                           tail_order=N, prefix=(1, {X1: -1}), **kw)


def _x0_half_box(N: int) -> Window:
    return Window.of(x0=(0, N), x1=(-N, N), x2=(-N, N))


def delta_two_sided_check(ring: ScalarRing, r, N: int = 4) -> CheckReport:
    """x2^-1 ((x1-x0)/x2)^r d((x1-x0)/x2)  =  x1^-1 ((x2+x0)/x1)^-r d((x2+x0)/x1).

    Both sides expand in nonnegative powers of x0; each window coefficient is
    hit by exactly one (n, x0-order) pair, so n-range N+3 and tail order N
    cover the comparison box |e1|,|e2| <= N, 0 <= e0 <= N exactly.
    """
    r = Fraction(r)
    n_range = (-N - 3, N + 3)
    return assert_equal_on_window(
        _delta_x2(ring, N, n_range, shift=r), _delta_x1(ring, N, n_range, shift=-r), _x0_half_box(N),
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
        piece = _delta_x2(ring, N, n_range, shift=Fraction(p, k))
        lhs = piece if lhs is None else lhs + piece
    rhs = _delta_x2(ring, N, (k * n_range[0], k * n_range[1] + k - 1), step=Fraction(1, k))
    return assert_equal_on_window(
        lhs, rhs, _x0_half_box(N),
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
    step = Fraction(1, k)
    return assert_equal_on_window(
        _delta_x2(ring, N, n_range, step=step), _delta_x1(ring, N, n_range, step=step), _x0_half_box(N),
        identity="delta.root-swap",
        anchors=("x2^-1 d((x1-x0)^(1/k)/x2^(1/k)) = x1^-1 d((x2+x0)^(1/k)/x1^(1/k))",),
        k=k,
    )


def delta_three_term_check(ring: ScalarRing, N: int = 4) -> CheckReport:
    """x0^-1 d((x1-x2)/x0) - x0^-1 d((x2-x1)/-x0) = x2^-1 d((x1-x0)/x2)."""
    n_range = (-N - 3, N + 3)
    t1 = delta_truncated(ring, (1, {X1: 1}), (-1, {X2: 1}), (1, {X0: 1}), n_range=n_range,
                         tail_order=N, prefix=(1, {X0: -1}))
    t2 = delta_truncated(ring, (1, {X2: 1}), (-1, {X1: 1}), (-1, {X0: 1}), n_range=n_range,
                         tail_order=N, prefix=(1, {X0: -1}))
    rhs = _delta_x2(ring, N, n_range)
    # Trusted box: the two left terms expand in x2 resp. x1, the right side in
    # x0; every key with all of |e0|,|e1|,|e2| <= N is term-locked within the
    # built ranges on whichever side carries it, so the full box is trusted.
    w = Window.of(x0=(-N, N), x1=(-N, N), x2=(-N, N))
    return assert_equal_on_window(
        t1 - t2, rhs, w,
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
