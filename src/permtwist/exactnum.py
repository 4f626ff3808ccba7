"""Exact coefficient arithmetic in the field Q(eta, sqrt k), eta = exp(2 pi i / k).

One rule decides whether sqrt k needs basis slots of its own.  The quadratic
Gauss sum G(k) = sum_{a<k} eta^(a^2) is sqrt k for k = 1 (mod 4) and
(1 + i) sqrt k, i = eta^(k/4), for k = 0 (mod 4), while sqrt k is not in
Q(eta) for k = 2, 3 (mod 4) (Washington, *Introduction to Cyclotomic
Fields*, ch. 4).  So for k = 0, 1 (mod 4) the field is Q[t]/(Phi_k(t)), with
sqrt k = G or G (1 - i)/2 (square k included: G(9) = 3); otherwise it is
Q[t, s]/(Phi_k(t), s^2 - k), with sqrt k = s.  Either way every nonzero
scalar inverts (`Scalar.invert`).

A scalar is dense over the basis s^eps * t^m (0 <= m < deg Phi_k, eps = 1
only where s is a generator), basis slot eps*deg + m: a tuple of integer
numerators over one positive integer denominator, with gcd(numerators,
denominator) == 1 and zero stored as all-zero numerators over 1.  Values are
immutable and normalized eagerly, so structural equality equals field
equality.  Phi_k is monic, so the product of two basis monomials is an
integer combination of basis monomials; each ring tabulates these once
(`ScalarRing.table`, one row per slot), and a product is integer
multiply-adds over the nonzero slot pairs followed by one gcd.  A product
with a rational operand (only the constant slot nonzero) scales the other
operand's numerators instead.

Module vectors (`fermion.Vec`) do not hold Scalars: they store integer
numerators per basis slot and reach the field only through `table` and
`Scalar.rows`, the same integers in transposed form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import math
from operator import add, neg, sub

class RingMismatchError(ValueError):
    """Raised when combining scalars from rings with different k."""


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (lists of coeffs, low degree first).

    Used only to build cyclotomic polynomials, where the division is known to
    be exact over Z.
    """
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q, r = divmod(c, den[-1])
        if r:
            raise ArithmeticError("inexact cyclotomic division")
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("nonzero remainder in cyclotomic division")
    return out


@lru_cache(maxsize=256)
def cyclotomic_poly(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k, lowest degree first, computed by exact division:

        Phi_k(x) = (x^k - 1) / prod_{d | k, d < k} Phi_d(x)
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return (-1, 1)
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            num = _poly_divide_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


class ScalarRing:
    """The field Q(eta, sqrt k) for one fixed k.

    Holds the integer product table of the basis slots; acts as a factory
    for Scalar values.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.k = k
        phi = cyclotomic_poly(k)
        deg = self.degree = len(phi) - 1
        # sqrt k needs a slot of its own only outside Q(eta): k = 2, 3 (mod 4)
        n = 2 * deg if k % 4 in (2, 3) else deg

        # t^m for m up to 2k over the basis 1, t, ..., t^(deg-1).  Products of
        # reduced elements only reach 2*(deg-1), but eta(p) construction wants
        # any p < k, so cover both.  Phi_k is monic, so t^deg = -(phi[0] + ...
        # + phi[deg-1] t^(deg-1)) keeps every coefficient an integer.
        assert phi[-1] == 1, f"Phi_{k} is not monic: {phi}"
        tpow = [tuple(int(j == m) for j in range(deg)) for m in range(deg)]
        for _ in range(deg, 2 * k + 1):
            prev = tpow[-1]
            tpow.append(tuple((prev[j - 1] if j else 0) - prev[-1] * phi[j] for j in range(deg)))
        self._tpow = tpow

        def slot_product(i: int, j: int) -> tuple[tuple[int, int], ...]:
            (e1, m1), (e2, m2) = divmod(i, deg), divmod(j, deg)
            eps, scale = (0, k) if e1 + e2 == 2 else (e1 + e2, 1)
            return tuple((eps * deg + b, scale * c) for b, c in enumerate(tpow[m1 + m2]) if c)

        # slot i * slot j -> ((slot, integer coefficient), ...)
        self.table = tuple(tuple(slot_product(i, j) for j in range(n)) for i in range(n))
        self._zeros = (0,) * (n - 1)  # every slot but the constant one
        self.zero = Scalar(self, (0,) + self._zeros, 1, True)
        self.one = Scalar(self, (1,) + self._zeros, 1, True)
        if n > deg:
            self._sqrt = Scalar(self, (0,) * deg + (1,) + self._zeros[deg:], 1, False)
        else:
            gauss = sum((self.eta(a * a) for a in range(k)), self.zero)
            self._sqrt = gauss if k % 4 == 1 else gauss * (self.one - self.eta(k // 4)) * Fraction(1, 2)

    # -- element constructors -------------------------------------------------

    def rational(self, q) -> Scalar:
        if isinstance(q, int):
            return Scalar(self, (int(q),) + self._zeros, 1, True)
        if not isinstance(q, Fraction):
            q = Fraction(q)
        return Scalar(self, (q.numerator,) + self._zeros, q.denominator, True)

    def from_numerators(self, num, den: int) -> Scalar:
        """The scalar with slot numerators num over den > 0, in lowest terms."""
        return _reduced(self, num, den)

    def eta(self, power: int = 1) -> Scalar:
        """t^power, reduced (eta is the fixed primitive k-th root of unity)."""
        return Scalar(self, self._tpow[power % self.k] + (0,) * (len(self.table) - self.degree))

    def sqrt_k(self) -> Scalar:
        """The positive square root of k, for eta = exp(2 pi i / k)."""
        return self._sqrt

    def sqrt_k_pow(self, n: int) -> Scalar:
        """(sqrt k)^n for any integer n, using s^2 = k and s^-1 = s/k."""
        q, r = divmod(n, 2)
        out = self.rational(Fraction(self.k) ** q)
        if r:
            out = out * self._sqrt
        return out

    def __repr__(self):
        return f"ScalarRing(k={self.k})"

    def __eq__(self, other):
        return isinstance(other, ScalarRing) and other.k == self.k

    def __hash__(self):
        return hash(("ScalarRing", self.k))


@lru_cache(maxsize=64)  # bounded; rings compare by k, so a rebuilt ring mixes with the old
def get_ring(k: int) -> ScalarRing:
    return ScalarRing(k)


def _reduced(ring: ScalarRing, num, den: int) -> "Scalar":
    """The scalar num/den (den > 0), with the common gcd cancelled."""
    g = math.gcd(den, *num)
    if g == 1:
        return Scalar(ring, tuple(num), den)
    return Scalar(ring, tuple(c // g for c in num), den // g)


def _add(a: "Scalar", b, op) -> "Scalar":
    """op(a, b) for op in {add, sub}, over the lcm of the two denominators."""
    # the exact type test first: isinstance against Fraction runs the ABC hook
    if type(b) is not Scalar and isinstance(b, (int, Fraction)):
        b = a.ring.rational(b)
    a._check(b)
    da, db = a.den, b.den
    g = math.gcd(da, db)
    fa, fb = db // g, da // g
    if a.rat and b.rat:
        n = op(a.num[0] * fa, b.num[0] * fb)
        g = math.gcd(n, da * fa)
        return Scalar(a.ring, (n // g,) + a.ring._zeros, da * fa // g, True)
    if da == db:
        return _reduced(a.ring, tuple(map(op, a.num, b.num)), da)
    return _reduced(a.ring, tuple(op(x * fa, y * fb) for x, y in zip(a.num, b.num)), da * fa)


class Scalar:
    """Immutable element of a ScalarRing: integer numerators `num` (one per
    basis slot) over the denominator `den`, in lowest terms.  `rat` is true
    exactly when only the constant slot is nonzero."""

    __slots__ = ("ring", "num", "den", "rat", "_hash", "_rows")

    def __init__(self, ring: ScalarRing, num: tuple[int, ...], den: int = 1, rat: bool | None = None):
        self.ring = ring
        self.num = num
        self.den = den
        self.rat = not any(num[1:]) if rat is None else rat
        self._hash = None
        self._rows = None

    @property
    def rows(self) -> tuple:
        """Multiplication by num (the numerators, not over den) as integer
        rows: rows[i] lists the (slot, multiplier) pairs of basis slot i times
        num, zeros left out.  Built once per scalar."""
        if self._rows is None:
            table = self.ring.table
            rows = []
            for i in range(len(self.num)):
                row: dict[int, int] = {}
                for j, b in enumerate(self.num):
                    if b:
                        for slot, c in table[i][j]:
                            row[slot] = row.get(slot, 0) + b * c
                rows.append(tuple((slot, c) for slot, c in row.items() if c))
            self._rows = tuple(rows)
        return self._rows

    # -- ring structure --------------------------------------------------------

    def _check(self, other: "Scalar"):
        if self.ring.k != other.ring.k:
            raise RingMismatchError(
                f"cannot combine scalars over k={self.ring.k} and k={other.ring.k}"
            )

    def __add__(self, other):
        return _add(self, other, add)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ring, tuple(map(neg, self.num)), self.den, self.rat)

    def __sub__(self, other):
        return _add(self, other, sub)

    def __rsub__(self, other):
        return _add(self.ring.rational(other), self, sub)

    def _scale(self, p: int, r: int) -> "Scalar":
        """self * p/r for p/r in lowest terms, r > 0: no product table."""
        num = self.num
        if not p or (self.rat and not num[0]):
            return self.ring.zero
        # gcd(num, den) == 1 and gcd(p, r) == 1, so cancelling p against den
        # and r against num leaves the result in lowest terms
        g = math.gcd(p, self.den)
        h = math.gcd(r, *num)
        p, den = p // g, self.den // g * (r // h)
        if self.rat:
            return Scalar(self.ring, (num[0] // h * p,) + self.ring._zeros, den, True)
        return Scalar(self.ring, tuple(c // h * p for c in num), den, False)

    def __mul__(self, other):
        if type(other) is not Scalar:  # as in _add: no ABC hook for a Scalar
            if isinstance(other, int):
                return self._scale(other, 1)
            if isinstance(other, Fraction):
                return self._scale(other.numerator, other.denominator)
        self._check(other)
        if self.rat:
            return other._scale(self.num[0], self.den)
        if other.rat:
            return self._scale(other.num[0], other.den)
        table = self.ring.table
        out = [0] * len(self.num)
        right = [(j, b) for j, b in enumerate(other.num) if b]
        for i, a in enumerate(self.num):
            if a:
                row = table[i]
                for j, b in right:
                    ab = a * b
                    for slot, c in row[j]:
                        out[slot] += ab * c
        return _reduced(self.ring, out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.invert()

    def _conjugate(self, j: int, sign: int) -> "Scalar":
        """The Galois conjugate eta -> eta^j, s -> sign*s (gcd(j, k) == 1)."""
        ring = self.ring
        deg, k, tpow = ring.degree, ring.k, ring._tpow
        out = [0] * len(self.num)
        for slot, n in enumerate(self.num):
            if n:
                eps, m = divmod(slot, deg)
                n *= sign if eps else 1
                for b, c in enumerate(tpow[j * m % k]):
                    out[eps * deg + b] += n * c
        return _reduced(ring, out, self.den)

    def invert(self) -> "Scalar":
        """1/self: the product of the other Galois conjugates over the norm.

        The norm is read through `as_rational`: were the ring not a field of
        its claimed degree, this would raise instead of answering."""
        if self.is_zero():
            raise ZeroDivisionError("zero is not invertible")
        ring = self.ring
        signs = (1, -1) if len(ring.table) > ring.degree else (1,)
        others = math.prod((self._conjugate(j, sign) for j in range(1, ring.k) for sign in signs
                            if math.gcd(j, ring.k) == 1 and (j, sign) != (1, 1)), start=ring.one)
        return others * (1 / (self * others).as_rational())

    def is_zero(self) -> bool:
        return self.rat and not self.num[0]

    def is_rational(self) -> bool:
        return self.rat

    def as_rational(self) -> Fraction:
        if not self.rat:
            raise ValueError(f"not rational: {self.render()}")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if type(other) is not Scalar:  # as in _add: no ABC hook for a Scalar
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ring.rational(other)
        return self.ring.k == other.ring.k and self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.k, self.num, self.den))
        return self._hash

    # -- rendering / parsing ---------------------------------------------------

    def render(self) -> str:
        """Canonical text form: '*'-joined monomials 'q', 'q*s', 'q*t^m', 'q*s*t^m',
        summed with ' + ' / ' - '."""
        if self.is_zero():
            return "0"
        parts = []
        for slot, n in enumerate(self.num):
            if not n:
                continue
            eps, m = divmod(slot, self.ring.degree)
            c = Fraction(n, self.den)
            atoms = []
            if eps:
                atoms.append("s")
            if m:
                atoms.append("t" if m == 1 else f"t^{m}")
            mag = abs(c)
            if not atoms or mag != 1:
                atoms.insert(0, str(mag))
            body = "*".join(atoms)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"<{self.render()} : k={self.ring.k}>"

