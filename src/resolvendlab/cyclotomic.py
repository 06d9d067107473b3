"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element of conductor m is a dense vector of phi(m) integer numerators
over one positive denominator on the power basis 1, z, ..., z^{phi(m)-1},
always reduced modulo the m-th cyclotomic polynomial and divided through by
the common content, so equality of values is equality of tuples.  Roots
for different conductors are compatible through zeta_{mn}^n = zeta_m; mixed
binary operations raise both operands to the lcm conductor first.

Phi_m is prod over d | m of (x^d - 1)^mu(m/d), multiplied out and divided
exactly, one formula with no recursion over divisors.
Coefficients are integer vectors over one denominator, and from_terms,
which builds every sum of roots of unity, takes integer terms the same way;
only the constructor and from_rational read Fractions.  _mul_rows(m, b) is
the one product kernel: the matrix of multiplication by the integer vector
b in Q(zeta_m), built column by column by _times_zeta, the one
multiply-by-zeta step, which also builds the reduction cache row by row;
a product is phi(m) integer dot products, already reduced.  It serves
CycloElement products and the group-ring product, which passes its
integral lifts.  _reduce is the one reduction mod Phi_m: it takes integer
terms (c, e) of a sum of roots of unity or of a dense vector (a transform
output or a gauss power sum), buckets the exponents mod m (x^m = 1) and
adds one cached sparse row x^k mod Phi_m per bucket k >= phi(m); there is
no second reduction loop; nothing here packs, and the slot codec of the
packed kernels (_pack/_unpack) lives in padic.  Inverses are the product of
the other Galois conjugates over the rational norm, so no arithmetic here
works on Fraction polynomials.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .numutil import euler_phi, factorize

def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("exact coefficient expected (int or Fraction), got %r" % type(c).__name__)


def _as_cyclo(value, conductor):
    """value stored at conductor: an exact scalar, or a CycloElement whose
    conductor divides conductor, raised to it."""
    if isinstance(value, CycloElement):
        if conductor % value.conductor:
            raise ValueError(
                "value conductor %d does not divide %d" % (value.conductor, conductor)
            )
        return value.raise_conductor(conductor)
    return CycloElement.from_rational(value, conductor)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Integer coefficients of the m-th cyclotomic polynomial, low degree first.

    Phi_m = prod over d | m of (x^d - 1)^mu(m/d): the factors with mu = 1
    are multiplied in by one shift-and-subtract each, then those with
    mu = -1 divided out exactly, q_i = q_{i-d} - p_i.
    """
    if m < 1:
        raise ValueError("conductor must be positive, got %r" % (m,))
    mobius = [(1, 1)]  # (e, mu(e)) for the squarefree divisors e of m
    for p, _ in factorize(m):
        mobius += [(e * p, -mu) for e, mu in mobius]
    times = [m // e for e, mu in mobius if mu == 1]
    over = [m // e for e, mu in mobius if mu == -1]
    poly = [1]
    for d in times:
        poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in over:
        poly = [-c for c in poly[: len(poly) - d]]
        for i in range(d, len(poly)):
            poly[i] += poly[i - d]
    return tuple(poly)


def _times_zeta(col, tail):
    """The dense column col times z mod Phi_m, the one multiply-by-zeta step: col
    shifted up one place, its top folded back through tail = x^phi mod Phi_m."""
    top = col[-1]
    col = [0] + col[:-1]
    if top:
        for i, t in tail:
            col[i] += top * t
    return col


@lru_cache(maxsize=16)
def _reduction_rows(m):
    """Sparse x^k mod Phi_m, k in [phi(m), m): row k - phi(m) holds the (i, c)
    with c != 0 the coefficient of z^i, i increasing.  Row 0 is x^phi, read off
    the monic Phi_m; each later row is the one before times z.  m = 1 has no
    rows."""
    if m == 1:
        return ()
    phi = euler_phi(m)
    col = [-c for c in cyclotomic_polynomial(m)[:-1]]
    tail = tuple((i, c) for i, c in enumerate(col) if c)
    rows = [tail]
    for _ in range(phi + 1, m):
        col = _times_zeta(col, tail)
        rows.append(tuple((i, c) for i, c in enumerate(col) if c))
    return tuple(rows)


def _reduce(m, terms):
    """sum c * x^e mod Phi_m over integer pairs (c, e), as the length-phi(m)
    integer vector: the one reduction mod Phi_m.

    Exponents are taken mod m (x^m = 1) and bucketed first, so each exponent
    at or above phi(m) costs one sparse reduction row however many terms
    share it.
    """
    phi = euler_phi(m)
    num = [0] * phi
    high = {}
    for c, e in terms:
        if not c:
            continue
        e %= m
        if e < phi:
            num[e] += c
        else:
            high[e] = high.get(e, 0) + c
    if high:
        rows = _reduction_rows(m)
        for e, c in high.items():
            for i, t in rows[e - phi]:
                num[i] += c * t
    return num


def _mul_rows(m, b):
    """The integer matrix of multiplication by the integer vector b on the
    power basis of Q(zeta_m), as phi(m) rows: rows[i][j] is the coefficient
    of z^i in z^j * b, so sum(map(mul, rows[i], a)) is coefficient i of
    a * b mod Phi_m, with no product or reduction left to do.

    Column 0 is b; each later column is the one before times z.
    """
    col = list(b)
    cols = [col]
    if len(col) > 1:
        tail = _reduction_rows(m)[0]
        for _ in range(len(col) - 1):
            col = _times_zeta(col, tail)
            cols.append(col)
    return tuple(zip(*cols))


def _canonical(conductor, num, den):
    """The element with coefficients num[i] / den (den > 0) in canonical form.

    Canonical means gcd(den, *num) == 1, so the zero element has den 1 and
    equal values have equal (num, den).
    """
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [v // g for v in num]
            den //= g
    x = object.__new__(CycloElement)
    x.conductor = conductor
    x.num = tuple(num)
    x.den = den
    return x


class CycloElement:
    """Element of Q(zeta_m) in canonical reduced form: the coefficient of
    z^i is num[i] / den with gcd(den, *num) == 1 and den > 0."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor, coeffs):
        conductor = operator.index(conductor)
        phi = euler_phi(conductor)
        coeffs = [_as_fraction(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ValueError(
                "conductor %d needs %d coefficients, got %d" % (conductor, phi, len(coeffs))
            )
        # the lcm of reduced denominators is already canonical
        den = lcm(*(c.denominator for c in coeffs))
        self.conductor = conductor
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self):
        """The coefficients as a tuple of Fractions."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.num)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, conductor=1):
        return _canonical(operator.index(conductor), (0,) * euler_phi(conductor), 1)

    @classmethod
    def one(cls, conductor=1):
        return cls.from_rational(1, conductor)

    @classmethod
    def from_rational(cls, value, conductor=1):
        conductor = operator.index(conductor)
        q = _as_fraction(value)
        num = [0] * euler_phi(conductor)
        num[0] = q.numerator
        return _canonical(conductor, num, q.denominator)

    @classmethod
    def from_terms(cls, conductor, terms, den=1):
        """Canonical form of (sum c * zeta_m^e) / den over an iterable of
        integer pairs (c, e), den a positive integer."""
        conductor = operator.index(conductor)
        return _canonical(conductor, _reduce(conductor, terms), den)

    # -- structure ------------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def as_rational(self):
        """The element as a Fraction, or None if it is irrational."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def raise_conductor(self, conductor):
        """Rewrite in Q(zeta_conductor); conductor must be a multiple of ours."""
        conductor = operator.index(conductor)
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError(
                "cannot raise conductor %d to non-multiple %d" % (self.conductor, conductor)
            )
        step = conductor // self.conductor
        return CycloElement.from_terms(
            conductor, ((c, i * step) for i, c in enumerate(self.num) if c), self.den
        )

    def mul_root(self, e):
        """Product with zeta_m^e (e taken mod the conductor)."""
        return CycloElement.from_terms(
            self.conductor, ((c, i + e) for i, c in enumerate(self.num) if c), self.den
        )

    # -- arithmetic -----------------------------------------------------

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElement.from_rational(other)
        elif not isinstance(other, CycloElement):
            return None
        m = lcm(self.conductor, other.conductor)
        return self.raise_conductor(m), other.raise_conductor(m)

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.den == b.den:
            return _canonical(a.conductor, [x + y for x, y in zip(a.num, b.num)], a.den)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return _canonical(a.conductor, [x * fa + y * fb for x, y in zip(a.num, b.num)], den)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            n = q.numerator
            return _canonical(self.conductor, [v * n for v in self.num], self.den * q.denominator)
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        m = a.conductor
        num = [sum(map(operator.mul, r, a.num)) for r in _mul_rows(m, b.num)]
        return _canonical(m, num, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse as adjugate over norm.

        adj is the product of the conjugates sigma_u(self) over the units
        u != 1 mod m, so self * adj is the field norm N, a nonzero rational,
        and self^-1 = adj / N.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.conductor)
        m = self.conductor
        adj = CycloElement.one(m)
        for u in range(2, m):
            if gcd(u, m) == 1:
                adj = adj * galois_map(u, self)
        return adj * (1 / (self * adj).as_rational())

    # -- comparison / rendering -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = self.as_rational()
            return r is not None and r == other
        if not isinstance(other, CycloElement):
            return NotImplemented
        a, b = (self, other) if self.conductor == other.conductor else self._pair(other)
        return a.num == b.num and a.den == b.den

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else "%s*" % abs(c)
                sign = "-" if c < 0 else ""
                term = "%s%s%s" % (sign, mag, "z" if i == 1 else "z^%d" % i)
            if parts and not term.startswith("-"):
                term = "+" + term
            parts.append(term)
        body = "".join(parts) if parts else "0"
        return "%s (conductor %d)" % (body, self.conductor)


def root_of_unity(conductor, k=1):
    """zeta_conductor^k in canonical form."""
    return CycloElement.from_terms(conductor, ((1, k),))


def galois_map(u, x):
    """The field automorphism determined by zeta_m -> zeta_m^u, gcd(u, m) = 1."""
    m = x.conductor
    u = operator.index(u)
    if gcd(u, m) != 1:
        raise ValueError("galois_map needs gcd(u, m) = 1, got u=%d mod m=%d" % (u, m))
    return CycloElement.from_terms(m, ((c, i * u) for i, c in enumerate(x.num) if c), x.den)
