"""Group maps, resolvends, and the exact character transform.

Conventions, fixed once:

    resolvend      r_G(a)       = sum_s a(s) s^{-1}
    resolvent      (a | chi)    = sum_s a(s) chi(s)^{-1}
    recovery       a(s)         = (1/|G|) sum_chi phi(chi) chi(s)

so transform(resolvend(a)) evaluated at chi equals resolvent(a, chi), and
inverse_transform undoes it.  Group maps, group-ring elements and character
vectors are one keyed container over either the elements or the characters.
One conductor rule: a container stores every value at its own conductor
(cyclotomic._as_cyclo), and _GroupIndexed._build puts every scale, shift,
product and pointwise result over the lcm of its operands' conductors.
_lift is the one integral form of the product and the transform kernel: it
lazily yields each value raised to a conductor as integer numerators over
the lcm of the denominators.  The ring product reads both operands through
it at the lcm of their conductors, makes each inner lift its multiplication
matrix (cyclotomic._mul_rows), so a pair product is phi integer dot
products, put in the slot abelian.mul_table names, and puts d_a d_b back in
one _canonical per output.
transform and inverse_transform are one separable kernel (_dft): CRT
prime-power axes, summed axis by axis by signed rotations in Z[x]/(x^M -+ 1),
|G| sum(q) rotate-and-add passes, not |G|^2 terms.  An element holds its
transform once computed; resolvent is a second, one-character route.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import count
from math import lcm

from .abelian import (
    FiniteAbelianGroup,
    GroupElement,
    char_table,
    dual_enumerate,
    mul_table,
)
from .cyclotomic import CycloElement, _as_cyclo, _canonical, _mul_rows, _reduce
from .numutil import factorize


class _GroupIndexed:
    """Total map from a key domain of the group to cyclotomic values.

    The domain is the group's elements, in group.elements() order, unless a
    subclass sets _keys to another enumeration; values keeps that order.
    """

    __slots__ = ("group", "conductor", "values")

    _keys = staticmethod(FiniteAbelianGroup.elements)
    _key_noun = "group element"

    def __init__(self, group, conductor, values):
        conductor = operator.index(conductor)
        if conductor % group.exponent:
            raise ValueError(
                "conductor %d is not divisible by the group exponent %d"
                % (conductor, group.exponent)
            )
        keys = self._keys(group)
        if set(values) != set(keys):
            raise ValueError("values must be given on every %s exactly once" % self._key_noun)
        self.group = group
        self.conductor = conductor
        self.values = {k: _as_cyclo(values[k], conductor) for k in keys}

    def _build(self, conductor, values):
        """A result of this type and group, over the lcm of both conductors."""
        return type(self)(self.group, lcm(self.conductor, conductor), values)

    def _same(self, other):
        """True when other is a container of this type over this group."""
        return type(other) is type(self) and other.group is self.group

    def __call__(self, s):
        return self.values[s]

    def __eq__(self, other):
        return self._same(other) and self.values == other.values

    def __repr__(self):
        return "%s(%r, N=%d)" % (type(self).__name__, self.group, self.conductor)

    @classmethod
    def from_function(cls, group, conductor, fn):
        return cls(group, conductor, {k: fn(k) for k in cls._keys(group)})


class GroupMap(_GroupIndexed):
    """A map a: G -> Q(zeta_N), the object resolvends are built from."""

    __slots__ = ()


class GroupRingElement(_GroupIndexed):
    """Element sum_s c_s s of Q(zeta_N)[G]; never changed once built."""

    __slots__ = ("_transform",)

    @classmethod
    def identity(cls, group, conductor):
        return cls.from_function(group, conductor, lambda s: int(s.is_identity()))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloElement)):
            n = getattr(other, "conductor", 1)
            return self._build(n, {s: v * other for s, v in self.values.items()})
        elements = self.group.elements()
        if isinstance(other, GroupElement) and other.group is self.group:
            row = mul_table(self.group)[other.index]
            return self._build(1, dict(zip([elements[k] for k in row], self.values.values())))
        if not self._same(other):
            return NotImplemented
        # both operands are read as integral lifts at the pair conductor n,
        # so every pair product and sum has den 1 and needs no gcd; one
        # _canonical per output puts d_a d_b back.  Each inner lift meets
        # the outer ones through its multiplication matrix, so a pair
        # product is phi(n) integer dot products, no polynomial product
        table = mul_table(self.group)
        n = lcm(self.conductor, other.conductor)
        da, nums_a = _lift(self, n)
        db, nums_b = _lift(other, n)
        matrices = [(k, _mul_rows(n, b)) for k, b in enumerate(nums_b) if any(b)]
        out = [CycloElement.zero(n)] * len(elements)
        for i, a in enumerate(nums_a):
            if any(a):
                row = table[i]
                for k, rows in matrices:
                    prod = [sum(map(operator.mul, r, a)) for r in rows]
                    st = row[k]
                    out[st] = out[st] + _canonical(n, prod, 1)
        den = da * db
        return self._build(n, {s: _canonical(n, v.num, den) for s, v in zip(elements, out)})

    __rmul__ = __mul__


def _lift(x, n):
    """(den, nums): the integral form of x's values at conductor n, a
    multiple of x.conductor.  den is the lcm of the values' denominators,
    and nums lazily yields, in key order, each value raised to n as its
    integer numerators over den.  A raised value's denominator divides its
    own, so den // v.den is exact and the lift needs no gcd.  The product
    and the transform kernel read values through this one lift."""
    values = x.values.values()
    den = lcm(*(v.den for v in values))
    raised = (v.raise_conductor(n) for v in values)
    return den, ([c * (den // v.den) for c in v.num] for v in raised)


class CharacterVector(_GroupIndexed):
    """A map on the dual group; the transform side of the picture."""

    __slots__ = ()

    _keys = staticmethod(dual_enumerate)
    _key_noun = "character"

    def pointwise_mul(self, other):
        if not self._same(other):
            raise TypeError("pointwise_mul needs a CharacterVector over the same group")
        return self._build(
            other.conductor, {chi: v * other.values[chi] for chi, v in self.values.items()}
        )

    def pointwise_inverse(self):
        for chi, v in self.values.items():
            if v.is_zero():
                raise ZeroDivisionError("transform vanishes at %r" % (chi,))
        return self._build(1, {chi: v.inverse() for chi, v in self.values.items()})


def resolvend(a):
    """r_G(a) = sum_s a(s) s^{-1}."""
    return GroupRingElement(
        a.group, a.conductor, {s: a.values[s.inverse()] for s in a.group.elements()}
    )


def resolvend_to_map(r):
    """Inverse of resolvend: read a(s) off the coefficient of s^{-1}."""
    return GroupMap(r.group, r.conductor, resolvend(r).values)


def _dft(x, den_scale):
    """Yield, for each key j in key order, sum_k x(k) <k, j> / den_scale in
    Q(zeta_N), N = x.conductor, <k, j> = prod over the factors d of
    zeta_d^(k_i j_i): the sums of transform and of inverse_transform.

    Values are their _lift, dense integer lists over one denominator, read
    in one pass in Z[x]/(x^M - 1), M = N, or for even N in Z[x]/(x^M + 1),
    M = N/2, so zeta_N^r is a signed rotation, and a value's phi(N) <= M
    coefficients fill its first slots.
    Each factor d splits by CRT into prime-power axes q, and zeta_d^(e k j),
    e = 1 mod q and 0 mod d/q, reads k, j mod q only: each fiber of q slots
    along an axis is replaced by its q rotated sums.
    """
    n = x.conductor
    m = n // 2 if n % 2 == 0 else n
    den, nums = _lift(x, n)
    vecs = [num + [0] * (m - len(num)) for num in nums]
    signed = (lambda v: v) if m == n else (lambda v: [-c for c in v])
    radix = len(vecs)
    for d in x.group.invariant_factors:
        radix //= d
        # the largest prime first, while the lists are still sparse
        for q in (p**k for p, k in reversed(factorize(d))):
            gap = d // q
            w = n // d * gap * pow(gap, -1, q)
            for lo in range(len(vecs)):
                c = lo // radix % d
                if c < gap:
                    fiber = slice(lo, lo + d * radix, gap * radix)
                    coords = range(c, d, gap)
                    # x^r v is the slice at (M - r) mod 2M of (+-v, v, +-v)
                    wide = [u + v + u for v in vecs[fiber] for u in (signed(v),)]
                    vecs[fiber] = [
                        list(map(sum, zip(*(v[o : o + m] for v, o in zip(wide, offs)))))
                        for offs in ([(m - w * s * t) % (2 * m) for s in coords] for t in coords)
                    ]
    for j, vec in enumerate(vecs):
        vecs[j] = None
        yield _canonical(n, _reduce(n, zip(vec, count())), den * den_scale)


def resolvent(a, chi):
    """(a | chi) = sum_s a(s) chi(s)^{-1}, exact in Q(zeta_N), for a
    character chi of a's group."""
    group = a.group
    if chi.group is not group:
        raise ValueError("character %r does not live on %r" % (chi, group))
    n = a.conductor
    step = n // group.exponent
    row = [-e for e in char_table(group)[chi.index]]
    den = lcm(*(v.den for v in a.values.values()))
    terms = (
        (den // v.den * c, i + step * e)
        for v, e in zip(a.values.values(), row) for i, c in enumerate(v.num)
    )
    return CycloElement.from_terms(n, terms, den)


def transform(r):
    """chi -> sum_s c_s chi(s) at every character, held on r once computed."""
    tr = getattr(r, "_transform", None)
    if tr is None:
        values = dict(zip(dual_enumerate(r.group), _dft(r, 1)))
        tr = r._transform = CharacterVector(r.group, r.conductor, values)
    return tr


def inverse_transform(phi):
    """Recover the map a with resolvent(a, chi) = phi(chi) for all chi:
    a(s) = (1/|G|) sum_chi phi(chi) chi(s)."""
    group = phi.group
    sums = _dft(phi, group.order)
    return GroupMap(group, phi.conductor, dict(zip(group.elements(), sums)))


def is_unit(r):
    """A group-ring element is a unit iff its transform never vanishes."""
    return all(not v.is_zero() for v in transform(r).values.values())


def unit_inverse(r):
    """Constructive inverse of a unit: invert the transform pointwise and
    pull back."""
    inv_map = inverse_transform(transform(r).pointwise_inverse())
    return resolvend(inv_map)


def reduced_equal(r1, r2):
    """If r2 = r1 * s for a group element s, return that s, else None.

    Both arguments must be units; the witness is then unique.
    """
    if r1.group != r2.group:
        raise ValueError("reduced comparison needs elements over the same group")
    if not is_unit(r1) or not is_unit(r2):
        raise ValueError("reduced comparison is defined for units only")
    for s in r1.group.elements():
        if r1 * s == r2:
            return s
    return None


def unit_pair_check(a):
    """True when (a|chi) * (a|chi^{-1}) is nonzero for every pair {chi, chi^{-1}}."""
    for chi in dual_enumerate(a.group):
        inv = chi.inverse()
        if inv.index < chi.index:
            continue
        if (resolvent(a, chi) * resolvent(a, inv)).is_zero():
            return False
    return True
