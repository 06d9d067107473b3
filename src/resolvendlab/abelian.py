"""Finite abelian groups in invariant-factor form, their elements,
characters, and the exponent pairing every other module evaluates
characters through.

A group is a divisibility chain d_1 | d_2 | ... | d_r (each >= 2); the
empty chain is the trivial group.  Elements and characters are coordinate
tuples, coordinate i living mod d_i.  The pairing convention is pinned
once and for all:

    chi(s) = zeta_m ^ char_exponent(G, chi, s),  m = exponent(G),
    char_exponent = sum_i (m // d_i) * chi_i * s_i  (mod m)

which is bilinear in both arguments.

Values are canonical: one group object per chain, one element or character
object per reduced coordinate tuple, so equality is identity.
"""

from __future__ import annotations

import itertools
import operator
from math import gcd, lcm, prod

_GROUPS = {}  # invariant factors -> the one FiniteAbelianGroup


class FiniteAbelianGroup:
    """Invariant factors d_1 | d_2 | ... | d_r; () is the trivial group."""

    __slots__ = ("invariant_factors", "_elements", "_dual", "_table", "_mul")

    def __new__(cls, invariant_factors=()):
        factors = tuple(operator.index(d) for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2, got %r" % (d,))
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError(
                    "invariant factors must form a divisibility chain, got %r" % (factors,)
                )
        group = object.__new__(cls)
        group.invariant_factors = factors
        group._elements = group._dual = group._table = group._mul = None
        return _GROUPS.setdefault(factors, group)

    def __reduce__(self):  # copy and pickle give back the one instance
        return FiniteAbelianGroup, (self.invariant_factors,)

    @classmethod
    def from_literal(cls, text):
        """Parse a literal like "3,9" into a group; validates divisibility."""
        text = text.strip()
        if not text or text in ("1", "()"):
            return cls(())
        try:
            factors = [int(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(
                "bad group literal %r; expected comma-separated integers" % (text,)
            ) from None
        return cls(factors)

    @property
    def order(self):
        return prod(self.invariant_factors)

    @property
    def exponent(self):
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def element(self, coords):
        return GroupElement(self, coords)

    def character(self, coords):
        return Character(self, coords)

    def identity(self):
        return GroupElement(self, (0,) * len(self.invariant_factors))

    def elements(self):
        if self._elements is None:
            self._elements = _enumerate(self, GroupElement)
        return self._elements

    def __repr__(self):
        if not self.invariant_factors:
            return "FiniteAbelianGroup()"
        return "FiniteAbelianGroup(%s)" % (",".join(map(str, self.invariant_factors)))


class _CoordTuple:
    """Shared coordinate arithmetic for group elements and characters."""

    __slots__ = ("group", "coords", "index")

    def __new__(cls, group, coords):
        coords = tuple(coords)
        factors = group.invariant_factors
        if len(coords) != len(factors):
            raise ValueError(
                "expected %d coordinates for %r, got %r" % (len(factors), group, coords)
            )
        index = 0
        for c, d in zip(coords, factors):
            index = index * d + operator.index(c) % d
        return (group.elements() if cls is GroupElement else dual_enumerate(group))[index]

    def __reduce__(self):  # copy and pickle give back the one instance
        return type(self), (self.group, self.coords)

    def __mul__(self, other):
        if type(other) is not type(self) or other.group != self.group:
            return NotImplemented
        return type(self)(self.group, [a + b for a, b in zip(self.coords, other.coords)])

    def __pow__(self, k):
        k = operator.index(k)
        return type(self)(self.group, [c * k for c in self.coords])

    def inverse(self):
        return type(self)(self.group, [-c for c in self.coords])

    def is_identity(self):
        return not any(self.coords)


class GroupElement(_CoordTuple):
    __slots__ = ()

    def __repr__(self):
        return "s%r" % (self.coords,)


class Character(_CoordTuple):
    __slots__ = ()

    def __repr__(self):
        return "chi%r" % (self.coords,)


def element_order(group, s):
    """Order of s (or of a character); lcm over i of d_i / gcd(d_i, c_i)."""
    if not group.invariant_factors:
        return 1
    return lcm(*(d // gcd(d, c) for d, c in zip(group.invariant_factors, s.coords)))


def char_exponent(group, chi, s):
    """The exponent k with chi(s) = zeta_m^k, m = exponent(G)."""
    m = group.exponent
    return (
        sum(
            (m // d) * a * b
            for d, a, b in zip(group.invariant_factors, chi.coords, s.coords)
        )
        % m
    )


def dual_enumerate(group):
    """All characters of the group, in lexicographic coordinate order."""
    if group._dual is None:
        group._dual = _enumerate(group, Character)
    return group._dual


def _enumerate(group, cls):
    """Every GroupElement or Character of group, in itertools.product order;
    the constructor returns the entry at the mixed-radix index it holds."""
    values = []
    for index, coords in enumerate(itertools.product(*map(range, group.invariant_factors))):
        value = object.__new__(cls)
        value.group, value.coords, value.index = group, coords, index
        values.append(value)
    return tuple(values)


def char_table(group):
    """The |G^| x |G| table of char_exponent: row i is the i-th character of
    dual_enumerate(group), column j the j-th element of group.elements()."""
    if group._table is None:
        elements = group.elements()
        group._table = tuple(
            tuple(char_exponent(group, chi, s) for s in elements)
            for chi in dual_enumerate(group)
        )
    return group._table


def mul_table(group):
    """The group law by index in group.elements(): [i][j] is the index of the
    i-th element times the j-th, built factor by factor from the last."""
    if group._mul is None:
        table = ((0,),)
        for d in reversed(group.invariant_factors):
            size = len(table)
            table = tuple(
                tuple((a + b) % d * size + t for b in range(d) for t in row)
                for a in range(d) for row in table
            )
        group._mul = table
    return group._mul
