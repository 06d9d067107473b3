"""Group maps, resolvends, and the exact character transform.

Conventions, fixed once:

    resolvend      r_G(a)       = sum_s a(s) s^{-1}
    resolvent      (a | chi)    = sum_s a(s) chi(s)^{-1}
    recovery       a(s)         = (1/|G|) sum_chi phi(chi) chi(s)

so transform(resolvend(a)) evaluated at chi equals resolvent(a, chi), and
inverse_transform undoes it.  Group maps, group-ring elements and character
vectors are one keyed container over either the elements or the characters.
One conductor rule: every sum, scale, shift, product and pointwise result
lives over the lcm of its operands' conductors, and _GroupIndexed._build is
the only place that applies it.
The ring product lifts each operand over the lcm of its denominators, so
every value is integral, and scales each output once by 1/(d_a d_b).  Each
inner lift is turned once into its multiplication matrix over the pair
conductor (cyclotomic._mul_rows), so each of the |G|^2 pair products is
phi integer dot products with no polynomial product, reduction or gcd.
All three sums run through one kernel: transform reads the rows of the
group's cached char_table, inverse_transform its columns, and resolvent
builds its one row from char_exponent directly.  Everything is dense and
O(|G|^2); the scales here never justify anything fancier.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm

from .abelian import (
    FiniteAbelianGroup,
    GroupElement,
    char_exponent,
    char_table,
    dual_enumerate,
)
from .cyclotomic import CycloElement, _as_cyclo, _canonical, _mul_rows


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

    @classmethod
    def constant(cls, group, conductor, value):
        return cls(group, conductor, {k: value for k in cls._keys(group)})

    def to_json(self):
        return [[list(k.coords), self.values[k].to_json()] for k in self._keys(self.group)]


class GroupMap(_GroupIndexed):
    """A map a: G -> Q(zeta_N), the object resolvends are built from."""

    __slots__ = ()

    @classmethod
    def indicator(cls, group, conductor, s0):
        return cls.from_function(group, conductor, lambda s: int(s == s0))


class GroupRingElement(_GroupIndexed):
    """Element sum_s c_s s of the group ring Q(zeta_N)[G]."""

    __slots__ = ()

    @classmethod
    def identity(cls, group, conductor):
        return cls.from_function(group, conductor, lambda s: int(s.is_identity()))

    def __add__(self, other):
        if not self._same(other):
            return NotImplemented
        return self._build(
            other.conductor, {s: v + other.values[s] for s, v in self.values.items()}
        )

    def __neg__(self):
        return self._build(1, {s: -v for s, v in self.values.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloElement)):
            n = getattr(other, "conductor", 1)
            return self._build(n, {s: v * other for s, v in self.values.items()})
        if isinstance(other, GroupElement) and other.group is self.group:
            return self._build(1, {s * other: v for s, v in self.values.items()})
        if not self._same(other):
            return NotImplemented
        # over integral lifts every pair product and sum has den 1, so none
        # needs a gcd; one scale per output puts the denominators back.  Each
        # inner lift ct meets the outer ones through its multiplication
        # matrix over the pair conductor m, built once per call, so a pair
        # product is phi(m) integer dot products with no polynomial product
        # and no reduction mod Phi_m.  Only the inner operand's lifts and
        # matrices are held at once, and each output is scaled in place
        da, lifted_a = _lift(self)
        db, lifted_b = _lift(other)
        lifted_b = list(enumerate(lifted_b))
        matrices = {}
        out = {s: CycloElement.zero() for s in self.group.elements()}
        for s, cs in lifted_a:
            for k, (t, ct) in lifted_b:
                m = lcm(cs.conductor, ct.conductor)
                key = (k, m)
                rows = matrices.get(key)
                if rows is None:
                    rows = matrices[key] = _mul_rows(ct.raise_conductor(m))
                a = cs.raise_conductor(m).num
                st = s * t
                prod = [sum(map(operator.mul, row, a)) for row in rows]
                out[st] = out[st] + _canonical(m, prod, 1)
        scale = Fraction(1, da * db)
        for s, v in out.items():
            out[s] = v * scale
        return self._build(other.conductor, out)

    __rmul__ = __mul__


def _lift(x):
    """(den, pairs): den is the lcm of the denominators of x's values, and
    pairs yields the (s, x(s) * den), all integral, over the s with
    x(s) != 0, each lifted as it is drawn.  den / v.den is an integer, so
    the lift scales v's numerators and needs no gcd."""
    den = lcm(*(v.den for v in x.values.values()))
    return den, (
        (s, _canonical(v.conductor, [c * (den // v.den) for c in v.num], 1))
        for s, v in x.values.items()
        if v
    )


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


def _character_sums(x, rows, den_scale=1):
    """sum_k x(k) * zeta_m^(e_k) / den_scale for each exponent row e, k over
    x's keys in order and m = exponent(G), as elements of Q(zeta_N).

    The nonzero values are raised to N once over one denominator, and each
    row costs one from_terms pass.
    """
    n = x.conductor
    step = n // x.group.exponent
    raised = [
        (j, v.raise_conductor(n)) for j, v in enumerate(x.values.values()) if not v.is_zero()
    ]
    den = lcm(*(v.den for _, v in raised))
    support = [
        (j, [(i, c * (den // v.den)) for i, c in enumerate(v.num) if c]) for j, v in raised
    ]
    den *= den_scale
    return [
        CycloElement.from_terms(
            n, ((c, i + step * e[j]) for j, pairs in support for i, c in pairs), den
        )
        for e in rows
    ]


def resolvent(a, chi):
    """(a | chi) = sum_s a(s) chi(s)^{-1}, exact in Q(zeta_N)."""
    group = a.group
    row = [-char_exponent(group, chi, s) for s in group.elements()]
    return _character_sums(a, [row])[0]


def transform(r):
    """Evaluate sum_s c_s s at every character: chi -> sum_s c_s chi(s)."""
    group = r.group
    sums = _character_sums(r, char_table(group))
    return CharacterVector(group, r.conductor, dict(zip(dual_enumerate(group), sums)))


def inverse_transform(phi):
    """Recover the map a with resolvent(a, chi) = phi(chi) for all chi:
    a(s) = (1/|G|) sum_chi phi(chi) chi(s)."""
    group = phi.group
    sums = _character_sums(phi, zip(*char_table(group)), group.order)
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
    """True when (a|chi) * (a|chi^{-1}) is nonzero for every character."""
    group = a.group
    for chi in dual_enumerate(group):
        prod = resolvent(a, chi) * resolvent(a, chi.inverse())
        if prod.is_zero():
            return False
    return True
