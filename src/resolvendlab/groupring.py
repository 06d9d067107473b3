"""Group maps, resolvends, and the exact character transform.

Conventions, fixed once:

    resolvend      r_G(a)       = sum_s a(s) s^{-1}
    resolvent      (a | chi)    = sum_s a(s) chi(s)^{-1}
    recovery       a(s)         = (1/|G|) sum_chi phi(chi) chi(s)

so transform(resolvend(a)) evaluated at chi equals resolvent(a, chi), and
inverse_transform undoes it.  Everything is dense and O(|G|^2); the scales
here never justify anything fancier.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .abelian import FiniteAbelianGroup, GroupElement, char_exponent, dual_enumerate
from .cyclotomic import CycloElement


def _coerce_value(value, conductor):
    if isinstance(value, (int, Fraction)):
        return CycloElement.from_rational(value)
    if isinstance(value, CycloElement):
        if conductor % value.conductor:
            raise ValueError(
                "value conductor %d does not divide ambient conductor %d"
                % (value.conductor, conductor)
            )
        return value
    raise TypeError("expected CycloElement or exact scalar, got %r" % type(value).__name__)


class _GroupIndexed:
    """Total map from group elements to cyclotomic values."""

    __slots__ = ("group", "conductor", "values")

    def __init__(self, group, conductor, values):
        conductor = int(conductor)
        if conductor % group.exponent:
            raise ValueError(
                "conductor %d is not divisible by the group exponent %d"
                % (conductor, group.exponent)
            )
        elements = group.elements()
        if set(values) != set(elements):
            raise ValueError("values must be given on every group element exactly once")
        self.group = group
        self.conductor = conductor
        self.values = {s: _coerce_value(values[s], conductor) for s in elements}

    def __call__(self, s):
        return self.values[s]

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.group == other.group
            and all(self.values[s] == other.values[s] for s in self.group.elements())
        )

    @classmethod
    def from_function(cls, group, conductor, fn):
        return cls(group, conductor, {s: fn(s) for s in group.elements()})

    @classmethod
    def constant(cls, group, conductor, value):
        return cls(group, conductor, {s: value for s in group.elements()})

    def to_json(self):
        return [
            [list(s.coords), self.values[s].to_json()] for s in self.group.elements()
        ]


class GroupMap(_GroupIndexed):
    """A map a: G -> Q(zeta_N), the object resolvends are built from."""

    @classmethod
    def indicator(cls, group, conductor, s0):
        return cls(
            group, conductor, {s: (1 if s == s0 else 0) for s in group.elements()}
        )

    def __repr__(self):
        return "GroupMap(%r, N=%d)" % (self.group, self.conductor)


class GroupRingElement(_GroupIndexed):
    """Element sum_s c_s s of the group ring Q(zeta_N)[G]."""

    @classmethod
    def identity(cls, group, conductor):
        return cls(
            group,
            conductor,
            {s: (1 if s.is_identity() else 0) for s in group.elements()},
        )

    def __add__(self, other):
        if not isinstance(other, GroupRingElement) or other.group != self.group:
            return NotImplemented
        n = lcm(self.conductor, other.conductor)
        return GroupRingElement(
            self.group, n, {s: self.values[s] + other.values[s] for s in self.group.elements()}
        )

    def __neg__(self):
        return GroupRingElement(
            self.group, self.conductor, {s: -v for s, v in self.values.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloElement)):
            return GroupRingElement(
                self.group, self.conductor, {s: v * other for s, v in self.values.items()}
            )
        if isinstance(other, GroupElement):
            if other.group != self.group:
                return NotImplemented
            return GroupRingElement(
                self.group,
                self.conductor,
                {s * other: v for s, v in self.values.items()},
            )
        if not isinstance(other, GroupRingElement) or other.group != self.group:
            return NotImplemented
        out = {s: CycloElement.zero() for s in self.group.elements()}
        for s, cs in self.values.items():
            if cs.is_zero():
                continue
            for t, ct in other.values.items():
                if ct.is_zero():
                    continue
                st = s * t
                out[st] = out[st] + cs * ct
        return GroupRingElement(self.group, lcm(self.conductor, other.conductor), out)

    __rmul__ = __mul__

    def __repr__(self):
        return "GroupRingElement(%r, N=%d)" % (self.group, self.conductor)


class CharacterVector(_GroupIndexed):
    """A map on the dual group; the transform side of the picture."""

    __slots__ = ()

    def __init__(self, group, conductor, values):
        conductor = int(conductor)
        if conductor % group.exponent:
            raise ValueError(
                "conductor %d is not divisible by the group exponent %d"
                % (conductor, group.exponent)
            )
        dual = dual_enumerate(group)
        if set(values) != set(dual):
            raise ValueError("values must be given on every character exactly once")
        self.group = group
        self.conductor = conductor
        self.values = {chi: _coerce_value(values[chi], conductor) for chi in dual}

    @classmethod
    def from_function(cls, group, conductor, fn):
        return cls(group, conductor, {chi: fn(chi) for chi in dual_enumerate(group)})

    @classmethod
    def constant(cls, group, conductor, value):
        return cls(group, conductor, {chi: value for chi in dual_enumerate(group)})

    def __eq__(self, other):
        return (
            isinstance(other, CharacterVector)
            and self.group == other.group
            and all(self.values[chi] == other.values[chi] for chi in dual_enumerate(self.group))
        )

    def pointwise_mul(self, other):
        return CharacterVector(
            self.group,
            self.conductor,
            {chi: self.values[chi] * other.values[chi] for chi in dual_enumerate(self.group)},
        )

    def pointwise_inverse(self):
        out = {}
        for chi, v in self.values.items():
            if v.is_zero():
                raise ZeroDivisionError("transform vanishes at %r" % (chi,))
            out[chi] = v.inverse()
        return CharacterVector(self.group, self.conductor, out)

    def to_json(self):
        return [
            [list(chi.coords), self.values[chi].to_json()]
            for chi in dual_enumerate(self.group)
        ]

    def __repr__(self):
        return "CharacterVector(%r, N=%d)" % (self.group, self.conductor)


def _root_exponent(group, conductor, chi, s, sign):
    m = group.exponent
    return sign * (conductor // m) * char_exponent(group, chi, s)


def resolvend(a):
    """r_G(a) = sum_s a(s) s^{-1}."""
    return GroupRingElement(
        a.group, a.conductor, {s: a.values[s.inverse()] for s in a.group.elements()}
    )


def resolvend_to_map(r):
    """Inverse of resolvend: read a(s) off the coefficient of s^{-1}."""
    return GroupMap(
        r.group, r.conductor, {s: r.values[s.inverse()] for s in r.group.elements()}
    )


def _common_terms(values, conductor):
    """The nonzero values raised to the conductor over one denominator.

    Returns (support, den): support lists (key, [(i, n_i), ...]) with
    value = sum n_i zeta^i / den for each key whose value is nonzero.
    """
    raised = [(k, v.raise_conductor(conductor)) for k, v in values.items() if not v.is_zero()]
    den = lcm(*(v.den for _, v in raised))
    support = [
        (k, [(i, c * (den // v.den)) for i, c in enumerate(v.num) if c]) for k, v in raised
    ]
    return support, den


def _root_sum(conductor, support, den, exponent):
    """sum over the support of value(key) * zeta^exponent(key), in one
    from_terms pass."""
    terms = []
    for k, pairs in support:
        e = exponent(k)
        terms.extend((c, i + e) for i, c in pairs)
    return CycloElement.from_terms(conductor, terms, den)


def resolvent(a, chi):
    """(a | chi) = sum_s a(s) chi(s)^{-1}, exact in Q(zeta_N)."""
    support, den = _common_terms(a.values, a.conductor)
    return _root_sum(
        a.conductor, support, den, lambda s: _root_exponent(a.group, a.conductor, chi, s, -1)
    )


def transform(r):
    """Evaluate sum_s c_s s at every character: chi -> sum_s c_s chi(s)."""
    group, n = r.group, r.conductor
    support, den = _common_terms(r.values, n)
    out = {
        chi: _root_sum(n, support, den, lambda s: _root_exponent(group, n, chi, s, +1))
        for chi in dual_enumerate(group)
    }
    return CharacterVector(group, n, out)


def inverse_transform(phi):
    """Recover the map a with resolvent(a, chi) = phi(chi) for all chi:
    a(s) = (1/|G|) sum_chi phi(chi) chi(s)."""
    group, n = phi.group, phi.conductor
    support, den = _common_terms(phi.values, n)
    out = {
        s: _root_sum(
            n, support, den * group.order, lambda chi: _root_exponent(group, n, chi, s, +1)
        )
        for s in group.elements()
    }
    return GroupMap(group, n, out)


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
