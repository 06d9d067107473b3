"""The centered character pairing, its group-ring valued map, and the
transpose evaluation against equivariant maps.

For chi a character and s a group element of odd order o, write
chi(s) = zeta_o^t with t the centered representative in [(1-o)/2, (o-1)/2];
the pairing is t/o.  Summing over a virtual character gives a rational
group-ring element; that element is integral exactly when the virtual
character lies in the kernel of the determinant map, and the transpose
evaluation prod_s g(s)^{coefficient} exists under the same integrality, or
when fractional exponents are absorbed by p-th power structure in g.

The map and the determinant are column kernels: one dot product of the
multiplicities per group element or per coordinate.  Results whose keys are
distinct and coefficients canonical and nonzero by construction (the map,
and permute_powers after its unit check) skip the checked constructor
through _SparseCombination._trusted.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .abelian import (
    Character,
    GroupElement,
    char_exponent,
    element_order,
)
from .cyclotomic import _as_fraction


class _SparseCombination:
    """Formal combination sum_k c_k k over one domain, stored sparsely.

    The domain is the group of the keys, or the prime p of a WildElement.
    The constructor is the checked path: each pair goes through the
    subclass's _coerce(domain, key, c), which checks the key and returns the
    exact coefficient; equal keys merge and zero coefficients drop out.
    _trusted stores a dict as it is and is only for results whose keys are
    distinct and whose coefficients are canonical and nonzero.
    """

    __slots__ = ("_domain", "coeffs")
    _sort_key = operator.attrgetter("coords")

    def __init__(self, domain, coeffs):
        coerce = self._coerce
        clean = {}
        for k, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            c = coerce(domain, k, c)
            clean[k] = clean[k] + c if k in clean else c
        self._domain = domain
        self.coeffs = {k: c for k, c in clean.items() if c}

    @classmethod
    def _trusted(cls, domain, coeffs):
        """The combination with exactly these coefficients: no coercion, no
        merge, no zero drop, and coeffs is stored without a copy."""
        self = object.__new__(cls)
        self._domain = domain
        self.coeffs = coeffs
        return self

    def _same_domain(self, other):
        return type(other) is type(self) and other._domain == self._domain

    def __eq__(self, other):
        return self._same_domain(other) and self.coeffs == other.coeffs

    def items(self):
        """The (key, coefficient) pairs sorted by key (coordinates, or
        exponents for monomials)."""
        key = self._sort_key
        return sorted(self.coeffs.items(), key=lambda kv: key(kv[0]))


class VirtualCharacter(_SparseCombination):
    """Formal integer combination of characters of one group."""

    __slots__ = ()
    group = property(operator.attrgetter("_domain"))

    @staticmethod
    def _coerce(group, chi, n):
        if chi.group != group:
            raise ValueError("character %r does not live on %r" % (chi, group))
        return operator.index(n)

    @classmethod
    def single(cls, chi, multiplicity=1):
        return cls(chi.group, {chi: multiplicity})

    def __repr__(self):
        if not self.coeffs:
            return "VirtualCharacter(0)"
        return "VirtualCharacter(%s)" % (
            " ".join("%+d*chi%r" % (n, chi.coords) for chi, n in self.items())
        )


class RationalGroupElement(_SparseCombination):
    """Element of Q[G] as a total map G -> Q, stored sparsely."""

    __slots__ = ()
    group = property(operator.attrgetter("_domain"))

    @staticmethod
    def _coerce(group, s, q):
        if s.group != group:
            raise ValueError("element %r does not live on %r" % (s, group))
        return _as_fraction(q)

    def is_integral(self):
        """True when every coefficient is an integer."""
        return all(q.denominator == 1 for q in self.coeffs.values())

    def permute_powers(self, e):
        """The coordinate permutation s -> s^e; raises ValueError unless
        gcd(e, exponent) = 1, where s -> s^e would merge coordinates."""
        _check_unit(operator.index(e), self.group)
        return self._trusted(self.group, {s**e: q for s, q in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "RationalGroupElement(0)"
        parts = ["%s*s%r" % (q, s.coords) for s, q in self.items()]
        return "RationalGroupElement(%s)" % " + ".join(parts)


def pairing(chi, s):
    """The centered pairing t/|s| where chi(s) = zeta_{|s|}^t and t is the
    symmetric representative; chi and s lie on one group and |s| is odd."""
    group = chi.group
    if s.group is not group:
        raise ValueError("element %r does not live on %r" % (s, group))
    o = element_order(group, s)
    if o % 2 == 0:
        raise ValueError("pairing is undefined for even element order %d" % o)
    m = group.exponent
    k = char_exponent(group, chi, s)
    step = m // o
    assert k % step == 0  # chi(s) is an o-th root of unity
    t = (k // step) % o
    if t > (o - 1) // 2:
        t -= o
    return Fraction(t, o)


@lru_cache(maxsize=256)
def _pairing_row(chi):
    """pairing(chi, s) scaled by the group exponent m, over elements().

    Every |s| divides m, so each entry is an integer."""
    group = chi.group
    return tuple(int(pairing(chi, s) * group.exponent) for s in group.elements())


# the map's coefficients t/m repeat across calls; Fractions are immutable,
# so one object per (t, m) can be shared
_fraction = lru_cache(maxsize=1024)(Fraction)


def stickelberger_map(psi):
    """sum over s of (sum_chi n_chi * pairing(chi, s)) * s, for odd |G|: the
    coefficient at s is the multiplicities dotted with column s of the
    pairing rows, over the group exponent."""
    group = psi.group
    if group.order % 2 == 0:
        raise ValueError("the map needs a group of odd order, got order %d" % group.order)
    ns = list(psi.coeffs.values())
    # star-args from a list, here and in det_map: CPython builds the argument
    # tuple of a generator over-sized and shrinks it, and each such tuple,
    # once freed, stays on the tuple free list (up to 2000 per size)
    columns = zip(*[_pairing_row(chi) for chi in psi.coeffs])
    m = group.exponent
    out = {}
    for s, col in zip(group.elements(), columns):
        t = sum(map(operator.mul, ns, col))
        if t:
            out[s] = _fraction(t, m)
    return RationalGroupElement._trusted(group, out)


def det_map(psi):
    """The determinant character prod chi^{n_chi}: coordinate i is the
    multiplicities dotted with the characters' i-th coordinates."""
    group = psi.group
    ns = list(psi.coeffs.values())
    columns = zip(*[chi.coords for chi in psi.coeffs])
    coords = [sum(map(operator.mul, ns, col)) for col in columns]
    return Character(group, coords or [0] * len(group.invariant_factors))


def in_S(psi):
    """Membership in the determinant kernel."""
    return det_map(psi).is_identity()


def kappa_twist(u, x):
    """The cyclotomic-unit twist: chi -> chi^u on characters, s -> s^{u^{-1}
    mod m} on group elements."""
    u = operator.index(u)
    if isinstance(x, Character):
        _check_unit(u, x.group)
        return x**u
    if isinstance(x, GroupElement):
        m = _check_unit(u, x.group)
        return x ** pow(u, -1, m)
    raise TypeError("kappa_twist acts on characters or group elements")


def _check_unit(u, group):
    m = group.exponent
    if gcd(u, m) != 1:
        raise ValueError("%d is not invertible mod %d" % (u, m))
    return m


class EquivariantMap:
    """A total map on a group with a declared twist index n: the unit u is
    supposed to act on arguments by s -> s^{u^n} and on values through the
    matching coefficient action."""

    __slots__ = ("group", "twist", "values")

    def __init__(self, group, twist, values):
        elements = group.elements()
        if set(values) != set(elements):
            raise ValueError("values must cover every group element exactly once")
        self.group = group
        self.twist = operator.index(twist)
        self.values = dict(values)

    def __call__(self, s):
        return self.values[s]

    def check_equivariance(self, units, action):
        """True when value(s^{u^twist}) = action(u, value(s)) for all given units."""
        m = self.group.exponent
        for u in units:
            e = pow(operator.index(u), self.twist, m)
            for s, v in self.values.items():
                if self.values[s**e] != action(u, v):
                    return False
        return True


def transpose_apply(g, psi):
    """prod_s g(s)^{q_s} with q_s the rational group-ring coefficients of psi.

    Integer exponents multiply directly.  A fractional q_s is only allowed
    when the value supports exact fractional powers (formal monomials whose
    exponents are divisible enough, the p-th power situation); otherwise the
    virtual character is outside the determinant kernel and this raises, as
    it does when psi lives on another group than g.
    """
    if psi.group is not g.group:
        raise ValueError("virtual character %r does not live on %r" % (psi, g.group))
    theta = stickelberger_map(psi)
    sample = next(iter(g.values.values()))
    result = sample**0
    for s, q in theta.coeffs.items():
        v = g(s)
        if q.denominator == 1:
            result = result * v ** int(q)
        else:
            frac_pow = getattr(v, "frac_pow", None)
            if frac_pow is None:
                raise ValueError(
                    "exponent %s at %r is not integral: virtual character is "
                    "outside the determinant kernel and the value carries no "
                    "p-th power structure" % (q, s)
                )
            result = result * frac_pow(q)
    return result
