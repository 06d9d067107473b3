"""Formal Laurent monomials in unit symbols y_i and the identities that
collapse their averaged orbit sums onto transpose evaluations.

The y_i are placeholders for units indexed by F_p^*; nothing here assigns
them field values, so every check at this layer is an index computation
with exact cyclotomic coefficients.  The tau action multiplies a monomial's
coefficient by a root of unity determined by its index weight, the omega
action permutes indices and twists coefficients through the matching Galois
map, alpha averages one orbit of monomials, and each character sum over the
tau orbit must collapse to a single coefficient-1 monomial that equals the
transpose evaluation of the map g built from p-th powers of the symbols.

Monomials are canonical (one object per exponent tuple, so equality is
identity).  WildContext builds what depends only on (p, n, tag) once: the p
summand monomials, alpha, g and the orbit sums; product_contexts builds each
of its r tagged contexts once, and no check rebuilds any of it.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .abelian import FiniteAbelianGroup, dual_enumerate
from .cyclotomic import CycloElement, _as_cyclo, galois_map, root_of_unity
from .gauss import ResidueSubgroup
from .numutil import odd_prime
from .stickelberger import (
    EquivariantMap,
    VirtualCharacter,
    _SparseCombination,
    transpose_apply,
)


class VerificationError(ArithmeticError):
    """A computed object violated an identity that is supposed to hold."""


_MONOMIALS = {}  # sorted exponent tuple -> the one WildMonomial


class WildMonomial:
    """Laurent monomial in symbols y_i, possibly from several tagged
    families; multiplication adds exponents.  Canonical: one object per
    exponent tuple, so equality is identity."""

    __slots__ = ("exponents",)

    def __new__(cls, exponents=()):
        items = exponents.items() if isinstance(exponents, dict) else exponents
        acc = {}
        for key, e in items:
            tag, i = key
            e = operator.index(e)
            if e:
                k = (operator.index(tag), operator.index(i))
                acc[k] = acc.get(k, 0) + e
        canon = tuple(sorted((k, e) for k, e in acc.items() if e))
        mono = object.__new__(cls)
        mono.exponents = canon
        return _MONOMIALS.setdefault(canon, mono)

    def __reduce__(self):  # copy and pickle give back the one instance
        return WildMonomial, (self.exponents,)

    @classmethod
    def one(cls):
        return cls(())

    @classmethod
    def symbol(cls, i, tag=0, power=1):
        return cls((((tag, i), power),))

    def is_one(self):
        return not self.exponents

    def weight(self, p):
        """Index-weighted total degree mod p, the tau eigenvalue exponent."""
        return sum(i * e for (_, i), e in self.exponents) % p

    def __mul__(self, other):
        if not isinstance(other, WildMonomial):
            return NotImplemented
        if not self.exponents or not other.exponents:
            return self if self.exponents else other
        return WildMonomial(self.exponents + other.exponents)

    def __pow__(self, e):
        e = operator.index(e)
        return WildMonomial(tuple((k, v * e) for k, v in self.exponents))

    def inverse(self):
        return self**-1

    def frac_pow(self, q):
        """Exact fractional power; every scaled exponent must be integral."""
        if not self.exponents:
            return self
        q = q if isinstance(q, Fraction) else Fraction(q)
        scaled = []
        for k, v in self.exponents:
            e = v * q
            if e.denominator != 1:
                raise ValueError(
                    "fractional exponent %s on %s" % (e, _symbol_str(k, 1))
                )
            scaled.append((k, int(e)))
        return WildMonomial(tuple(scaled))

    def __str__(self):
        if not self.exponents:
            return "1"
        return "*".join(_symbol_str(k, e) for k, e in self.exponents)

    def __repr__(self):
        return "WildMonomial(%s)" % self


def _symbol_str(key, e):
    tag, i = key
    base = "y%d" % i if tag == 0 else "y%d_%d" % (tag, i)
    return base if e == 1 else "%s^%d" % (base, e)


class WildElement(_SparseCombination):
    """Finite sum of monomials with exact Q(zeta_p) coefficients."""

    __slots__ = ()
    p = property(operator.attrgetter("_domain"))
    _sort_key = operator.attrgetter("exponents")

    def __init__(self, p, coeffs=()):
        super().__init__(odd_prime(p), coeffs)

    @staticmethod
    def _coerce(p, mono, coeff):
        if not isinstance(mono, WildMonomial):
            raise TypeError("keys must be monomials, got %r" % (mono,))
        return _as_cyclo(coeff, p)

    @classmethod
    def one(cls, p):
        return cls(p, ((WildMonomial.one(), 1),))

    @classmethod
    def monomial(cls, p, mono, coeff=1):
        """coeff * mono.  One term has nothing to merge, so once p and the
        pair pass the constructor's checks it is stored trusted."""
        p = odd_prime(p)
        coeff = cls._coerce(p, mono, coeff)
        return cls._trusted(p, {mono: coeff} if coeff else {})

    def __mul__(self, other):
        if isinstance(other, WildElement):
            if other.p != self.p:
                raise ValueError("mixed primes %d and %d" % (self.p, other.p))
            return WildElement(
                self.p,
                [
                    (m1 * m2, c1 * c2)
                    for m1, c1 in self.coeffs.items()
                    for m2, c2 in other.coeffs.items()
                ],
            )
        if isinstance(other, WildMonomial):
            return WildElement(self.p, {m * other: c for m, c in self.coeffs.items()})
        return NotImplemented

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join("(%s)*%s" % (c, mono) for mono, c in self.items())

    def __repr__(self):
        return "WildElement(p=%d, %s)" % (self.p, self)


def c_of(i, p):
    """The representative of i mod p in the symmetric range [(1-p)/2, (p-1)/2]."""
    p = odd_prime(p)
    c = operator.index(i) % p
    if c > (p - 1) // 2:
        c -= p
    return c


class WildContext:
    """Derived data for one layer, each built once: R_n, d = (p-1)/n mod p
    and its inverse, the cyclic group of order p whose characters index the
    resolvents, the p summands, alpha, g and orbit_sums[t] = sum_j zeta_p^{jt}."""

    __slots__ = ("p", "n", "tag", "subgroup", "d", "d_inv", "group",
                 "summands", "alpha", "g", "orbit_sums")

    def __init__(self, p, n, tag=0):
        self.subgroup = ResidueSubgroup(p, n)
        self.p = p = self.subgroup.p
        self.n = n = self.subgroup.n
        self.tag = tag = operator.index(tag)
        self.d = ((p - 1) // n) % p
        assert self.d  # (p-1)/n lies in 1..p-1
        self.d_inv = pow(self.d, -1, p)
        self.group = FiniteAbelianGroup([p])
        inv = [(i, pow(i, -1, p)) for i in self.subgroup]
        self.summands = tuple(
            WildMonomial({(tag, i): c_of(u * k, p) for i, u in inv}) for k in range(p)
        )
        self.alpha = build_alpha(self)
        self.g = build_g(self)
        self.orbit_sums = tuple(
            CycloElement.from_terms(p, ((1, j * t) for j in range(p))) for t in range(p)
        )

    def character(self, k):
        """The character sending the generator to zeta_p^k."""
        return self.group.character([operator.index(k) % self.p])

    def summand_monomial(self, k):
        """prod over i in R_n of y_i^{c(i^{-1} k)}."""
        return self.summands[operator.index(k) % self.p]

    def collapse_monomial(self, k):
        """The monomial the k-th character sum must collapse to."""
        return self.summand_monomial(self.d_inv * operator.index(k))

    def __repr__(self):
        if self.tag:
            return "WildContext(p=%d, n=%d, tag=%d)" % (self.p, self.n, self.tag)
        return "WildContext(p=%d, n=%d)" % (self.p, self.n)


def tau_action(j, x):
    """j-th power of the generator action: each monomial's coefficient is
    multiplied by zeta_p^{j * weight}.  The keys are x's and a root of unity
    keeps a coefficient nonzero, so the result is built trusted."""
    p = x.p
    j = operator.index(j) % p
    if j == 0:
        return x
    out = {}
    for mono, coeff in x.coeffs.items():
        e = (j * mono.weight(p)) % p
        if e:
            coeff = coeff.mul_root(e)
        out[mono] = coeff
    return WildElement._trusted(p, out)


def omega_monomial(j, mono, p):
    """Index permutation i -> ij mod p on a bare monomial.  A bijection on reduced
    indices, so a sort canonicalises; __new__ runs only for a monomial not yet made."""
    j = operator.index(j) % p
    if j == 0:
        raise ValueError("omega needs an index prime to p")
    canon = tuple(sorted(((tag, i * j % p), e) for (tag, i), e in mono.exponents))
    return _MONOMIALS.get(canon) or WildMonomial(canon)


def omega_action(j, x):
    """Permute symbol indices by i -> ij and twist coefficients by the
    Galois map zeta -> zeta^j.  Both are bijections, so the result is built
    trusted."""
    p = x.p
    j = operator.index(j) % p
    if j == 0:
        raise ValueError("omega needs an index prime to p")
    out = {}
    for mono, coeff in x.coeffs.items():
        out[omega_monomial(j, mono, p)] = galois_map(j, coeff)
    return WildElement._trusted(p, out)


def build_alpha(ctx):
    """(1/p) * sum over k in F_p of the k-th summand monomial."""
    return WildElement(ctx.p, ((m, Fraction(1, ctx.p)) for m in ctx.summands))


def conjugate_check(ctx, j, k):
    """tau^j scales the k-th summand by exactly zeta^{jkd}.  The two sides
    differ in the exponent (the weight on the left, j*k*d on the right), not
    in the kernel, so sharing from_terms keeps them independent."""
    p = ctx.p
    mono = ctx.summand_monomial(k)
    lhs = tau_action(j, WildElement.monomial(p, mono))
    e = operator.index(j) * operator.index(k) * ctx.d
    return lhs == WildElement.monomial(p, mono, root_of_unity(p, e))


def resolvent_at(ctx, k):
    """The character sum over the tau orbit of alpha against zeta^{-jk}.

    Computed from the definition grouped by exponent t = w - k: a monomial
    of weight w gets its alpha coefficient times the context's orbit sum
    sum_j zeta^{jt}, one canonical reduction of p root-of-unity terms.  The
    collapse to one coefficient-1 monomial, and its identity as the predicted
    monomial, are enforced here: anything else is a broken invariant.
    """
    p = ctx.p
    k = operator.index(k) % p
    out = {}
    for mono, base in ctx.alpha.coeffs.items():
        w = mono.weight(p)
        out[mono] = ctx.orbit_sums[(w - k) % p] * base.as_rational()
    result = WildElement(p, out)
    expected = ctx.collapse_monomial(k)
    if set(result.coeffs) != {expected} or result.coeffs[expected] != 1:
        raise VerificationError(
            "character sum at k = %d did not collapse to the unit monomial %s"
            % (k, expected)
        )
    return result


def build_g(ctx):
    """The map valued y_i^p on the element t^{d^{-1} i^{-1}} for each i in
    R_n, and 1 elsewhere, with declared twist -1."""
    p, d = ctx.p, ctx.d
    values = {}
    for a in range(p):
        s = ctx.group.element([a])
        mono = WildMonomial.one()
        if a:
            i = pow(a * d % p, -1, p)
            if i in ctx.subgroup:
                mono = WildMonomial.symbol(i, tag=ctx.tag, power=p)
        values[s] = mono
    return EquivariantMap(ctx.group, -1, values)


def transpose_eval_g(ctx, k):
    """Transpose evaluation of g at the character with exponent k; the p-th
    power structure of the values absorbs the denominator p exactly."""
    return transpose_apply(ctx.g, VirtualCharacter.single(ctx.character(k)))


def product_contexts(p, orders):
    """Composite decomposition check over G = (Z/p)^r, r = len(orders).

    Context i is built once, for the i-th order with tag i, so the r symbol
    families stay disjoint.  For every character (k_1, ..., k_r) three
    objects must agree: the product of the per-context collapsed resolvents,
    the product of the per-context transpose evaluations, and the direct
    transpose evaluation on G of the composite map supported on the
    coordinate axes.  Returns one (coords, monomial, pass) row per character.
    """
    tagged = [WildContext(p, n, tag=idx) for idx, n in enumerate(orders, 1)]
    if not tagged:
        raise ValueError("need at least one context")
    p, r = tagged[0].p, len(tagged)
    big = FiniteAbelianGroup([p] * r)
    values = {}
    for s in big.elements():
        live = [idx for idx, a in enumerate(s.coords) if a]
        if len(live) == 1:
            idx = live[0]
            ctx = tagged[idx]
            values[s] = ctx.g(ctx.group.element([s.coords[idx]]))
        else:
            values[s] = WildMonomial.one()
    composite = EquivariantMap(big, -1, values)
    res_parts = []
    trans_parts = []
    for ctx in tagged:
        by_k = {}
        for k in range(p):
            ((mono, _),) = resolvent_at(ctx, k).coeffs.items()
            by_k[k] = mono
        res_parts.append(by_k)
        trans_parts.append({k: transpose_eval_g(ctx, k) for k in range(p)})
    rows = []
    for chi in dual_enumerate(big):
        ks = chi.coords
        res = WildMonomial.one()
        trans = WildMonomial.one()
        for idx in range(r):
            res = res * res_parts[idx][ks[idx]]
            trans = trans * trans_parts[idx][ks[idx]]
        direct = transpose_apply(composite, VirtualCharacter.single(chi))
        rows.append((tuple(ks), res, res == trans == direct))
    return rows
