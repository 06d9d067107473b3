"""Gauss sums over the prime field F_p, in two independent backends.

The exact backend, gauss_sum, expands G(phi, j) = sum_k phi(k) zeta_p^{jk}
at conductor p(p-1), where the multiplicative character phi takes values in
the (p-1)-st roots of unity.  The p-adic backend, gauss_sum_padic, rebuilds
the same sum inside truncated Z_p[zeta_p] with phi valued in Teichmuller
lifts, which is what exposes the pi-adic valuation.  Both backends pin the
character by its value on the least primitive root, so they name the same
object and can be compared digit by digit after embedding.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import count

from .cyclotomic import CycloElement, _pack, _power, _reduce, _unpack, root_of_unity
from .numutil import discrete_log_table, least_primitive_root, odd_prime
from .padic import (
    AT_CAP,
    PadicCycloElement,
    PrecisionError,
    embed_cyclo,
    pi_valuation,
    teichmuller,
)


def _layer(p, n):
    """(p, n) as integers, for an odd prime p and a divisor n >= 1 of p - 1."""
    p = odd_prime(p)
    n = operator.index(n)
    if n < 1 or (p - 1) % n:
        raise ValueError("n = %d is not a positive divisor of %d" % (n, p - 1))
    return p, n


class MultiplicativeCharacter:
    """Character of F_p^* of exact order n, extended by phi(0) = 0.

    Pinned convention: phi(rho) is the chosen primitive n-th root of unity
    zeta_{p-1}^{(p-1)/n}, with rho the least primitive root mod p.  The
    p-adic realization replaces zeta_{p-1} by the Teichmuller lift of rho.
    """

    __slots__ = ("p", "n")

    def __init__(self, p, n):
        self.p, self.n = _layer(p, n)

    @property
    def order(self):
        return self.n

    def exponent_of(self, k):
        """t with phi(k) = zeta_{p-1}^t; k must be prime to p."""
        k %= self.p
        if k == 0:
            raise ValueError("phi(0) = 0 is not a root of unity")
        a = discrete_log_table(self.p)[k]
        return (a * ((self.p - 1) // self.n)) % (self.p - 1)

    def value(self, k):
        """phi(k) as an exact element of Q(zeta_{p-1}), zero at k = 0."""
        if k % self.p == 0:
            return CycloElement.zero(self.p - 1)
        return root_of_unity(self.p - 1, self.exponent_of(k))

    def __eq__(self, other):
        return (
            isinstance(other, MultiplicativeCharacter)
            and (self.p, self.n) == (other.p, other.n)
        )

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return "MultiplicativeCharacter(p=%d, n=%d)" % (self.p, self.n)


class ResidueSubgroup:
    """R_n, the subgroup of nonzero n-th powers mod p."""

    __slots__ = ("p", "n", "elements", "_members")

    def __init__(self, p, n):
        p, n = _layer(p, n)
        self.p = p
        self.n = n
        members = {pow(k, n, p) for k in range(1, p)}
        assert len(members) == (p - 1) // n
        self.elements = tuple(sorted(members))
        self._members = frozenset(members)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, k):
        return operator.index(k) % self.p in self._members

    def __repr__(self):
        return "ResidueSubgroup(p=%d, n=%d, %r)" % (self.p, self.n, self.elements)


@lru_cache(maxsize=None)
def _gauss_cyclo_exponent(p, t, j):
    """Exact G for the character rho -> zeta_{p-1}^t with additive twist j.

    zeta_{p-1} = zeta_m^p and zeta_p = zeta_m^{p-1} at m = p(p-1), so each
    summand is a single monomial and the whole sum is one canonical reduction.
    """
    dlog = discrete_log_table(p)
    m = p * (p - 1)
    return CycloElement.from_terms(
        m,
        (
            (1, (p * ((dlog[k] * t) % (p - 1)) + (p - 1) * ((j * k) % p)) % m)
            for k in range(1, p)
        ),
    )


@lru_cache(maxsize=None)
def _gauss_padic(p, n, j, precision):
    """G(phi, j) = sum_r phi(rho^r) eta_r from the Gaussian periods eta_r, the
    sums of zeta^{jk} over the coset of k = rho^a, a = r mod n, of the n-th powers."""
    acc = PadicCycloElement.zero(p, precision)
    rho = least_primitive_root(p)
    powers = [pow(rho, a, p) for a in range(p - 1)]
    for r in range(n):
        w = teichmuller(powers[r * (p - 1) // n], p, precision)
        eta = PadicCycloElement(p, precision, _reduce(p, ((1, j * k) for k in powers[r::n])))
        acc = acc + w * eta
    return acc


def gauss_sum(phi, j):
    """G(phi, j) = sum over k in F_p of phi(k) zeta_p^{jk}, exact at
    conductor p(p-1)."""
    return _gauss_cyclo_exponent(phi.p, (phi.p - 1) // phi.n, operator.index(j) % phi.p)


def gauss_sum_padic(phi, j, precision):
    """The same sum rebuilt in truncated Z_p[zeta_p] at the given precision.

    It agrees with gauss_sum after embed_cyclo; backend_coherence checks
    that law, it is not assumed.
    """
    return _gauss_padic(phi.p, phi.n, operator.index(j) % phi.p, operator.index(precision))


def verify_translation(phi, j):
    """Exact check of G(phi, j) = phi(j)^{-1} G(phi, 1), j nonzero."""
    p = phi.p
    j = operator.index(j) % p
    if j == 0:
        raise ValueError("translation identity needs j != 0")
    lhs = gauss_sum(phi, j)
    rhs = gauss_sum(phi, 1).mul_root((-p * phi.exponent_of(j)) % (p * (p - 1)))
    return lhs == rhs


_MIN_VALUATION_PRECISION = 3  # (p-1)(M-1) > p holds iff M >= 3, for odd primes p


def _valuation_precision(precision, p):
    """precision as an integer, if it certifies valuations at p."""
    M = operator.index(precision)
    if M < _MIN_VALUATION_PRECISION:
        raise PrecisionError(
            "precision %d too small to certify valuations at p = %d" % (M, p),
            suggested_precision=_MIN_VALUATION_PRECISION,
        )
    return M


def gauss_valuation(phi, j, precision):
    """pi-adic valuation of G(phi, j) for nontrivial phi and nonzero j.

    The precision must be at least 3.  The lower bound (p-1)/n is not
    checked here: the caller compares the value with it.
    """
    p, n = phi.p, phi.n
    if n == 1:
        raise ValueError("valuation bound concerns nontrivial characters")
    j = operator.index(j) % p
    if j == 0:
        raise ValueError("j must be nonzero")
    M = _valuation_precision(precision, p)
    v = pi_valuation(gauss_sum_padic(phi, j, M))
    if v is AT_CAP:
        raise PrecisionError(
            "valuation of G(phi, %d) not visible at precision %d" % (j, M),
            suggested_precision=M + 2,
        )
    return v


def character_sum_identity(phi, j):
    """Exact check of sum_{l=1}^{n-1} G(phi^l, j) = 1 + n sum_{k in R_n} zeta_p^{jk}."""
    p, n = phi.p, phi.n
    if n == 1:
        raise ValueError("identity needs a nontrivial character")
    j = operator.index(j) % p
    if j == 0:
        raise ValueError("j must be nonzero")
    step = (p - 1) // n
    lhs = CycloElement.zero(p * (p - 1))
    for l in range(1, n):
        lhs = lhs + _gauss_cyclo_exponent(p, (step * l) % (p - 1), j)
    rhs = 1 + CycloElement.from_terms(
        p, ((n, (j * k) % p) for k in ResidueSubgroup(p, n))
    )
    return lhs == rhs


def _cyclic_power(vec, k):
    """vec ** k in Z[y]/(y^L - 1), L = len(vec), for a non-negative integer
    vector vec and k >= 1.

    The vector stays packed in one big integer at y = 2^(8 * slot bytes)
    from the first product to the last.  Every coefficient of a power of
    exponent e is at most sum(vec)^e, so before each product the slots are
    widened to hold that bound with the top bit clear: no slot carries, and
    the cyclic fold y^L = 1 is one mask, one shift and one add.
    """
    L = len(vec)
    mass = sum(vec)

    def width(e):
        return (mass**e).bit_length() // 8 + 1

    def widen(x, nbytes, to):  # byte i of every slot moves by one strided copy
        if nbytes == to:
            return x
        raw, out = x.to_bytes(L * nbytes, "little"), bytearray(L * to)
        for i in range(nbytes):
            out[i::to] = raw[i::nbytes]
        return int.from_bytes(out, "little")

    def mul(a, b):  # (packed int, slot bytes, exponent) triples
        e = a[2] + b[2]
        nbytes = width(e)
        bits = 8 * nbytes * L
        x = widen(a[0], a[1], nbytes)
        z = x * x if a is b else x * widen(b[0], b[1], nbytes)
        return (z & ((1 << bits) - 1)) + (z >> bits), nbytes, e

    nbytes = width(1)
    packed, nbytes, _ = _power((_pack(vec, nbytes), nbytes, 1), k, mul)
    return _unpack(packed, L, nbytes)


def power_sum_S(phi):
    """S = sum over nonzero j of G(phi, j)^n, n the order of phi, with its
    two certificates.

    Returns (S, exact, bounded): exact is the equality S = (p-1) G(phi, 1)^n
    checked in canonical form, bounded is the p-adic statement that S has
    pi-valuation at least p - 1.

    Every exponent of G(phi, j) at m = p(p-1) is a multiple of
    step = (p-1)/n, so the j-th powers are taken in the short ring
    Z[y]/(y^{pn} - 1) with y = zeta_m^step = zeta_{pn}, where G(phi, j) is a
    0/1 vector of p - 1 ones.  A power of exponent e then has coefficients at
    most (p-1)^e, which sets the packed slot width of `_cyclic_power`.  Both
    sums are reduced and compared at conductor pn; only S is raised to m.
    """
    p, n = phi.p, phi.n
    if n == 1:
        raise ValueError("power sum concerns nontrivial characters")
    m = p * (p - 1)
    L = p * n
    dlog = discrete_log_table(p)
    svec = [0] * L
    base_pow = None
    for j in range(1, p):
        # phi(k) zeta_p^{jk} = zeta_{pn}^{p (dlog k mod n) + n (jk mod p)}
        vec = [0] * L
        for k in range(1, p):
            vec[(p * (dlog[k] % n) + n * (j * k % p)) % L] += 1
        powed = _cyclic_power(vec, n)
        if j == 1:
            base_pow = powed
        svec = [a + b for a, b in zip(svec, powed)]
    S = CycloElement.from_terms(L, zip(svec, count()))
    exact = S == CycloElement.from_terms(L, zip([(p - 1) * c for c in base_pow], count()))
    S = S.raise_conductor(m)
    v = pi_valuation(embed_cyclo(S, p, _MIN_VALUATION_PRECISION))
    bounded = v is AT_CAP or v >= p - 1
    return S, exact, bounded


def backend_coherence(phi, j, precision):
    """embed_cyclo of the exact sum equals the directly computed padic sum."""
    exact = gauss_sum(phi, j)
    direct = gauss_sum_padic(phi, j, precision)
    return embed_cyclo(exact, phi.p, precision) == direct
