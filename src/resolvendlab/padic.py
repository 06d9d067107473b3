"""Truncated exact arithmetic in Z_p[zeta_p] for an odd prime p.

The ring of integers of the totally ramified degree p-1 extension
Q_p(zeta_p) is a free Z_p-module on 1, zeta, ..., zeta^{p-2}.  An element
here is that coefficient vector over Z/p^M.  Since pi = zeta - 1 satisfies
(pi^{p-1}) = (p), coefficient-wise arithmetic mod p^M is exact mod
pi^{(p-1)M}; valuations below that cap are exact, those at or above it are
AT_CAP.  Products (folded mod x^p - 1) and pi-digits (a Taylor shift at
2^w + 1) are one pass each over a big integer packed by cyclotomic._pack
and read back by cyclotomic._unpack, the slot codec the gauss power sums
use too; a product's slot width depends only on (p, M) and is cached by
it.  pi_valuation reads the p-adic level off one gcd of the pi-digits.  No
cyclotomic product runs here, and only zeta_power and embed_cyclo use
cyclotomic._reduce.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import compress, count
from math import gcd

from .cyclotomic import _pack, _power, _reduce, _unpack
from .numutil import least_primitive_root, odd_prime


class PrecisionError(ValueError):
    """Raised when a valuation question cannot be settled at the working
    precision; carries a suggested precision to retry with."""

    def __init__(self, message, suggested_precision=None):
        super().__init__(message)
        self.suggested_precision = suggested_precision


class _AtCap:
    __slots__ = ()

    def __repr__(self):
        return "at-cap"


AT_CAP = _AtCap()


def _precision(precision):
    """precision as an integer M >= 1."""
    precision = operator.index(precision)
    if precision < 1:
        raise ValueError("precision must be >= 1, got %r" % (precision,))
    return precision


def _make(p, precision, modulus, coeffs):
    """The element coeffs mod modulus, unchecked: p, precision and modulus
    come from a valid element and coeffs are p - 1 integers."""
    x = object.__new__(PadicCycloElement)
    x.p = p
    x.precision = precision
    x.modulus = modulus
    x.coeffs = tuple([c % modulus for c in coeffs])
    return x


@lru_cache(maxsize=256)
def _mul_width(p, modulus):
    """(nbytes, bits, mask) of the product in Z_p[zeta_p] mod modulus: slots
    of nbytes bytes, and the bits and mask of the p slots that x^p = 1 folds.
    A column of either sum holds at most p - 1 products of residues, so
    2^(8 nbytes) > (p-1)(modulus-1)^2 keeps every slot from carrying."""
    nbytes = ((p - 1) * (modulus - 1) ** 2).bit_length() // 8 + 1
    bits = 8 * nbytes * p
    return nbytes, bits, (1 << bits) - 1


class PadicCycloElement:
    """Element of Z_p[zeta_p] mod p^M on the basis 1, zeta, ..., zeta^{p-2}."""

    __slots__ = ("p", "precision", "modulus", "coeffs")

    def __init__(self, p, precision, coeffs):
        p = odd_prime(p)
        precision = _precision(precision)
        coeffs = tuple(map(operator.index, coeffs))
        if len(coeffs) != p - 1:
            raise ValueError("expected %d coefficients, got %d" % (p - 1, len(coeffs)))
        self.p = p
        self.precision = precision
        self.modulus = p**precision
        self.coeffs = tuple(c % self.modulus for c in coeffs)

    @classmethod
    def zero(cls, p, precision):
        return cls(p, precision, (0,) * (p - 1))

    @classmethod
    def from_int(cls, value, p, precision):
        return cls(p, precision, [operator.index(value)] + [0] * (p - 2))

    @classmethod
    def one(cls, p, precision):
        return cls.from_int(1, p, precision)

    @classmethod
    def zeta_power(cls, p, precision, e):
        """zeta^e; the overflow exponent p-1 folds through Phi_p."""
        return cls(p, precision, _reduce(p, ((1, e),)))

    def _check(self, other):
        if self.p != other.p or self.precision != other.precision:
            raise ValueError("mixed p or precision in Z_p[zeta_p] arithmetic")

    def __add__(self, other):
        if isinstance(other, int):
            other = PadicCycloElement.from_int(other, self.p, self.precision)
        if not isinstance(other, PadicCycloElement):
            return NotImplemented
        self._check(other)
        coeffs = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        return _make(self.p, self.precision, self.modulus, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.p, self.precision, self.modulus, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, (int, PadicCycloElement)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """One big-integer product of the operands packed in _mul_width slots
        (so none carries), folded mod x^p - 1 inside the integer."""
        if isinstance(other, int):
            return _make(self.p, self.precision, self.modulus, [c * other for c in self.coeffs])
        if not isinstance(other, PadicCycloElement):
            return NotImplemented
        self._check(other)
        nbytes, bits, mask = _mul_width(self.p, self.modulus)
        x = _pack(self.coeffs, nbytes)
        z = x * x if other is self else x * _pack(other.coeffs, nbytes)
        z = (z & mask) + (z >> bits)  # x^p = 1
        *low, top = _unpack(z, self.p, nbytes)  # x^{p-1} = -(1 + x + ... + x^{p-2})
        return _make(self.p, self.precision, self.modulus, [c - top for c in low])

    __rmul__ = __mul__

    def __pow__(self, k):
        k = operator.index(k)
        if k < 0:
            raise ValueError("negative powers are not defined in Z_p[zeta_p]")
        if k == 0:
            return PadicCycloElement.one(self.p, self.precision)
        return _power(self, k, operator.mul)

    def is_zero(self):
        return not any(self.coeffs)

    def pi_digits(self):
        """Coefficients b_k of x = sum b_k pi^k (k < p-1) mod p^M, from the
        binomial change of basis zeta^i = (1 + pi)^i: b_k = sum_i C(i, k) c_i
        is the Taylor shift f(1 + y), read off f(1 + 2^w) by Horner.  Each b_k
        < (p^M - 1) C(p-1, k+1) < (p^M - 1) 2^(p-1) < 2^w, so no slot carries."""
        nbytes = ((self.modulus - 1) << (self.p - 1)).bit_length() // 8 + 1
        acc, w = 0, 8 * nbytes
        for c in reversed(self.coeffs):
            acc = (acc << w) + acc + c
        return tuple([b % self.modulus for b in _unpack(acc, self.p - 1, nbytes)])

    def __eq__(self, other):
        if isinstance(other, int):
            other = PadicCycloElement.from_int(other, self.p, self.precision)
        if not isinstance(other, PadicCycloElement):
            return NotImplemented
        return (
            self.p == other.p
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    def __str__(self):
        digits = self.pi_digits()
        parts = []
        for k, b in enumerate(digits):
            if b:
                parts.append("%d*pi^%d" % (b, k) if k else "%d" % b)
        body = " + ".join(parts) if parts else "O(pi^%d)" % ((self.p - 1) * self.precision)
        return "%s (p=%d, M=%d)" % (body, self.p, self.precision)

    __repr__ = __str__

    def to_json(self):
        return {"p": self.p, "M": self.precision, "coeffs": list(self.coeffs)}


def teichmuller(k, p, precision):
    """The unique (p-1)-th root of unity in Z_p congruent to k mod p,
    as an integer mod p^M; found by iterating x -> x^p to its fixpoint."""
    p = odd_prime(p)
    precision = _precision(precision)
    if k % p == 0:
        raise ValueError("teichmuller lift needs k nonzero mod p, got %r" % (k,))
    mod = p**precision
    x = k % mod
    for _ in range(precision + 1):
        nxt = pow(x, p, mod)
        if nxt == x:
            break
        x = nxt
    assert pow(x, p, mod) == x
    return x


def pi_valuation(x):
    """pi-adic valuation of x, exact whenever it is below the cap (p-1)*M.

    Writing x = sum b_k pi^k with b_k in Z_p, the candidate valuations
    (p-1)*v_p(b_k) + k are pairwise distinct mod p-1, so the minimum over
    the digits visible mod p^M is the true valuation.  As k < p-1, that
    minimum has the least level v = v_p(b_k), which is v_p of the gcd g of
    the digits, and the least k whose digit is not divisible by p^(v+1):
    it is (p-1)*v + k.  g = 0 (AT_CAP) means every digit vanished, i.e.
    v(x) >= (p-1)*M.
    """
    digits = x.pi_digits()
    g = gcd(*digits)
    if not g:
        return AT_CAP
    p = x.p
    v = 0
    while g % p == 0:
        g //= p
        v += 1
    q = p ** (v + 1)
    return (p - 1) * v + next(compress(count(), map(q.__rmod__, digits)))


@lru_cache(maxsize=256)
def _teichmuller_powers(p, precision):
    """Powers of the Teichmuller lift of the least primitive root."""
    base = teichmuller(least_primitive_root(p), p, precision)
    mod = p**precision
    out = [1]
    for _ in range(p - 2):
        out.append(out[-1] * base % mod)
    return tuple(out)


def embed_cyclo(x, p, precision):
    """Embed a CycloElement of conductor dividing p(p-1) into Z_p[zeta_p].

    Pinned convention: zeta_p goes to zeta, zeta_{p-1} goes to the
    Teichmuller lift of the least primitive root mod p.  On the compatible
    root system this forces zeta_{p(p-1)} -> teichmuller(rho) * zeta^{-1}.
    Denominators must be prime to p.
    """
    p = odd_prime(p)
    target = p * (p - 1)
    if target % x.conductor:
        raise ValueError(
            "conductor %d does not divide p(p-1) = %d" % (x.conductor, target)
        )
    y = x.raise_conductor(target)
    mod = p ** operator.index(precision)
    omega = _teichmuller_powers(p, precision)
    # den is the lcm of the reduced coefficient denominators
    if y.den % p == 0:
        raise ValueError("denominator %d is divisible by p = %d" % (y.den, p))
    inv_den = pow(y.den, -1, mod)
    terms = ((c * inv_den % mod * omega[e % (p - 1)], -e) for e, c in enumerate(y.num) if c)
    return PadicCycloElement(p, precision, _reduce(p, terms))
