"""Gauss sums over the prime field F_p, in two independent backends.

The exact backend, gauss_sum, expands G(phi, j) = sum_k phi(k) zeta_p^{jk}
at conductor p(p-1), where the multiplicative character phi takes values in
the (p-1)-st roots of unity.  The p-adic backend, gauss_sum_padic, rebuilds
the same sum inside truncated Z_p[zeta_p] with phi valued in Teichmuller
lifts, which is what exposes the pi-adic valuation: one pass over k from
the definition, each phi(k) a cached power of the lift of the least
primitive root, then one fold of zeta^{p-1} through Phi_p.  Both backends
pin the character by its value on the least primitive root, so they name
the same object and can be compared digit by digit after embedding.

power_sum_S takes the n-th powers G(phi, j)^n in R = Z[y]/(Phi_n(y^p)),
y = zeta_{pn}, which has p phi(n) coefficients.  Phi_{pn}(y) divides
Phi_n(y^p) = Phi_{pn}(y) Phi_n(y) because p does not divide n, so reducing
mod Phi_{pn} afterwards gives the same canonical elements as powers taken
in Z[y]/(y^{pn} - 1).  The powers stay packed in one big integer; before
each product the slot width is chosen from the operands' own widest slots,
read off their byte planes, so that no slot of the reduced product wraps.
The p - 1 powers are added while packed, at one width with room for the
sum.  (S1) has two routes: the valuation of the exact S after embedding,
and the same S taken in Z_p[zeta_p] as sum_j gauss_sum_padic(phi, j)^n.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import count

from .cyclotomic import (
    CycloElement,
    _canonical,
    _mul_rows,
    _pack,
    _power,
    _reduce,
    _reduction_rows,
    _unpack,
    root_of_unity,
)
from .numutil import discrete_log_table, euler_phi, odd_prime
from .padic import (
    AT_CAP,
    PadicCycloElement,
    PrecisionError,
    _teichmuller_powers,
    embed_cyclo,
    pi_valuation,
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
    """G(phi, j) = sum_k phi(k) zeta^{jk} in one pass from its definition.

    With k = rho^a, phi(k) = omega^{step a}, step = (p-1)/n, is read from the
    powers of the Teichmuller lift omega of rho, and lands in the slot
    jk mod p of the power basis 1, zeta, ..., zeta^{p-1}.  Slot p - 1 is
    then folded through Phi_p: zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2}).
    """
    omega = _teichmuller_powers(p, precision)
    dlog = discrete_log_table(p)
    step = (p - 1) // n
    c = [0] * p
    for k in range(1, p):
        c[j * k % p] += omega[step * dlog[k] % (p - 1)]
    top = c[-1]
    return PadicCycloElement(p, precision, [x - top for x in c[:-1]])


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
    # every G(phi^l, j) has den 1 at conductor p(p-1), so the left side is
    # the column sums of their numerators, canonicalised once
    terms = (_gauss_cyclo_exponent(p, (step * l) % (p - 1), j).num for l in range(1, n))
    lhs = _canonical(p * (p - 1), list(map(sum, zip(*terms))), 1)
    rhs = 1 + CycloElement.from_terms(
        p, ((n, (j * k) % p) for k in ResidueSubgroup(p, n))
    )
    return lhs == rhs


_FLIP = bytes(b ^ 0x80 for b in range(256))  # top byte: offset slot <-> two's complement
_SIGN = bytes(0xFF if b & 0x80 else 0 for b in range(256))  # a byte -> its sign byte


def _offsets(length, nbytes):
    """2^(8 nbytes - 1) in each of length slots: a packed signed value plus
    this is its offset form, every slot c + 2^(8 nbytes - 1) >= 0."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * length, "little")


def _planes(raw, nbytes):
    """Byte k of every slot of raw, for k < nbytes, in two's complement.

    raw is an offset form: slot c + 2^(8 nbytes - 1) differs from the two's
    complement of c in the top bit of the top byte alone.
    """
    planes = [raw[k::nbytes] for k in range(nbytes)]
    planes[-1] = planes[-1].translate(_FLIP)
    return planes


def _signed_bits(planes):
    """The least b with every slot c of the two's-complement planes in
    [-2^(b-1), 2^(b-1)).

    From the top down, planes equal to the sign plane hold no bits.  In the
    first plane that does not, a slot's byte XOR its sign byte is the top
    byte of |c| or of -c - 1, so the largest such byte gives b.
    """
    sign = planes[-1].translate(_SIGN)
    w = len(planes)
    while w > 1 and planes[w - 1] == sign:
        w -= 1
    top = int.from_bytes(planes[w - 1], "little") ^ int.from_bytes(sign, "little")
    return 8 * (w - 1) + max(top.to_bytes(len(sign), "little")).bit_length() + 1


def _widen(planes, a, w):
    """The packed signed value of the two's-complement planes at slot width
    w >= a, where planes a and above are sign planes: a strided copy of the
    planes that hold bits, with the sign plane filled in above them."""
    L = len(planes[0])
    out = bytearray(L * w)
    for i in range(a):
        out[i::w] = planes[i]
    sign = planes[-1].translate(_SIGN)
    for i in range(a, w):
        out[i::w] = sign
    out[w - 1 :: w] = out[w - 1 :: w].translate(_FLIP)
    return int.from_bytes(out, "little") - _offsets(L, w)


def _offset_slots(x, length, w):
    """The length signed slots of the offset form x at slot width w."""
    half = 1 << (8 * w - 1)
    return [c - half for c in _unpack(x, length, w)]


@lru_cache(maxsize=None)
def _block_rows(n):
    """Y^q mod Phi_n(Y) for phi(n) <= q < 2 phi(n), read by output digit.

    Entry i lists the (q, r), r != 0, with r the coefficient of Y^i in
    Y^q: row i of the multiplication matrix of Y^phi, whose column j is
    Y^(phi + j).  With it comes C = 1 + the largest l1 norm of an entry, so
    one block reduction grows a slot by at most the factor C.
    """
    phi = euler_phi(n)
    cols = tuple(
        tuple((phi + j, r) for j, r in enumerate(row) if r)
        for row in _mul_rows(n, _reduce(n, ((1, phi),)))
    )
    return cols, 1 + max(sum(abs(r) for _, r in col) for col in cols)


def _ring_power(vec, p, n, k):
    """vec ** k in R = Z[y]/(Phi_n(y^p)), p prime to n, for the p phi(n)
    integer coefficients vec of 1, y, y^2, ... and k >= 1.

    An element stays packed from the first product to the last, as its
    offset form: slot e is the coefficient of y^e plus 2^(8w-1), in w bytes.
    A product packs both signed operands at width w and multiplies once.
    Its 2 phi(n) blocks of p slots are the digits B_q of Y = y^p, read off
    the offset bytes of the product, and digit i of the result is
    D_i = B_i + sum_q r_{q,i} B_q over the rows Y^q mod Phi_n, q >= phi(n).
    With every operand slot in [-2^(a-1), 2^(a-1)) and [-2^(b-1), 2^(b-1)),
    every slot of D is at most 2^(a-1) 2^(b-1) p phi(n) C (C from
    _block_rows), and w is the least width with 2^(8w-1) above that, so no
    slot wraps.  a and b are read off the byte planes of the operands, and
    `_widen` rewidens them.  Returns the offset form (raw bytes, w) of the
    power, unpacked by the caller.
    """
    L = len(vec)
    phi = L // p
    cols, C = _block_rows(n)
    scale = L * C

    def mul(a, b):  # (offset bytes, slot bytes) pairs
        pa = _planes(*a)
        pb = pa if a is b else _planes(*b)
        ba = _signed_bits(pa)
        bb = ba if a is b else _signed_bits(pb)
        w = (scale << (ba + bb - 2)).bit_length() // 8 + 1
        x = _widen(pa, (ba + 7) // 8, w)
        z = x * x if a is b else x * _widen(pb, (bb + 7) // 8, w)
        size = p * w
        raw = (z + _offsets(2 * L, w)).to_bytes(2 * L * w, "little")
        half = _offsets(p, w)
        high = [
            int.from_bytes(raw[q * size : (q + 1) * size], "little") - half
            for q in range(phi, 2 * phi)
        ]
        out = []
        for i, col in enumerate(cols):
            block = raw[i * size : (i + 1) * size]
            if col:  # the offset digit B_i + half, plus the signed high digits
                d = int.from_bytes(block, "little")
                for q, r in col:
                    d += r * high[q - phi]
                block = d.to_bytes(size, "little")
            out.append(block)
        return b"".join(out), w

    w = max(map(abs, vec)).bit_length() // 8 + 1
    half = 1 << (8 * w - 1)
    raw = _pack([c + half for c in vec], w).to_bytes(L * w, "little")
    return _power((raw, w), k, mul)


def power_sum_S(phi):
    """S = sum over nonzero j of G(phi, j)^n, n the order of phi, with its
    two certificates.

    Returns (S, exact, bounded): exact is the equality S = (p-1) G(phi, 1)^n
    checked in canonical form, bounded is the p-adic statement that S has
    pi-valuation at least p - 1, and that S embedded in Z_p[zeta_p] equals
    the same sum taken there, sum_j gauss_sum_padic(phi, j)^n.

    Every exponent of G(phi, j) at m = p(p-1) is a multiple of
    step = (p-1)/n, so G(phi, j) is a sum of p - 1 powers of
    y = zeta_m^step = zeta_{pn}.  The n-th powers are taken in
    R = Z[y]/(Phi_n(y^p)), which has p phi(n) coefficients where
    Z[y]/(y^{pn} - 1) has pn: there y^e = Y^q y^i with Y = y^p,
    e = pq + i, i < p, and Y^q is reduced mod Phi_n.  As p does not divide
    n, Phi_n(y^p) = Phi_{pn}(y) Phi_n(y), so Phi_{pn} divides Phi_n(y^p)
    and reducing an element of R mod Phi_{pn} gives its value at
    zeta_{pn}.  Both sums are reduced and compared at conductor pn; only S
    is raised to m.  `_ring_power` sizes its packed slots from the data; its
    p - 1 results are widened to one slot width with room for their sum and
    added as big integers, so S and G(phi, 1)^n are each unpacked once.
    """
    p, n = phi.p, phi.n
    if n == 1:
        raise ValueError("power sum concerns nontrivial characters")
    m = p * (p - 1)
    phin = euler_phi(n)
    rows = _reduction_rows(n)
    dlog = discrete_log_table(p)
    powers = []
    for j in range(1, p):
        # phi(k) zeta_p^{jk} = y^e, e = p (dlog k mod n) + n (jk mod p) mod pn
        vec = [0] * (p * phin)
        for k in range(1, p):
            q, i = divmod((p * (dlog[k] % n) + n * (j * k % p)) % (p * n), p)
            if q < phin:
                vec[p * q + i] += 1
            else:
                for r, c in rows[q - phin]:
                    vec[p * r + i] += c
        powers.append(_ring_power(vec, p, n, n))
    L = p * phin
    # p - 1 slots of size at most 2^(8w-1) sum below 2^(8w-1+bits(p-1)) in size
    W = max(w for _, w in powers) + ((p - 1).bit_length() + 7) // 8
    total = sum(_widen(_planes(raw, w), w, W) for raw, w in powers)
    S = CycloElement.from_terms(p * n, zip(_offset_slots(total + _offsets(L, W), L, W), count()))
    raw, w = powers[0]
    base = _offset_slots(int.from_bytes(raw, "little"), L, w)
    exact = S == CycloElement.from_terms(p * n, zip([(p - 1) * c for c in base], count()))
    S = S.raise_conductor(m)
    M = _MIN_VALUATION_PRECISION
    embedded = embed_cyclo(S, p, M)
    v = pi_valuation(embedded)
    direct = sum(gauss_sum_padic(phi, j, M) ** n for j in range(1, p))
    bounded = (v is AT_CAP or v >= p - 1) and direct == embedded
    return S, exact, bounded


def backend_coherence(phi, j, precision):
    """embed_cyclo of the exact sum equals the directly computed padic sum."""
    exact = gauss_sum(phi, j)
    direct = gauss_sum_padic(phi, j, precision)
    return embed_cyclo(exact, phi.p, precision) == direct
