import copy
import pickle
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvendlab.cyclotomic import CycloElement, root_of_unity
from resolvendlab.numutil import divisor_list, euler_phi, least_primitive_root
from resolvendlab.padic import (
    _SHIFT_BYTES,
    AT_CAP,
    PadicCycloElement,
    PrecisionError,
    _pack,
    _unpack,
    embed_cyclo,
    pi_valuation,
    teichmuller,
)


def test_teichmuller_examples():
    for p, M in [(3, 2), (5, 3), (7, 4)]:
        assert teichmuller(1, p, M) == 1
    # 2^5 = 32 = 7 mod 25, the fixpoint of 5th powering
    assert teichmuller(2, 5, 2) == 7
    assert pow(7, 4, 25) == 1


def test_teichmuller_rejects_zero():
    with pytest.raises(ValueError):
        teichmuller(0, 5, 2)
    with pytest.raises(ValueError):
        teichmuller(10, 5, 2)


@pytest.mark.parametrize("precision", [0, -1])
def test_precision_has_one_rule(precision):
    # the constructor and teichmuller reject a precision below 1 alike
    message = "precision must be >= 1, got %d" % precision
    with pytest.raises(ValueError, match=message):
        PadicCycloElement(7, precision, [0] * 6)
    with pytest.raises(ValueError, match=message):
        teichmuller(3, 7, precision)


def test_teichmuller_multiplicative():
    p, M = 7, 4
    mod = p ** M
    for j in range(1, p):
        for k in range(1, p):
            lhs = teichmuller(j, p, M) * teichmuller(k, p, M) % mod
            assert lhs == teichmuller(j * k % p, p, M)


def test_teichmuller_residue():
    p, M = 11, 3
    mod = p ** M
    for k in range(1, p):
        w = teichmuller(k, p, M)
        assert w % p == k
        assert pow(w, p - 1, mod) == 1


def test_pi_valuation_examples():
    p, M = 7, 3
    assert pi_valuation(PadicCycloElement.from_int(p, p, M)) == p - 1
    pi = PadicCycloElement(p, M, [-1, 1] + [0] * (p - 3))  # zeta - 1
    assert pi_valuation(pi) == 1
    assert pi_valuation(PadicCycloElement(p, M, [0] * (p - 1))) is AT_CAP
    assert pi_valuation(PadicCycloElement.one(p, M)) == 0


def test_pi_valuation_additive():
    p, M = 5, 4
    pi = PadicCycloElement(p, M, [-1, 1] + [0] * (p - 3))  # zeta - 1
    x = PadicCycloElement.from_int(2, p, M)
    running = x
    for v in range(1, 8):
        running = running * pi
        assert pi_valuation(running) == v
    # products add valuations below cap
    a = pi * pi * PadicCycloElement.from_int(3, p, M)
    b = pi * PadicCycloElement.from_int(p, p, M)
    assert pi_valuation(a) == 2
    assert pi_valuation(b) == 1 + (p - 1)
    assert pi_valuation(a * b) == 3 + (p - 1)


def test_valuation_stable_under_precision_raise():
    p = 5
    for M in (2, 3, 4, 6):
        x = PadicCycloElement.from_int(2 * p, p, M)
        assert pi_valuation(x) == p - 1


def test_ring_axioms_random():
    rng = random.Random("padic")
    for p in (3, 5, 7, 11, 13):
        for M in (2, 4, 6):
            xs = [_random_padic(rng, p, M) for _ in range(3)]
            x, y, z = xs
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            assert x + x * -1 == PadicCycloElement(p, M, [0] * (p - 1))
            assert x * PadicCycloElement.one(p, M) == x


def test_mixed_precision_rejected():
    a = PadicCycloElement.one(5, 2)
    b = PadicCycloElement.one(5, 3)
    with pytest.raises(ValueError):
        a + b


def test_embed_cyclo():
    p, M = 7, 4
    z = embed_cyclo(root_of_unity(p, 1), p, M)
    assert z == PadicCycloElement(p, M, [0, 1] + [0] * (p - 3))
    assert pi_valuation(z + -1) == 1
    # zeta_{p-1} goes to the Teichmuller lift of the least primitive root
    w = embed_cyclo(root_of_unity(p - 1, 1), p, M)
    assert w == PadicCycloElement.from_int(teichmuller(3, p, M), p, M)
    acc = PadicCycloElement.one(p, M)
    for _ in range(p - 1):
        acc = acc * w
    assert acc == PadicCycloElement.one(p, M)


def test_embed_cyclo_homomorphism():
    rng = random.Random("embed")
    p, M = 7, 4
    for _ in range(50):
        x = _random_p_cyclo(rng, p)
        y = _random_p_cyclo(rng, p)
        ex = embed_cyclo(x, p, M)
        ey = embed_cyclo(y, p, M)
        assert embed_cyclo(x + y, p, M) == ex + ey
        assert embed_cyclo(x * y, p, M) == ex * ey


def test_embed_cyclo_rejects_p_denominator():
    with pytest.raises(ValueError):
        embed_cyclo(CycloElement.from_rational(Fraction(1, 7), 7), 7, 3)


def test_embed_cyclo_mixed_conductor():
    # conductor p(p-1) is allowed, with zeta_{p-1} = zeta_m^p
    p, M = 5, 3
    m = p * (p - 1)
    lift = PadicCycloElement.from_int(teichmuller(2, p, M), p, M)
    assert embed_cyclo(root_of_unity(m, p), p, M) == lift
    assert embed_cyclo(root_of_unity(m, p - 1), p, M) == PadicCycloElement(p, M, [0, 1, 0, 0])


def _folded_zeta_power(p, M, k, scalar=1):
    """scalar * zeta^k on the basis 1, ..., zeta^{p-2}, folding the overflow
    exponent by hand: zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})."""
    k %= p
    if k == p - 1:
        coeffs = [-scalar] * (p - 1)
    else:
        coeffs = [0] * (p - 1)
        coeffs[k] = scalar
    return PadicCycloElement(p, M, coeffs)


@pytest.mark.parametrize("p", [3, 5, 7, 31])
def test_zeta_power_and_embedding_match_hand_fold(p):
    M = 3
    for e in range(2 * p):
        assert embed_cyclo(root_of_unity(p, e), p, M) == _folded_zeta_power(p, M, e)
    # zeta_{p(p-1)} goes to teichmuller(rho) * zeta^{-1}
    m = p * (p - 1)
    omega = teichmuller(least_primitive_root(p), p, M)
    for e in range(m):
        expect = _folded_zeta_power(p, M, -e, pow(omega, e, p**M))
        assert embed_cyclo(root_of_unity(m, e), p, M) == expect


def test_precision_error_carries_hint():
    err = PrecisionError("too small", suggested_precision=4)
    assert isinstance(err, ValueError)
    assert err.suggested_precision == 4


def _schoolbook_mul(p, a, b):
    """Reference product: multiply mod zeta^p - 1, then subtract the top
    coefficient, since zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})."""
    conv = [0] * p
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[(i + j) % p] += x * y
    return [c - conv[-1] for c in conv[:-1]]


@st.composite
def _padic_pair(draw):
    p = draw(st.sampled_from((3, 5, 31, 47)))
    M = draw(st.integers(min_value=1, max_value=6))
    vec = st.lists(st.integers(0, p**M - 1), min_size=p - 1, max_size=p - 1)
    return p, M, draw(vec), draw(vec)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_padic_pair())
def test_mul_and_pow_match_schoolbook(data):
    p, M, a, b = data
    mod = p**M
    x, y = PadicCycloElement(p, M, a), PadicCycloElement(p, M, b)
    assert (x * y).coeffs == tuple(c % mod for c in _schoolbook_mul(p, a, b))
    expect = [1] + [0] * (p - 2)
    for k in range(10):
        assert (x**k).coeffs == tuple(c % mod for c in expect)
        expect = [c % mod for c in _schoolbook_mul(p, expect, a)]


@st.composite
def _embeddable_pair(draw):
    # a and b of conductors dividing p(p-1), denominators prime to p
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    M = draw(st.integers(min_value=1, max_value=6))
    coeff = st.builds(
        Fraction, st.integers(-30, 30), st.integers(1, 12).filter(lambda d: d % p)
    )

    def element():
        m = draw(st.sampled_from(divisor_list(p * (p - 1))))
        width = euler_phi(m)
        return CycloElement(m, draw(st.lists(coeff, min_size=width, max_size=width)))

    return p, M, element(), element()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_embeddable_pair())
def test_embed_cyclo_homomorphism_property(data):
    p, M, a, b = data
    ea, eb = embed_cyclo(a, p, M), embed_cyclo(b, p, M)
    assert embed_cyclo(a * b, p, M) == ea * eb
    assert embed_cyclo(a + b, p, M) == ea + eb


def _random_padic(rng, p, M):
    mod = p ** M
    return PadicCycloElement(p, M, [rng.randrange(mod) for _ in range(p - 1)])


def _random_p_cyclo(rng, p):
    # denominators prime to p so the embedding is defined
    from resolvendlab.numutil import euler_phi

    dens = [d for d in range(1, 8) if d % p]
    return CycloElement(
        p,
        [Fraction(rng.randrange(-9, 10), rng.choice(dens)) for _ in range(p - 1)],
    )


def _pi_digits_reference(x):
    """b_k = sum_i C(i, k) c_i mod p^M, from zeta^i = (1 + pi)^i term by term."""
    return tuple(
        sum(comb(i, k) * x.coeffs[i] for i in range(k, x.p - 1)) % x.modulus
        for k in range(x.p - 1)
    )


def _kernel_operands(p, M):
    # zero, the all-(p^M - 1) vector that fills the widest slots, and randoms
    mod = p**M
    rng = random.Random("kernels-%d-%d" % (p, M))
    vecs = [[0] * (p - 1), [mod - 1] * (p - 1), [mod - 1] + [0] * (p - 2)]
    vecs += [[rng.randrange(mod) for _ in range(p - 1)] for _ in range(4)]
    return [PadicCycloElement(p, M, v) for v in vecs]


_KERNEL_CASES = [(p, M) for p in (3, 5, 31, 47, 59) for M in (1, 6)]


@pytest.mark.parametrize("p, M", _KERNEL_CASES)
def test_pi_digits_match_binomial_reference(p, M):
    for x in _kernel_operands(p, M):
        assert x.pi_digits() == _pi_digits_reference(x)


@pytest.mark.parametrize("p, M", _KERNEL_CASES)
def test_packed_product_matches_schoolbook(p, M):
    mod = p**M
    xs = _kernel_operands(p, M)
    for x in xs:
        square = tuple(c % mod for c in _schoolbook_mul(p, x.coeffs, x.coeffs))
        assert (x * x).coeffs == square  # one packed operand, squared
        assert (x * PadicCycloElement(p, M, x.coeffs)).coeffs == square
        for y in xs:
            assert (x * y).coeffs == tuple(c % mod for c in _schoolbook_mul(p, x.coeffs, y.coeffs))


@pytest.mark.parametrize("nbytes", range(1, 13))
def test_pack_unpack_round_trip(nbytes):
    rng = random.Random(nbytes)
    top = 256**nbytes - 1
    # both sides of the shift-and-mask cut-off, and 976 slots, a gauss power
    # sum at p = 61
    cut = _SHIFT_BYTES // nbytes
    for length in (1, 2, 7, 40, cut, cut + 1, 976):
        vec = [rng.randrange(top + 1) for _ in range(length)]
        vec[0], vec[-1] = top, 0  # a full low slot and an empty high slot
        assert _unpack(_pack(vec, nbytes), length, nbytes) == vec
    assert _pack([], nbytes) == 0 and _unpack(0, 3, nbytes) == [0, 0, 0]


@pytest.mark.parametrize("nbytes", [1, 3, 10])
def test_unpack_rejects_a_value_outside_its_slots(nbytes):
    for length in (4, _SHIFT_BYTES // nbytes + 1):  # either side of the cut-off
        top = 1 << (8 * nbytes * length)
        assert _unpack(top - 1, length, nbytes) == [256**nbytes - 1] * length
        for bad in (-1, -top, top, top + 1, top << 8):
            with pytest.raises(OverflowError):
                _unpack(bad, length, nbytes)


def _pi_valuation_reference(x):
    """The least (p-1)*v_p(b_k) + k over the nonzero pi-digits b_k, digit by
    digit; AT_CAP when every digit is zero."""
    p = x.p
    vals = []
    for k, b in enumerate(x.pi_digits()):
        if b:
            vp = 0
            while b % p == 0:
                b //= p
                vp += 1
            vals.append((p - 1) * vp + k)
    return min(vals, default=AT_CAP)


def _from_pi_digits(p, M, digits):
    """The element sum b_i pi^i, from pi^i = sum_j C(i, j) (-1)^(i-j) zeta^j."""
    mod = p**M
    n = p - 1
    coeffs = [
        sum(digits[i] * comb(i, j) * (-1) ** (i - j) for i in range(j, n)) % mod
        for j in range(n)
    ]
    x = PadicCycloElement(p, M, coeffs)
    assert x.pi_digits() == tuple(b % mod for b in digits)
    return x


def _unit(rng, p, mod):
    u = rng.randrange(1, mod)
    return u if u % p else u + 1


@pytest.mark.parametrize("M", [1, 2, 6])
@pytest.mark.parametrize("p", [3, 5, 7, 31, 47])
def test_pi_valuation_matches_per_digit_reference(p, M):
    mod = p**M
    n = p - 1
    rng = random.Random("valuation-%d-%d" % (p, M))
    cases = [([0] * n, AT_CAP), ([1] + [0] * (n - 1), 0)]
    cases.append(([_unit(rng, p, mod)] + [rng.randrange(mod) for _ in range(n - 1)], 0))
    for a in range(M):
        for k in sorted({0, 1, n // 2, n - 1}):
            # level a first reached at digit k, the digits before k one level
            # higher: for k > 0 and a < M - 1 the first nonzero digit is not
            # the one of least valuation
            digits = [p ** (a + 1) * _unit(rng, p, mod) % mod for _ in range(k)]
            digits.append(p**a * _unit(rng, p, mod) % mod)
            digits += [p**a * rng.randrange(mod) % mod for _ in range(n - k - 1)]
            cases.append((digits, (p - 1) * a + k))
    for _ in range(12):
        digits = [p ** rng.randrange(M + 1) * rng.randrange(mod) % mod for _ in range(n)]
        cases.append((digits, None))
    for digits, expect in cases:
        x = _from_pi_digits(p, M, digits)
        v = pi_valuation(x)
        assert v == _pi_valuation_reference(x)
        if expect is not None:
            assert v == expect


def test_copy_and_pickle_round_trip():
    p, M = 7, 3
    rng = random.Random("copy")
    x = _random_padic(rng, p, M)
    y = _random_padic(rng, p, M)
    square, product = (x * x).coeffs, (x * y).coeffs
    clones = [copy.copy(x), copy.deepcopy(x)]
    clones += [
        pickle.loads(pickle.dumps(x, protocol))
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
    ]
    for z in clones:
        assert z is not x and z == x
        assert (z.p, z.precision, z.modulus) == (x.p, x.precision, x.modulus)
        assert (z * z).coeffs == square
        assert (z * y).coeffs == product and (y * z).coeffs == product
        assert z.coeffs == x.coeffs
