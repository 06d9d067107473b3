import random
from itertools import count
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvendlab.cyclotomic import (
    CycloElement,
    _mul_rows,
    _reduce,
    _reduction_rows,
    cyclotomic_polynomial,
    galois_map,
    root_of_unity,
)
from resolvendlab.abelian import FiniteAbelianGroup
from resolvendlab.gauss import (
    MultiplicativeCharacter,
    ResidueSubgroup,
    character_sum_identity,
    gauss_sum,
    gauss_sum_padic,
    gauss_valuation,
    verify_translation,
)
from resolvendlab.groupring import GroupMap, GroupRingElement
from resolvendlab.numutil import euler_phi, factorize, is_prime, odd_prime
from resolvendlab.padic import PadicCycloElement, embed_cyclo, teichmuller
from resolvendlab.ramify import RamificationFiltration
from resolvendlab.stickelberger import EquivariantMap, kappa_twist
from resolvendlab.wildsym import (
    WildContext,
    WildElement,
    WildMonomial,
    c_of,
    conjugate_check,
    omega_action,
    omega_monomial,
    resolvent_at,
    tau_action,
)


def test_cyclotomic_polynomial():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree phi(m)
    assert len(cyclotomic_polynomial(35)) == 25


def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    # x^m - 1 = prod over d | m of Phi_d, a route that uses no Moebius sign
    for m in range(1, 301):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = _polymul_nested(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (m - 1) + [1]


def test_root_of_unity_basics():
    one = root_of_unity(1, 0)
    assert one.as_rational() == 1
    z = root_of_unity(3, 1)
    assert z + root_of_unity(3, 2) == CycloElement.from_rational(-1, 3)
    # order of zeta_m^k is m/gcd(m,k)
    assert root_of_unity(12, 8) == root_of_unity(3, 2).raise_conductor(12)
    assert bool(CycloElement.zero(5)) is False
    assert bool(root_of_unity(5)) is True


def test_compatibility_convention():
    # zeta_6^2 = zeta_3 under the compatible-root convention
    assert root_of_unity(6, 1) ** 2 == root_of_unity(3, 1).raise_conductor(6)
    assert root_of_unity(15, 5) == root_of_unity(3, 1).raise_conductor(15)


def test_phi5_product():
    prod = CycloElement.one(5)
    for k in range(1, 5):
        prod = prod * (CycloElement.one(5) - root_of_unity(5, k))
    assert prod.as_rational() == 5


def test_field_inverse():
    rng = random.Random("inverse")
    for _ in range(50):
        m = rng.choice([3, 4, 5, 7, 8, 9, 12, 15, 24])
        x = _random_cyclo(rng, m)
        if x.is_zero():
            continue
        assert x * x.inverse() == CycloElement.one(m)
    # two large prime conductors, phi = 30 and 58
    for m in (31, 59):
        x = _random_cyclo(rng, m)
        assert x * x.inverse() == CycloElement.one(m)
    with pytest.raises(ZeroDivisionError):
        CycloElement.zero(5).inverse()


def test_field_axioms_random():
    rng = random.Random("axioms")
    for m in (3, 4, 5, 7, 8, 9, 12, 15, 35):
        for _ in range(8):
            x = _random_cyclo(rng, m)
            y = _random_cyclo(rng, m)
            z = _random_cyclo(rng, m)
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            assert x + y == y + x
            assert x - x == CycloElement.zero(m)


def test_mixed_conductor_ops():
    a = root_of_unity(3, 1)
    b = root_of_unity(5, 1)
    c = a + b
    assert c.conductor == 15
    assert c - b.raise_conductor(15) == a.raise_conductor(15)


def test_root_collapse():
    # sum over zeta_p^{jk} collapses to p or 0
    for p in (3, 5, 7):
        for j in range(p):
            total = CycloElement.zero(p)
            for k in range(p):
                total = total + root_of_unity(p, j * k)
            if j % p == 0:
                assert total.as_rational() == p
            else:
                assert total.is_zero()


def test_galois_map():
    z = root_of_unity(3, 1)
    assert galois_map(2, z) == root_of_unity(3, 2)
    const = CycloElement.from_rational(Fraction(7, 3), 15)
    assert galois_map(2, const) == const
    with pytest.raises(ValueError):
        galois_map(3, root_of_unity(9, 1))


def test_galois_composition():
    rng = random.Random("galois")
    m = 15
    units = [u for u in range(1, m) if _gcd(u, m) == 1]
    for _ in range(50):
        x = _random_cyclo(rng, m)
        for u in units:
            for v in units:
                assert galois_map(u, galois_map(v, x)) == galois_map(u * v % m, x)
        break  # one random element against all unit pairs per run is plenty
    # a full-orbit trace lands in Q: each of the three conjugates of
    # zeta_7 + zeta_7^6 appears twice over the six powers of u = 3
    gen = 3
    x = root_of_unity(7, 1) + root_of_unity(7, 6)
    orbit = x
    y = x
    for _ in range(5):
        y = galois_map(gen, y)
        orbit = orbit + y
    assert orbit.as_rational() == -2


def test_from_terms_and_mul_root():
    x = CycloElement.from_terms(5, [(1, 0), (2, 1), (1, 6)])
    assert x == CycloElement.one(5) + CycloElement.from_rational(3, 5) * root_of_unity(5, 1)
    assert root_of_unity(5, 2).mul_root(4) == root_of_unity(5, 1)
    assert x.mul_root(0) == x


def test_rejects_floats():
    with pytest.raises(TypeError):
        CycloElement(3, [0.5, 0])
    with pytest.raises(TypeError):
        CycloElement.one(3) * 0.5
    with pytest.raises(TypeError):
        CycloElement.one(3) - 0.5


def _group_map_value(conductor, value):
    g = FiniteAbelianGroup([3])
    return GroupMap.constant(g, conductor, value)(g.elements()[0])


def _wild_coefficient(conductor, value):
    return WildElement(conductor, {WildMonomial.one(): value}).coeffs[WildMonomial.one()]


def test_field_scalars_have_one_owner():
    # GroupMap and WildElement read their values through one rule
    messages = set()
    for value_at in (_group_map_value, _wild_coefficient):
        with pytest.raises(ValueError) as info:
            value_at(3, root_of_unity(5))
        messages.add(str(info.value))
        with pytest.raises(TypeError):
            value_at(3, 0.5)
        # a value at a conductor dividing the ambient one is raised to it
        for value in (CycloElement.from_rational(2), root_of_unity(3), Fraction(1, 2)):
            got = value_at(3, value)
            assert got == value and got.conductor == 3
    assert messages == {"value conductor 5 does not divide 3"}


_G3 = FiniteAbelianGroup([3])
_PADIC_ONE = PadicCycloElement.one(7, 3)

# (site, the site applied to a value, an integer value, its expected result)
_INTEGER_SITES = [
    ("cyclo-pow", lambda k: root_of_unity(7) ** k, 3, root_of_unity(7, 3)),
    ("padic-init", lambda c: PadicCycloElement(7, 3, [c, 0, 0, 0, 0, 0]), 2, 2),
    ("padic-from-int", lambda c: PadicCycloElement.from_int(c, 7, 3), 2, 2),
    ("padic-sub", lambda c: _PADIC_ONE - c, 1, 0),
    ("padic-pow", lambda k: PadicCycloElement.zeta_power(7, 3, 1) ** k, 7, 1),
    (
        "monomial-init",
        lambda e: WildMonomial({(0, 1): e}),
        2,
        WildMonomial.symbol(1, power=2),
    ),
    (
        "monomial-pow",
        lambda e: WildMonomial.symbol(1, power=3) ** e,
        2,
        WildMonomial.symbol(1, power=6),
    ),
    ("coords-new", lambda c: _G3.element([c]), 4, _G3.element([1])),
    ("coords-pow", lambda k: _G3.element([1]) ** k, 2, _G3.element([2])),
]


@pytest.mark.parametrize(
    "apply, good, expect", [s[1:] for s in _INTEGER_SITES], ids=[s[0] for s in _INTEGER_SITES]
)
def test_integer_inputs_reject_non_integers(apply, good, expect):
    # a float or Fraction is refused, never truncated to an integer
    assert apply(good) == expect
    for bad in (0.5, 1.5, Fraction(1, 2), Fraction(1, 3)):
        with pytest.raises(TypeError):
            apply(bad)


_PHI = MultiplicativeCharacter(11, 5)
_CTX = WildContext(11, 5)
_Y1 = WildElement.monomial(11, WildMonomial.symbol(1))
_TWIST_MAP = EquivariantMap(_G3, 1, {s: 0 for s in _G3.elements()})

# (site, the site applied to an integer parameter); each accepts 7
_PARAMETER_SITES = [
    ("cyclo-init", lambda n: CycloElement(n, [0] * 6)),
    ("cyclo-zero", lambda n: CycloElement.zero(n)),
    ("cyclo-from-rational", lambda n: CycloElement.from_rational(1, n)),
    ("cyclo-from-terms", lambda n: root_of_unity(n)),
    ("cyclo-raise", lambda n: CycloElement.one().raise_conductor(n)),
    ("galois-map", lambda u: galois_map(u, root_of_unity(9))),
    ("container", lambda n: GroupRingElement.identity(FiniteAbelianGroup([7]), n)),
    ("factorize", factorize),
    ("is-prime", is_prime),
    ("odd-prime", odd_prime),
    ("layer-n", lambda n: MultiplicativeCharacter(29, n)),
    ("padic-precision", lambda m: teichmuller(2, 7, m)),
    ("embed-precision", lambda m: embed_cyclo(root_of_unity(7), 7, m)),
    ("gauss-sum-j", lambda j: gauss_sum(_PHI, j)),
    ("gauss-padic-j", lambda j: gauss_sum_padic(_PHI, j, 3)),
    ("gauss-padic-precision", lambda m: gauss_sum_padic(_PHI, 1, m)),
    ("translation-j", lambda j: verify_translation(_PHI, j)),
    ("valuation-j", lambda j: gauss_valuation(_PHI, j, 3)),
    ("valuation-precision", lambda m: gauss_valuation(_PHI, 1, m)),
    ("character-sum-j", lambda j: character_sum_identity(_PHI, j)),
    ("residue-member", lambda k: k in ResidueSubgroup(29, 4)),
    ("group-factors", lambda d: FiniteAbelianGroup([d])),
    ("filtration-orders", lambda g: RamificationFiltration([g, 1])),
    ("kappa-twist", lambda u: kappa_twist(u, FiniteAbelianGroup([9]).element([1]))),
    ("equivariant-twist", lambda t: EquivariantMap(_G3, t, _TWIST_MAP.values)),
    ("equivariant-unit", lambda u: _TWIST_MAP.check_equivariance([u], lambda u, v: v)),
    ("monomial-index", lambda i: WildMonomial.symbol(i)),
    ("monomial-tag", lambda t: WildMonomial.symbol(1, tag=t)),
    ("context-tag", lambda t: WildContext(11, 5, tag=t)),
    ("c-of", lambda i: c_of(i, 11)),
    ("context-character", lambda k: _CTX.character(k)),
    ("summand-monomial", lambda k: _CTX.summand_monomial(k)),
    ("collapse-monomial", lambda k: _CTX.collapse_monomial(k)),
    ("tau-action", lambda j: tau_action(j, _Y1)),
    ("omega-monomial", lambda j: omega_monomial(j, WildMonomial.symbol(1), 11)),
    ("omega-action", lambda j: omega_action(j, _Y1)),
    ("conjugate-j", lambda j: conjugate_check(_CTX, j, 1)),
    ("conjugate-k", lambda k: conjugate_check(_CTX, 1, k)),
    ("resolvent-at", lambda k: resolvent_at(_CTX, k)),
]


@pytest.mark.parametrize(
    "apply", [s[1] for s in _PARAMETER_SITES], ids=[s[0] for s in _PARAMETER_SITES]
)
def test_integer_parameters_reject_non_integers(apply):
    # every integer parameter goes through operator.index, so a value near
    # 7 is refused where int() would have truncated it to 7
    apply(7)
    for bad in (7.5, Fraction(15, 2)):
        with pytest.raises(TypeError):
            apply(bad)


def test_subtract_scalars():
    x = CycloElement.from_terms(5, [(2, 1), (1, 0)])
    z = root_of_unity(5, 1) + root_of_unity(5, 1)
    assert x - 1 == z
    assert x - CycloElement.one(5) == z
    assert 1 - x == -z
    assert x - Fraction(1, 3) == z + Fraction(2, 3)


def test_unhashable():
    with pytest.raises(TypeError):
        hash(CycloElement.one(3))


def test_str_and_json():
    x = CycloElement.from_rational(Fraction(1, 2), 5) + root_of_unity(5, 1)
    doc = x.to_json()
    assert doc[0] == 5
    assert "z" in str(root_of_unity(5, 1))


def test_pow():
    z = root_of_unity(7, 3)
    assert z ** 7 == CycloElement.one(7)
    assert z ** -1 == root_of_unity(7, 4)
    assert (z + CycloElement.one(7)) ** 0 == CycloElement.one(7)


_fractions = st.fractions(min_value=-60, max_value=60, max_denominator=36)


@st.composite
def _vectors(draw, count, coeffs=_fractions):
    """A conductor up to 60 and count Fraction vectors of length phi(m)."""
    m = draw(st.integers(min_value=1, max_value=60))
    phi = euler_phi(m)
    vec = st.lists(coeffs, min_size=phi, max_size=phi)
    return m, [draw(vec) for _ in range(count)]


def _assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert len(x.num) == euler_phi(x.conductor)


_property = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@_property
@given(_vectors(1))
def test_canonical_form_and_views(data):
    m, (vec,) = data
    x = CycloElement(m, vec)
    _assert_canonical(x)
    reduced = tuple(Fraction(c) for c in vec)
    assert x.coeffs == reduced
    assert x.to_json() == [m, [[c.numerator, c.denominator] for c in reduced]]
    assert x.is_zero() == (not any(reduced))


@_property
@given(_vectors(2))
def test_arithmetic_matches_fraction_reference(data):
    # reference route: one Fraction per coefficient, schoolbook product
    m, (u, v) = data
    x, y = CycloElement(m, u), CycloElement(m, v)
    total, diff, prod = x + y, x - y, x * y
    for z in (total, diff, prod, -x, x * Fraction(-3, 4)):
        _assert_canonical(z)
    assert total.coeffs == tuple(a + b for a, b in zip(u, v))
    assert diff.coeffs == tuple(a - b for a, b in zip(u, v))
    assert prod.coeffs == tuple(_reduce_frac_mod(m, _polymul_frac(list(u), list(v))))
    assert (x * Fraction(-3, 4)).coeffs == tuple(a * Fraction(-3, 4) for a in u)


@_property
@given(_vectors(1))
def test_pow_matches_repeated_product(data):
    m, (vec,) = data
    x = CycloElement(m, vec)
    expect = CycloElement.one(m)
    for k in range(10):
        assert x**k == expect
        expect = expect * x
    if not x.is_zero():
        inv, expect = x.inverse(), CycloElement.one(m)
        for k in range(1, 4):
            expect = expect * inv
            assert x**-k == expect


# small coefficients: the inverse of an inverse multiplies conjugates whose
# coefficients run to thousands of bits at phi(m) near 60
@_property
@given(_vectors(2, st.fractions(min_value=-9, max_value=9, max_denominator=9)))
def test_inverse_is_involutive_and_multiplicative(data):
    m, (u, v) = data
    x, y = CycloElement(m, u), CycloElement(m, v)
    if x.is_zero() or y.is_zero():
        return
    inv = x.inverse()
    _assert_canonical(inv)
    assert inv.inverse() == x
    assert (x * y).inverse() == inv * y.inverse()


# every conductor up to 120, and the gauss conductors p(p-1) for odd p <= 31
_ROW_CONDUCTORS = sorted(
    set(range(1, 121)) | {p * (p - 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)}
)


@pytest.mark.parametrize("m", _ROW_CONDUCTORS)
def test_reduction_rows_match_long_division(m):
    # the remainder of x^k is x times the remainder of x^{k-1}, less its
    # top coefficient times Phi_m: one step of dense long division each
    phi = euler_phi(m)
    mono = cyclotomic_polynomial(m)
    expect = []
    rem = [0] * phi + [1]  # x^phi before its division step
    for _ in range(phi, m):
        top = rem[phi]
        rem = [r - top * c for r, c in zip(rem, mono)]
        expect.append(tuple((i, c) for i, c in enumerate(rem[:phi]) if c))
        rem = [0] + rem[:phi]
    assert _reduction_rows(m) == tuple(expect)


@st.composite
def _long_vectors(draw):
    m = draw(st.integers(min_value=1, max_value=60))
    vec = draw(st.lists(st.integers(-(10**6), 10**6), max_size=3 * m))
    return m, vec


@_property
@given(_long_vectors())
def test_reduce_matches_descending_reference(data):
    m, vec = data
    assert _reduce(m, zip(vec, count())) == _reduce_descending(m, vec)


@st.composite
def _integer_terms(draw):
    m = draw(st.integers(min_value=1, max_value=60))
    term = st.tuples(st.integers(-50, 50), st.integers(-3 * m, 3 * m))
    return m, draw(st.lists(term, max_size=20)), draw(st.integers(2, 36))


@_property
@given(_integer_terms())
def test_from_terms_over_den_matches_fraction_route(data):
    # the same sum with one Fraction per term, reduced by long division and
    # handed to the constructor
    m, terms, den = data
    dense = [Fraction(0)] * m
    for c, e in terms:
        dense[e % m] += Fraction(c, den)
    got = CycloElement.from_terms(m, terms, den)
    _assert_canonical(got)
    assert got == CycloElement(m, _reduce_frac_mod(m, dense))


@pytest.mark.parametrize("m", [1, 3, 7, 9, 15, 21, 30, 33])
def test_mul_rows_match_product(m):
    # integral operands, so the dot products are the product's numerators;
    # at the primes phi(m) = m - 1 and every product wraps past x^m = 1
    rng = random.Random("mul-rows:%d" % m)
    phi = euler_phi(m)
    for bits in (3, 40, 400):
        for _ in range(4):
            a, b = (
                CycloElement(m, [rng.randrange(-(2**bits), 2**bits) for _ in range(phi)])
                for _ in range(2)
            )
            rows = _mul_rows(b.conductor, b.num)
            assert len(rows) == phi and all(len(row) == phi for row in rows)
            assert [sum(x * y for x, y in zip(row, a.num)) for row in rows] == (
                _reduce_descending(m, _polymul_nested(a.num, b.num))
            )


def _unbalanced(rng, length, bits):
    # signed coefficients up to bits wide, the extremes and zeros included
    top = 2**bits - 1
    pool = (0, top, -top, 1, -1)
    return [
        rng.choice(pool) if rng.random() < 0.2 else rng.randint(-top, top)
        for _ in range(length)
    ]


def _polymul_nested(a, b):
    # every (i, j) pair, zeros included, summed into a fresh column
    return [
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    ]


@pytest.mark.parametrize("wide_bits", [1, 64, 3700, 20000])
def test_product_matches_schoolbook_on_unbalanced_widths(wide_bits):
    # one operand as wide as a unit-inverse value, the other 1-8 bits; a
    # short operand is a full vector whose top coefficients are zero
    rng = random.Random("unbalanced:%d" % wide_bits)
    shapes = [(1, 1, 1), (15, 8, 8), (29, 28, 28), (33, 20, 1), (56, 24, 7), (35, 24, 24)]
    for m, la, lb in shapes:
        phi = euler_phi(m)
        for narrow_bits in (1, 4, 8):
            wide = _unbalanced(rng, la, wide_bits) + [0] * (phi - la)
            narrow = _unbalanced(rng, lb, narrow_bits) + [0] * (phi - lb)
            want = tuple(_reduce_descending(m, _polymul_nested(wide, narrow)))
            x, y = CycloElement(m, wide), CycloElement(m, narrow)
            assert (x * y).num == (y * x).num == want


def test_inverse_times_self_is_one_at_conductor_33():
    # x * x^-1 = 1 at phi(33) = 20, where the adjugate is a product of 19
    # conjugates; the seed string keeps the sampled elements fixed
    rng = random.Random("inverse-packed")
    for _ in range(2):
        x = CycloElement(33, [rng.randint(-3, 3) for _ in range(euler_phi(33))])
        if x:
            assert x * x.inverse() == 1


# Fraction-per-coefficient reference route for the product


def _strip(poly):
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _polymul_frac(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _strip(out)


def _reduce_descending(m, vec):
    """Reference reduction mod Phi_m: plain long division, clearing exponents
    from the top down with x^phi = sum t_i x^i.  It neither folds by x^m = 1
    nor reads the sparse rows, the two steps of the kernel under test."""
    phi = euler_phi(m)
    vec = list(vec)
    if len(vec) > phi:
        tail_nz = [(i, -c) for i, c in enumerate(cyclotomic_polynomial(m)[:-1]) if c]
        for k in range(len(vec) - 1, phi - 1, -1):
            c = vec[k]
            if c:
                vec[k] = 0
                base = k - phi
                for i, t in tail_nz:
                    vec[base + i] += c * t
        del vec[phi:]
    while len(vec) < phi:
        vec.append(0)
    return vec


def _reduce_frac_mod(m, poly):
    den = 1
    for c in poly:
        den = lcm(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in poly]
    red = _reduce_descending(m, ints)
    return [Fraction(v, den) for v in red]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _random_cyclo(rng, m):
    from resolvendlab.numutil import euler_phi

    return CycloElement(
        m,
        [
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            for _ in range(euler_phi(m))
        ],
    )
