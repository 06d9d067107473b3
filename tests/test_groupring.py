import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvendlab import groupring, suites
from resolvendlab.abelian import (
    FiniteAbelianGroup,
    char_exponent,
    char_table,
    dual_enumerate,
    mul_table,
)
from resolvendlab.cyclotomic import CycloElement, root_of_unity
from resolvendlab.groupring import (
    CharacterVector,
    GroupMap,
    GroupRingElement,
    inverse_transform,
    is_unit,
    reduced_equal,
    resolvend,
    resolvend_to_map,
    resolvent,
    transform,
    unit_inverse,
    unit_pair_check,
)
from resolvendlab.numutil import euler_phi
from resolvendlab.wildsym import WildElement, WildMonomial, omega_action, tau_action


def _random_map(rng, group, conductor):
    from resolvendlab.numutil import euler_phi

    width = euler_phi(conductor)
    return GroupMap(
        group,
        conductor,
        {
            s: CycloElement(
                conductor,
                [Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)) for _ in range(width)],
            )
            for s in group.elements()
        },
    )


def test_resolvend_indicator():
    g = FiniteAbelianGroup((9,))
    a = GroupMap.indicator(g, 9, g.identity())
    assert resolvend(a) == GroupRingElement.identity(g, 9)
    s0 = g.element((2,))
    r = resolvend(GroupMap.indicator(g, 9, s0))
    # coefficient sits at s0^{-1}
    assert r(s0.inverse()) == CycloElement.one(9)
    assert r(s0) == CycloElement.zero(9)


def test_resolvend_roundtrip():
    rng = random.Random("roundtrip")
    for factors in [(3,), (9,), (3, 3), (15,), (2, 4)]:
        g = FiniteAbelianGroup(factors)
        n = g.exponent
        for _ in range(8):
            a = _random_map(rng, g, n)
            assert resolvend_to_map(resolvend(a)) == a


def test_resolvent_orthogonality():
    g = FiniteAbelianGroup((9,))
    ones = GroupMap.constant(g, 9, CycloElement.one(9))
    for chi in dual_enumerate(g):
        got = resolvent(ones, chi)
        if chi.is_identity():
            assert got.as_rational() == 9
        else:
            assert got.is_zero()
    point = GroupMap.indicator(g, 9, g.identity())
    for chi in dual_enumerate(g):
        assert resolvent(point, chi) == CycloElement.one(9)


def test_resolvent_rejects_a_character_of_another_group():
    # groups are canonical, so a map on Z/3 has no resolvent at a character
    # of Z/9
    g3, g9 = FiniteAbelianGroup((3,)), FiniteAbelianGroup((9,))
    a = GroupMap.indicator(g3, 3, g3.identity())
    with pytest.raises(ValueError, match="does not live on"):
        resolvent(a, g9.character((1,)))


def test_inverse_transform_examples():
    from resolvendlab.groupring import CharacterVector

    g = FiniteAbelianGroup((9,))
    ones = CharacterVector.constant(g, 9, CycloElement.one(9))
    assert inverse_transform(ones) == GroupMap.indicator(g, 9, g.identity())
    # phi(chi) = chi(s0)^{-1} pulls back to the indicator of s0
    s0 = g.element((4,))
    phi = CharacterVector.from_function(
        g, 9, lambda chi: root_of_unity(9, -char_exponent(g, chi, s0))
    )
    assert inverse_transform(phi) == GroupMap.indicator(g, 9, s0)


def test_containers_reject_the_other_key_domain():
    g = FiniteAbelianGroup((3,))
    with pytest.raises(ValueError, match="every character"):
        CharacterVector(g, 3, {s: 1 for s in g.elements()})
    with pytest.raises(ValueError, match="every group element"):
        GroupMap(g, 3, {chi: 1 for chi in dual_enumerate(g)})


def test_transform_roundtrip():
    rng = random.Random("transform")
    g = FiniteAbelianGroup((3, 3))
    for _ in range(50):
        a = _random_map(rng, g, 3)
        r = resolvend(a)
        assert inverse_transform(transform(r)) == a
        for chi in dual_enumerate(g):
            assert transform(r)(chi) == resolvent(a, chi)
        break  # the per-character loop is the expensive half; one pass suffices


@pytest.mark.parametrize("literal", ["3", "9", "3,3", "15", "2,4", "30"])
def test_transform_of_group_element_is_character_value(literal):
    # a sign or offset slip in transform can cancel in a round trip, so
    # check transform(s)(chi) = chi(s) against the root built directly
    g = FiniteAbelianGroup.from_literal(literal)
    m = g.exponent
    for n in (m, 2 * m):
        for s in g.elements():
            r = GroupRingElement(g, n, {t: int(t == s) for t in g.elements()})
            values = transform(r)
            for chi in dual_enumerate(g):
                assert values(chi) == root_of_unity(n, (n // m) * char_exponent(g, chi, s))


_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def _group_values(draw):
    # one value of conductor exp(G) per group element, or per character
    g = FiniteAbelianGroup.from_literal(draw(st.sampled_from(("3", "5", "3,3", "15"))))
    width = euler_phi(g.exponent)
    vec = st.lists(_fractions, min_size=width, max_size=width)
    return g, [CycloElement(g.exponent, draw(vec)) for _ in range(g.order)]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_group_values())
def test_transform_roundtrip_property(data):
    g, values = data
    a = GroupMap(g, g.exponent, dict(zip(g.elements(), values)))
    assert inverse_transform(transform(resolvend(a))) == a
    phi = CharacterVector(g, g.exponent, dict(zip(dual_enumerate(g), values)))
    assert transform(resolvend(inverse_transform(phi))) == phi


def test_convolution_diagonalization():
    rng = random.Random("conv")
    g = FiniteAbelianGroup((9,))
    for _ in range(10):
        a = _random_map(rng, g, 9)
        b = _random_map(rng, g, 9)
        lhs = transform(resolvend(a) * resolvend(b))
        rhs = transform(resolvend(a)).pointwise_mul(transform(resolvend(b)))
        assert lhs == rhs


def test_involution():
    # resolvend applied to a group-ring element is the involution s -> s^{-1}
    g = FiniteAbelianGroup((7,))
    assert resolvend(GroupRingElement.identity(g, 7)) == GroupRingElement.identity(g, 7)
    s0 = g.element((3,))
    r = resolvend(GroupMap.indicator(g, 7, s0))
    assert resolvend(r)(s0) == r(s0.inverse())
    rng = random.Random("involution")
    for _ in range(10):
        r = resolvend(_random_map(rng, g, 7))
        tr = transform(resolvend(r))
        base = transform(r)
        for chi in dual_enumerate(g):
            assert tr(chi) == base(chi.inverse())


def test_is_unit():
    g = FiniteAbelianGroup((9,))
    assert is_unit(GroupRingElement.identity(g, 9))
    # constant map vanishes at every nontrivial character
    const = GroupMap.constant(g, 9, CycloElement.one(9))
    assert not is_unit(resolvend(const))
    assert not unit_pair_check(const)
    assert unit_pair_check(GroupMap.indicator(g, 9, g.identity()))


@pytest.mark.parametrize("literal", ["15", "30"])
def test_unit_pair_check_takes_each_inverse_pair_once(monkeypatch, literal):
    g = FiniteAbelianGroup.from_literal(literal)
    chars = dual_enumerate(g)
    seen = []
    real = groupring.resolvent

    def counting(a, chi):
        seen.append(chi)
        return real(a, chi)

    monkeypatch.setattr(groupring, "resolvent", counting)
    assert unit_pair_check(GroupMap.indicator(g, g.exponent, g.identity()))
    self_inverse = sum(chi.inverse() is chi for chi in chars)
    assert len(seen) <= len(chars) + self_inverse
    assert set(seen) == set(chars)


def test_unit_pair_check_sees_a_zero_at_a_self_inverse_character(monkeypatch):
    g = FiniteAbelianGroup((30,))
    (order_two,) = [
        chi for chi in dual_enumerate(g) if chi.inverse() is chi and not chi.is_identity()
    ]
    real = groupring.resolvent

    def vanishing(a, chi):
        value = real(a, chi)
        return value * 0 if chi is order_two else value

    unit = GroupMap.indicator(g, 30, g.identity())
    assert unit_pair_check(unit)
    monkeypatch.setattr(groupring, "resolvent", vanishing)
    assert not unit_pair_check(unit)


def test_unit_inverse():
    rng = random.Random("units")
    g = FiniteAbelianGroup((15,))
    seen = 0
    while seen < 20:
        r = resolvend(_random_map(rng, g, 15))
        if not is_unit(r):
            continue
        seen += 1
        assert unit_inverse(r) * r == GroupRingElement.identity(g, 15)


def test_reduced_equal():
    rng = random.Random("reduced")
    g = FiniteAbelianGroup((7,))
    r = resolvend(_random_map(rng, g, 7))
    assert is_unit(r)
    assert reduced_equal(r, r) == g.identity()
    s0 = g.element((4,))
    assert reduced_equal(r, r * s0) == s0
    # scaling by 2 is not a character-value vector of any group element
    two = GroupRingElement(
        g,
        7,
        {
            s: CycloElement.from_rational(2, 7)
            if s.is_identity()
            else CycloElement.zero(7)
            for s in g.elements()
        },
    )
    assert reduced_equal(r, r * two) is None


def test_reduced_equal_rejects_nonunits():
    g = FiniteAbelianGroup((9,))
    const = resolvend(GroupMap.constant(g, 9, CycloElement.one(9)))
    good = GroupRingElement.identity(g, 9)
    # the unit's transform is held by then, and must not vouch for const
    assert is_unit(good)
    for a, b in ((const, good), (good, const)):
        with pytest.raises(ValueError):
            reduced_equal(a, b)


def test_reduced_equal_witnesses_compose():
    rng = random.Random("cosets")
    g = FiniteAbelianGroup((3, 3))
    r = resolvend(_random_map(rng, g, 3))
    assert is_unit(r)
    s1 = g.element((1, 2))
    s2 = g.element((2, 2))
    w1 = reduced_equal(r, r * s1)
    w2 = reduced_equal(r * s1, r * s1 * s2)
    assert w1 * w2 == reduced_equal(r, r * s1 * s2)


def _per_pair_product(a, b):
    # the group-ring product one pair at a time over the values as they are,
    # with no common denominator: the reference for the lifted product
    out = {s: CycloElement.zero() for s in a.group.elements()}
    for s, cs in a.values.items():
        if cs.is_zero():
            continue
        for t, ct in b.values.items():
            if ct.is_zero():
                continue
            st = s * t
            out[st] = out[st] + cs * ct
    return GroupRingElement(a.group, lcm(a.conductor, b.conductor), out)


def _assert_product_matches_reference(a, b):
    got, want = a * b, _per_pair_product(a, b)
    assert got.conductor == want.conductor
    assert got.values == want.values
    assert [v.conductor for v in got.values.values()] == [
        v.conductor for v in want.values.values()
    ]
    assert got.to_json() == want.to_json()


def _with_zeros(rng, r, share):
    # r with about share of its values replaced by zero
    return GroupRingElement(
        r.group, r.conductor, {s: 0 if rng.random() < share else v for s, v in r.values.items()}
    )


def _with_rationals(rng, r, share):
    # r with about share of its values replaced by a nonzero rational, whose
    # lift has one nonzero coefficient
    return GroupRingElement(
        r.group,
        r.conductor,
        {
            s: Fraction(rng.choice((-3, -1, 2, 5)), rng.randrange(1, 4))
            if rng.random() < share
            else v
            for s, v in r.values.items()
        },
    )


@pytest.mark.parametrize("literal, conductor", [("7", 7), ("3,3", 3), ("15", 15), ("3", 6)])
def test_ring_product_matches_per_pair_reference(literal, conductor):
    rng = random.Random("lift:%s" % literal)
    g = FiniteAbelianGroup.from_literal(literal)
    for share in (0.0, 0.3, 0.7):
        for _ in range(3):
            a = _with_zeros(rng, resolvend(_random_map(rng, g, conductor)), share)
            b = _with_zeros(rng, resolvend(_random_map(rng, g, conductor)), share)
            c, d = _with_rationals(rng, a, 0.4), _with_rationals(rng, b, 0.4)
            for x, y in ((a, b), (b, a), (a, a), (c, d), (d, c)):
                _assert_product_matches_reference(x, y)


def test_ring_product_of_unit_inverses_matches_per_pair_reference():
    # unit inverses carry the largest denominators the suites produce
    rng = random.Random("lift-units")
    g = FiniteAbelianGroup((15,))
    seen = 0
    while seen < 3:
        r = resolvend(_random_map(rng, g, 15))
        if not is_unit(r):
            continue
        seen += 1
        inv = unit_inverse(r)
        assert max(v.den for v in inv.values.values()) > 10**6
        for a, b in ((inv, r), (r, inv), (inv, inv)):
            _assert_product_matches_reference(a, b)


def test_ring_product_of_divisor_conductor_values_matches_per_pair_reference():
    # values given at a proper divisor of the container conductor, which
    # stores them at its own, and operands over different conductors
    g = FiniteAbelianGroup((3,))
    s0, s1, s2 = g.elements()
    a = GroupRingElement(
        g,
        15,
        {s0: Fraction(2, 3), s1: root_of_unity(3) * Fraction(1, 4), s2: root_of_unity(5, 2)},
    )
    b = GroupRingElement(g, 3, {s0: root_of_unity(3, 2) * Fraction(5, 6), s1: 0, s2: -1})
    assert {v.conductor for v in a.values.values()} == {15}
    assert {v.conductor for v in b.values.values()} == {3}
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        _assert_product_matches_reference(x, y)
    assert (a * b).conductor == 15


def test_ring_product_makes_no_cyclo_product(monkeypatch):
    # the pair products are integer dot products and the denominators go
    # back in one _canonical per output, so no CycloElement product runs,
    # also when both operands carry denominators and different conductors
    rng = random.Random("lift-no-product")
    g = FiniteAbelianGroup((3, 3))
    a = _with_rationals(rng, resolvend(_random_map(rng, g, 3)), 0.4)
    b = _with_rationals(rng, resolvend(_random_map(rng, g, 6)), 0.4)
    want = [(x, y, _per_pair_product(x, y)) for x, y in ((a, b), (b, a), (a, a))]

    def product(self, other):
        raise AssertionError("CycloElement product")

    monkeypatch.setattr(CycloElement, "__mul__", product)
    monkeypatch.setattr(CycloElement, "__rmul__", product)
    with pytest.raises(AssertionError):
        root_of_unity(3) * root_of_unity(3)
    for x, y, ref in want:
        assert max(v.den for v in x.values.values()) > 1
        assert (x * y).values == ref.values


def test_ring_product_with_an_all_zero_operand():
    rng = random.Random("lift-zero")
    g = FiniteAbelianGroup((3, 3))
    zero = GroupRingElement.constant(g, 3, 0)
    r = resolvend(_random_map(rng, g, 3))
    for a, b in ((zero, r), (r, zero), (zero, zero)):
        _assert_product_matches_reference(a, b)
        assert all(v.is_zero() and v.conductor == 3 for v in (a * b).values.values())


def test_group_element_scalar_mul():
    # multiplying by a group element shifts coefficients
    g = FiniteAbelianGroup((9,))
    r = GroupRingElement.identity(g, 9)
    s0 = g.element((5,))
    shifted = r * s0
    assert shifted(s0) == CycloElement.one(9)


def test_scalar_of_another_conductor_mul():
    # a scalar in Q(zeta_5) times an element over Q(zeta_3) lives over Q(zeta_15)
    g = FiniteAbelianGroup([3])
    r = GroupRingElement.identity(g, 3)
    zeta5 = root_of_unity(5)
    for product in (r * zeta5, zeta5 * r):
        assert product.conductor == 15
        assert product(g.identity()) == zeta5
        assert all(product(s).is_zero() for s in g.elements() if not s.is_identity())


def test_pointwise_mul_lives_over_the_lcm_conductor():
    # Eq. (iden1) across conductors: both orders of the pointwise product
    # are the transform of the group-ring product, over Q(zeta_15)
    g = FiniteAbelianGroup([3])
    a = GroupRingElement.identity(g, 3)
    b = a * root_of_unity(5)
    expect = transform(a * b)
    assert expect.conductor == 15
    assert transform(a).pointwise_mul(transform(b)) == expect
    assert transform(b).pointwise_mul(transform(a)) == expect
    other = transform(GroupRingElement.identity(FiniteAbelianGroup([9]), 9))
    for bad in (a, other):
        with pytest.raises(TypeError):
            transform(a).pointwise_mul(bad)


def test_every_value_lives_at_its_container_conductor():
    # values given at conductors 1, 3 and 5 are stored at the container's,
    # and so is every value of every result, across conductors 3 and 15
    g = FiniteAbelianGroup([3])
    s0, s1, s2 = g.elements()
    chi0, chi1, chi2 = dual_enumerate(g)
    zeta5 = root_of_unity(5)
    r = resolvend(GroupMap(g, 15, {s0: 0, s1: Fraction(2, 3), s2: root_of_unity(3)}))
    r3 = GroupRingElement(g, 3, {s0: 1, s1: 0, s2: Fraction(-1, 2)})
    phi = CharacterVector(g, 15, {chi0: 2, chi1: root_of_unity(3), chi2: Fraction(1, 2)})
    results = (
        r, r3, phi, r + r3, -r3, r3 * zeta5, zeta5 * r3, r3 * s1, r * r3, r3 * r,
        phi.pointwise_mul(transform(r3)), phi.pointwise_inverse(), transform(r3),
        inverse_transform(phi), resolvend(inverse_transform(phi)),
    )
    for x in results:
        assert {v.conductor for v in x.values.values()} == {x.conductor}, x
    x = WildElement(
        7,
        {
            WildMonomial.one(): Fraction(1, 2),
            WildMonomial.symbol(1): root_of_unity(7, 3),
            WildMonomial.symbol(2, power=3): 2,
        },
    )
    for w in (x, x + x, -x, x * x, tau_action(2, x), omega_action(3, x)):
        assert {c.conductor for c in w.coeffs.values()} == {7}, w


def test_containers_share_one_repr():
    g = FiniteAbelianGroup([3])
    a = GroupMap.indicator(g, 6, g.identity())
    assert repr(a) == "GroupMap(FiniteAbelianGroup(3), N=6)"
    assert repr(resolvend(a)) == "GroupRingElement(FiniteAbelianGroup(3), N=6)"
    assert repr(transform(resolvend(a))) == "CharacterVector(FiniteAbelianGroup(3), N=6)"


def test_containers_carry_no_instance_dict():
    # every _GroupIndexed subclass declares __slots__, so instances hold only
    # the group, conductor and values slots
    g = FiniteAbelianGroup([3])
    a = GroupMap.indicator(g, 6, g.identity())
    r = resolvend(a)
    for x in (a, r, GroupRingElement.identity(g, 3), transform(r), r + r, r * r):
        assert not hasattr(x, "__dict__"), type(x).__name__


_KERNEL_GROUPS = ("1", "2", "3", "9", "3,3", "2,4", "15", "30", "3,9", "5,5")


def _reference_sums(x, rows, den_scale):
    # the route before the separable kernel: one from_terms per exponent row,
    # over the values raised to the container conductor and one denominator
    n = x.conductor
    step = n // x.group.exponent
    raised = [v.raise_conductor(n) for v in x.values.values()]
    den = lcm(*(v.den for v in raised))
    return [
        CycloElement.from_terms(
            n,
            (
                (c * (den // v.den), i + step * e)
                for v, e in zip(raised, row)
                for i, c in enumerate(v.num)
            ),
            den * den_scale,
        )
        for row in rows
    ]


@st.composite
def _kernel_values(draw, group, conductor):
    # per key: zero, a rational, or a value at the conductor or a divisor of
    # it, with denominators that differ from key to key
    divisors = sorted({1, group.exponent, conductor})
    values = []
    for _ in range(group.order):
        kind = draw(st.sampled_from(("zero", "rational", "cyclo")))
        if kind == "zero":
            values.append(0)
        elif kind == "rational":
            values.append(draw(_fractions))
        else:
            n = draw(st.sampled_from(divisors))
            width = euler_phi(n)
            coeffs = draw(st.lists(_fractions, min_size=width, max_size=width))
            values.append(CycloElement(n, coeffs))
    return values


@pytest.mark.parametrize("scale", (1, 2))
@pytest.mark.parametrize("literal", _KERNEL_GROUPS)
def test_kernel_matches_character_table_route(literal, scale):
    g = FiniteAbelianGroup.from_literal(literal)
    n = scale * g.exponent
    table = char_table(g)

    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(_kernel_values(g, n))
    def check(drawn):
        for values in (drawn, [0] * g.order):
            r = GroupRingElement(g, n, dict(zip(g.elements(), values)))
            tr = transform(r)
            assert tr.conductor == n
            assert list(tr.values.values()) == _reference_sums(r, table, 1)
            phi = CharacterVector(g, n, dict(zip(dual_enumerate(g), values)))
            back = inverse_transform(phi)
            assert list(back.values.values()) == _reference_sums(phi, zip(*table), g.order)

    check()


@pytest.mark.parametrize("literal", ("3", "15", "2,4"))
def test_resolvent_matches_transform_at_twice_the_exponent(literal):
    # at conductor 2 exp(G) a root of the pairing is a step of two
    rng = random.Random("resolvent:%s" % literal)
    g = FiniteAbelianGroup.from_literal(literal)
    a = _random_map(rng, g, 2 * g.exponent)
    tr = transform(resolvend(a))
    for chi in dual_enumerate(g):
        assert resolvent(a, chi) == tr(chi)


@pytest.mark.parametrize("literal", _KERNEL_GROUPS + ("2,2,4",))
def test_mul_table_matches_the_group_law(literal):
    g = FiniteAbelianGroup.from_literal(literal)
    elements = g.elements()
    table = mul_table(g)
    assert [s.index for s in elements] == list(range(g.order))
    assert table == tuple(tuple((s * t).index for t in elements) for s in elements)
    assert mul_table(g) is table


def test_transform_memo_belongs_to_its_element():
    # transform(r * s)(chi) = chi(s) transform(r)(chi): a shift, or any other
    # element built from r, gets its own transform, not r's
    rng = random.Random("memo")
    g = FiniteAbelianGroup((3, 3))
    r = resolvend(_random_map(rng, g, 3))
    base = transform(r)
    assert transform(r) is base
    for s in g.elements():
        want = [base(chi) * root_of_unity(3, char_exponent(g, chi, s)) for chi in dual_enumerate(g)]
        assert list(transform(r * s).values.values()) == want
    assert list(transform(r + r).values.values()) == [2 * v for v in base.values.values()]


def test_a_unit_round_transforms_each_element_once(monkeypatch):
    # a round transforms r, r2, r * r2 and the shift of r; is_unit,
    # unit_inverse and reduced_equal reuse the transform of r, and the
    # roundtrip's resolvent check reads it too.  The fixed non-unit of the
    # units record is the fifth element
    seen = []
    kernel = groupring._dft

    def counting(x, den_scale):
        seen.append(x)  # holding x keeps every id distinct
        return kernel(x, den_scale)

    monkeypatch.setattr(groupring, "_dft", counting)
    rows = list(suites._groupring_rows("15", 1, 1))
    assert [row[2] for row in rows] == [True, True, True]
    assert rows[2][3]["units_seen"] == 1
    elements = [x for x in seen if isinstance(x, GroupRingElement)]
    assert len({id(x) for x in elements}) == len(elements) == 5


def test_roundtrip_record_checks_the_transform_against_the_resolvent(monkeypatch):
    # relabel chi -> conj(chi) on both sides of the kernel: transform then
    # sums against conj(chi), inverse_transform undoes exactly that, and
    # products still diagonalize; only the resolvent comparison sees it
    kernel = groupring._dft

    def relabelled(x, den_scale):
        chars = dual_enumerate(x.group)
        if isinstance(x, CharacterVector):
            values = {chi: x.values[chi.inverse()] for chi in chars}
            return kernel(CharacterVector(x.group, x.conductor, values), den_scale)
        out = list(kernel(x, den_scale))
        return iter([out[chi.inverse().index] for chi in chars])

    assert [row[2] for row in suites._groupring_rows("15", 1, 2)] == [True, True, True]
    monkeypatch.setattr(groupring, "_dft", relabelled)
    rows = list(suites._groupring_rows("15", 1, 2))
    assert [(row[0], row[2]) for row in rows] == [
        ("roundtrip:15", False),
        ("convolution:15", True),
        ("units:15", True),
    ]


def test_units_record_rejects_a_pair_check_that_accepts_everything(monkeypatch):
    # whatever the random rounds draw, delta_e - delta_s is not a unit
    monkeypatch.setattr(suites, "unit_pair_check", lambda a: True)
    for literal in ("3", "2,4"):
        units = list(suites._groupring_rows(literal, 1, 1))[2]
        assert units[0] == "units:%s" % literal and units[2] is False
