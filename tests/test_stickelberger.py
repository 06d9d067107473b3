import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvendlab import suites
from resolvendlab.abelian import Character, FiniteAbelianGroup, dual_enumerate
from resolvendlab.cyclotomic import CycloElement, galois_map, root_of_unity
from resolvendlab.padic import PadicCycloElement
from resolvendlab.stickelberger import (
    EquivariantMap,
    RationalGroupElement,
    VirtualCharacter,
    _pairing_row,
    det_map,
    in_S,
    kappa_twist,
    pairing,
    stickelberger_map,
    transpose_apply,
)
from resolvendlab.wildsym import WildContext, WildElement, WildMonomial


def test_pairing_identity():
    g = FiniteAbelianGroup((9,))
    for chi in dual_enumerate(g):
        assert pairing(chi, g.identity()) == 0


def test_pairing_z3():
    g = FiniteAbelianGroup((3,))
    s = g.element((1,))
    assert pairing(g.character((1,)), s) == Fraction(1, 3)
    assert pairing(g.character((2,)), s) == Fraction(-1, 3)


def test_pairing_antisymmetry():
    g = FiniteAbelianGroup((3, 9))
    for chi in dual_enumerate(g):
        for s in g.elements():
            assert pairing(chi.inverse(), s) == -pairing(chi, s)


def test_pairing_even_order_rejected():
    g = FiniteAbelianGroup((6,))
    with pytest.raises(ValueError):
        pairing(g.character((1,)), g.element((1,)))
    # the identity coordinate of an even group is still order 1: allowed
    assert pairing(g.character((1,)), g.element((0,))) == 0


def test_pairing_rejects_an_element_of_another_group():
    # groups are canonical, so a character of Z/9 has no pairing with Z/3
    g3, g9 = FiniteAbelianGroup((3,)), FiniteAbelianGroup((9,))
    with pytest.raises(ValueError, match="does not live on"):
        pairing(g9.character((1,)), g3.element((1,)))


def test_stickelberger_map_z3():
    g = FiniteAbelianGroup((3,))
    chi = g.character((1,))
    theta = stickelberger_map(VirtualCharacter.single(chi))
    assert theta.coeffs.get(g.element((1,)), 0) == Fraction(1, 3)
    assert theta.coeffs.get(g.element((2,)), 0) == Fraction(-1, 3)
    assert theta.coeffs.get(g.identity(), 0) == 0
    # antisymmetry collapses chi + chi^2
    psi = VirtualCharacter(g, [(chi, 1), (chi ** 2, 1)])
    assert stickelberger_map(psi).coeffs == {}
    assert stickelberger_map(VirtualCharacter(g, {})).coeffs == {}


def test_stickelberger_map_rejects_even_order():
    g = FiniteAbelianGroup((2, 4))
    with pytest.raises(ValueError):
        stickelberger_map(VirtualCharacter.single(g.character((1, 1))))


def test_det_and_in_s():
    g = FiniteAbelianGroup((3,))
    chi = g.character((1,))
    assert in_S(VirtualCharacter(g, [(chi, 1), (chi, -1)]))
    psi = VirtualCharacter(g, [(chi, 2), (chi ** 2, 1)])
    assert det_map(psi) == chi  # chi^4 = chi
    assert not in_S(psi)
    balanced = VirtualCharacter(g, [(chi, 1), (chi ** 2, 1)])
    assert in_S(balanced)
    assert stickelberger_map(balanced).is_integral()


def test_integrality_iff_kernel_small_boxes():
    for factors in [(3,), (9,)]:
        g = FiniteAbelianGroup(factors)
        chars = dual_enumerate(g)
        radius = 2 if g.order == 3 else 1
        for vec in itertools.product(range(-radius, radius + 1), repeat=len(chars)):
            psi = VirtualCharacter(g, list(zip(chars, vec)))
            assert in_S(psi) == stickelberger_map(psi).is_integral()


def _brute_box(group, radius):
    """(vectors, kernel, ok) of the Prop 3.12 box check, testing every
    vector of the box against the integer tables one at a time."""
    U, C = suites._pairing_tables(group)
    m = group.exponent
    vectors = kernel = 0
    ok = True
    for vec in itertools.product(range(-radius, radius + 1), repeat=len(U)):
        integral = all(sum(v * u for v, u in zip(vec, col)) % m == 0 for col in zip(*U))
        member = all(
            sum(v * c for v, c in zip(vec, col)) % d == 0
            for col, d in zip(zip(*C), group.invariant_factors)
        )
        vectors += 1
        kernel += member
        ok = ok and integral == member
    return vectors, kernel, ok


@pytest.mark.parametrize(
    "literal, radius", [("3", 1), ("9", 1), ("3,3", 1), ("7", 1), ("3", 2), ("7", 2)]
)
def test_box_count_matches_enumeration(literal, radius):
    g = FiniteAbelianGroup.from_literal(literal)
    expected = _brute_box(g, radius)
    assert expected[2] and expected[1] > 1
    assert suites._box_equivalence(g, *suites._pairing_tables(g), radius) == expected


def _bump_entry(U):
    U[1][1] += 1


def _swap_rows(U):
    # the same number of integral vectors as kernel vectors, but other ones
    U[1], U[2] = U[2], U[1]


@pytest.mark.parametrize("corrupt", [_bump_entry, _swap_rows])
def test_box_count_catches_corrupted_table(monkeypatch, corrupt):
    tables = suites._pairing_tables

    def corrupted(group):
        U, C = tables(group)
        corrupt(U)
        return U, C

    monkeypatch.setattr(suites, "_pairing_tables", corrupted)
    g = FiniteAbelianGroup.from_literal("9")
    total, kernel, ok = suites._box_equivalence(g, *suites._pairing_tables(g), 1)
    assert not ok
    assert (total, kernel, ok) == _brute_box(g, 1)


@pytest.mark.parametrize("literal", ["3,9", "5,5", "15"])
def test_box_count_beyond_enumeration(literal):
    # boxes of 3^27, 3^25 and 3^15 vectors; "3,9" also checks that each
    # character coordinate is reduced by its own invariant factor
    g = FiniteAbelianGroup.from_literal(literal)
    total, kernel, ok = suites._box_equivalence(g, *suites._pairing_tables(g), 1)
    assert ok
    assert total == 3**g.order and 0 < kernel < total


@pytest.mark.parametrize("literal", suites._STICKELBERGER_DEFAULT_GROUPS)
def test_pairing_tables_match_pairing(literal):
    g = FiniteAbelianGroup.from_literal(literal)
    U, C = suites._pairing_tables(g)
    chars = dual_enumerate(g)
    assert len(U) == len(C) == len(chars)
    for row, coords, chi in zip(U, C, chars):
        assert row == [pairing(chi, s) * g.exponent for s in g.elements()]
        assert coords == list(chi.coords)


@pytest.mark.parametrize("literal", ["3", "9", "3,3", "7", "15", "3,9", "5,5"])
def test_pairing_row_matches_pairing(literal):
    g = FiniteAbelianGroup.from_literal(literal)
    for chi in dual_enumerate(g):
        row = _pairing_row(chi)
        assert row == tuple(pairing(chi, s) * g.exponent for s in g.elements())
        assert all(type(u) is int for u in row)
        assert _pairing_row(chi) is row


@st.composite
def _virtual_characters(draw, literals=("3", "9", "3,3", "7", "15", "3,9", "5,5")):
    # "3,3", "3,9" and "5,5" are not cyclic: their exponent is not their order
    g = FiniteAbelianGroup.from_literal(draw(st.sampled_from(literals)))
    chars = dual_enumerate(g)
    vec = draw(st.lists(st.integers(-6, 6), min_size=len(chars), max_size=len(chars)))
    return VirtualCharacter(g, list(zip(chars, vec)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_virtual_characters())
def test_stickelberger_map_matches_fraction_sum(psi):
    expected = {}
    for s in psi.group.elements():
        total = Fraction(0)
        for chi, n in psi.coeffs.items():
            total += n * pairing(chi, s)
        if total:
            expected[s] = total
    assert stickelberger_map(psi).coeffs == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_virtual_characters(("3", "9", "3,3", "7", "15", "5,5")))
def test_stickelberger_map_is_its_checked_combination(psi):
    # the map builds its result trusted: feeding the same pairs through the
    # checked constructor must change nothing, and no coefficient is zero
    theta = stickelberger_map(psi)
    assert all(type(q) is Fraction and q for q in theta.coeffs.values())
    assert theta == RationalGroupElement(psi.group, list(theta.coeffs.items()))
    assert psi.group.identity() not in theta.coeffs  # pairing(chi, 1) = 0


def _det_by_characters(psi):
    """The determinant by the per-character loop the column kernel replaced."""
    coords = [0] * len(psi.group.invariant_factors)
    for chi, n in psi.coeffs.items():
        for i, c in enumerate(chi.coords):
            coords[i] += n * c
    return Character(psi.group, coords)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_virtual_characters())
def test_det_map_matches_per_character_loop(psi):
    assert det_map(psi) is _det_by_characters(psi)
    zero = VirtualCharacter(psi.group, {})
    assert det_map(zero) is _det_by_characters(zero) is psi.group.character(
        [0] * len(psi.group.invariant_factors)
    )


def test_det_map_on_the_trivial_group():
    g = FiniteAbelianGroup(())
    (chi,) = dual_enumerate(g)
    assert det_map(VirtualCharacter.single(chi, 3)) is chi
    assert det_map(VirtualCharacter(g, {})) is chi


def test_permute_powers_rejects_a_non_unit():
    # on Z/9, s -> s^3 sends s, s^4 and s^7 to one element, so the values
    # would merge; an exponent prime to 9 permutes the coordinates
    g = FiniteAbelianGroup((9,))
    theta = RationalGroupElement(g, [(s, Fraction(1, 3)) for s in g.elements()])
    for e in (3, 0, -6, 9):
        with pytest.raises(ValueError, match="not invertible mod 9"):
            theta.permute_powers(e)
    assert theta.permute_powers(2) == theta
    assert theta.permute_powers(-1) == theta


@pytest.mark.parametrize("literal", ["7", "13", "3,9"])
def test_trusted_results_match_the_checked_constructor(literal):
    # permute_powers builds its result trusted; the checked constructor on
    # the per-term definition must give the same combination
    g = FiniteAbelianGroup.from_literal(literal)
    rng = random.Random("trusted-%s" % literal)
    elements = g.elements()
    m = g.exponent
    units = [u for u in range(2, m) if _gcd(u, m) == 1]
    for _ in range(20):
        theta = RationalGroupElement(
            g,
            [
                (rng.choice(elements), Fraction(rng.randrange(-4, 5), rng.randrange(1, 6)))
                for _ in range(5)
            ],
        )
        e = pow(rng.choice(units), -1, m)
        assert theta.permute_powers(e) == RationalGroupElement(
            g, [(s**e, q) for s, q in theta.coeffs.items()]
        )


def test_integrality_iff_kernel_random():
    rng = random.Random("ker")
    g = FiniteAbelianGroup((15,))
    chars = dual_enumerate(g)
    for _ in range(200):
        vec = [rng.randrange(-6, 7) for _ in chars]
        psi = VirtualCharacter(g, list(zip(chars, vec)))
        assert in_S(psi) == stickelberger_map(psi).is_integral()


def test_antisymmetry_conjugate():
    rng = random.Random("conj")
    g = FiniteAbelianGroup((3, 3))
    chars = dual_enumerate(g)
    for _ in range(30):
        psi = VirtualCharacter(
            g, [(chi, rng.randrange(-4, 5)) for chi in chars]
        )
        psi_bar = VirtualCharacter(g, [(chi.inverse(), n) for chi, n in psi.items()])
        theta = stickelberger_map(psi)
        assert stickelberger_map(psi_bar).coeffs == {s: -q for s, q in theta.coeffs.items()}


def test_kappa_twist():
    g = FiniteAbelianGroup((3,))
    chi = g.character((1,))
    s = g.element((1,))
    assert kappa_twist(1, chi) == chi
    assert kappa_twist(1, s) == s
    assert kappa_twist(2, chi) == chi ** 2
    # on G(-1) the action is s -> s^{u^{-1}}; 2^{-1} = 2 mod 3
    assert kappa_twist(2, s) == s ** 2
    with pytest.raises(ValueError):
        kappa_twist(3, chi)


def test_kappa_twist_composition():
    g = FiniteAbelianGroup((9,))
    units = [u for u in range(1, 9) if u % 3]
    for u in units:
        for v in units:
            for chi in dual_enumerate(g):
                assert kappa_twist(u, kappa_twist(v, chi)) == kappa_twist(u * v, chi)
            for s in g.elements():
                assert kappa_twist(u, kappa_twist(v, s)) == kappa_twist(u * v, s)


def test_twist_equivariance():
    # the map side of the twist: Theta*(chi^u) is the s -> s^{u^{-1}} shuffle
    for factors in [(3,), (9,), (3, 3)]:
        g = FiniteAbelianGroup(factors)
        m = g.exponent
        units = [u for u in range(1, m) if _gcd(u, m) == 1]
        for chi in dual_enumerate(g):
            base = stickelberger_map(VirtualCharacter.single(chi))
            for u in units:
                twisted = stickelberger_map(
                    VirtualCharacter.single(kappa_twist(u, chi))
                )
                assert twisted == base.permute_powers(pow(u, -1, m))


def test_constructors_reject_floats():
    g = FiniteAbelianGroup((3,))
    chi, s = g.character((1,)), g.element((1,))
    with pytest.raises(TypeError):
        VirtualCharacter(g, {chi: 2.7})
    with pytest.raises(TypeError):
        RationalGroupElement(g, {s: 0.1})


def test_combinations_merge_and_cancel():
    g = FiniteAbelianGroup((3,))
    chi, s = g.character((1,)), g.element((1,))
    psi = VirtualCharacter(g, [(chi, 2), (chi, -1), (chi**2, 1)])
    assert psi == VirtualCharacter(g, {chi: 1, chi**2: 1})
    assert VirtualCharacter(g, [(chi, 1), (chi**2, 1), (chi, -1), (chi**2, -1)]).coeffs == {}
    theta = RationalGroupElement(g, [(s, Fraction(1, 2)), (s, 1)])
    q = theta.coeffs.get(s, 0)
    assert q == Fraction(3, 2) and type(q) is Fraction
    assert RationalGroupElement(g, [(s, q), (s, -q)]).coeffs == {}
    assert psi != theta
    x, y = WildMonomial.symbol(1), WildMonomial.symbol(2, power=-1)
    alpha = WildElement(5, [(y, 1), (x, Fraction(1, 2)), (x, root_of_unity(5))])
    assert alpha.coeffs == {x: root_of_unity(5) + Fraction(1, 2), y: CycloElement.one()}
    negated = [(mono, c * -1) for mono, c in alpha.coeffs.items()]
    assert WildElement(5, [*alpha.coeffs.items(), *negated]).coeffs == {}
    assert alpha != VirtualCharacter(g, {}) and VirtualCharacter(g, {}) != alpha
    assert [mono for mono, _ in alpha.items()] == [x, y]


def test_equivariant_map_basics():
    g = FiniteAbelianGroup((3,))
    # s^k -> zeta_3^{3-k}
    gmap = EquivariantMap(g, -1, {s: root_of_unity(3, 3 - s.coords[0]) for s in g.elements()})
    assert gmap(g.identity()) == CycloElement.one(3)
    units = [1, 2]
    assert gmap.check_equivariance(units, galois_map)


def test_transpose_apply_trivial():
    g = FiniteAbelianGroup((3,))
    ones = EquivariantMap(
        g, -1, {s: WildMonomial.one() for s in g.elements()}
    )
    chi = g.character((1,))
    psi = VirtualCharacter(g, [(chi, 1), (chi ** 2, 1)])
    assert transpose_apply(ones, psi) is WildMonomial.one()


def test_transpose_apply_integral_exponents():
    rng = random.Random("transpose")
    g = FiniteAbelianGroup((3,))
    chi = g.character((1,))
    values = {}
    for s in g.elements():
        values[s] = WildMonomial.symbol(rng.randrange(1, 5), power=rng.randrange(-3, 4))
    gmap = EquivariantMap(g, -1, values)
    psi = VirtualCharacter(g, [(chi, 3)])
    theta = stickelberger_map(psi)
    assert theta.coeffs  # theta = s - s^2: nonzero and integral
    expected = WildMonomial.one()
    for s in g.elements():
        e = theta.coeffs.get(s, 0)
        assert e.denominator == 1
        expected = expected * values[s] ** int(e)
    assert transpose_apply(gmap, psi) == expected


def test_transpose_apply_multiplicative():
    g = FiniteAbelianGroup((3,))
    chi = g.character((1,))
    psi = VirtualCharacter(g, [(chi, 3)])
    assert stickelberger_map(psi).coeffs  # theta = s - s^2: nonzero and integral
    values = {s: WildMonomial.symbol(1, power=(2 * s.coords[0]) % 3) for s in g.elements()}
    gmap = EquivariantMap(g, -1, values)
    double = transpose_apply(gmap, VirtualCharacter(g, [(chi, 6)]))
    assert double == transpose_apply(gmap, psi) * transpose_apply(gmap, psi)


def test_transpose_apply_rejects_outside_kernel():
    g = FiniteAbelianGroup((3,))
    chi = g.character((1,))
    # a p-adic value has integer powers but no fractional ones
    values = {s: PadicCycloElement.from_int(2, 3, 3) for s in g.elements()}
    gmap = EquivariantMap(g, -1, values)
    with pytest.raises(ValueError, match="outside the determinant kernel"):
        transpose_apply(gmap, VirtualCharacter.single(chi))


def test_transpose_apply_rejects_a_character_of_another_group():
    g, h = FiniteAbelianGroup((3,)), FiniteAbelianGroup((9,))
    gmap = EquivariantMap(g, -1, {s: CycloElement.one(3) for s in g.elements()})
    with pytest.raises(ValueError):
        transpose_apply(gmap, VirtualCharacter.single(h.character((1,))))
    ctx = WildContext(7, 3)
    with pytest.raises(ValueError):
        transpose_apply(ctx.g, VirtualCharacter.single(h.character((1,))))


def test_equivariant_map_requires_total_values():
    g = FiniteAbelianGroup((3,))
    with pytest.raises(ValueError):
        EquivariantMap(g, -1, {g.identity(): CycloElement.one(3)})


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a
