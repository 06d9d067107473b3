import copy
import itertools
import pickle
import random

import pytest

from resolvendlab import abelian
from resolvendlab.abelian import (
    FiniteAbelianGroup,
    char_exponent,
    char_table,
    dual_enumerate,
    element_order,
)
from resolvendlab.cyclotomic import CycloElement, root_of_unity


def test_constructor_validation():
    FiniteAbelianGroup(())
    FiniteAbelianGroup((3,))
    FiniteAbelianGroup((3, 9))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1, 3))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((3, 5))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 6))


def test_from_literal():
    g = FiniteAbelianGroup.from_literal("3,9")
    assert g.invariant_factors == (3, 9)
    assert FiniteAbelianGroup.from_literal("15").order == 15
    assert FiniteAbelianGroup.from_literal("").order == 1
    with pytest.raises(ValueError):
        FiniteAbelianGroup.from_literal("3,5")
    with pytest.raises(ValueError):
        FiniteAbelianGroup.from_literal("x")


def test_order_and_exponent():
    trivial = FiniteAbelianGroup(())
    assert trivial.order == 1
    assert trivial.exponent == 1
    g = FiniteAbelianGroup((3, 9))
    assert g.order == 27
    assert g.exponent == 9
    # brute-force agreement for every group of order <= 200 we can list
    for factors in [(2,), (8,), (3, 3), (2, 4), (5, 5), (2, 2, 2), (3, 9), (14,)]:
        g = FiniteAbelianGroup(factors)
        assert g.order == len(list(g.elements()))


def test_element_arithmetic():
    g = FiniteAbelianGroup((3, 9))
    s = g.element((2, 5))
    t = g.element((1, 7))
    assert (s * t).coords == (0, 3)
    assert (s * s.inverse()).is_identity()
    assert (s ** 0).coords == (0, 0)
    assert (s ** -1) == s.inverse()
    assert g.element((5, 11)).coords == (2, 2)
    # keys of two separately built equal groups are interchangeable
    other = FiniteAbelianGroup((3, 9))
    assert {s: 1}[other.element((2, 5))] == 1
    assert hash(s) == hash(other.element((2, 5)))
    assert g.character((2, 5)) != s and s != g.character((2, 5))
    assert len({s, g.character((2, 5))}) == 2
    # values are canonical: equal values are one object
    assert FiniteAbelianGroup((3, 9)) is FiniteAbelianGroup.from_literal("3,9")
    assert g.element((5, 11)) is g.element((2, 2))
    assert s * t is g.elements()[3]  # (0, 3) sits at mixed-radix index 0 * 9 + 3
    for chi, x in zip(dual_enumerate(g), g.elements()):
        assert chi.coords == x.coords and chi is not x


@pytest.mark.parametrize("literal", ["3,9", "15", "3,3", "()"])
def test_constructed_values_are_the_enumerated_ones(literal):
    g = FiniteAbelianGroup.from_literal(literal)
    factors = g.invariant_factors
    elements = {x.coords: x for x in g.elements()}
    characters = {chi.coords: chi for chi in dual_enumerate(g)}
    assert len(elements) == len(characters) == g.order
    box = itertools.product(*(range(-d - 1, 2 * d + 1) for d in factors))
    for coords in box:
        reduced = tuple(c % d for c, d in zip(coords, factors))
        assert g.element(coords) is elements[reduced]
        assert g.character(list(coords)) is characters[reduced]
    assert g.identity() is g.elements()[0]
    for value in (g, g.identity(), dual_enumerate(g)[-1]):
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value
    # a copy must not go through __new__ with the default chain and
    # overwrite the trivial group
    assert FiniteAbelianGroup(()).invariant_factors == ()
    for bad in [(*factors, 1), (*factors, 7, 2)]:
        with pytest.raises(ValueError):
            FiniteAbelianGroup(bad)
        assert bad not in abelian._GROUPS
    r = len(factors)
    for coords in [(0,) * count for count in (r - 1, r + 1) if count >= 0]:
        with pytest.raises(ValueError, match="coordinates"):
            g.element(coords)
        with pytest.raises(ValueError, match="coordinates"):
            g.character(coords)


def test_element_order():
    g9 = FiniteAbelianGroup((9,))
    assert element_order(g9, g9.identity()) == 1
    assert element_order(g9, g9.element((3,))) == 3
    g15 = FiniteAbelianGroup((15,))
    # the (1 mod 3, 1 mod 5) element of Z/3 x Z/5 is 1 in the Z/15 chart
    assert element_order(g15, g15.element((1,))) == 15
    for factors in [(9,), (3, 3), (15,)]:
        g = FiniteAbelianGroup(factors)
        m = g.exponent
        for s in g.elements():
            o = element_order(g, s)
            k = 1
            power = s
            while not power.is_identity():
                power = power * s
                k += 1
            assert o == k
            assert m % o == 0


def test_char_exponent():
    g3 = FiniteAbelianGroup((3,))
    chi = g3.character((1,))
    assert char_exponent(g3, chi, g3.element((1,))) == 1
    assert char_exponent(g3, chi, g3.element((0,))) == 0
    g33 = FiniteAbelianGroup((3, 3))
    assert char_exponent(g33, g33.character((1, 2)), g33.element((2, 2))) == 0


def test_char_exponent_bilinear():
    rng = random.Random("bilinear")
    g = FiniteAbelianGroup((3, 9))
    m = g.exponent
    chars = dual_enumerate(g)
    for _ in range(40):
        chi = rng.choice(chars)
        s = g.element([rng.randrange(3), rng.randrange(9)])
        t = g.element([rng.randrange(3), rng.randrange(9)])
        a = rng.randrange(1, 9)
        b = rng.randrange(1, 9)
        assert (
            char_exponent(g, chi, s * t)
            - char_exponent(g, chi, s)
            - char_exponent(g, chi, t)
        ) % m == 0
        assert (
            char_exponent(g, chi ** a, s ** b)
            - a * b * char_exponent(g, chi, s)
        ) % m == 0


@pytest.mark.parametrize("literal", ["()", "3", "9", "3,3", "15", "2,4", "30", "3,9"])
def test_char_table_matches_char_exponent(literal):
    # rows in dual_enumerate order, columns in elements() order
    g = FiniteAbelianGroup.from_literal(literal)
    table = char_table(g)
    assert len(table) == g.order
    for chi, row in zip(dual_enumerate(g), table):
        assert row == tuple(char_exponent(g, chi, s) for s in g.elements())
    assert char_table(g) is table


def test_dual_enumerate_counts():
    assert len(dual_enumerate(FiniteAbelianGroup(()))) == 1
    assert len(dual_enumerate(FiniteAbelianGroup((3,)))) == 3
    chars = dual_enumerate(FiniteAbelianGroup((15,)))
    assert len(chars) == 15
    assert len({c.coords for c in chars}) == 15


def test_orthogonality():
    for factors in [(3,), (15,), (3, 3)]:
        g = FiniteAbelianGroup(factors)
        m = g.exponent
        for chi in dual_enumerate(g):
            total = CycloElement.zero(m)
            for s in g.elements():
                total = total + root_of_unity(m, char_exponent(g, chi, s))
            if chi.is_identity():
                assert total.as_rational() == g.order
            else:
                assert total.is_zero()


def test_exponent_attained():
    for factors in [(9,), (3, 9), (15,), (2, 4)]:
        g = FiniteAbelianGroup(factors)
        orders = {element_order(g, s) for s in g.elements()}
        assert max(orders) == g.exponent
