import copy
import pickle
import random
from fractions import Fraction

import pytest

from resolvendlab import cyclotomic, suites, wildsym
from resolvendlab.cyclotomic import CycloElement, galois_map, root_of_unity
from resolvendlab.numutil import divisor_list
from resolvendlab.wildsym import (
    VerificationError,
    WildContext,
    WildElement,
    WildMonomial,
    build_alpha,
    build_g,
    c_of,
    conjugate_check,
    omega_action,
    omega_monomial,
    product_contexts,
    resolvent_at,
    tau_action,
    transpose_eval_g,
)


def test_c_of():
    assert c_of(0, 7) == 0
    assert c_of(3, 7) == 3
    assert c_of(4, 7) == -3
    for p in (3, 5, 7, 11, 47):
        for i in range(p):
            assert (c_of(i, p) - i) % p == 0
            assert c_of(i, p) + c_of(-i % p, p) == 0
            assert 2 * abs(c_of(i, p)) <= p - 1


def test_monomial_algebra():
    y1 = WildMonomial.symbol(1)
    y2 = WildMonomial.symbol(2)
    m = y1 * y2 ** -3
    assert m.inverse() * m == WildMonomial.one()
    assert (m ** 2) == m * m
    assert str(y1 * y2 ** -3 * WildMonomial.symbol(4) ** 2) == "y1*y2^-3*y4^2"
    assert str(WildMonomial.one()) == "1"
    assert str(WildMonomial.symbol(2, tag=3)) == "y3_2"


def test_monomial_frac_pow():
    y1 = WildMonomial.symbol(1)
    cube = y1 ** 6
    assert cube.frac_pow(Fraction(1, 3)) == y1 ** 2
    assert cube.frac_pow(Fraction(-1, 2)) == y1 ** -3
    with pytest.raises(ValueError):
        cube.frac_pow(Fraction(1, 4))


def test_frac_pow_of_one_is_one_without_canonicalising(monkeypatch):
    # transpose_apply takes fractional powers of the monomial 1 for most
    # coefficients of theta; they must not construct
    one, y1 = WildMonomial.one(), WildMonomial.symbol(1)
    made = []
    new = WildMonomial.__new__

    def counting(cls, exponents=()):
        made.append(exponents)
        return new(cls, exponents)

    monkeypatch.setattr(WildMonomial, "__new__", counting)
    assert one.frac_pow(Fraction(2, 7)) is one
    assert one.frac_pow(Fraction(-1, 61)) is one
    assert made == []
    with pytest.raises(ValueError):
        y1.frac_pow(Fraction(1, 2))


def test_monomial_weight():
    m = WildMonomial.symbol(1) * WildMonomial.symbol(2) ** -3 * WildMonomial.symbol(4) ** 2
    assert m.weight(7) == (1 - 6 + 8) % 7


def test_wild_element_arithmetic():
    p = 5
    y1 = WildMonomial.symbol(1)
    x = WildElement.monomial(p, y1, 2) + WildElement.monomial(p, y1.inverse())
    y = WildElement.monomial(p, y1, root_of_unity(p, 1))
    prod = x * y
    assert prod == WildElement.monomial(
        p, y1 * y1, CycloElement.from_rational(2, p) * root_of_unity(p, 1)
    ) + WildElement.monomial(p, WildMonomial.one(), root_of_unity(p, 1))
    assert (x - x).is_zero()


def test_tau_action():
    p = 7
    y1 = WildElement.monomial(p, WildMonomial.symbol(1))
    assert tau_action(0, y1) == y1
    moved = y1
    for _ in range(p):
        moved = tau_action(1, moved)
    assert moved == y1
    # norm: the product over all tau-conjugates of y_i is y_i^p
    norm = WildElement.one(p)
    for k in range(p):
        norm = norm * tau_action(k, y1)
    assert norm == WildElement.monomial(p, WildMonomial.symbol(1) ** p)


def test_tau_is_additive_in_j():
    p = 5
    x = WildElement.monomial(p, WildMonomial.symbol(2) ** 3, root_of_unity(p, 2))
    assert tau_action(2, tau_action(1, x)) == tau_action(3, x)


def test_omega_action():
    p = 7
    y1 = WildElement.monomial(p, WildMonomial.symbol(1))
    assert omega_action(1, y1) == y1
    assert omega_action(3, y1) == WildElement.monomial(p, WildMonomial.symbol(3))
    with pytest.raises(ValueError):
        omega_action(0, y1)


def test_omega_composition_and_commutation():
    rng = random.Random("omega")
    p = 7
    for _ in range(10):
        x = _random_wild(rng, p)
        for j in range(1, p):
            for k in range(1, p):
                assert omega_action(j, omega_action(k, x)) == omega_action(
                    j * k % p, x
                )
        # tau and omega commute: reindexing scales the weight by j while
        # the coefficient map sends zeta to zeta^j
        j = rng.randrange(1, p)
        a = rng.randrange(p)
        assert omega_action(j, tau_action(a, x)) == tau_action(
            a, omega_action(j, x)
        )


@pytest.mark.parametrize("p", [3, 7, 13])
def test_omega_monomial_is_the_canonical_monomial(p):
    # omega_monomial only sorts the permuted terms; the checked constructor
    # on the same exponents must give the very same object, first call or not
    rng = random.Random("omega-monomial-%d" % p)
    for _ in range(20):
        mono = WildMonomial(
            [((rng.randrange(3), rng.randrange(p)), rng.randrange(-3, 4)) for _ in range(5)]
        )
        for j in range(1, p):
            got = omega_monomial(j, mono, p)
            assert got is WildMonomial([((t, i * j % p), e) for (t, i), e in mono.exponents])
            assert omega_monomial(j, mono, p) is got
    # an index past p meets another one: the terms merge, as in the constructor
    wide = WildMonomial.symbol(1) * WildMonomial.symbol(p + 1)
    assert omega_monomial(2, wide, p) is WildMonomial.symbol(2, power=2)


@pytest.mark.parametrize("p", [7, 13])
def test_actions_match_the_checked_constructor(p):
    # tau, omega and negation build their results trusted; the checked
    # constructor on the per-term definition must give the same element,
    # every coefficient nonzero and at conductor p
    rng = random.Random("trusted-wild-%d" % p)
    for _ in range(20):
        terms = []
        for _ in range(4):
            mono = WildMonomial(
                [((rng.randrange(2), rng.randrange(1, p)), rng.randrange(-2, 3))
                 for _ in range(3)]
            )
            coeff = CycloElement.from_terms(
                p,
                [(rng.randrange(-3, 4), rng.randrange(p)) for _ in range(3)],
                rng.randrange(1, 4),
            )
            terms.append((mono, coeff))
        x = WildElement(p, terms)
        j = rng.randrange(1, p)
        tau = tau_action(j, x)
        assert tau == WildElement(
            p,
            [(m, c * root_of_unity(p, j * m.weight(p))) for m, c in x.coeffs.items()],
        )
        omega = omega_action(j, x)
        assert omega == WildElement(
            p, [(omega_monomial(j, m, p), galois_map(j, c)) for m, c in x.coeffs.items()]
        )
        neg = -x
        assert neg == WildElement(p, [(m, -c) for m, c in x.coeffs.items()])
        for y in (tau, omega, neg):
            assert len(y.coeffs) == len(x.coeffs)
            assert all(c and c.conductor == p for c in y.coeffs.values())


def test_build_alpha_p3():
    ctx = WildContext(3, 2)
    alpha = build_alpha(ctx)
    y1 = WildMonomial.symbol(1)
    third = Fraction(1, 3)
    expected = (
        WildElement.monomial(3, WildMonomial.one(), third)
        + WildElement.monomial(3, y1, third)
        + WildElement.monomial(3, y1.inverse(), third)
    )
    assert alpha == expected


def test_build_alpha_p7_summand():
    ctx = WildContext(7, 2)
    mono = ctx.summand_monomial(1)
    y = WildMonomial.symbol
    assert mono == y(1) * y(2) ** -3 * y(4) ** 2
    assert str(mono) == "y1*y2^-3*y4^2"


def test_alpha_invariance():
    for p in (3, 5, 7, 11):
        for n in divisor_list(p - 1):
            ctx = WildContext(p, n)
            alpha = build_alpha(ctx)
            for j in ctx.subgroup:
                assert omega_action(j, alpha) == alpha


def test_conjugate_check():
    ctx = WildContext(7, 2)
    # k = 1: exponent sum 1*1 + 2*(-3) + 4*2 = 3 = k*d mod 7
    assert conjugate_check(ctx, 1, 1)
    for p in (3, 5, 7, 11, 13):
        for n in divisor_list(p - 1):
            c = WildContext(p, n)
            assert all(
                conjugate_check(c, j, k) for j in range(p) for k in range(p)
            )


@pytest.mark.parametrize("p", [3, 7, 13])
def test_monomial_is_the_checked_one_term_element(p):
    # monomial stores its one term trusted; the constructor merges and drops zeros
    ctx = WildContext(p, 1)
    coeffs = [0, 1, -1, Fraction(3, 7), root_of_unity(1, 0), CycloElement.zero(p)]
    coeffs += [root_of_unity(p, e) for e in range(p)]
    for k in range(p):
        mono = ctx.summand_monomial(k)
        for coeff in coeffs:
            term = WildElement.monomial(p, mono, coeff)
            checked = WildElement(p, ((mono, coeff),))
            assert term == checked
            assert term.coeffs == checked.coeffs
            assert all(c.conductor == p for c in term.coeffs.values())
    assert WildElement.monomial(p, ctx.summand_monomial(1), 0).coeffs == {}
    with pytest.raises(TypeError):
        WildElement.monomial(p, 1)
    with pytest.raises(ValueError):
        WildElement.monomial(9, ctx.summand_monomial(1))


def test_context_objects_are_built_once(monkeypatch):
    p = 7
    ctx = WildContext(p, 2)
    for k in range(p):
        assert ctx.summand_monomial(k) is ctx.summand_monomial(k + p)
    assert ctx.alpha == build_alpha(ctx)

    def rebuilt(_ctx):
        raise AssertionError("context object rebuilt")

    monkeypatch.setattr(wildsym, "build_alpha", rebuilt)
    monkeypatch.setattr(wildsym, "build_g", rebuilt)
    for k in range(p):
        assert resolvent_at(ctx, k) == WildElement.monomial(p, transpose_eval_g(ctx, k))
        assert all(conjugate_check(ctx, j, k) for j in range(p))


def test_conjugate_check_makes_no_cyclo_product(monkeypatch):
    p = 7
    ctx = WildContext(p, 3)

    def product(m, b):
        raise AssertionError("CycloElement product")

    monkeypatch.setattr(cyclotomic, "_mul_rows", product)
    with pytest.raises(AssertionError):
        root_of_unity(p, 1) * root_of_unity(p, 2)
    assert all(conjugate_check(ctx, j, k) for j in range(p) for k in range(p))


def test_resolvent_at():
    ctx = WildContext(7, 2)
    at0 = resolvent_at(ctx, 0)
    assert at0 == WildElement.one(7)
    at1 = resolvent_at(ctx, 1)
    y = WildMonomial.symbol
    assert at1 == WildElement.monomial(7, y(1) ** -2 * y(2) ** -1 * y(4) ** 3)
    # unit pairing: resolvents at k and -k cancel
    for k in range(7):
        prod = resolvent_at(ctx, k) * resolvent_at(ctx, (-k) % 7)
        assert prod == WildElement.one(7)


def test_resolvent_matches_collapse_prediction():
    for p in (3, 5, 7):
        for n in divisor_list(p - 1):
            ctx = WildContext(p, n)
            for k in range(p):
                got = resolvent_at(ctx, k)
                assert got == WildElement.monomial(p, ctx.collapse_monomial(k))


def test_build_g():
    ctx = WildContext(7, 2)
    g = build_g(ctx)
    t = ctx.group.element([1])
    y = WildMonomial.symbol
    assert g(t ** 5) == y(1) ** 7
    assert g(t ** 6) == y(2) ** 7
    assert g(t ** 3) == y(4) ** 7
    assert g(t ** 0) == WildMonomial.one()
    assert g(t ** 1) == WildMonomial.one()


def test_transpose_eval():
    ctx = WildContext(7, 2)
    y = WildMonomial.symbol
    assert transpose_eval_g(ctx, 1) == y(1) ** -2 * y(2) ** -1 * y(4) ** 3
    assert transpose_eval_g(ctx, 0) == WildMonomial.one()
    for p in (3, 5, 7, 11):
        for n in divisor_list(p - 1):
            c = WildContext(p, n)
            for k in range(p):
                mono = transpose_eval_g(c, k)
                resolved = resolvent_at(c, k)
                assert resolved == WildElement.monomial(p, mono)


def test_product_contexts_single():
    rows = product_contexts(3, [2])
    assert len(rows) == 3
    assert all(ok for _, _, ok in rows)


def test_product_contexts_pairs():
    rows = product_contexts(3, [2, 2])
    assert len(rows) == 9
    assert all(ok for _, _, ok in rows)
    rows = product_contexts(7, [2, 3])
    assert len(rows) == 49
    assert all(ok for _, _, ok in rows)
    coords = {c for c, _, _ in rows}
    assert len(coords) == 49


def test_product_contexts_rejects_bad_orders():
    with pytest.raises(ValueError):
        product_contexts(3, [])
    with pytest.raises(ValueError):
        product_contexts(3, [2, 4])
    with pytest.raises(ValueError):
        product_contexts(9, [2])


def test_product_contexts_tag_each_family():
    # slot i carries tag i + 1, and a slot contributes symbols exactly when
    # its k is nonzero, so equal orders never merge their families
    for coords, mono, ok in product_contexts(7, (2, 2)):
        assert ok
        tags = {tag for (tag, _), _ in mono.exponents}
        assert tags == {i + 1 for i, k in enumerate(coords) if k}


def test_product_rows_build_each_context_once(monkeypatch):
    built = []
    init = WildContext.__init__

    def counting(self, p, n, tag=0):
        built.append((p, n, tag))
        init(self, p, n, tag)

    monkeypatch.setattr(WildContext, "__init__", counting)
    rows = list(suites._wild_product_rows(7, (2, 3)))
    assert len(rows) == 49 and all(row[2] for row in rows)
    assert built == [(7, 2, 1), (7, 3, 2)]


def test_monomials_are_canonical():
    m = WildMonomial({(0, 1): 1, (0, 2): 1})
    assert m.exponents == (((0, 1), 1), ((0, 2), 1))
    same = [
        WildMonomial({(0, 2): 1, (0, 1): 1}),  # dict, unsorted
        WildMonomial((((0, 2), 1), ((0, 1), 1))),  # iterable, unsorted
        WildMonomial(iter([((0, 1), 3), ((0, 2), 1), ((0, 1), -2)])),  # split
        WildMonomial({(0, 1): 1, (0, 3): 0, (0, 2): 1, (1, 4): 0}),  # zeros
        WildMonomial([((0, 5), 2), ((0, 1), 1), ((0, 5), -2), ((0, 2), 1)]),
        WildMonomial.symbol(2) * WildMonomial.symbol(1),
        (m**3).frac_pow(Fraction(1, 3)),
    ]
    assert all(x is m for x in same)
    one = WildMonomial.one()
    assert WildMonomial() is WildMonomial({}) is WildMonomial({(0, 1): 0}) is one
    assert m * m.inverse() is one and m**0 is one
    assert WildMonomial.symbol(2, tag=1) is not WildMonomial.symbol(2)


def test_monomial_copies_are_the_one_instance():
    m = WildMonomial.symbol(3, tag=2) * WildMonomial.symbol(1) ** -4
    for mono in (m, WildMonomial.one()):
        assert copy.copy(mono) is mono
        assert copy.deepcopy(mono) is mono
        assert pickle.loads(pickle.dumps(mono)) is mono
    x = WildElement.monomial(7, m, root_of_unity(7, 2))
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_monomial_equality_is_identity():
    assert "__eq__" not in vars(WildMonomial) and "__hash__" not in vars(WildMonomial)
    assert WildMonomial.__eq__ is object.__eq__
    assert WildMonomial.__hash__ is object.__hash__


def test_transpose_eval_g_multiplies_by_one_without_canonicalising(monkeypatch):
    # g is the monomial 1 off n of its p values, so most products in the
    # transpose evaluation have 1 on one side; none of them may construct
    p, n = 13, 4
    ctx = WildContext(p, n)
    made = []
    new, mul = WildMonomial.__new__, WildMonomial.__mul__

    def counting(cls, exponents=()):
        made.append(exponents)
        return new(cls, exponents)

    with_one = []

    def product(a, b):
        before = len(made)
        out = mul(a, b)
        if a.is_one() or b.is_one():
            with_one.append(len(made) - before)
        return out

    monkeypatch.setattr(WildMonomial, "__new__", counting)
    monkeypatch.setattr(WildMonomial, "__mul__", product)
    for k in range(p):
        assert transpose_eval_g(ctx, k) is ctx.collapse_monomial(k)
    assert len(with_one) >= p * (p - n - 1)
    assert not any(with_one)


def test_verification_error_type():
    assert issubclass(VerificationError, ArithmeticError)


def _random_wild(rng, p):
    terms = []
    for _ in range(3):
        mono = WildMonomial(
            [((0, rng.randrange(1, p)), rng.randrange(-2, 3)) for _ in range(2)]
        )
        terms.append((mono, root_of_unity(p, rng.randrange(p))))
    return WildElement(p, terms)
