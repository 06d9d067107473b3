import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvendlab import gauss, suites
from resolvendlab.cli import main
from resolvendlab.cyclotomic import (
    CycloElement,
    _pack,
    _unpack,
    cyclotomic_polynomial,
    root_of_unity,
)
from resolvendlab.gauss import (
    MultiplicativeCharacter,
    ResidueSubgroup,
    _planes,
    _ring_power,
    _signed_bits,
    backend_coherence,
    character_sum_identity,
    gauss_sum,
    gauss_sum_padic,
    gauss_valuation,
    power_sum_S,
    verify_translation,
)
from resolvendlab.numutil import divisor_list, euler_phi
from resolvendlab.padic import PadicCycloElement, PrecisionError, teichmuller
from resolvendlab.suites import SuiteConfig, run
from resolvendlab.wildsym import WildContext


def test_character_convention():
    phi = MultiplicativeCharacter(7, 3)
    # phi(rho) = zeta_6^2 for the least primitive root rho = 3
    assert phi.value(3) == root_of_unity(6, 2)
    assert phi.value(0).is_zero()
    assert phi.order == 3
    for j in range(1, 7):
        for k in range(1, 7):
            assert phi.value(j * k % 7) == phi.value(j) * phi.value(k)
    order = 1
    acc = phi.value(3)
    while acc != CycloElement.one(acc.conductor):
        acc = acc * phi.value(3)
        order += 1
    assert order == 3


def test_character_validation():
    # every constructor on the prime-field layer takes an odd prime p and a
    # divisor n >= 1 of p - 1
    for make in (MultiplicativeCharacter, ResidueSubgroup, WildContext):
        for p, n in [(1, 1), (2, 1), (9, 2), (7, 0), (7, -1), (7, 4)]:
            with pytest.raises(ValueError):
                make(p, n)
        layer = make(7, 3)
        assert (layer.p, layer.n) == (7, 3)


def test_residue_subgroup():
    r3 = ResidueSubgroup(7, 3)
    assert sorted(r3) == [1, 6]
    assert len(r3) == 2
    assert 6 in r3 and 2 not in r3
    r2 = ResidueSubgroup(7, 2)
    assert sorted(r2) == [1, 2, 4]
    assert len(ResidueSubgroup(13, 4)) == 3


def test_trivial_character_sums():
    for p in (3, 5, 7, 11, 13):
        one = MultiplicativeCharacter(p, 1)
        assert gauss_sum(one, 0).as_rational() == p - 1
        for j in range(1, p):
            assert gauss_sum(one, j).as_rational() == -1


def test_nontrivial_vanishes_at_zero():
    for p, n in [(5, 2), (7, 3), (13, 4)]:
        phi = MultiplicativeCharacter(p, n)
        assert gauss_sum(phi, 0).is_zero()


def test_quadratic_gauss_sum_p5():
    phi = MultiplicativeCharacter(5, 2)
    g1 = gauss_sum(phi, 1)
    expected = CycloElement.from_terms(5, [(1, 1), (-1, 2), (-1, 3), (1, 4)])
    assert g1 == expected.raise_conductor(g1.conductor)
    assert (g1 * g1).as_rational() == 5


def test_translation():
    phi = MultiplicativeCharacter(7, 3)
    for j in range(1, 7):
        assert verify_translation(phi, j)
    phi13 = MultiplicativeCharacter(13, 4)
    for j in range(1, 13):
        assert verify_translation(phi13, j)


def test_gauss_valuation_examples():
    assert gauss_valuation(MultiplicativeCharacter(5, 2), 1, 4) == 2
    assert gauss_valuation(MultiplicativeCharacter(7, 2), 3, 4) == 3
    assert gauss_valuation(MultiplicativeCharacter(7, 3), 1, 4) >= 2
    # quadratic sums square to +-p, forcing v = (p-1)/2 exactly
    for p in (5, 13, 17):
        phi = MultiplicativeCharacter(p, 2)
        for j in (1, 2):
            assert gauss_valuation(phi, j, 4) == (p - 1) // 2


def test_gauss_valuation_rejects_small_precision():
    phi = MultiplicativeCharacter(7, 2)
    with pytest.raises(PrecisionError) as info:
        gauss_valuation(phi, 1, 1)
    assert info.value.suggested_precision >= 3


def test_valuation_below_bound_is_a_fail_record(monkeypatch):
    # a broken kernel must give FAIL records, not an exception out of the run
    monkeypatch.setattr(gauss, "pi_valuation", lambda x: 0)
    report, code = run(SuiteConfig(suite="gauss", p=7))
    assert code == 1
    failed = [r for r in report["records"] if not r["pass"]]
    valuations = [r for r in failed if r["case"].startswith("valuation:p7:")]
    assert valuations and all(r["witness"]["valuation"] == 0 for r in valuations)


def test_valuation_at_the_bound_fails_above_n2(monkeypatch):
    # (p-1)/n meets Prop 4.6's bound, but Stickelberger's value is
    # (p-1)(n-1)/n, which differs from it once n > 2
    monkeypatch.setattr(suites, "gauss_valuation", lambda phi, j, M: (phi.p - 1) // phi.n)
    report, code = run(SuiteConfig(suite="gauss", p=7))
    assert code == 1
    valuations = [r for r in report["records"] if r["case"].startswith("valuation:")]
    assert {r["witness"]["n"] for r in valuations} == {2, 3, 6}
    assert all(r["pass"] == (r["witness"]["n"] == 2) for r in valuations)


def _share_count(monkeypatch, k):
    # run_gauss deals one share per CPU that os.sched_getaffinity reports
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "cpus, fork", [(1, True), (2, True), (3, True), (2, False)], ids=["1", "2", "3", "no-fork"]
)
def test_report_bytes_do_not_depend_on_the_share_count(monkeypatch, capsys, cpus, fork):
    _share_count(monkeypatch, cpus)
    if not fork:
        monkeypatch.delattr(os, "fork")
    for argv, digest in (
        ("verify gauss --pmax 13 --format json", "2a60d9eee1cdafe79bee80bd53bd7104"),
        ("verify gauss --format json", "35a14807b256703499dff7413266e9a6"),
    ):
        assert main(argv.split()) == 0
        assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == digest
    _no_children()


@pytest.mark.parametrize("where", ["child", "caller"])
def test_an_error_in_any_share_comes_back_unchanged(monkeypatch, capsys, where):
    # at 2 shares over --pmax 13 the caller runs {13, 7, 3} and a child {11, 5}
    _share_count(monkeypatch, 2)
    caller, bad_p = os.getpid(), {"child": 11, "caller": 7}[where]
    real = suites.verify_translation

    def broken(phi, j):
        if phi.p == bad_p:
            raise ValueError("boom in the %s" % ("caller" if os.getpid() == caller else "child"))
        return real(phi, j)

    monkeypatch.setattr(suites, "verify_translation", broken)
    stream = suites.run_gauss(SuiteConfig(suite="gauss", pmax=13))
    _no_children()  # nothing forks before the first draw
    next(stream)
    stream.close()  # a stream left unfinished reaps its children too
    _no_children()
    with pytest.raises(RuntimeError, match="a case raised ValueError: boom in the %s$" % where) as info:
        main(["verify", "gauss", "--pmax", "13"])
    assert type(info.value.__cause__) is ValueError
    assert capsys.readouterr().err == ""
    _no_children()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_monkeypatches_reach_every_share(monkeypatch, cpus):
    # as in test_valuation_at_the_bound_fails_above_n2; at 3 shares the
    # primes 13..3 are dealt as {13, 5}, {11, 3}, {7}, and only p = 3 has no n > 2
    _share_count(monkeypatch, cpus)
    monkeypatch.setattr(suites, "gauss_valuation", lambda phi, j, M: (phi.p - 1) // phi.n)
    report, code = run(SuiteConfig(suite="gauss", pmax=13))
    assert code == 1
    failed = {r["witness"]["p"] for r in report["records"] if not r["pass"]}
    assert failed == {5, 7, 11, 13}


def test_character_sum_identity():
    for p, n in [(5, 2), (7, 3), (7, 6), (11, 5), (13, 4)]:
        phi = MultiplicativeCharacter(p, n)
        for j in range(1, p):
            assert character_sum_identity(phi, j)


def test_character_sum_rhs_shape():
    # p = 7, n = 6 has R_6 = {1}: the right side is 1 + 6 zeta^j
    phi = MultiplicativeCharacter(7, 6)
    rhs = CycloElement.one(7) + CycloElement.from_rational(6, 7) * root_of_unity(7, 1)
    total = CycloElement.zero(42)
    for l in range(1, 6):
        total = total + _char_power_sum(phi, l, 1)
    assert total == rhs.raise_conductor(42)


def _char_power_sum(phi, l, j):
    # G(phi^l, j) computed directly from the definition
    total = CycloElement.zero(phi.p * (phi.p - 1))
    for k in range(1, phi.p):
        val = phi.value(k) ** l
        total = total + val.raise_conductor(42) * root_of_unity(
            phi.p, j * k % phi.p
        ).raise_conductor(42)
    return total


def test_power_sum_examples():
    phi = MultiplicativeCharacter(5, 2)
    S, exact, bounded = power_sum_S(phi)
    assert S.as_rational() == 20
    assert exact and bounded
    for p, n in [(7, 2), (7, 3), (11, 5)]:
        _, exact, bounded = power_sum_S(MultiplicativeCharacter(p, n))
        assert exact and bounded


def _school_cyclic_mul(a, b):
    # a * b in Z[y]/(y^L - 1), L = len(a): the rotations of a by each
    # exponent of b, weighted by its coefficient
    out = [0] * len(a)
    for s, c in enumerate(b):
        if c:
            out = [o + c * r for o, r in zip(out, a[-s:] + a[:-s])]
    return out


def _school_ring_mul(a, b, p, n):
    # a * b mod Phi_n(y^p): the full product, then long division by the
    # monic Phi_n(y^p), highest power first
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    mod = [(p * i, c) for i, c in enumerate(cyclotomic_polynomial(n)[:-1]) if c]
    top = len(a)
    for e in range(len(prod) - 1, top - 1, -1):
        c = prod[e]
        if c:
            prod[e] = 0
            for i, t in mod:
                prod[e - top + i] -= c * t
    return prod[:top]


# signed slots on both sides of byte boundaries, up to five bytes
_EDGES = sorted(
    {0, 1, -1, 127, -127, 128, -128, -129, 255, 256}
    | {v for k in range(1, 6) for v in (-(1 << (8 * k - 1)), -(1 << (8 * k - 1)) - 1)}
    | {(1 << (8 * k - 1)) - 1 for k in range(1, 6)}
)
_RINGS = [(p, n) for p in (3, 5, 7, 11) for n in (1, 2, 3, 4, 6, 11, 15) if n % p]


@pytest.mark.parametrize("p, n", _RINGS)
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ring_power_matches_schoolbook(p, n, data):
    # the widest entry of an example has up to `top` bytes, and its entries
    # straddle the byte boundaries below that
    top = data.draw(st.integers(1, 5))
    edges = [c for c in _EDGES if -(1 << (8 * top - 1)) - 1 <= c < 1 << (8 * top - 1)]
    size = p * euler_phi(n)
    vec = data.draw(
        st.lists(
            st.one_of(st.sampled_from(edges), st.integers(-300, 300)),
            min_size=size,
            max_size=size,
        )
    )
    expect = vec
    for k in range(1, 13):
        raw, w = _ring_power(vec, p, n, k)
        half = 1 << (8 * w - 1)
        got = [c - half for c in _unpack(int.from_bytes(raw, "little"), size, w)]
        assert got == expect
        expect = _school_ring_mul(expect, vec, p, n)


def test_signed_bits_brute_force():
    def least_bits(vals):
        b = 1
        while not all(-(1 << (b - 1)) <= c < 1 << (b - 1) for c in vals):
            b += 1
        return b

    groups = [[c] for c in _EDGES] + [_EDGES, [3, -129, 0], [-(1 << 39), 127]]
    for vals in groups:
        b = least_bits(vals)
        for nbytes in range((b + 7) // 8, (b + 7) // 8 + 3):
            half = 1 << (8 * nbytes - 1)
            raw = _pack([c + half for c in vals], nbytes).to_bytes(len(vals) * nbytes, "little")
            assert _signed_bits(_planes(raw, nbytes)) == b, (vals, nbytes)


def _power_sum_school(phi):
    # S from the definition: exponents at conductor m = p(p-1), divided by
    # step in the test, schoolbook n-th powers, one canonical reduction
    p, n = phi.p, phi.n
    m, step = p * (p - 1), (p - 1) // n
    total = [0] * (m // step)
    for j in range(1, p):
        vec = [0] * (m // step)
        for k in range(1, p):
            e = (p * phi.exponent_of(k) + (p - 1) * (j * k % p)) % m
            assert e % step == 0
            vec[e // step] += 1
        powed = vec
        for _ in range(n - 1):
            powed = _school_cyclic_mul(powed, vec)
        total = [a + b for a, b in zip(total, powed)]
    return CycloElement.from_terms(m, ((c, i * step) for i, c in enumerate(total) if c))


@pytest.mark.parametrize(
    "p, n",
    [(p, n) for p in (3, 5, 7, 11, 13) for n in range(2, p) if (p - 1) % n == 0]
    + [(23, 11), (31, 30)],
)
def test_power_sum_matches_schoolbook(p, n):
    phi = MultiplicativeCharacter(p, n)
    S, exact, bounded = power_sum_S(phi)
    expect = _power_sum_school(phi)
    assert (S.num, S.den) == (expect.num, expect.den)
    assert exact and bounded


def test_power_sum_padic_route_fails_on_a_wrong_padic_sum(monkeypatch):
    # (S1)'s Z_p[zeta_p] route: the sum of the padic G(phi, j)^n must equal
    # the embedded exact S.  A wrong padic sum at the route's precision 3
    # fails every power-sum-valuation record, and those records alone: the
    # valuations and the coherence check run at the suite's precision 6
    padic_sum = gauss.gauss_sum_padic

    def wrong(phi, j, precision):
        g = padic_sum(phi, j, precision)
        return g + 1 if precision == 3 else g

    monkeypatch.setattr(gauss, "gauss_sum_padic", wrong)
    report, code = run(SuiteConfig(suite="gauss", p=11))
    assert code == 1
    failed = {r["case"] for r in report["records"] if not r["pass"]}
    assert failed == {"power-sum-valuation:p11:n%d" % n for n in (2, 5, 10)}


@pytest.mark.parametrize("M", [1, 3, 6])
def test_gauss_padic_matches_definition(M):
    # sum_k phi(k) zeta^{jk} with phi(k) the step-th power of the Teichmuller
    # lift of k itself, so no discrete-log table is involved
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        zetas = [PadicCycloElement.zeta_power(p, M, e) for e in range(p)]
        lifts = [None] + [teichmuller(k, p, M) for k in range(1, p)]
        for n in divisor_list(p - 1):
            step = (p - 1) // n
            phi = MultiplicativeCharacter(p, n)
            for j in range(p):
                expect = PadicCycloElement.zero(p, M)
                for k in range(1, p):
                    expect = expect + pow(lifts[k], step, p**M) * zetas[j * k % p]
                assert gauss_sum_padic(phi, j, M) == expect, (p, n, j)


def test_backend_coherence():
    for p, n in [(3, 2), (5, 2), (5, 4), (7, 3)]:
        phi = MultiplicativeCharacter(p, n)
        for j in range(1, p):
            assert backend_coherence(phi, j, 4)


def test_padic_backend_values():
    from resolvendlab.padic import pi_valuation

    phi = MultiplicativeCharacter(5, 2)
    g = gauss_sum_padic(phi, 1, 4)
    assert pi_valuation(g) == 2


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a
