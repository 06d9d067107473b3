"""End-to-end acceptance gate: ten headline checks, one summary line each.

Every check either verifies an identity exactly or certifies a valuation
bound; the stated runtime limits are asserted where they apply.
"""

import hashlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import numpy as np

from resolvendlab.abelian import FiniteAbelianGroup, dual_enumerate
from resolvendlab.cli import main
from resolvendlab.cyclotomic import CycloElement
from resolvendlab.gauss import (
    MultiplicativeCharacter,
    character_sum_identity,
    gauss_sum,
    gauss_valuation,
    power_sum_S,
    verify_translation,
)
from resolvendlab.groupring import (
    GroupMap,
    GroupRingElement,
    inverse_transform,
    resolvend,
    resolvend_to_map,
    transform,
)
from resolvendlab.numutil import divisor_list, euler_phi, is_odd_prime
from resolvendlab.ramify import (
    RamificationFiltration,
    classify,
    different_valuation,
    enumerate_filtrations,
    sqrt_inverse_different_valuation,
)
from resolvendlab.stickelberger import (
    VirtualCharacter,
    in_S,
    kappa_twist,
    pairing,
    stickelberger_map,
)
from resolvendlab.wildsym import (
    WildContext,
    WildMonomial,
    build_alpha,
    build_g,
    conjugate_check,
    omega_action,
    omega_monomial,
    product_contexts,
    resolvent_at,
    transpose_eval_g,
)


def _finish(log, num, label, ok, elapsed, limit=None):
    timed_out = limit is not None and elapsed >= limit
    status = "PASS" if ok and not timed_out else "FAIL"
    line = "criterion %2d %s %s (%.1fs)" % (num, status, label, elapsed)
    log(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, label
    if limit is not None:
        assert elapsed < limit, "%s took %.1fs, limit %ds" % (label, elapsed, limit)


def _odd_primes(bound):
    return [p for p in range(3, bound + 1) if is_odd_prime(p)]


def test_criterion_01_gauss_identities(acceptance_log):
    t0 = time.perf_counter()
    ok = True
    for p in _odd_primes(47):
        for n in divisor_list(p - 1):
            phi = MultiplicativeCharacter(p, n)
            at_zero = gauss_sum(phi, 0)
            if n == 1:
                ok = ok and at_zero.as_rational() == p - 1
                ok = ok and all(
                    gauss_sum(phi, j).as_rational() == -1 for j in range(1, p)
                )
            else:
                ok = ok and at_zero.is_zero()
            ok = ok and all(verify_translation(phi, j) for j in range(1, p))
    _finish(acceptance_log, 1, "Gauss sum identities exact, p <= 47", ok, time.perf_counter() - t0, 60)


def test_criterion_02_valuation_bound(acceptance_log):
    t0 = time.perf_counter()
    ok = True
    for p in _odd_primes(31):
        for n in divisor_list(p - 1):
            if n == 1:
                continue
            phi = MultiplicativeCharacter(p, n)
            bound = (p - 1) // n
            for j in range(1, p):
                v = gauss_valuation(phi, j, 6)
                ok = ok and v >= bound
                if n == 2:
                    ok = ok and v == bound
    _finish(acceptance_log, 
        2,
        "pi-adic valuation bound at M = 6, p <= 31",
        ok,
        time.perf_counter() - t0,
        120,
    )


def test_criterion_03_character_and_power_sums(acceptance_log):
    t0 = time.perf_counter()
    ok = True
    for p in _odd_primes(31):
        for n in divisor_list(p - 1):
            if n == 1:
                continue
            phi = MultiplicativeCharacter(p, n)
            ok = ok and all(character_sum_identity(phi, j) for j in range(1, p))
            _, exact, bounded = power_sum_S(phi)
            ok = ok and exact and bounded
    _finish(acceptance_log, 
        3, "character sums and power sums exact, p <= 31", ok, time.perf_counter() - t0
    )


def _pairing_table(group):
    # exact integer table m*<chi,s>* built from the object-level pairing
    m = group.exponent
    chars = dual_enumerate(group)
    elements = group.elements()
    U = np.zeros((len(chars), len(elements)), dtype=np.int64)
    for a, chi in enumerate(chars):
        for b, s in enumerate(elements):
            scaled = pairing(chi, s) * m
            assert scaled.denominator == 1
            U[a, b] = int(scaled)
    C = np.array([chi.coords for chi in chars], dtype=np.int64)
    return U, C


def _box_matches(group, radius):
    U, C = _pairing_table(group)
    m = group.exponent
    mods = np.array(group.invariant_factors, dtype=np.int64)
    width = U.shape[0]
    total = (2 * radius + 1) ** width
    base = 2 * radius + 1
    kernel = 0
    for start in range(0, total, 1 << 18):
        idx = np.arange(start, min(start + (1 << 18), total), dtype=np.int64)
        V = np.empty((len(idx), width), dtype=np.int64)
        for col in range(width):
            V[:, col] = (idx // base**col) % base - radius
        integral = ((V @ U) % m == 0).all(axis=1)
        member = ((V @ C) % mods == 0).all(axis=1)
        if not np.array_equal(integral, member):
            return False, kernel
        kernel += int(member.sum())
    return True, kernel


def test_criterion_04_integrality_iff_kernel(acceptance_log):
    t0 = time.perf_counter()
    ok = True
    for literal in ("3", "9", "3,3"):
        good, kernel = _box_matches(FiniteAbelianGroup.from_literal(literal), 2)
        ok = ok and good and kernel > 0
    # Z/3 x Z/5 is Z/15 in invariant factors; it gets its own seeded batch
    for literal, tag in (("15", "3x5"), ("7", "7"), ("15", "15")):
        group = FiniteAbelianGroup.from_literal(literal)
        chars = dual_enumerate(group)
        rng = random.Random("acceptance-kernel-%s" % tag)
        for _ in range(500):
            vec = [rng.randrange(-6, 7) for _ in chars]
            psi = VirtualCharacter(group, list(zip(chars, vec)))
            ok = ok and in_S(psi) == stickelberger_map(psi).is_integral()
    _finish(acceptance_log, 
        4,
        "Stickelberger integrality iff kernel membership",
        ok,
        time.perf_counter() - t0,
    )


def test_criterion_05_twist_equivariance(acceptance_log):
    t0 = time.perf_counter()
    ok = True
    for literal in ("3", "9", "3,3", "15", "7"):
        group = FiniteAbelianGroup.from_literal(literal)
        m = group.exponent
        units = [u for u in range(1, m) if np.gcd(u, m) == 1]
        for chi in dual_enumerate(group):
            base = stickelberger_map(VirtualCharacter.single(chi))
            for u in units:
                twisted = stickelberger_map(
                    VirtualCharacter.single(kappa_twist(u, chi))
                )
                ok = ok and twisted == base.permute_powers(pow(u, -1, m))
    _finish(acceptance_log, 5, "twist equivariance over all units", ok, time.perf_counter() - t0)


def test_criterion_06_wild_decomposition(acceptance_log):
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13, 17, 19):
        for n in divisor_list(p - 1):
            ctx = WildContext(p, n)
            alpha = build_alpha(ctx)
            ok = ok and all(omega_action(j, alpha) == alpha for j in ctx.subgroup)
            ok = ok and all(
                conjugate_check(ctx, j, k) for j in range(p) for k in range(p)
            )
            g = build_g(ctx)
            ok = ok and g.check_equivariance(
                ctx.subgroup, lambda u, v: omega_monomial(u, v, p)
            )
            monos = {}
            for k in range(p):
                ((mono, coeff),) = resolvent_at(ctx, k).coeffs.items()
                ok = ok and coeff == CycloElement.one(p)
                ok = ok and transpose_eval_g(ctx, k) == mono
                monos[k] = mono
            ok = ok and all(
                monos[k] * monos[(-k) % p] == WildMonomial.one() for k in range(p)
            )
    _finish(acceptance_log, 
        6,
        "wild resolvent decomposition, p <= 19, all n",
        ok,
        time.perf_counter() - t0,
        30,
    )


def test_criterion_07_product_assembly(acceptance_log):
    t0 = time.perf_counter()
    rows9 = product_contexts(3, [2, 2])
    rows49 = product_contexts(7, [2, 3])
    ok = len(rows9) == 9 and all(good for _, _, good in rows9)
    ok = ok and len(rows49) == 49 and all(good for _, _, good in rows49)
    _finish(acceptance_log, 7, "two-factor product assembly at p = 3, 7", ok, time.perf_counter() - t0)


def test_criterion_08_ramification(acceptance_log):
    t0 = time.perf_counter()
    chains = enumerate_filtrations(81, 4)
    ok = len(chains) == 1099
    for f in chains:
        dv = different_valuation(f)
        direct = sum(f.order(i) - 1 for i in range(len(f) + 2))
        ok = ok and dv == direct and dv >= 0
        kind = classify(f)
        ok = ok and kind in {"unramified", "tame", "weak-wild", "deep-wild"}
        if kind == "weak-wild" and f.order(0) == f.order(1):
            g0 = f.order(0)
            p = _prime_base(g0)
            if p is not None:
                ok = ok and dv == 2 * (g0 - 1) and dv % 2 == 0
                ok = ok and sqrt_inverse_different_valuation(f, p) == 1 - g0
    for orders, p in (((6, 6, 1), 3), ((9, 3, 1), 3)):
        try:
            sqrt_inverse_different_valuation(RamificationFiltration(orders), p)
            ok = False
        except ValueError:
            pass
    _finish(acceptance_log, 8, "ramification suite exhaustive to g0 = 81", ok, time.perf_counter() - t0)


def _prime_base(g):
    p = 2
    while p * p <= g:
        if g % p == 0:
            break
        p += 1
    else:
        p = g
    while g % p == 0:
        g //= p
    return p if g == 1 else None


def _random_cyclo(rng, m):
    return CycloElement(
        m,
        [
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
            for _ in range(euler_phi(m))
        ],
    )


def test_criterion_09_transform_algebra(acceptance_log):
    t0 = time.perf_counter()
    ok = True
    for factors in ((3,), (9,), (3, 3), (15,), (2, 4), (30,)):
        group = FiniteAbelianGroup(factors)
        N = group.exponent
        rng = random.Random("acceptance-transform-%r" % (factors,))
        for _ in range(50):
            a = GroupMap(
                group, N, {s: _random_cyclo(rng, N) for s in group.elements()}
            )
            r = resolvend(a)
            ok = ok and resolvend_to_map(r) == a
            tr = transform(r)
            ok = ok and inverse_transform(tr) == a
            b = GroupRingElement(
                group, N, {s: _random_cyclo(rng, N) for s in group.elements()}
            )
            ok = ok and transform(r * b) == tr.pointwise_mul(transform(b))
    _finish(acceptance_log, 
        9,
        "transform roundtrips and diagonalization, |G| <= 30",
        ok,
        time.perf_counter() - t0,
    )


def test_criterion_10_determinism(capsys, acceptance_log):
    t0 = time.perf_counter()
    argv = ["verify", "all", "--format", "json"]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0
    ok = ok and first == second and first.strip()
    doc = json.loads(first)
    ok = ok and doc["failed"] == 0
    # the bytes every arithmetic refactor must leave alone
    ok = ok and hashlib.md5(first.encode()).hexdigest() == "572ead444dbcb344e3ee4b12f46df3b6"
    _finish(acceptance_log, 
        10, "verify all twice is byte-identical", bool(ok), time.perf_counter() - t0
    )
