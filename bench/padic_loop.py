"""The padic workload: a library loop over seeded PadicCycloElement operands.

The CLI suites spend under 7 % of their time in padic arithmetic, so this
loop is the only workload where a change to that layer can move an
end-to-end number.  Operands are built from the seed before timing, digit by
digit in the pi-basis, so each one's pi-adic valuation is known in advance:
units, small and large valuations, and the zero element (AT_CAP).  Products
and powers whose valuations add up past the cap (p-1)*M land on AT_CAP too.

Every result is checked afterwards by routes that do not share code with the
library: valuations against the construction, sums, products and powers
coefficient by coefficient against a schoolbook product written here, and
Teichmuller lifts against their defining congruences.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb
from time import perf_counter

CONFIGS = ((31, 6), (47, 6))
OPERANDS = 120  # per (p, M); the last one is zero
NEIGHBOURS = 3  # products and sums of each operand with its next three
POWERS = (2, 3, 5)
PASSES = 2  # over the same operands; every pass must give the first's results


def _operand(rng, p, M, v):
    """Z_p[zeta_p] coefficients, mod p^M, of an element of valuation v."""
    mod = p**M
    n = p - 1
    if v >= n * M:
        return [0] * n
    a, k = divmod(v, n)
    digits = []
    for i in range(n):
        if i == k:
            unit = rng.randrange(1, mod)
            while unit % p == 0:
                unit = rng.randrange(1, mod)
            digits.append(p**a * unit % mod)
        else:
            # below k the digit needs one more factor of p to stay above v
            digits.append(p ** (a + (i < k)) * rng.randrange(mod) % mod)
    # pi^i = (zeta - 1)^i = sum_j C(i, j) (-1)^(i-j) zeta^j, with i <= p-2
    return [
        sum(digits[i] * comb(i, j) * (-1) ** (i - j) for i in range(j, n)) % mod
        for j in range(n)
    ]


def make_inputs(seed, lib):
    """[(p, M, operands, valuations)] for each configuration."""
    out = []
    for p, M in CONFIGS:
        rng = random.Random("padic-%s-%d-%d" % (seed, p, M))
        cap = (p - 1) * M
        vals = [0, 0, 1, p - 2, p - 1, 2 * (p - 1) + 1]
        vals += [rng.randrange(cap) for _ in range(OPERANDS - 1 - len(vals))]
        vals.append(cap)
        ops = [lib.PadicCycloElement(p, M, _operand(rng, p, M, v)) for v in vals]
        out.append((p, M, ops, [v if v < cap else lib.AT_CAP for v in vals]))
    return out


def run(inputs, lib):
    """The timed loop; returns each pass's results and seconds per operation."""
    passes = []
    times = dict.fromkeys(("mul", "pow", "add", "pi_valuation", "teichmuller"), 0.0)
    for _ in range(PASSES):
        results = []
        for p, M, ops, _ in inputs:
            pairs = _pairs(ops)
            t0 = perf_counter()
            prods = [x * y for x, y in pairs]
            t1 = perf_counter()
            powers = [[x**k for k in POWERS] for x in ops]
            t2 = perf_counter()
            sums = [x + y for x, y in pairs]
            t3 = perf_counter()
            vals = [lib.pi_valuation(z) for z in ops + prods]
            t4 = perf_counter()
            lifts = [lib.teichmuller(k, p, M) for k in range(1, p)]
            t5 = perf_counter()
            for name, dt in zip(times, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
                times[name] += dt
            results.append((prods, powers, sums, vals, lifts))
        passes.append(results)
    return passes, times


def _pairs(ops):
    """Each operand with its next NEIGHBOURS successors, cyclically."""
    n = len(ops)
    return [(ops[i], ops[(i + d) % n]) for d in range(1, NEIGHBOURS + 1) for i in range(n)]


def _product(x, y, p, mod):
    """Coefficients of x*y in (Z/mod)[zeta_p]: multiply mod zeta^p - 1, then
    reduce mod Phi_p, where zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    c = [0] * p
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            c[(i + j) % p] += a * b
    return tuple((cj - c[p - 1]) % mod for cj in c[: p - 1])


def check(inputs, passes, lib):
    """[(case, passed)] for each configuration, and an md5 of all outputs."""
    cases = []
    digest = hashlib.md5()
    for i, ((p, M, ops, expect), (prods, powers, sums, vals, lifts)) in enumerate(
        zip(inputs, passes[0])
    ):
        mod = p**M
        cap = (p - 1) * M

        def scaled(v, k):
            return lib.AT_CAP if v is lib.AT_CAP or k * v >= cap else k * v

        def added(v, w):
            if v is lib.AT_CAP or w is lib.AT_CAP or v + w >= cap:
                return lib.AT_CAP
            return v + w

        n = len(ops)
        tag = "p%d:M%d" % (p, M)
        cases.append((tag + ":valuation", vals[:n] == expect))
        ok_mul = vals[n:] == [added(v, w) for v, w in _pairs(expect)]
        ok_mul = ok_mul and all(
            z.coeffs == _product(x.coeffs, y.coeffs, p, mod)
            for z, (x, y) in zip(prods, _pairs(ops))
        )
        cases.append((tag + ":mul", ok_mul))
        ok_pow = True
        for x, v, row in zip(ops, expect, powers):
            step = [x.coeffs]  # step[k - 1] is x^k
            while len(step) < max(POWERS):
                step.append(_product(step[-1], x.coeffs, p, mod))
            ok_pow = ok_pow and [y.coeffs for y in row] == [step[k - 1] for k in POWERS]
            ok_pow = ok_pow and [lib.pi_valuation(y) for y in row] == [
                scaled(v, k) for k in POWERS
            ]
        cases.append((tag + ":pow", ok_pow))
        ok_add = all(
            s.coeffs == tuple((a + b) % mod for a, b in zip(x.coeffs, y.coeffs))
            for s, (x, y) in zip(sums, _pairs(ops))
        )
        cases.append((tag + ":add", ok_add))
        ok_lift = all(
            t % p == k and pow(t, p - 1, mod) == 1 for k, t in enumerate(lifts, 1)
        )
        cases.append((tag + ":teichmuller", ok_lift))
        cases.append((tag + ":repeat", all(later[i] == passes[0][i] for later in passes[1:])))
        digest.update(
            json.dumps(
                [
                    [z.coeffs for z in prods],
                    [[y.coeffs for y in row] for row in powers],
                    [str(v) for v in vals],
                    lifts,
                ]
            ).encode()
        )
    return cases, digest.hexdigest()
