"""Batch verification suites with deterministic, citation-tagged reports.

Each suite exercises one family of identities.  Its SUITES entry,
run_<suite>(config), checks the suite's whole config first, raising
ValueError on a bad flag, and then returns an iterator of rows: one
(case, citation, passed, witness) tuple per case, computed lazily as the
iterator is drawn.  run calls every selected entry before it draws a single
row, so a bad flag is reported before any case runs; it then builds each
row into a ReportRecord stamped with its SUITES key.  Reports carry no
timestamps and every randomized case derives its generator from the
configured seed plus the case name, so the same configuration always
produces byte-identical JSON.
"""

from __future__ import annotations

import os
import random
from collections import namedtuple
from itertools import chain, starmap
from fractions import Fraction
from math import gcd, lcm

from .abelian import FiniteAbelianGroup, char_exponent, dual_enumerate, element_order
from .cyclotomic import _canonical
from .gauss import (
    MultiplicativeCharacter,
    _layer,
    _valuation_precision,
    backend_coherence,
    character_sum_identity,
    gauss_sum,
    gauss_valuation,
    power_sum_S,
    verify_translation,
)
from .groupring import (
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
from .numutil import divisor_list, euler_phi, factorize, is_odd_prime, odd_prime
from .ramify import (
    RamificationFiltration,
    classify,
    different_valuation,
    enumerate_filtrations,
    sqrt_inverse_different_valuation,
)
from .stickelberger import (
    VirtualCharacter,
    in_S,
    kappa_twist,
    stickelberger_map,
)
from .wildsym import (
    WildContext,
    WildElement,
    WildMonomial,
    conjugate_check,
    omega_action,
    omega_monomial,
    product_contexts,
    resolvent_at,
    transpose_eval_g,
)

CITATIONS = frozenset(
    {
        "Eq. (2)",
        "Def 3.2",
        "Prop 3.3",
        "Def 3.4",
        "Prop 3.5(a)",
        "Eq. (iden1)",
        "Prop 3.12",
        "Prop 3.14",
        "Lemma 4.4",
        "Def 4.5",
        "Prop 4.6",
        "Prop 4.7",
        "(S1)",
        "(S2)",
        "Lemma 4.8",
        "Lemma 5.7",
        "Prop 5.8",
        "Lemma 5.9",
        "Prop 5.1",
        "Theorem 1.3",
    }
)


class ReportRecord(namedtuple("ReportRecord", "suite case citation passed witness")):
    """One report row; immutable, and its citation must be registered."""

    __slots__ = ()

    def __new__(cls, suite, case, citation, passed, witness):
        if citation not in CITATIONS:
            raise ValueError("unregistered citation tag %r" % (citation,))
        return super().__new__(cls, suite, case, citation, passed, witness)

    def to_json(self):
        return {
            "suite": self.suite,
            "case": self.case,
            "citation": self.citation,
            "pass": bool(self.passed),
            "witness": self.witness,
        }


class SuiteConfig:
    """The flags of one run; every attribute is a key of to_json()."""

    def __init__(self, suite="all", pmax=31, precision=6, groups=(), trials=None,
                 seed="resolvend", p=None, n=None, product=None, max_order=81):
        self.suite = suite
        self.pmax = pmax
        self.precision = precision
        self.groups = tuple(groups)
        self.trials = trials
        self.seed = seed
        self.p = p
        self.n = n
        self.product = product
        self.max_order = max_order

    def to_json(self):
        return dict(vars(self), groups=list(self.groups))


def _case_rng(seed, case):
    return random.Random("%s-%s" % (seed, case))


def _trials(config, default):
    """The configured trial count, or default; it must be at least 1."""
    trials = config.trials if config.trials is not None else default
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    return trials


def _literals(config, default, odd=False):
    """The configured group literals, or default; each must parse and, with
    odd, name a group of odd order."""
    literals = tuple(config.groups) or default
    for literal in literals:
        group = FiniteAbelianGroup.from_literal(literal)
        if odd and group.order % 2 == 0:
            raise ValueError(
                "suite needs odd group order, got %s (order %d)"
                % (literal, group.order)
            )
    return literals


# -- gauss ---------------------------------------------------------------


def _gauss_rows(p, n, precision, deep, coherent):
    """Lemma 4.4 at (p, n); with deep and n > 1 also the valuations,
    character sums and power sums; with coherent also backend coherence."""
    phi = MultiplicativeCharacter(p, n)
    at_zero = gauss_sum(phi, 0)
    if n == 1:
        ok = at_zero.as_rational() == p - 1
        ok = ok and all(
            gauss_sum(phi, j).as_rational() == -1 for j in range(1, p)
        )
    else:
        ok = at_zero.is_zero()
    ok = ok and all(verify_translation(phi, j) for j in range(1, p))
    yield "lemma-4.4:p%d:n%d" % (p, n), "Lemma 4.4", ok, {
        "p": p,
        "n": n,
        "j_checked": p - 1,
    }
    if n == 1 or not deep:
        return
    bound = (p - 1) // n
    for j in range(1, p):
        v = gauss_valuation(phi, j, precision)
        # Prop 4.6's bound, and Stickelberger's exact value for phi = omega^((p-1)/n)
        ok = v >= bound and v * n == (p - 1) * (n - 1)
        yield "valuation:p%d:n%d:j%d" % (p, n, j), "Prop 4.6", ok, {
            "p": p,
            "n": n,
            "j": j,
            "valuation": v,
            "bound": bound,
        }
        ok = character_sum_identity(phi, j)
        yield "char-sum:p%d:n%d:j%d" % (p, n, j), "Prop 4.7", ok, {
            "p": p,
            "n": n,
            "j": j,
        }
    _, exact, bounded = power_sum_S(phi)
    yield "power-sum-exact:p%d:n%d" % (p, n), "(S2)", exact, {"p": p, "n": n}
    yield "power-sum-valuation:p%d:n%d" % (p, n), "(S1)", bounded, {
        "p": p,
        "n": n,
        "bound": p - 1,
    }
    if coherent:
        ok = all(backend_coherence(phi, j, precision) for j in range(1, p))
        yield "coherence:p%d:n%d" % (p, n), "Def 4.5", ok, {
            "p": p,
            "n": n,
            "precision": precision,
        }


def _gauss_shares(shares):
    """Rows of each share of _gauss_rows arguments, from the first draw on: share 0
    runs here while each later share runs in a forked child, which pickles back its
    rows or the exception a case raised.  Every child is reaped however the stream ends."""
    import pickle
    import signal
    children = []
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child leaves only through _exit: no atexit, no flush
                try:
                    try:
                        out = None, list(chain.from_iterable(starmap(_gauss_rows, share)))
                    except Exception as exc:
                        out = exc, ()
                    with os.fdopen(w, "wb") as pipe:
                        pickle.dump(out, pipe)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        yield from chain.from_iterable(starmap(_gauss_rows, shares[0]))
        for _, pipe in children:
            error, rows = pickle.load(pipe)
            if error is not None:
                raise error
            yield from rows
    finally:
        for pid, pipe in children:  # a child still running is cut short
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_gauss(config):
    """Identity sweep to pmax; valuations, character sums and power sums to
    min(pmax, 31); backend coherence to min(pmax, 13).  An explicit --p
    narrows the sweep to one prime and lifts both caps for it; --n narrows
    to one character order, which must divide p - 1 for every swept p.
    Primes are dealt in descending order, round-robin, into one share per
    CPU; the caller runs share 0, and run sorts what every share yields."""
    pmax = config.pmax
    if pmax < 3:
        raise ValueError("pmax must be at least 3, got %d" % pmax)
    if config.p is not None:
        primes = [odd_prime(config.p)]
        deep_cap = coherence_cap = config.p
    else:
        primes = [p for p in range(3, pmax + 1) if is_odd_prime(p)]
        deep_cap = min(pmax, 31)
        coherence_cap = min(pmax, 13)
    cases = []
    for p in primes:
        orders = divisor_list(p - 1) if config.n is None else [_layer(p, config.n)[1]]
        cases.append([(p, n, config.precision, p <= deep_cap, p <= coherence_cap) for n in orders])
    if config.n != 1:  # a valuation case runs, the first at primes[0]
        _valuation_precision(config.precision, primes[0])
    affinity = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))
    k = min(len(affinity(0)) if hasattr(os, "fork") else 1, len(primes))
    return _gauss_shares([sum(cases[::-1][i::k], []) for i in range(k)])


# -- stickelberger -------------------------------------------------------

_STICKELBERGER_DEFAULT_GROUPS = ("3", "9", "3,3", "7", "15")
_BOX_RADIUS = 2
_RANDOM_SPAN = 6


def _pairing_tables(group):
    """Integer tables for the centered pairing and the determinant.

    U[a][b] holds the pairing of character a with element b scaled by the
    group exponent m (always an integer); C[a] holds character coordinates.
    Integrality of the group-ring image of v then reads vU == 0 mod m, and
    determinant-kernel membership vC == 0 mod the invariant factors.
    """
    m = group.exponent
    chars = dual_enumerate(group)

    def scaled(chi, s):
        o = element_order(group, s)
        t = (char_exponent(group, chi, s) // (m // o)) % o
        return (t - o if t > (o - 1) // 2 else t) * (m // o)

    U = [[scaled(chi, s) for s in group.elements()] for chi in chars]
    C = [list(chi.coords) for chi in chars]
    return U, C


def _box_zero_count(rows, mods, radius):
    """How many v in [-radius, radius]^len(rows) have sum_a v_a rows[a] == 0
    mod mods, counted by folding the box one coordinate at a time into a
    map from residue to multiplicity."""
    zero = (0,) * len(mods)
    counts = {zero: 1}
    for row in rows:
        steps = [[v * x for x in row] for v in range(-radius, radius + 1)]
        folded = {}
        for key, n in counts.items():
            for step in steps:
                k = tuple((a + b) % d for a, b, d in zip(key, step, mods))
                folded[k] = folded.get(k, 0) + n
        counts = folded
    return counts[zero]


def _box_equivalence(group, U, C, radius):
    """Exhaustive check that integrality matches kernel membership over the
    coefficient box [-radius, radius]^|dual|, on the _pairing_tables U, C of
    group: the integral, the kernel and the joint zero sets are counted, and
    the first two agree iff all three counts do.  Returns (total, kernel, ok)."""
    mod_u = [group.exponent] * len(U[0])
    mod_c = list(group.invariant_factors)
    integral = _box_zero_count(U, mod_u, radius)
    kernel = _box_zero_count(C, mod_c, radius)
    both = _box_zero_count([u + c for u, c in zip(U, C)], mod_u + mod_c, radius)
    return (2 * radius + 1) ** len(U), kernel, integral == kernel == both


def _stickelberger_rows(literal, seed, trials):
    group = FiniteAbelianGroup.from_literal(literal)
    chars = dual_enumerate(group)
    if group.order <= 9:
        U, C = _pairing_tables(group)
        total, kernel, ok = _box_equivalence(group, U, C, _BOX_RADIUS)
        yield "box:%s" % literal, "Prop 3.12", ok, {
            "group": literal,
            "radius": _BOX_RADIUS,
            "vectors": total,
            "kernel": kernel,
        }
        # spot-check the table route against the object route
        rng = _case_rng(seed, "crosscheck:%s" % literal)
        m = group.exponent
        agree = True
        for _ in range(25):
            vec = [rng.randrange(-_BOX_RADIUS, _BOX_RADIUS + 1) for _ in chars]
            psi = VirtualCharacter(group, list(zip(chars, vec)))
            table_integral = all(
                sum(v * u for v, u in zip(vec, col)) % m == 0 for col in zip(*U)
            )
            if stickelberger_map(psi).is_integral() != table_integral:
                agree = False
        yield "crosscheck:%s" % literal, "Prop 3.12", agree, {
            "group": literal,
            "samples": 25,
        }
    rng = _case_rng(seed, "random:%s" % literal)
    hits = 0
    ok = True
    for _ in range(trials):
        vec = [rng.randrange(-_RANDOM_SPAN, _RANDOM_SPAN + 1) for _ in chars]
        psi = VirtualCharacter(group, list(zip(chars, vec)))
        member = in_S(psi)
        if member != stickelberger_map(psi).is_integral():
            ok = False
        hits += member
    yield "random:%s" % literal, "Prop 3.12", ok, {
        "group": literal,
        "trials": trials,
        "kernel": hits,
    }
    mexp = group.exponent
    units = [u for u in range(1, mexp) if gcd(u, mexp) == 1]
    ok = True
    for chi in chars:
        base = stickelberger_map(VirtualCharacter.single(chi))
        for u in units:
            lhs = stickelberger_map(
                VirtualCharacter.single(kappa_twist(u, chi))
            )
            if lhs != base.permute_powers(pow(u, -1, mexp)):
                ok = False
    yield "twist:%s" % literal, "Prop 3.14", ok, {
        "group": literal,
        "characters": len(chars),
        "units": len(units),
    }


def run_stickelberger(config):
    groups = _literals(config, _STICKELBERGER_DEFAULT_GROUPS, odd=True)
    trials = _trials(config, 500)
    return chain.from_iterable(
        _stickelberger_rows(literal, config.seed, trials) for literal in groups
    )


# -- wild ----------------------------------------------------------------

_WILD_DEFAULT_PRIMES = (3, 5, 7, 11, 13, 17, 19)


def _wild_pair_rows(p, n):
    ctx = WildContext(p, n)
    alpha = ctx.alpha
    ok_alpha = len(alpha.coeffs) == p and all(
        c == Fraction(1, p) for c in alpha.coeffs.values()
    )
    # omega_j fixes alpha because it sends summand k to summand jk; weights
    # k + 1 tell the summands apart, read back from ctx.summands
    tagged = WildElement(p, {mono: k + 1 for k, mono in enumerate(ctx.summands)})
    ok_alpha = ok_alpha and all(
        omega_action(j, alpha) == alpha
        and omega_action(j, tagged)
        == WildElement(p, {ctx.summands[j * k % p]: k + 1 for k in range(p)})
        for j in ctx.subgroup
    )
    yield "alpha:p%d:n%d" % (p, n), "Lemma 5.7", ok_alpha, {
        "p": p,
        "n": n,
        "summands": len(alpha.coeffs),
    }
    ok_conj = all(
        conjugate_check(ctx, j, k) for j in range(p) for k in range(p)
    )
    yield "conjugate:p%d:n%d" % (p, n), "Prop 5.8", ok_conj, {
        "p": p,
        "n": n,
        "pairs": p * p,
    }
    g = ctx.g
    ok_g = g.check_equivariance(
        ctx.subgroup, lambda u, v: omega_monomial(u, v, p)
    )
    support = sum(1 for s in ctx.group.elements() if not g(s).is_one())
    yield "gmap:p%d:n%d" % (p, n), "Lemma 5.9", ok_g, {
        "p": p,
        "n": n,
        "support": support,
    }
    monos = {}
    for k in range(p):
        try:
            ((mono, _coeff),) = resolvent_at(ctx, k).coeffs.items()
            matched = transpose_eval_g(ctx, k) == mono
            monos[k] = mono
            witness = {"p": p, "n": n, "k": k, "monomial": str(mono)}
        except ArithmeticError as exc:
            matched = False
            witness = {"p": p, "n": n, "k": k, "error": str(exc)}
        yield "resolvent:p%d:n%d:k%d" % (p, n, k), "Prop 5.1", matched, witness
    ok_pair = len(monos) == p and all(
        monos[k] * monos[(-k) % p] == WildMonomial.one() for k in range(p)
    )
    yield "pairing:p%d:n%d" % (p, n), "Lemma 4.8", ok_pair, {"p": p, "n": n}


def _wild_product_rows(p, ns):
    for coords, mono, ok in product_contexts(p, ns):
        case = "product:p%d:r%d:k%s" % (
            p,
            len(ns),
            "-".join(str(c) for c in coords),
        )
        yield case, "Theorem 1.3", ok, {
            "p": p,
            "orders": list(ns),
            "coords": list(coords),
            "monomial": str(mono),
        }


def product_orders(p, r, n=None):
    """Character orders used for an r-fold product at p: the requested n for
    every slot, or the smallest nontrivial divisors of p-1, cycling."""
    if n is not None:
        return tuple([n] * r)
    pool = [d for d in divisor_list(p - 1) if d > 1]
    if not pool:
        raise ValueError("p = %d has no nontrivial character orders" % p)
    return tuple(pool[i % len(pool)] for i in range(r))


def run_wild(config):
    ps = (config.p,) if config.p is not None else _WILD_DEFAULT_PRIMES
    for p in ps:
        _layer(p, 1 if config.n is None else config.n)
    if config.product is not None:
        if config.product < 1:
            raise ValueError("product size must be positive")
        if config.p is None:
            raise ValueError("--product needs an explicit p")
    cases = [
        (p, n)
        for p in ps
        for n in ((config.n,) if config.n is not None else divisor_list(p - 1))
    ]
    rows = chain.from_iterable(_wild_pair_rows(p, n) for p, n in cases)
    if config.product is None:
        return rows
    ns = product_orders(config.p, config.product, config.n)
    return chain(rows, _wild_product_rows(config.p, ns))


# -- groupring -----------------------------------------------------------

_GROUPRING_DEFAULT_GROUPS = ("3", "9", "3,3", "15", "2,4", "30")


def _random_cyclo(rng, conductor):
    # numerator, then denominator, per coefficient: the draw order reports pin
    pairs = [(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(euler_phi(conductor))]
    den = lcm(*(d for _, d in pairs))
    return _canonical(conductor, [c * (den // d) for c, d in pairs], den)


def _random_map(rng, group, conductor):
    return GroupMap(
        group,
        conductor,
        {s: _random_cyclo(rng, conductor) for s in group.elements()},
    )


def _groupring_rows(literal, seed, trials):
    group = FiniteAbelianGroup.from_literal(literal)
    N = group.exponent
    rng = _case_rng(seed, "groupring:%s" % literal)
    ok_round = ok_diag = ok_units = True
    unit_rounds = min(trials, 20)
    unit_hits = 0
    for round_no in range(trials):
        a = _random_map(rng, group, N)
        r = resolvend(a)
        if resolvend_to_map(r) != a:
            ok_round = False
        tr = transform(r)
        if inverse_transform(tr) != a:
            ok_round = False
        # Def 3.4 itself, once: the kernel's transform is the resolvent at every character
        if round_no == 0 and any(tr(chi) != resolvent(a, chi) for chi in dual_enumerate(group)):
            ok_round = False
        r2 = GroupRingElement(
            group, N, {s: _random_cyclo(rng, N) for s in group.elements()}
        )
        if transform(r * r2) != tr.pointwise_mul(transform(r2)):
            ok_diag = False
        if round_no >= unit_rounds:
            continue
        unit = is_unit(r)
        if unit != unit_pair_check(a):
            ok_units = False
        if unit:
            unit_hits += 1
            if unit_inverse(r) * r != GroupRingElement.identity(group, N):
                ok_units = False
            shift = group.element(
                [rng.randrange(d) for d in group.invariant_factors]
            )
            if reduced_equal(r, r * shift) != shift:
                ok_units = False
    if group.order > 1:
        # a fixed non-unit, delta_e - delta_s: both routes must reject it
        e, s = group.elements()[:2]
        non_unit = GroupMap.from_function(group, N, lambda t: int(t == e) - int(t == s))
        if is_unit(resolvend(non_unit)) or unit_pair_check(non_unit):
            ok_units = False
    yield "roundtrip:%s" % literal, "Def 3.4", ok_round, {
        "group": literal,
        "trials": trials,
    }
    yield "convolution:%s" % literal, "Eq. (iden1)", ok_diag, {
        "group": literal,
        "trials": trials,
    }
    yield "units:%s" % literal, "Prop 3.5(a)", ok_units, {
        "group": literal,
        "trials": unit_rounds,
        "units_seen": unit_hits,
    }


def run_groupring(config):
    groups = _literals(config, _GROUPRING_DEFAULT_GROUPS)
    trials = _trials(config, 50)
    return chain.from_iterable(
        _groupring_rows(literal, config.seed, trials) for literal in groups
    )


# -- ramify --------------------------------------------------------------


def _class_from_valuation(dv, g0, g1):
    """Def 3.2 read off the different valuation and g_0, g_1: the second
    route to classify, which reads the chain shape."""
    if dv == 0:
        return "unramified"
    if g1 == 1 and dv == g0 - 1:
        return "tame"
    if g1 > 1 and dv == (g0 - 1) + (g1 - 1):
        return "weak-wild"
    return "deep-wild"


def _ramify_rows(max_order):
    counts = {"unramified": 0, "tame": 0, "weak-wild": 0, "deep-wild": 0}
    classes_agree = True
    sqrt_cases = 0
    sqrt_ok = True
    chains = enumerate_filtrations(max_order, 4)
    for f in chains:
        dv = different_valuation(f)
        kind = classify(f)
        counts[kind] += 1
        classes_agree = classes_agree and kind == _class_from_valuation(
            dv, f.order(0), f.order(1)
        )
        v_sqrt = None
        # Hilbert's formula summed over the group: the g_k - g_{k+1} elements
        # of G_k \ G_{k+1} each have i_G(sigma) = k + 1
        hilbert = sum((k + 1) * (g - f.order(k + 1)) for k, g in enumerate(f))
        ok = dv >= 0 and dv == hilbert
        if kind == "weak-wild" and f.order(0) == f.order(1):
            primes = factorize(f.order(0))
            if len(primes) == 1:
                p = primes[0][0]
                v_sqrt = sqrt_inverse_different_valuation(f, p)
                sqrt_cases += 1
                good = v_sqrt == 1 - f.order(0) and dv == 2 * (f.order(0) - 1)
                good = good and dv % 2 == 0
                sqrt_ok = sqrt_ok and good
                ok = ok and good
        yield "chain:%s" % ",".join(str(g) for g in f), "Eq. (2)", ok, {
            "filtration": list(f),
            "class": kind,
            "v_different": dv,
            "v_sqrt": v_sqrt,
        }
    partition_ok = classes_agree and sum(counts.values()) == len(chains)
    yield "classify-partition", "Def 3.2", partition_ok, {
        "max_order": max_order,
        "counts": counts,
    }
    yield "sqrt-existence", "Prop 3.3", sqrt_ok and sqrt_cases > 0, {
        "max_order": max_order,
        "cases": sqrt_cases,
    }
    rejects_ok = True
    for orders, p in (((6, 6, 1), 3), ((9, 3, 1), 3)):
        try:
            sqrt_inverse_different_valuation(RamificationFiltration(orders), p)
            rejects_ok = False
        except ValueError as exc:
            rejects_ok = rejects_ok and "inconsistent filtration" in str(exc)
    yield "sqrt-rejections", "Prop 3.3", rejects_ok, {"cases": ["6,6,1", "9,3,1"]}


def run_ramify(config):
    if config.max_order < 2:
        raise ValueError("max order must be at least 2")
    return _ramify_rows(config.max_order)


# -- driver --------------------------------------------------------------

SUITES = {
    "gauss": run_gauss,
    "stickelberger": run_stickelberger,
    "wild": run_wild,
    "ramify": run_ramify,
    "groupring": run_groupring,
}


def run(config):
    """Execute the configured suite(s); returns (report dict, exit code).

    Every selected suite checks its config before any row is drawn, so a
    ValueError is bad usage only up to that point.  One raised inside a case
    is a fault and comes back as a RuntimeError, which the CLI does not catch.
    """
    if config.suite == "all":
        names = sorted(SUITES)
    elif config.suite in SUITES:
        names = [config.suite]
    else:
        raise ValueError("unknown suite %r" % (config.suite,))
    streams = [(name, SUITES[name](config)) for name in names]
    try:
        records = [ReportRecord(name, *row) for name, rows in streams for row in rows]
    except ValueError as exc:
        raise RuntimeError("a case raised %s: %s" % (type(exc).__name__, exc)) from exc
    records.sort(key=lambda r: (r.suite, r.case))
    failed = sum(1 for r in records if not r.passed)
    report = {
        "suite": config.suite,
        "config": config.to_json(),
        "records": [r.to_json() for r in records],
        "passed": len(records) - failed,
        "failed": failed,
    }
    return report, (0 if failed == 0 else 1)
