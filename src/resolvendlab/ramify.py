"""Ramification filtrations as abstract chains of subgroup orders.

Every formula in scope depends only on the orders of the lower-numbering
groups, so a filtration is just a non-increasing divisibility chain ending
at 1 (and implicitly 1 forever after).  The different valuation is the
order sum, classification reads off the first three entries, and the
square-root valuation applies to the weakly ramified shape where the
inertia orders force a p-power with equal zeroth and first entries.
"""

from __future__ import annotations

import operator

from .numutil import divisor_list, is_prime


class RamificationFiltration:
    """Orders g_0 >= g_1 >= ... >= 1, each dividing the previous."""

    __slots__ = ("orders",)

    def __init__(self, orders):
        orders = tuple(operator.index(g) for g in orders)
        if not orders:
            raise ValueError("a filtration needs at least its zeroth order")
        if orders[-1] != 1:
            raise ValueError("filtration must end at the trivial group")
        for a, b in zip(orders, orders[1:]):
            if b < 1 or b > a or a % b:
                raise ValueError(
                    "orders %r are not a divisibility chain" % (orders,)
                )
        # canonical form: exactly one trailing 1
        while len(orders) > 1 and orders[-2] == 1:
            orders = orders[:-1]
        self.orders = orders

    def order(self, i):
        """g_i, with the implicit tail of 1s."""
        return self.orders[i] if i < len(self.orders) else 1

    def __iter__(self):
        return iter(self.orders)

    def __len__(self):
        return len(self.orders)

    def __eq__(self, other):
        return (
            isinstance(other, RamificationFiltration)
            and self.orders == other.orders
        )

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return "RamificationFiltration(%r)" % (self.orders,)


def different_valuation(f):
    """Sum of (g_i - 1), the valuation of the different."""
    return sum(g - 1 for g in f.orders)


def classify(f):
    """One of unramified, tame, weak-wild, deep-wild, from the chain shape."""
    g0, g1, g2 = f.order(0), f.order(1), f.order(2)
    if g0 == 1:
        return "unramified"
    if g1 == 1:
        return "tame"
    if g2 == 1:
        return "weak-wild"
    return "deep-wild"


def sqrt_inverse_different_valuation(f, p):
    """1 - g_0, the valuation of the square root of the inverse different.

    Only weakly ramified filtrations qualify, and the abelian local theory
    forces g_0 = g_1 = p^r there; chains violating that cannot arise and
    are rejected as inconsistent.  The different valuation 2(g_0 - 1) is
    even by the same token, which is what makes the square root exist.
    """
    if not is_prime(p):
        raise ValueError("residue characteristic %r is not prime" % (p,))
    kind = classify(f)
    if kind != "weak-wild":
        raise ValueError("filtration is %s, not weak-wild" % kind)
    g0, g1 = f.order(0), f.order(1)
    if g0 != g1:
        raise ValueError(
            "inconsistent filtration: g0 = %d differs from g1 = %d" % (g0, g1)
        )
    x = g0
    while x % p == 0:
        x //= p
    if x != 1:
        raise ValueError(
            "inconsistent filtration: g0 = %d is not a power of p = %d" % (g0, p)
        )
    dv = different_valuation(f)
    assert dv == 2 * (g0 - 1) and dv % 2 == 0
    return 1 - g0


def enumerate_filtrations(max_g0, max_len=4):
    """Every divisibility-chain filtration with g_0 <= max_g0 and at most
    max_len stored orders, in sorted order."""
    if max_g0 < 1 or max_len < 1:
        raise ValueError("need max_g0 >= 1 and max_len >= 1")
    out = []

    def extend(chain):
        if chain[-1] == 1:
            out.append(RamificationFiltration(chain))
        elif len(chain) < max_len:
            for g in divisor_list(chain[-1]):
                extend(chain + (g,))

    for g0 in range(1, max_g0 + 1):
        extend((g0,))
    out.sort(key=lambda f: f.orders)
    return out
