"""Small number-theory lookups shared across modules.

Everything rests on one trial-division factoriser, which is ample for the
moduli this package works with, and every derived lookup is cached so all
modules agree on conventions (in particular: "the" primitive root mod p is
the least one).
"""

import operator
from functools import lru_cache


def factorize(n):
    """Prime factorisation of n >= 1 as ((prime, exponent), ...), primes ascending."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n should be a positive integer, got %r" % (n,))
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        q += 1 if q == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def divisor_list(m):
    """Sorted positive divisors of m."""
    divs = [1]
    for q, e in factorize(m):
        divs = [d * q**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


@lru_cache(maxsize=None)
def euler_phi(m):
    out = 1
    for q, e in factorize(m):
        out *= q ** (e - 1) * (q - 1)
    return out


@lru_cache(maxsize=None)
def is_prime(n):
    n = operator.index(n)
    return n > 1 and factorize(n) == ((n, 1),)


def is_odd_prime(p):
    return p > 2 and is_prime(p)


def odd_prime(p):
    """p as an int; the one check that p is an odd prime."""
    p = operator.index(p)
    if not is_odd_prime(p):
        raise ValueError("need an odd prime, got %d" % p)
    return p


@lru_cache(maxsize=None)
def least_primitive_root(p):
    """The least primitive root mod the odd prime p: the first g = 2, 3, ...
    with g^((p-1)/q) != 1 mod p for every prime q dividing p - 1."""
    p = odd_prime(p)
    cofactors = [(p - 1) // q for q, _ in factorize(p - 1)]
    g = 2
    while any(pow(g, c, p) == 1 for c in cofactors):
        g += 1
    return g


@lru_cache(maxsize=None)
def discrete_log_table(p):
    """Map k -> index of k with respect to the least primitive root mod p."""
    rho = least_primitive_root(p)
    table = {}
    acc = 1
    for t in range(p - 1):
        table[acc] = t
        acc = acc * rho % p
    return table
