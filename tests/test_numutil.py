import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from resolvendlab.cyclotomic import CycloElement
from resolvendlab.gauss import _layer
from resolvendlab.numutil import (
    discrete_log_table,
    divisor_list,
    euler_phi,
    factorize,
    is_odd_prime,
    is_prime,
    least_primitive_root,
)
from resolvendlab.padic import PadicCycloElement, embed_cyclo, teichmuller
from resolvendlab.suites import SUITES, SuiteConfig
from resolvendlab.wildsym import WildElement, c_of

_BRUTE_LIMIT = 2000


def test_divisor_list():
    assert tuple(divisor_list(1)) == (1,)
    assert tuple(divisor_list(12)) == (1, 2, 3, 4, 6, 12)
    assert tuple(divisor_list(30)) == (1, 2, 3, 5, 6, 10, 15, 30)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert euler_phi(9) == 6
    assert euler_phi(30) == 8
    assert euler_phi(35) == 24
    # multiplicativity on coprime pairs
    assert euler_phi(15) == euler_phi(3) * euler_phi(5)


# every entry point that takes an odd prime, with every other argument valid
ODD_PRIME_ENTRY_POINTS = {
    "gauss._layer": lambda p: _layer(p, 1),
    "least_primitive_root": least_primitive_root,
    "PadicCycloElement": lambda p: PadicCycloElement(p, 2, (0,) * (p - 1)),
    "teichmuller": lambda p: teichmuller(1, p, 2),
    "embed_cyclo": lambda p: embed_cyclo(CycloElement.one(), p, 2),
    "WildElement": WildElement,
    "c_of": lambda p: c_of(1, p),
    "run_gauss": lambda p: SUITES["gauss"](SuiteConfig(suite="gauss", p=p)),
}


@pytest.mark.parametrize("p", [1, 2, 9])
@pytest.mark.parametrize("entry", sorted(ODD_PRIME_ENTRY_POINTS))
def test_odd_prime_entry_points_reject(entry, p):
    with pytest.raises(ValueError, match="need an odd prime, got %d" % p):
        ODD_PRIME_ENTRY_POINTS[entry](p)
    ODD_PRIME_ENTRY_POINTS[entry](3)


def test_is_prime():
    small = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in small)
    assert not is_odd_prime(2)
    assert is_odd_prime(47)
    assert not is_odd_prime(49)


def test_least_primitive_root():
    assert least_primitive_root(3) == 2
    assert least_primitive_root(5) == 2
    assert least_primitive_root(7) == 3
    assert least_primitive_root(23) == 5
    for p in range(3, _BRUTE_LIMIT, 2):
        if not is_prime(p):
            continue
        g = 2
        while len({pow(g, e, p) for e in range(p - 1)}) != p - 1:
            g += 1
        assert least_primitive_root(p) == g


def test_discrete_log_table():
    for p in (3, 7, 13):
        rho = least_primitive_root(p)
        table = discrete_log_table(p)
        assert sorted(table) == list(range(1, p))
        for k, e in table.items():
            assert pow(rho, e, p) == k


def test_factorize():
    assert factorize(1) == ()
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(1999) == ((1999, 1),)


def test_lookups_match_brute_force():
    for n in range(1, _BRUTE_LIMIT):
        divs = tuple(d for d in range(1, n + 1) if n % d == 0)
        assert divisor_list(n) == divs
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert is_prime(n) == (divs == (1, n))
    assert not is_prime(0)


def test_import_leaves_sympy_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, resolvendlab; sys.exit('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0


def test_import_leaves_numpy_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, resolvendlab.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0
