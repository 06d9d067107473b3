import pytest

from resolvendlab import suites
from resolvendlab.ramify import (
    RamificationFiltration,
    classify,
    different_valuation,
    enumerate_filtrations,
    sqrt_inverse_different_valuation,
)
from resolvendlab.suites import SuiteConfig, run


def test_filtration_construction():
    f = RamificationFiltration((9, 3, 1))
    assert f.order(0) == 9
    assert f.order(1) == 3
    assert f.order(2) == 1
    assert f.order(99) == 1
    assert len(f) == 3
    # a single trailing 1 is canonical
    assert RamificationFiltration((9, 3, 1, 1)).orders == RamificationFiltration((9, 3, 1)).orders
    assert RamificationFiltration((1,)).orders == RamificationFiltration((1, 1)).orders == (1,)


def test_filtration_validation():
    with pytest.raises(ValueError):
        RamificationFiltration(())
    with pytest.raises(ValueError):
        RamificationFiltration((4, 3, 1))  # 3 does not divide 4
    with pytest.raises(ValueError):
        RamificationFiltration((3, 9, 1))  # increasing
    with pytest.raises(ValueError):
        RamificationFiltration((9, 3))  # must end at 1
    with pytest.raises(ValueError):
        RamificationFiltration((0, 1))


def test_different_valuation():
    assert different_valuation(RamificationFiltration((1,))) == 0
    assert different_valuation(RamificationFiltration((5, 1))) == 4
    assert different_valuation(RamificationFiltration((3, 3, 1))) == 4
    assert different_valuation(RamificationFiltration((9, 3, 1))) == 10
    # direct summation cross-check
    for orders in [(27, 9, 3, 1), (8, 2, 1), (49, 7, 1)]:
        f = RamificationFiltration(orders)
        direct = sum(f.order(i) - 1 for i in range(len(orders) + 5))
        assert different_valuation(f) == direct


def test_classify():
    assert classify(RamificationFiltration((1,))) == "unramified"
    assert classify(RamificationFiltration((5, 1))) == "tame"
    assert classify(RamificationFiltration((9, 9, 1))) == "weak-wild"
    assert classify(RamificationFiltration((9, 3, 1))) == "weak-wild"
    assert classify(RamificationFiltration((9, 3, 3, 1))) == "deep-wild"


def test_sqrt_inverse_different():
    assert sqrt_inverse_different_valuation(RamificationFiltration((3, 3, 1)), 3) == -2
    assert sqrt_inverse_different_valuation(RamificationFiltration((9, 9, 1)), 3) == -8
    assert (
        sqrt_inverse_different_valuation(RamificationFiltration((49, 49, 1)), 7) == -48
    )


def test_sqrt_inverse_different_rejections():
    with pytest.raises(ValueError, match="not a power of p"):
        sqrt_inverse_different_valuation(RamificationFiltration((6, 6, 1)), 3)
    with pytest.raises(ValueError, match="inconsistent filtration"):
        sqrt_inverse_different_valuation(RamificationFiltration((9, 3, 1)), 3)
    with pytest.raises(ValueError, match="not weak-wild"):
        sqrt_inverse_different_valuation(RamificationFiltration((5, 1)), 5)


def test_weak_wild_even_different():
    # for g0 = g1 = p^r the different valuation is even and the square
    # root of the inverse different has valuation 1 - g0
    for p, r in [(3, 1), (3, 2), (5, 1), (7, 1), (3, 3)]:
        g0 = p ** r
        f = RamificationFiltration((g0, g0, 1))
        dv = different_valuation(f)
        assert dv == 2 * (g0 - 1)
        assert dv % 2 == 0
        assert sqrt_inverse_different_valuation(f, p) == 1 - g0


def test_enumerate_filtrations():
    chains = enumerate_filtrations(4, 3)
    listed = {tuple(f) for f in chains}
    assert (1,) in listed
    assert (2, 1) in listed
    assert (4, 2, 1) in listed
    assert (3, 3, 1) in listed
    assert (4, 4, 2) not in listed  # needs length 4 to reach 1
    assert all(classify(f) in {"unramified", "tame", "weak-wild", "deep-wild"} for f in chains)


def test_enumerate_filtrations_count():
    chains = enumerate_filtrations(81, 4)
    assert len(chains) == 1099
    assert len({tuple(f) for f in chains}) == len(chains)
    counts = {"unramified": 0, "tame": 0, "weak-wild": 0, "deep-wild": 0}
    for f in chains:
        counts[classify(f)] += 1
    assert counts["unramified"] == 1
    assert counts["tame"] == 80
    assert sum(counts.values()) == len(chains)


def test_chain_flag_checks_hilbert_formula(monkeypatch):
    # one off in the order sum fails every chain:* record, also those outside
    # the square-root cases, where dv >= 0 alone would still pass
    monkeypatch.setattr(suites, "different_valuation", lambda f: different_valuation(f) + 1)
    report, code = run(SuiteConfig(suite="ramify"))
    assert code == 1
    chains = [r for r in report["records"] if r["case"].startswith("chain:")]
    assert chains and not any(r["pass"] for r in chains)
    assert any(r["witness"]["class"] in ("unramified", "tame") for r in chains)


def test_classify_partition_checks_a_second_route(monkeypatch):
    # a classify that swaps tame and weak-wild still partitions the chains,
    # so only the class read off dv, g_0 and g_1 can fail the record
    swap = {"tame": "weak-wild", "weak-wild": "tame"}
    monkeypatch.setattr(suites, "classify", lambda f: swap.get(classify(f), classify(f)))
    report, code = run(SuiteConfig(suite="ramify"))
    assert code == 1
    (record,) = [r for r in report["records"] if r["case"] == "classify-partition"]
    assert not record["pass"]
    assert sum(record["witness"]["counts"].values()) == len(enumerate_filtrations(81, 4))
