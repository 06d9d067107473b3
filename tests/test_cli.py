import hashlib
import json
from pathlib import Path

import pytest

from resolvendlab import suites
from resolvendlab.cli import build_parser, main
from resolvendlab.gauss import _layer
from resolvendlab.suites import CITATIONS, SUITES, ReportRecord, SuiteConfig, run


def test_parser_defaults(capsys):
    # an absent flag stays absent, so SuiteConfig alone holds the defaults
    args = build_parser().parse_args(["verify", "gauss"])
    assert vars(args) == {"command": "verify", "suite": "gauss", "fmt": "text"}
    config = SuiteConfig()
    assert config.pmax == 31
    assert config.precision == 6
    assert config.seed == "resolvend"
    assert config.max_order == 81
    assert config.groups == ()
    assert main(["verify", "ramify", "--max-order", "9", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == SuiteConfig(suite="ramify", max_order=9).to_json()


def test_report_record_validates_citation():
    ReportRecord("gauss", "case", "Prop 4.6", True, {})
    with pytest.raises(ValueError):
        ReportRecord("gauss", "case", "Prop 99.9", True, {})


def test_config_json_omits_presentation_knobs():
    doc = SuiteConfig(suite="gauss").to_json()
    assert set(doc) == {
        "suite",
        "pmax",
        "precision",
        "groups",
        "trials",
        "seed",
        "p",
        "n",
        "product",
        "max_order",
    }
    assert doc["suite"] == "gauss"
    assert doc["pmax"] == 31


def test_run_report_shape():
    report, code = run(SuiteConfig(suite="ramify", max_order=9))
    assert code == 0
    assert set(report) == {"suite", "config", "records", "passed", "failed"}
    assert report["failed"] == 0
    assert report["passed"] == len(report["records"])
    cases = [(r["suite"], r["case"]) for r in report["records"]]
    assert cases == sorted(cases)
    for r in report["records"]:
        assert set(r) == {"suite", "case", "citation", "pass", "witness"}


def test_exit_code_propagates_failures(monkeypatch):
    def fake(config):
        return [("synthetic", "Prop 4.6", False, {})]

    monkeypatch.setitem(SUITES, "gauss", fake)
    report, code = run(SuiteConfig(suite="gauss"))
    assert code == 1
    assert report["failed"] == 1


def test_every_config_is_checked_before_any_row(monkeypatch):
    def fake(config):
        def rows():
            raise AssertionError("a row was drawn before every config was checked")
            yield

        return rows()

    monkeypatch.setitem(SUITES, "gauss", fake)
    with pytest.raises(ValueError, match="product size must be positive"):
        run(SuiteConfig(suite="all", product=0))


def test_an_error_inside_a_case_is_not_bad_usage(monkeypatch, capsys):
    # exit 2 belongs to the config checks; a ValueError raised while a row
    # is drawn is a fault and ends the run with a traceback (exit 1)
    def broken(r):
        raise ValueError("kernel bug")

    monkeypatch.setattr(suites, "transform", broken)
    with pytest.raises(RuntimeError, match="kernel bug") as info:
        main(["verify", "groupring", "--group", "3", "--trials", "1"])
    assert type(info.value.__cause__) is ValueError
    assert capsys.readouterr().err == ""


BAD_FLAGS = [
    pytest.param("gauss", dict(pmax=2), id="gauss"),
    # too small to certify the first valuation case
    pytest.param("gauss", dict(precision=2), id="gauss-precision"),
    pytest.param("groupring", dict(groups=("x",)), id="groupring"),
    pytest.param("ramify", dict(max_order=0), id="ramify"),
    pytest.param("stickelberger", dict(groups=("2",)), id="stickelberger"),
    pytest.param("wild", dict(product=0), id="wild"),
]


def test_bad_flags_cover_every_suite():
    assert {case.values[0] for case in BAD_FLAGS} == set(SUITES)


@pytest.mark.parametrize("name, flags", BAD_FLAGS)
def test_suite_checks_its_config_when_called(name, flags):
    # the rows are never drawn: a run_<suite> that is itself a generator
    # would defer its checks and return here without raising
    with pytest.raises(ValueError):
        SUITES[name](SuiteConfig(suite=name, **flags))


@pytest.mark.parametrize("max_order, code", [(0, 2), (1, 2), (2, 0)])
def test_ramify_needs_room_for_a_weakly_ramified_chain(capsys, max_order, code):
    # 2,2,1 is the first weakly ramified chain of the sweep
    assert main(["verify", "ramify", "--max-order", str(max_order)]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and "max order must be at least 2" in err
    else:
        assert "PASS ramify sqrt-existence [Prop 3.3]" in out


@pytest.mark.parametrize("n", [0, -1])
def test_wild_rejects_nonpositive_n(n):
    with pytest.raises(ValueError):
        SUITES["wild"](SuiteConfig(suite="wild", n=n))


@pytest.mark.parametrize("trials", [0, -2])
@pytest.mark.parametrize("name", ["groupring", "stickelberger"])
def test_randomized_suites_reject_nonpositive_trials(name, trials):
    with pytest.raises(ValueError, match="trials"):
        SUITES[name](SuiteConfig(suite=name, groups=("3",), trials=trials))


@pytest.mark.parametrize("name", ["groupring", "stickelberger", "all"])
def test_nonpositive_trials_exit_2_before_any_row(capsys, name):
    assert main(["verify", name, "--group", "3", "--trials", "-2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "trials" in err


@pytest.mark.parametrize("flag", ["--p", "--pmax"])
def test_gauss_n_must_divide_every_swept_p_minus_1(capsys, flag):
    # the rule and its message belong to gauss._layer; --pmax 7 fails at p = 3
    assert main(["verify", "gauss", flag, "7", "--n", "4"]) == 2
    out, err = capsys.readouterr()
    with pytest.raises(ValueError) as info:
        _layer(7 if flag == "--p" else 3, 4)
    assert out == "" and err == "error: %s\n" % info.value


def test_every_citation_is_emitted():
    # one small run that also covers the wild --product rows
    cheap = dict(p=3, product=2, groups=("3",), trials=2, max_order=9, pmax=5)
    report, code = run(SuiteConfig(suite="all", **cheap))
    assert code == 0
    assert {r["citation"] for r in report["records"]} == CITATIONS


def test_all_is_the_union_of_the_single_suites():
    cheap = dict(p=3, groups=("3",), trials=2, max_order=9, pmax=5)
    report, code = run(SuiteConfig(suite="all", **cheap))
    union = []
    for name in SUITES:
        union += run(SuiteConfig(suite=name, **cheap))[0]["records"]
    union.sort(key=lambda r: (r["suite"], r["case"]))
    assert report["records"] == union
    assert code == 0
    assert {r["suite"] for r in union} == set(SUITES)


def test_main_text_output(capsys):
    assert main(["verify", "ramify", "--max-order", "9"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-1].startswith("passed=")
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert "[Eq. (2)]" in lines[0]


def test_main_json_deterministic(capsys):
    argv = [
        "verify",
        "stickelberger",
        "--group",
        "3",
        "--trials",
        "40",
        "--format",
        "json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["failed"] == 0
    assert doc["config"]["trials"] == 40
    assert doc["config"]["groups"] == ["3"]


def test_bad_group_literal_exits_2(capsys):
    assert main(["verify", "stickelberger", "--group", "3,5"]) == 2
    err = capsys.readouterr().err
    assert "divisibility" in err


def test_small_precision_exits_2(capsys):
    assert main(["verify", "gauss", "--p", "7", "--precision", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: precision 1 too small to certify valuations at p = 7"
        " (try --precision 3)\n"
    )
    # no valuation case runs at n = 1, so no precision is too small
    assert main(["verify", "gauss", "--n", "1", "--precision", "1"]) == 0


def test_even_group_rejected(capsys):
    assert main(["verify", "stickelberger", "--group", "2,4"]) == 2
    assert "odd" in capsys.readouterr().err


def test_wild_rows_match_construction(capsys):
    assert main(["verify", "wild", "--p", "7", "--n", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {
        r["case"]: r["witness"]
        for r in doc["records"]
        if r["case"].startswith("resolvent:")
    }
    assert rows["resolvent:p7:n2:k1"]["monomial"] == "y1^-2*y2^-1*y4^3"
    assert rows["resolvent:p7:n2:k0"]["monomial"] == "1"
    assert all(r["pass"] for r in doc["records"])


def test_product_needs_p(capsys):
    assert main(["verify", "wild", "--product", "2"]) == 2
    assert "--p" in capsys.readouterr().err


def test_product_run(capsys):
    assert main(["verify", "wild", "--p", "3", "--product", "2"]) == 0
    out = capsys.readouterr().out
    assert "product:" in out


def test_gauss_n_filter(capsys):
    assert main(["verify", "gauss", "--p", "7", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "n3" in out and "n2" not in out
    assert main(["verify", "gauss", "--p", "7", "--n", "4"]) == 2


# md5 of the JSON report as the CLI prints it; a change to number
# representation or report assembly must leave these bytes alone
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "verify groupring --group 15 --group 3,3 --trials 3 --format json",
            "adfa6b8bcd99df6a009e8ee5bc70b35b",
        ),
        ("verify gauss --pmax 13 --format json", "2a60d9eee1cdafe79bee80bd53bd7104"),
        ("verify wild --format json", "85f7787e2e2478bd0aab545afe38b5cf"),
        # the widest packed slots of the gauss power sums
        (
            "verify gauss --p 31 --n 30 --format json",
            "251d0dbfb4b712a6e28976b739a42ef7",
        ),
        # the Prop 3.12 box counts and the crosscheck table route
        ("verify stickelberger --format json", "9bdfc0c9ced4e05232c99b61181a3731"),
        # the largest phi in the suite: 336, at conductor 812
        ("verify gauss --p 29 --format json", "5cd7c2a33dfe6bb3ba8897a28b3d9082"),
        # a prime order n = 11, where Z[y]/(Phi_n(y^p)) is barely shorter
        # than Z[y]/(y^{pn} - 1)
        ("verify gauss --p 23 --format json", "139c0350aa673f38a9d9965211012373"),
        # the ring benchmark workload: group-ring products at |G| = 30
        (
            "verify groupring --group 15 --group 30 --trials 1 --format json",
            "bef7b67910bd0bd02cb3372080e305de",
        ),
        # the first pinned groupring report with phi(N) > 14: |G| = 33, phi = 20
        (
            "verify groupring --group 33 --trials 1 --format json",
            "920e0505fa44792d722c22cf2458801e",
        ),
        # product_contexts: tagged contexts and their stored g
        (
            "verify wild --p 7 --product 2 --format json",
            "244fe3f36763e2327225d73e1e957077",
        ),
        # the largest wild report: every order n | 60 at p = 61
        (
            "verify wild --p 61 --format json",
            "cea16a6b86e29bb1ffa58fcbc2412911",
        ),
    ],
    ids=[
        "groupring",
        "gauss",
        "wild",
        "gauss-p31-n30",
        "stickelberger",
        "gauss-p29",
        "gauss-p23",
        "groupring-15-30",
        "groupring-33",
        "wild-product",
        "wild-p61",
    ],
)
def test_report_bytes_pinned(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_readme_cli_examples(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split() for line in block.splitlines() if line.startswith("resolvend-lab ")]
    assert commands
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
    capsys.readouterr()
