"""CLI contract: exit codes, JSON report schema, round-trips, and a golden
report for the obstruction subcommand."""

import json
import time

import pytest

from defo5 import __version__
from defo5.artin.tables import RingTable
from defo5.deformation import equivalence
from defo5.cli import main
from defo5.reports import Report

SCHEMA_KEYS = {"command", "params", "verdict", "details", "witnesses",
               "elapsed_ms", "version"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


# -- exit codes ----------------------------------------------------------------------

def test_exit_zero_on_pass(capsys):
    code, report, err = run(capsys, "order", "--ring", "F5", "--prec", "12")
    assert code == 0
    assert report["verdict"] == "pass"
    assert "PASS" in err


def test_exit_one_on_fail(capsys):
    # t + t^2 has order 5 but is not conjugate to sigma at conductor 2
    code, report, _ = run(capsys, "normal-form", "--ring", "F5",
                          "--series", "t + 2*t^2", "--prec", "6")
    assert code == 1
    assert report["verdict"] == "fail"


def test_exit_two_on_bad_ring(capsys):
    code, report, err = run(capsys, "order", "--ring", "Q7")
    assert code == 2
    assert report is None
    assert "error" in err


def test_exit_three_on_internal_error(capsys, monkeypatch):
    def crash(args):
        raise ZeroDivisionError("simulated defect")

    monkeypatch.setattr("defo5.cli._cmd_order", crash)
    code, report, err = run(capsys, "order")
    assert code == 3
    assert report is None
    assert err.startswith("error:") and "ZeroDivisionError" in err


def test_exit_two_on_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_exit_two_on_obstruction_n1(capsys):
    assert run(capsys, "obstruction", "--n", "1")[0] == 2


def test_exit_two_on_enumeration_bound(capsys):
    # universality over cyclo(5) would enumerate 3125^2 pairs
    code, _, err = run(capsys, "universality", "--ring", "cyclo(5)",
                       "--prec", "4")
    assert code == 2
    assert "error" in err


def test_refusal_before_any_table_or_family(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("built before the size refusal")

    monkeypatch.setattr(RingTable, "__init__", boom)
    monkeypatch.setattr(equivalence, "hom_points", boom)
    monkeypatch.setattr(equivalence, "versal_family", boom)
    t0 = time.perf_counter()
    code, _, err = run(capsys, "universality", "--ring", "cyclo(5)")
    assert code == 2
    assert "exceeds the bound" in err
    assert time.perf_counter() - t0 < 1.0


def test_exit_two_on_bad_series_literal(capsys):
    for series in ("(" * 3000 + "t" + ")" * 3000, "t^5000", "t @prec=0"):
        code, report, err = run(capsys, "normal-form", "--series", series)
        assert code == 2
        assert report is None and "error" in err


@pytest.mark.parametrize("argv", [
    ("universality", "--ring", "F5[e]/(e^2)", "--prec", "0"),
    ("universality", "--ring", "F5[e]/(e^2)", "--prec", "1"),
    ("universality", "--ring", "F5[e]/(e^2)", "--prec", "-3"),
    ("iterates", "--ring", "F5", "--prec", "0"),
    ("iterates", "--ring", "F5", "--prec", "1"),
    ("iterates", "--ring", "F5", "--prec", "-1"),
    ("iterates", "--ring", "F5", "--k-max", "-1"),
    ("order", "--prec", "0"),
    ("order", "--prec", "3"),
    ("order", "--cap", "0"),
    ("conductor", "--prec", "1"),
    ("conductor", "--prec", "2"),
    ("conductor", "--prec", "3"),
    ("normal-form", "--series", "t + t^2", "--prec", "0"),
    ("normal-form", "--series", "t + t^2", "--prec", "1"),
    ("normal-form", "--series", "t + t^3", "--prec", "3"),
    ("versal-check", "--ring", "cyclo(2)", "--prec", "1"),
    ("obstruction", "--prec", "1"),
    ("tangent", "--prec-sweep", "8,x"),
    ("tangent", "--prec-sweep", ""),
    ("tangent", "--prec-sweep", "1"),
    ("tangent", "--prec-sweep", "8,1,12"),
    ("universality", "--ring", "F5[e]/(e^2)", "--prec", "2.5"),
    ("coeff-eqs", "--samples", "0"),
    ("coeff-eqs", "--samples", "-5"),
    ("proof-chain", "--max-cardinality", "0"),
    ("order", "--prec", "1026"),
    ("conductor", "--prec", "100000"),
    ("normal-form", "--series", "t + t^3", "--prec", "1026"),
    ("versal-check", "--ring", "cyclo(2)", "--prec", "1026"),
    ("iterates", "--ring", "F5", "--prec", "1026"),
    ("universality", "--ring", "F5[e]/(e^2)", "--prec", "1026"),
    ("obstruction", "--prec", "1026"),
    ("tangent", "--prec-sweep", "8,1026"),
    ("tangent", "--prec-sweep", ",".join(["8"] * 9)),
    ("iterates", "--ring", "cyclo(3)", "--k-max", "101"),
    ("order", "--cap", "101"),
    ("coeff-eqs", "--samples", "100001"),
    ("proof-chain", "--max-cardinality", "3126"),
    ("obstruction", "--n", "1"),
    ("obstruction", "--n", "1001"),
    ("normal-form", "--series", "t + t^3", "--ring", "F25"),
])
def test_exit_two_on_bad_count_before_any_ring(capsys, monkeypatch, argv):
    def boom(*args, **kwargs):
        raise AssertionError("work started before the usage check")

    for target in ("build_ring", "tangent_report", "proof_chain_scan"):
        monkeypatch.setattr(f"defo5.cli.{target}", boom)
    monkeypatch.setattr(RingTable, "__init__", boom)
    code, report, err = run(capsys, *argv)
    assert code == 2
    assert report is None
    assert err.startswith("usage:") and f"argument --{argv[-2][2:]}" in err


@pytest.mark.parametrize("jobs", ["abc", "0", "-2", "65"])
def test_exit_two_on_bad_jobs(capsys, jobs):
    code, report, err = run(capsys, "--jobs", jobs, "order")
    assert code == 2 and report is None and "argument --jobs" in err


@pytest.mark.parametrize("argv,want", [
    (("conductor", "--prec", "4"), 0),
    (("order", "--prec", "4"), 0),
    (("normal-form", "--series", "t + t^3", "--prec", "4"), 1),
    (("order", "--cap", "1"), 1),  # sigma has order 5, not 1: a verdict
    (("tangent", "--prec-sweep", "2"), 0),
    (("iterates", "--ring", "F5", "--prec", "2", "--k-max", "0"), 0),
    (("proof-chain", "--max-cardinality", "5"), 0),
])
def test_smallest_counts_accepted(capsys, argv, want):
    code, report, _ = run(capsys, *argv)
    assert code == want and report is not None


@pytest.mark.parametrize("argv", [
    ("order", "--cap", "100"),
    ("iterates", "--ring", "F5", "--prec", "2", "--k-max", "100"),
    ("obstruction", "--n", "1000"),
    ("tangent", "--prec-sweep", ",".join(["2"] * 8)),
    ("proof-chain", "--max-cardinality", "3125"),
])
def test_largest_cheap_counts_accepted(capsys, argv):
    code, report, _ = run(capsys, *argv)
    assert code == 0 and report is not None


# -- report schema -------------------------------------------------------------------

def test_report_schema_keys(capsys):
    _, report, _ = run(capsys, "conductor", "--ring", "F5")
    assert set(report) == SCHEMA_KEYS
    assert report["version"] == __version__
    assert report["verdict"] in ("pass", "fail")
    assert isinstance(report["elapsed_ms"], float)
    assert isinstance(report["witnesses"], list)


def test_report_json_round_trip():
    rep = Report(command="x", params={"a": 1}, verdict="pass",
                 details={"d": [1, 2]}, witnesses=["w"], elapsed_ms=1.5,
                 version=__version__)
    assert Report.from_json(rep.to_json()) == rep


def test_report_refuses_indeterminate_verdict():
    # "pass" and "fail" are the only verdicts; nothing emits a third
    with pytest.raises(ValueError):
        Report(command="x", params={}, verdict="indeterminate")
    text = Report(command="x", params={}, verdict="pass").to_json()
    assert '"verdict": "pass"' in text
    with pytest.raises(ValueError):
        Report.from_json(text.replace('"verdict": "pass"',
                                      '"verdict": "indeterminate"'))


def test_obstruction_golden_report(capsys):
    code, report, _ = run(capsys, "obstruction", "--n", "2", "--prec", "8")
    assert code == 0
    report["elapsed_ms"] = 0.0
    assert report == {
        "command": "obstruction",
        "params": {"n": 2, "prec": 8},
        "verdict": "pass",
        "details": {
            "ring": "Z/5^2",
            "prec": 8,
            "hom_points": 0,
            "hom_points_empty": True,
            "defect_leading_order": 3,
            "defect_leading_coeff": 2,
            "linear_system_consistent": False,
            "obstructed": True,
        },
        "witnesses": [],
        "elapsed_ms": 0.0,
        "version": __version__,
    }


# -- behaviour -----------------------------------------------------------------------

def test_normal_form_recovers_conjugator(capsys):
    # the series below is xi^-1 . sigma . xi for xi = t + t^2
    code, report, _ = run(
        capsys, "normal-form", "--ring", "F5", "--prec", "8", "--series",
        "t + 2*t^3 + 3*t^4 + 3*t^5 + t^6 + 2*t^7")
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["details"]["conjugator_found"]
    assert report["witnesses"][0].startswith("t + t^2")


def test_versal_check_tautological(capsys):
    code, report, _ = run(capsys, "versal-check", "--ring", "cyclo(2)",
                          "--tautological", "--prec", "12")
    assert code == 0
    assert report["details"]["hom_points"] == 1


def test_coeff_eqs_checks_downstream_equations_by_proof_chain(capsys):
    code, report, _ = run(capsys, "coeff-eqs", "--samples", "7")
    assert code == 0
    sym = report["details"]["symbolic"]
    assert sym["passed"] and sym["t0_matches_eq3"] and sym["t1_matches_eq4"]
    assert sym["downstream_verification"] == "oracle-verified"
    assert sym["oracle_proof_chain_passed"] == {
        "F5[e]/(e^2)": True, "F5[e]/(e^3)": True,
        "cyclo(2)": True, "cyclo(3)": True}


def test_verify_all_quick(capsys):
    code, report, _ = run(capsys, "verify-all", "--profile", "quick")
    assert code == 0
    steps = report["details"]["steps"]
    assert all(s["verdict"] == "pass" for s in steps)
    assert {s["step"] for s in steps} >= {
        "order", "conductor", "tangent", "obstruction", "coeff-eqs"}
