"""CLI contract: exit codes, JSON report schema, round-trips, and a golden
report for the obstruction subcommand."""

import json
import time

import pytest

from defo5 import __version__
from defo5.artin.rings import EnumerationBoundError, build_ring
from defo5.artin.tables import RingTable
from defo5.deformation import equivalence
from defo5.deformation.versal import (HOM_POINTS_BOUND, hom_points,
                                      ideal_size, iterate_closed_form,
                                      versal_family)
from defo5.cli import main
from defo5.nottingham import Automorphism, power
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


@pytest.mark.parametrize("cmd", ["versal-check", "iterates"])
def test_versal_point_scan_refused_from_the_ideal_size(capsys, cmd):
    """|m| = 5^9 would scan 2 million elements (over 200 s); refused from
    the cardinalities, with exit 2, well within a second."""
    assert ideal_size(build_ring("F5[e]/(e^10)")) > HOM_POINTS_BOUND
    t0 = time.perf_counter()
    code, report, err = run(capsys, cmd, "--ring", "F5[e]/(e^10)",
                            "--prec", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and report is None
    assert "exceeds the bound" in err


def test_versal_point_scan_bound_admits_the_largest_scanned_rings():
    assert ideal_size(build_ring("cyclo(5)")) == 625
    assert ideal_size(build_ring("Z/5^7")) == HOM_POINTS_BOUND
    assert hom_points(build_ring("Z/5^7")) == []
    with pytest.raises(EnumerationBoundError):
        hom_points(build_ring("Z/5^8"))


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


def test_iterates_chain_each_direct_iterate(capsys, monkeypatch):
    """``iterates`` builds the direct iterates of a versal point as one
    chain fam^k = fam(fam^(k-1)) from power(fam, 0): five compositions per
    point for k <= 5, each link the series and precision of power(fam, k)."""
    links = {}
    call = Automorphism.__call__

    def recording_call(self, other):
        out = call(self, other)
        links.setdefault(id(self), (self, []))[1].append(out)
        return out

    monkeypatch.setattr(Automorphism, "__call__", recording_call)
    code, report, _ = run(capsys, "iterates", "--ring", "cyclo(3)",
                          "--prec", "12")
    monkeypatch.undo()
    assert code == 0
    points = hom_points(build_ring("cyclo(3)"))
    assert len(points) == len(links) == 25
    rows = iter(report["details"]["results"])
    for p, (fam, chain) in zip(points, links.values()):
        assert fam == versal_family(p, 12) and len(chain) == 5
        for k, direct in enumerate([power(fam, 0)] + chain):
            want = power(fam, k)
            assert direct == want and direct.prec == want.prec
            closed = iterate_closed_form(p, k, 12)
            assert next(rows) == {
                "y": str(p.y), "k": k, "precision": want.prec,
                "agrees": closed.series.agrees_with(want.series, want.prec)}
    assert next(rows, None) is None


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


def test_verify_all_hands_proof_chain_verdicts_to_coeff_eqs(capsys,
                                                           monkeypatch):
    """coeff-eqs alone checks its four oracle rings; inside verify-all it
    reads their verdicts off the proof-chain step, and reports the same."""
    from defo5 import cli
    checked, reports = [], []
    check, coeff_eqs = cli.proof_chain_check, cli._cmd_coeff_eqs

    def counting_check(ring):
        checked.append(ring.descriptor)
        return check(ring)

    def keep(args):
        reports.append(coeff_eqs(args))
        return reports[-1]

    monkeypatch.setattr(cli, "proof_chain_check", counting_check)
    monkeypatch.setattr(cli, "_cmd_coeff_eqs", keep)
    code, alone, _ = run(capsys, "coeff-eqs", "--samples", "7")
    assert code == 0 and len(checked) == 4
    checked.clear()
    code, _, _ = run(capsys, "verify-all", "--profile", "quick")
    assert code == 0 and checked == []
    handed = reports[-1].details["symbolic"]["oracle_proof_chain_passed"]
    assert json.dumps(handed) == json.dumps(
        alone["details"]["symbolic"]["oracle_proof_chain_passed"])


def test_verify_all_quick(capsys):
    code, report, _ = run(capsys, "verify-all", "--profile", "quick")
    assert code == 0
    steps = report["details"]["steps"]
    assert all(s["verdict"] == "pass" for s in steps)
    assert {s["step"] for s in steps} >= {
        "order", "conductor", "tangent", "obstruction", "coeff-eqs"}
