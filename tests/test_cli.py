"""CLI contract: exit codes, JSON report schema, round-trips, and a golden
report for the obstruction subcommand."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import defo5
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
    # t + 2t^2 has order 5 but Hasse conductor 1, so it is not conjugate to
    # sigma: a verdict
    code, report, _ = run(capsys, "normal-form", "--ring", "F5",
                          "--series", "t + 2*t^2 @prec=6", "--prec", "6")
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["details"] == {
        "error": "normal form needs Hasse conductor 2"}


@pytest.mark.parametrize("argv,known,prec", [
    (("--series", "t + 2*t^2", "--prec", "6"), 3, 6),
    (("--series", "t + 2*t^3"), 4, 8),  # the default --prec is 8
])
def test_exit_two_on_series_shorter_than_prec(capsys, argv, known, prec):
    """A literal that knows fewer coefficients than --prec asks for is a
    usage error, not a verdict: exit 2 and an error naming both precisions."""
    code, report, err = run(capsys, "normal-form", *argv)
    assert code == 2 and report is None
    assert err == (f"error: series literal has precision {known}, "
                   f"below --prec {prec}\n")


def test_exit_two_on_bad_ring(capsys):
    code, report, err = run(capsys, "order", "--ring", "Q7")
    assert code == 2
    assert report is None
    assert "error" in err


def test_main_times_an_untimed_report(capsys, monkeypatch):
    """The dispatcher owns the clock: a subcommand returns its report
    without ``elapsed_ms``, and ``main`` stamps the time it took."""
    def untimed(args):
        time.sleep(0.02)
        return Report(command="order", params={}, verdict="pass")

    monkeypatch.setattr("defo5.cli._cmd_order", untimed)
    code, report, err = run(capsys, "order")
    assert code == 0
    assert isinstance(report["elapsed_ms"], float)
    assert report["elapsed_ms"] >= 15
    assert err.startswith("[PASS] order (")


def test_exit_three_on_internal_error(capsys, monkeypatch):
    def crash(args):
        raise ZeroDivisionError("simulated defect")

    monkeypatch.setattr("defo5.cli._cmd_order", crash)
    code, report, err = run(capsys, "order")
    assert code == 3
    assert report is None
    assert err.startswith("error:") and "ZeroDivisionError" in err


def _cli_process(stdout, *argv, stderr=subprocess.PIPE,
                 launcher=("-m", "defo5.cli")):
    """Run the CLI in a fresh interpreter with the given stdout and stderr,
    so that the flush at interpreter exit is part of what is tested."""
    src = str(Path(defo5.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + path))
    return subprocess.run([sys.executable, *launcher, *argv],
                          stdout=stdout, stderr=stderr, env=env,
                          text=True, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_exit_four_when_the_report_meets_a_full_disk():
    with open("/dev/full", "w") as full:
        proc = _cli_process(full, "order", "--prec", "16")
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == [
        "error: cannot write the report: [Errno 28] No space left on device"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_exit_four_when_the_summary_meets_a_full_disk():
    """The report is written; the summary line on stderr is not."""
    with open("/dev/full", "w") as full:
        proc = _cli_process(subprocess.PIPE, "order", "--prec", "8",
                            stderr=full)
    assert proc.returncode == 4
    assert json.loads(proc.stdout)["verdict"] == "pass"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["order", "--prec", "8"], ["--help"]])
def test_exit_four_when_both_streams_meet_a_full_disk(argv):
    with open("/dev/full", "w") as full:
        proc = _cli_process(full, *argv, stderr=full)
    assert proc.returncode == 4


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["order", "--help"]])
def test_exit_four_when_the_help_meets_a_full_disk(argv):
    with open("/dev/full", "w") as full:
        proc = _cli_process(full, *argv)
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == [
        "error: cannot write the help: [Errno 28] No space left on device"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_exit_two_when_the_usage_error_meets_a_full_disk():
    with open("/dev/full", "w") as full:
        proc = _cli_process(subprocess.PIPE, "order", "--ring", "Q7",
                            stderr=full)
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_exit_three_when_the_internal_error_meets_a_full_disk():
    """Neither the error: line nor the traceback can be written."""
    crash = ("import sys\n"
             "from defo5 import cli\n"
             "def crash(args):\n"
             "    raise ZeroDivisionError('simulated defect')\n"
             "cli._cmd_order = crash\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")
    with open("/dev/full", "w") as full:
        proc = _cli_process(subprocess.PIPE, "order", stderr=full,
                            launcher=("-c", crash))
    assert proc.returncode == 3
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [["--help"], ["order", "--help"]])
def test_help_is_written_and_exits_zero(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: defo5") and not err


def test_exit_four_when_the_report_meets_a_closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = _cli_process(write_end, "order", "--prec", "16")
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == [
        "error: cannot write the report: [Errno 32] Broken pipe"]


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


def test_series_literal_errors_name_a_series_literal(capsys):
    for series, message in (("t/2", "bad series literal near '/2'"),
                            ("t^" + "1" * 40, "digits in series literal")):
        code, report, err = run(capsys, "normal-form", "--series", series)
        assert code == 2 and report is None
        assert message in err and "element literal" not in err


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
    ("normal-form", "--series", "t + t^3", "--prec", "21"),
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

def test_proof_chain_on_one_ring(capsys):
    code, report, _ = run(capsys, "proof-chain", "--ring", "cyclo(2)")
    assert code == 0 and report["verdict"] == "pass"
    assert report["params"] == {"ring": "cyclo(2)"}
    assert report["witnesses"] == []


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


def test_verify_all_coeff_eqs_step_is_the_standalone_command(capsys,
                                                             monkeypatch):
    """Inside verify-all, coeff-eqs gets exactly the namespace the parser
    gives a user, checks its four oracle rings itself, and reports the same
    oracle verdicts as a standalone run."""
    from defo5 import cli
    checked, steps, reports = [], [], []
    check, coeff_eqs = cli.proof_chain_check, cli._cmd_coeff_eqs

    def counting_check(ring):
        checked.append(ring.descriptor)
        return check(ring)

    def keep(args):
        steps.append(vars(args).copy())
        reports.append(coeff_eqs(args))
        return reports[-1]

    monkeypatch.setattr(cli, "proof_chain_check", counting_check)
    monkeypatch.setattr(cli, "_cmd_coeff_eqs", keep)
    code, alone, _ = run(capsys, "coeff-eqs", "--samples", "7")
    assert code == 0 and len(checked) == 4
    checked.clear()
    code, _, _ = run(capsys, "verify-all", "--profile", "quick")
    assert code == 0 and checked == list(cli._ORACLE_RINGS)
    parsed = cli.build_parser().parse_args(
        ["--jobs", "1", "coeff-eqs", "--samples", "200"])
    assert steps[-1] == vars(parsed)
    in_step = reports[-1].details["symbolic"]["oracle_proof_chain_passed"]
    assert json.dumps(in_step) == json.dumps(
        alone["details"]["symbolic"]["oracle_proof_chain_passed"])


def test_verify_all_quick(capsys):
    code, report, _ = run(capsys, "verify-all", "--profile", "quick")
    assert code == 0
    steps = report["details"]["steps"]
    assert all(s["verdict"] == "pass" for s in steps)
    assert {s["step"] for s in steps} >= {
        "order", "conductor", "tangent", "obstruction", "coeff-eqs"}


def _expected_steps(profile):
    """verify-all's steps, in order, with every argument each one parses
    to; a changed subcommand default shows here, not in a certificate."""
    full = profile == "full"
    return [
        ("order", {"ring": "F5", "prec": 16, "cap": 10}),
        ("conductor", {"ring": "F5", "prec": 8}),
        *((f"iterates[{r}]", {"ring": r, "prec": 12, "k_max": 5})
          for r in (("F5", "F25", "F5[e]/(e^2)", "cyclo(3)") if full
                    else ("F5", "F5[e]/(e^2)"))),
        *((f"versal-check[{r}]", {"ring": r, "prec": 16,
                                  "tautological": True})
          for r in (("cyclo(2)", "cyclo(3)", "cyclo(4)", "cyclo(5)") if full
                    else ("cyclo(2)", "cyclo(3)"))),
        ("tangent", {"prec_sweep": (8, 12, 16) if full else (8, 12)}),
        *((f"universality[{r}]", {"ring": r, "prec": 4})
          for r in (("F5[e]/(e^2)", "F5[e]/(e^3)") if full
                    else ("F5[e]/(e^2)",))),
        ("proof-chain", {"ring": None,
                         "max_cardinality": 625 if full else 125}),
        ("obstruction", {"n": 2, "prec": 8}),
        ("coeff-eqs", {"samples": 1000 if full else 200}),
    ]


@pytest.mark.parametrize("profile,jobs,count", [("quick", "1", 11),
                                               ("full", "2", 16)])
def test_verify_all_steps_parse_to_the_pinned_arguments(capsys, monkeypatch,
                                                        profile, jobs, count):
    from defo5 import cli
    seen = []

    def recorded(args):
        seen.append({k: v for k, v in vars(args).items() if k != "fn"})
        return Report(command=args.command, params={}, verdict="pass",
                      details={})

    for name in vars(cli).copy():
        if name.startswith("_cmd_") and name != "_cmd_verify_all":
            monkeypatch.setattr(cli, name, recorded)
    code, report, _ = run(capsys, "--jobs", jobs, "verify-all",
                          "--profile", profile)
    assert code == 0
    steps = report["details"]["steps"]
    expected = _expected_steps(profile)
    assert len(steps) == len(seen) == count
    assert [s["step"] for s in steps] == [name for name, _ in expected]
    for args, (name, params) in zip(seen, expected):
        command = name.partition("[")[0]
        assert args == {"command": command, "jobs": int(jobs), **params}
    assert all(isinstance(s["elapsed_ms"], float) and s["elapsed_ms"] >= 0
               for s in steps)
