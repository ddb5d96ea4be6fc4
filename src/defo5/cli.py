"""Command-line verification harness.

Every subcommand runs one verification and prints a structured JSON report
(see reports.Report).  Exit status: 0 = verdict pass, 1 = verdict fail,
2 = usage or size errors, 3 = an unexpected internal error (no report; an
``error:`` line naming the exception, then its traceback, on stderr),
4 = the report could not be written (an ``error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time
import traceback

from . import __version__
from .artin.literals import LiteralError
from .artin.rings import (MAX_ZMOD_EXPONENT, DescriptorError,
                          EnumerationBoundError, RingError, build_ring)
from .artin.tables import TABLE_BOUND
from .deformation.equivalence import universality_scan
from .deformation.obstruction import obstruction_check
from .deformation.proofchain import proof_chain_check, proof_chain_scan
from .deformation.tangent import tangent_report
from .deformation.versal import (VersalPoint, hom_points,
                                 iterate_closed_form, lift_certificate,
                                 versal_family)
from .nottingham import (Automorphism, base_sigma, hasse_conductor,
                         normal_form_o5c2, order, power)
from .reports import (Report, VERDICT_FAIL, VERDICT_PASS)
from .series import MAX_DEGREE, MIN_PREC, TruncatedSeries

_USAGE_ERRORS = (DescriptorError, EnumerationBoundError)


def _report(args, params, ok, details, witnesses=()):
    """The report of ``args.command``; ``params`` names the arguments it
    records.  ``main`` stamps its ``elapsed_ms``."""
    return Report(
        command=args.command,
        params={name: getattr(args, name) for name in params},
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
        details=details,
        witnesses=list(witnesses),
        version=__version__,
    )


# -- subcommands ------------------------------------------------------------------


def _cmd_order(args):
    n, prec = order(base_sigma(build_ring(args.ring), args.prec), args.cap)
    return _report(args, ("ring", "prec", "cap"), n == 5,
                   {"order": n, "precision_checked": prec, "expected": 5})


def _cmd_conductor(args):
    m, lead = hasse_conductor(base_sigma(build_ring(args.ring), args.prec))
    return _report(args, ("ring", "prec"), m == 2 and str(lead) == "2",
                   {"conductor": m, "leading_coefficient": str(lead),
                    "expected": {"conductor": 2, "leading_coefficient": "2"}})


def _cmd_normal_form(args):
    params = ("ring", "series", "prec")
    series = TruncatedSeries.from_literal(build_ring(args.ring), args.series)
    if series.prec < args.prec:  # a usage error (exit 2), not a verdict
        raise LiteralError(f"series literal has precision {series.prec}, "
                           f"below --prec {args.prec}")
    try:
        xi = normal_form_o5c2(Automorphism(series), args.prec)
    except RingError as exc:
        return _report(args, params, False, {"error": str(exc)})
    ok = xi is not None
    return _report(args, params, ok, {"conjugator_found": ok},
                   witnesses=[str(xi.series)] if xi else [])


def _cmd_versal_check(args):
    ring = build_ring(args.ring)
    if args.tautological:
        # the canonical point y = 1 + u of a cyclo(m) ring
        pts = [VersalPoint(ring, ring.one + ring.generator("u"))]
    else:
        pts = hom_points(ring)
    results = []
    for p in pts:
        good, detail = lift_certificate(p, args.prec)
        results.append({"y": str(p.y), "is_lift": good, "detail": detail})
    return _report(args, ("ring", "prec"), all(r["is_lift"] for r in results),
                   {"hom_points": len(pts), "results": results})


def _cmd_iterates(args):
    pts = hom_points(build_ring(args.ring))
    results = []
    for p in pts:
        fam = versal_family(p, args.prec)
        direct = power(fam, 0)
        for k in range(args.k_max + 1):
            if k:  # direct = fam^k, built as power(fam, k) builds it
                direct = fam(direct)
            closed = iterate_closed_form(p, k, args.prec)
            agree = closed.series.agrees_with(direct.series, direct.prec)
            results.append({"y": str(p.y), "k": k, "agrees": agree,
                            "precision": direct.prec})
    return _report(args, ("ring", "prec", "k_max"),
                   all(r["agrees"] for r in results),
                   {"hom_points": len(pts), "results": results})


def _cmd_tangent(args):
    rep = tangent_report(args.prec_sweep)
    per = rep["per_precision"].values()
    ok = (rep["stable"] and rep["dimension"] == 1
          and all(d["hom_directions_exhaust_classes"] for d in per))
    return _report(args, ("prec_sweep",), ok, rep)


def _cmd_universality(args):
    rep = universality_scan(build_ring(args.ring), args.prec)
    return _report(args, ("ring", "prec"), rep["all_as_predicted"], rep)


def _cmd_proof_chain(args):
    if args.ring:
        rep = proof_chain_check(build_ring(args.ring))
        params = ("ring",)
    else:
        rep = proof_chain_scan(args.max_cardinality, jobs=args.jobs)
        params = ("max_cardinality", "jobs")
    witnesses = [{"ring": r["ring"], "step": s["step"],
                  "witness": s["witness"]}
                 for r in rep.get("reports", [rep]) for s in r["steps"]
                 if s["witness"]]
    return _report(args, params, rep["passed"], rep, witnesses=witnesses)


def _cmd_obstruction(args):
    rep = obstruction_check(f"Z/5^{args.n}", args.prec)
    return _report(args, ("n", "prec"), rep["obstructed"], rep)


_ORACLE_RINGS = ("F5[e]/(e^2)", "F5[e]/(e^3)", "cyclo(2)", "cyclo(3)")


def _cmd_coeff_eqs(args):
    # imported here, not with the CLI: no other subcommand uses symbolic
    from .symbolic.coefficients import (consistency_sample,
                                        verify_displayed_equations)
    sym = verify_displayed_equations()
    # Eq5, Eq6 and the third-order display: checked on finite rings by the
    # proof chain, not derived symbolically
    oracle = {d: proof_chain_check(build_ring(d))["passed"]
              for d in _ORACLE_RINGS}
    sym.update(downstream_verification="oracle-verified",
               oracle_proof_chain_passed=oracle,
               passed=sym["passed"] and all(oracle.values()))
    sample = consistency_sample(args.samples)
    ok = sym["passed"] and sample["passed"]
    return _report(args, ("samples",), ok,
                   {"symbolic": sym, "consistency": sample},
                   witnesses=sample["mismatches"])


def _verify_all_steps(profile):
    """verify-all's steps in order, as (step name, subcommand argv): each
    runs with the defaults and bounds the subcommand gives a user, and the
    quick profile shrinks the sweep, the catalog and the sample."""
    quick = profile == "quick"

    def per_ring(command, rings, *flags):
        return [(f"{command}[{r}]", [command, "--ring", r, *flags])
                for r in rings]

    def if_quick(*flags):
        return list(flags) if quick else []

    return [
        ("order", ["order"]),
        ("conductor", ["conductor"]),
        *per_ring("iterates", ["F5", "F5[e]/(e^2)"] if quick else
                  ["F5", "F25", "F5[e]/(e^2)", "cyclo(3)"]),
        *per_ring("versal-check", ["cyclo(2)", "cyclo(3)"] if quick else
                  ["cyclo(2)", "cyclo(3)", "cyclo(4)", "cyclo(5)"],
                  "--tautological"),
        ("tangent", ["tangent", *if_quick("--prec-sweep", "8,12")]),
        *per_ring("universality", ["F5[e]/(e^2)"] if quick else
                  ["F5[e]/(e^2)", "F5[e]/(e^3)"]),
        ("proof-chain",
         ["proof-chain", *if_quick("--max-cardinality", "125")]),
        ("obstruction", ["obstruction"]),
        ("coeff-eqs", ["coeff-eqs", *if_quick("--samples", "200")]),
    ]


def _cmd_verify_all(args):
    results = []
    for name, argv in _verify_all_steps(args.profile):
        step = args.parser.parse_args(["--jobs", str(args.jobs), *argv])
        t0 = time.perf_counter()
        rep = step.fn(step)
        elapsed_ms = (time.perf_counter() - t0) * 1000
        results.append({"step": name, "verdict": rep.verdict,
                        "elapsed_ms": elapsed_ms})
    ok = all(r["verdict"] == VERDICT_PASS for r in results)
    return _report(args, ("profile", "jobs"), ok, {"steps": results})


# -- parser -----------------------------------------------------------------------

# A precision is at least series.MIN_PREC.
# sigma = t - t^3/2 + ... agrees with t below t^3, so its order, its
# conductor and its conjugacy class show only from precision 4 on (below it
# xi = t conjugates sigma to any order-5 conductor-2 series).  Counts of
# witnesses, iterates and catalog rings have floors too: below them a scan
# checks nothing and would pass.  Every count also has a ceiling, so that
# each command ends in bounded time: a precision is at most the longest
# series literal, iterates and order caps at most MAX_ITERATES (the cost
# grows as k^2), a precision sweep at most MAX_SWEEP entries, witnesses
# at most MAX_SAMPLES, worker processes at most MAX_JOBS, and the catalog
# scan stops at the largest table.  normal-form backtracks: on an input not
# conjugate to sigma its search grows tenfold from precision 20 to 24.
MIN_SIGMA_PREC = 4
MAX_PREC = MAX_DEGREE + 1
MAX_NORMAL_FORM_PREC = 20
MAX_ITERATES = 100
MAX_SAMPLES = 10 ** 5
MAX_JOBS = 64
MAX_SWEEP = 8


def _int_in(low, high):
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if not low <= n <= high:
            raise argparse.ArgumentTypeError(
                f"must lie in {low}..{high}, got {n}")
        return n
    return parse


_prec = _int_in(MIN_PREC, MAX_PREC)
_sigma_prec = _int_in(MIN_SIGMA_PREC, MAX_PREC)


def _prec_sweep(text):
    precs = text.split(",")
    if len(precs) > MAX_SWEEP:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_SWEEP} precisions, got {len(precs)}")
    return tuple(_prec(p) for p in precs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="defo5",
        description="Exact verification of the order-5/conductor-2 "
                    "deformation computation.")
    parser.add_argument("--jobs", type=_int_in(1, MAX_JOBS), default=1,
                        help="parallel worker bound for the scans")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **arguments):
        p = sub.add_parser(name)
        for flag, kw in arguments.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kw)
        p.set_defaults(fn=fn)
        return p

    add("order", _cmd_order,
        ring=dict(default="F5"),
        prec=dict(type=_sigma_prec, default=16),
        cap=dict(type=_int_in(1, MAX_ITERATES), default=10))
    add("conductor", _cmd_conductor,
        ring=dict(default="F5"),
        prec=dict(type=_sigma_prec, default=8))
    add("normal-form", _cmd_normal_form,
        ring=dict(choices=("F5",), default="F5"), series=dict(required=True),
        prec=dict(type=_int_in(MIN_SIGMA_PREC, MAX_NORMAL_FORM_PREC),
                  default=8))
    add("versal-check", _cmd_versal_check,
        ring=dict(required=True), prec=dict(type=_prec, default=16),
        tautological=dict(action="store_true",
                          help="check only the point y = 1 + u of cyclo(m)"))
    add("iterates", _cmd_iterates,
        ring=dict(required=True), prec=dict(type=_prec, default=12),
        k_max=dict(type=_int_in(0, MAX_ITERATES), default=5))
    add("tangent", _cmd_tangent,
        prec_sweep=dict(type=_prec_sweep, default="8,12,16"))
    add("universality", _cmd_universality,
        ring=dict(required=True), prec=dict(type=_prec, default=4))
    add("proof-chain", _cmd_proof_chain,
        ring=dict(default=None),
        max_cardinality=dict(type=_int_in(5, TABLE_BOUND), default=5 ** 4))
    add("obstruction", _cmd_obstruction,
        n=dict(type=_int_in(2, MAX_ZMOD_EXPONENT), default=2),
        prec=dict(type=_prec, default=8))
    add("coeff-eqs", _cmd_coeff_eqs,
        samples=dict(type=_int_in(1, MAX_SAMPLES), default=1000))
    verify_all = add("verify-all", _cmd_verify_all,
                     profile=dict(choices=("quick", "full"), default="quick"))
    verify_all.set_defaults(parser=parser)  # it parses each step's argv
    return parser


def _emit(text, what, summary, code):
    """``code`` once ``text`` is on stdout and ``summary`` (if any) on stderr;
    4 when a write fails (a full disk, a closed pipe), with an ``error:``
    line in place of the summary if it is stdout that failed."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()  # a write error shows here, not at exit
    except OSError as exc:  # the flush at exit would fail too: drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        summary, code = f"error: cannot write the {what}: {exc}", 4
    try:
        if summary:
            print(summary, file=sys.stderr)
    except OSError:  # stderr failed: nowhere left to say so
        return 4
    return code


def main(argv=None):
    parser = build_parser()
    out = io.StringIO()  # argparse would swallow a failed write of its help
    try:
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code != 0 else _emit(out.getvalue(), "help", None, 0)
    try:
        t0 = time.perf_counter()
        report = args.fn(args)
        report.elapsed_ms = (time.perf_counter() - t0) * 1000
    except _USAGE_ERRORS as exc:
        code, error = 2, f"error: {exc}\n"
    except Exception as exc:
        code, error = 3, (f"error: internal: {type(exc).__name__}: {exc}\n"
                          + traceback.format_exc())
    else:
        return _emit(report.to_json() + "\n", "report",
                     report.summary_line(), 0 if report.passed else 1)
    with contextlib.suppress(OSError):  # the exit status still tells
        sys.stderr.write(error)
    return code


if __name__ == "__main__":
    sys.exit(main())
