"""Command-line verification harness.

Every subcommand runs one verification and prints a structured JSON report
(see reports.Report).  Exit status: 0 = verdict pass, 1 = verdict fail,
2 = usage or size errors, 3 = an unexpected internal error (no report; an
``error:`` line naming the exception, then its traceback, on stderr).
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

from . import __version__
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
from .nottingham import (Automorphism, ConductorUndefinedError,
                         NotAnAutomorphismError, base_sigma, hasse_conductor,
                         normal_form_o5c2, order, power)
from .reports import (Report, VERDICT_FAIL, VERDICT_PASS)
from .series import MAX_DEGREE, TruncatedSeries

_USAGE_ERRORS = (DescriptorError, EnumerationBoundError)


def _verdict(ok: bool) -> str:
    return VERDICT_PASS if ok else VERDICT_FAIL


def _report(command, params, ok, details, witnesses=(), t0=None):
    return Report(
        command=command,
        params=params,
        verdict=_verdict(ok),
        details=details,
        witnesses=list(witnesses),
        elapsed_ms=(time.perf_counter() - t0) * 1000 if t0 else 0.0,
        version=__version__,
    )


# -- subcommands ------------------------------------------------------------------


def _cmd_order(args):
    t0 = time.perf_counter()
    ring = build_ring(args.ring)
    n, prec = order(base_sigma(ring, args.prec), args.cap)
    ok = n == 5
    return _report("order", {"ring": args.ring, "prec": args.prec,
                             "cap": args.cap},
                   ok, {"order": n, "precision_checked": prec,
                        "expected": 5}, t0=t0)


def _cmd_conductor(args):
    t0 = time.perf_counter()
    ring = build_ring(args.ring)
    m, lead = hasse_conductor(base_sigma(ring, args.prec))
    ok = m == 2 and str(lead) == "2"
    return _report("conductor", {"ring": args.ring, "prec": args.prec},
                   ok, {"conductor": m, "leading_coefficient": str(lead),
                        "expected": {"conductor": 2,
                                     "leading_coefficient": "2"}}, t0=t0)


def _cmd_normal_form(args):
    t0 = time.perf_counter()
    params = {"ring": args.ring, "series": args.series, "prec": args.prec}
    ring = build_ring(args.ring)
    series = TruncatedSeries.from_literal(ring, args.series)
    try:
        aut = Automorphism(series)
        xi = normal_form_o5c2(aut, args.prec)
    except (NotAnAutomorphismError, RingError) as exc:
        return _report("normal-form", params, False, {"error": str(exc)},
                       t0=t0)
    ok = xi is not None
    return _report("normal-form", params, ok, {"conjugator_found": ok},
                   witnesses=[str(xi.series)] if xi else [], t0=t0)


def _cmd_versal_check(args):
    t0 = time.perf_counter()
    ring = build_ring(args.ring)
    if getattr(args, "tautological", False):
        # the canonical point y = 1 + u of a cyclo(m) ring
        pts = [VersalPoint(ring, ring.one + ring.generator("u"))]
    else:
        pts = hom_points(ring)
    results = []
    ok = True
    for p in pts:
        good, detail = lift_certificate(p, args.prec)
        ok = ok and good
        results.append({"y": str(p.y), "is_lift": good, "detail": detail})
    return _report("versal-check", {"ring": args.ring, "prec": args.prec},
                   ok, {"hom_points": len(pts), "results": results}, t0=t0)


def _cmd_iterates(args):
    t0 = time.perf_counter()
    ring = build_ring(args.ring)
    pts = hom_points(ring)
    ok = True
    results = []
    for p in pts:
        fam = versal_family(p, args.prec)
        direct = power(fam, 0)
        for k in range(args.k_max + 1):
            if k:  # direct = fam^k, built as power(fam, k) builds it
                direct = fam(direct)
            closed = iterate_closed_form(p, k, args.prec)
            agree = closed.series.agrees_with(direct.series, direct.prec)
            ok = ok and agree
            results.append({"y": str(p.y), "k": k, "agrees": agree,
                            "precision": direct.prec})
    return _report("iterates", {"ring": args.ring, "prec": args.prec,
                                "k_max": args.k_max},
                   ok, {"hom_points": len(pts), "results": results}, t0=t0)


def _cmd_tangent(args):
    t0 = time.perf_counter()
    sweep = args.prec_sweep
    rep = tangent_report(sweep)
    per = rep["per_precision"].values()
    ok = (rep["stable"] and rep["dimension"] == 1
          and all(d["hom_directions_exhaust_classes"] for d in per))
    return _report("tangent", {"prec_sweep": list(sweep)}, ok, rep, t0=t0)


def _cmd_universality(args):
    t0 = time.perf_counter()
    ring = build_ring(args.ring)
    rep = universality_scan(ring, args.prec)
    return _report("universality", {"ring": args.ring, "prec": args.prec},
                   rep["all_as_predicted"], rep, t0=t0)


def _cmd_proof_chain(args):
    t0 = time.perf_counter()
    if args.ring:
        rep = proof_chain_check(build_ring(args.ring))
        params = {"ring": args.ring}
    else:
        rep = proof_chain_scan(args.max_cardinality, jobs=args.jobs)
        params = {"max_cardinality": args.max_cardinality, "jobs": args.jobs}
    witnesses = []
    reports = rep.get("reports", [rep])
    for r in reports:
        for s in r["steps"]:
            if s["witness"]:
                witnesses.append({"ring": r["ring"], "step": s["step"],
                                  "witness": s["witness"]})
    return _report("proof-chain", params, rep["passed"], rep,
                   witnesses=witnesses, t0=t0)


def _cmd_obstruction(args):
    t0 = time.perf_counter()
    rep = obstruction_check(f"Z/5^{args.n}", args.prec)
    return _report("obstruction", {"n": args.n, "prec": args.prec},
                   rep["obstructed"], rep, t0=t0)


_ORACLE_RINGS = ("F5[e]/(e^2)", "F5[e]/(e^3)", "cyclo(2)", "cyclo(3)")


def _cmd_coeff_eqs(args):
    # imported here, not with the CLI: no other subcommand uses symbolic
    from .symbolic.coefficients import (consistency_sample,
                                        verify_displayed_equations)
    t0 = time.perf_counter()
    sym = verify_displayed_equations()
    # Eq5, Eq6 and the third-order display: checked on finite rings by the
    # proof chain, not derived symbolically; verify-all hands over the
    # per-ring verdicts of its own proof-chain step
    known = getattr(args, "proof_chain_passed", {})
    oracle = {}
    for d in _ORACLE_RINGS:
        ring = build_ring(d)
        oracle[d] = known[ring.descriptor] if ring.descriptor in known \
            else proof_chain_check(ring)["passed"]
    sym.update(downstream_verification="oracle-verified",
               oracle_proof_chain_passed=oracle,
               passed=sym["passed"] and all(oracle.values()))
    sample = consistency_sample(args.samples)
    ok = sym["passed"] and sample["passed"]
    return _report("coeff-eqs", {"samples": args.samples}, ok,
                   {"symbolic": sym, "consistency": sample},
                   witnesses=sample["mismatches"], t0=t0)


def _cmd_verify_all(args):
    t0 = time.perf_counter()
    quick = args.profile == "quick"

    def ns(**kw):
        return argparse.Namespace(jobs=args.jobs, **kw)

    steps = [
        ("order", _cmd_order, ns(ring="F5", prec=16, cap=10)),
        ("conductor", _cmd_conductor, ns(ring="F5", prec=8)),
    ]
    iterate_rings = ["F5", "F5[e]/(e^2)"] if quick else [
        "F5", "F25", "F5[e]/(e^2)", "cyclo(3)"]
    for r in iterate_rings:
        steps.append((f"iterates[{r}]", _cmd_iterates,
                      ns(ring=r, prec=12, k_max=5)))
    versal_rings = ["cyclo(2)", "cyclo(3)"] if quick else [
        "cyclo(2)", "cyclo(3)", "cyclo(4)", "cyclo(5)"]
    for r in versal_rings:
        steps.append((f"versal-check[{r}]", _cmd_versal_check,
                      ns(ring=r, prec=16, tautological=True)))
    steps.append(("tangent", _cmd_tangent,
                  ns(prec_sweep=(8, 12) if quick else (8, 12, 16))))
    universality_rings = ["F5[e]/(e^2)"] if quick else [
        "F5[e]/(e^2)", "F5[e]/(e^3)"]
    for r in universality_rings:
        steps.append((f"universality[{r}]", _cmd_universality,
                      ns(ring=r, prec=4)))
    steps.append(("proof-chain", _cmd_proof_chain,
                  ns(ring=None, max_cardinality=125 if quick else 625)))
    steps.append(("obstruction", _cmd_obstruction, ns(n=2, prec=8)))
    coeff_eqs = ns(samples=200 if quick else 1000)
    steps.append(("coeff-eqs", _cmd_coeff_eqs, coeff_eqs))

    results = []
    ok = True
    for name, fn, sub_args in steps:
        rep = fn(sub_args)
        if fn is _cmd_proof_chain:  # its rings include coeff-eqs' oracle rings
            coeff_eqs.proof_chain_passed = {
                r["ring"]: r["passed"] for r in rep.details["reports"]}
        ok = ok and rep.passed
        results.append({"step": name, "verdict": rep.verdict,
                        "elapsed_ms": rep.elapsed_ms})
    return _report("verify-all", {"profile": args.profile, "jobs": args.jobs},
                   ok, {"steps": results}, t0=t0)


# -- parser -----------------------------------------------------------------------

# Every series needs its linear coefficient, so a precision is at least 2.
# sigma = t - t^3/2 + ... agrees with t below t^3, so its order, its
# conductor and its conjugacy class show only from precision 4 on (below it
# xi = t conjugates sigma to any order-5 conductor-2 series).  Counts of
# witnesses, iterates and catalog rings have floors too: below them a scan
# checks nothing and would pass.  Every count also has a ceiling, so that
# each command ends in bounded time: a precision is at most the longest
# series literal, iterates and order caps at most MAX_ITERATES (the cost
# grows as k^2), a precision sweep at most MAX_SWEEP entries, witnesses
# at most MAX_SAMPLES, worker processes at most MAX_JOBS, and the catalog
# scan stops at the largest table.
MIN_PREC = 2
MIN_SIGMA_PREC = 4
MAX_PREC = MAX_DEGREE + 1
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
        prec=dict(type=_sigma_prec, default=8))
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
    add("verify-all", _cmd_verify_all,
        profile=dict(choices=("quick", "full"), default="quick"))
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        report = args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    print(report.to_json())
    print(report.summary_line(), file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
