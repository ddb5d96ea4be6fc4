"""The three benchmark workloads, as lists of verification tasks.

A task is one call into defo5's public API followed by the checks of the
certificate it produced.  ``execute`` runs the tasks one at a time in the
calling process (closed loop, ``jobs = 1``) and returns one boolean per
check; a task that raises fails every check it declared.  This module
imports defo5, so only the child interpreter (``child.py``) imports it.

``certify-full`` and ``exhaustive-scan`` are exhaustive certificates and do
not depend on the seed, by design; ``series-deep`` draws its random
automorphisms and its sample of versal points from the seed.
"""

from __future__ import annotations

import io
import json
import random
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from defo5 import cli
from defo5.artin import RingTable, build_ring
from defo5.deformation import (CATALOG, VersalPoint, cocycle_matrix,
                               hom_points, iterate_closed_form,
                               lift_certificate, proof_chain_scan,
                               universality_scan, versal_family)
from defo5.nottingham import power
from defo5.series import TruncatedSeries

from metrics import FULL_STEPS, QUICK_STEPS

# Expected certificate values, taken from the code at the commit that
# defined this benchmark.  Universality: (hom points, diagonal pairs with a
# conjugator, off-diagonal pairs refuted); every ring here has 25 versal
# points, so 25 / 600.
EXPECTED = {
    "universality": {"F5[e]/(e^3)": (25, 25, 600),
                     "cyclo(3)": (25, 25, 600),
                     "F25[e]/(e^2)": (25, 25, 600),
                     "F5[e]/(e^2)": (5, 5, 20)},
    # RingTable certificates: (cardinality, number of units)
    "table": {"cyclo(5)": (3125, 2500), "F5[e]/(e^3)": (125, 100)},
}

# Full size, and the reduced size of --smoke (used by the benchmark's tests).
SIZES = {
    False: {"profile": "full", "scan_max": 625,
            "universality": (("F5[e]/(e^3)", 4), ("cyclo(3)", 4),
                             ("F25[e]/(e^2)", 3)),
            "table": "cyclo(5)", "cocycle_prec": 32, "lift_prec": 32,
            "lift_rings": ("cyclo(3)", "cyclo(4)", "cyclo(5)"),
            "iterate_prec": 24, "iterate_points": 5, "compose_prec": 64,
            "inverse_prec": 32},
    True: {"profile": "quick", "scan_max": 125,
           "universality": (("F5[e]/(e^2)", 4),),
           "table": "F5[e]/(e^3)", "cocycle_prec": 8, "lift_prec": 8,
           "lift_rings": ("cyclo(3)",),
           "iterate_prec": 8, "iterate_points": 2, "compose_prec": 16,
           "inverse_prec": 12},
}


class Task:
    """One call into defo5 and the names of the checks on its result."""

    def __init__(self, name, checks, run):
        self.name = name
        self.checks = tuple(checks)
        self.run = run  # () -> {check name: bool}


def _quiet(fn, *args):
    """Call fn with defo5's report printing captured; returns (result, out)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        result = fn(*args)
    return result, out.getvalue()


# -- certify-full ------------------------------------------------------------


def _certify_tasks(size, info):
    steps = tuple(FULL_STEPS) if size["profile"] == "full" else QUICK_STEPS
    checks = [f"verify[{s}]" for s in steps] + ["verify-all exit 0"]

    def run():
        code, out = _quiet(cli.main, ["verify-all", "--profile", size["profile"]])
        report = json.loads(out)
        got = {s["step"]: s for s in report["details"]["steps"]}
        info["steps_ms"] = {s: got[s]["elapsed_ms"] for s in steps if s in got}
        result = {f"verify[{s}]": got.get(s, {}).get("verdict") == "pass"
                  for s in steps}
        result["verify-all exit 0"] = (code == 0 and report["verdict"] == "pass"
                                       and len(got) == len(steps))
        return result

    return [Task("verify-all", checks, run)]


# -- exhaustive-scan -----------------------------------------------------------


def _scan_tasks(size, expected):
    rings = [d for d in CATALOG if build_ring(d).cardinality <= size["scan_max"]]

    def scan():
        rep = proof_chain_scan(size["scan_max"])
        by_ring = {r["ring"]: r for r in rep["reports"]}
        result = {}
        for d in rings:
            r = by_ring.get(build_ring(d).descriptor)
            result[f"proof-chain[{d}]"] = (r is not None and r["passed"]
                                           and r["counterexamples"] == 0)
        return result

    tasks = [Task("proof-chain", [f"proof-chain[{d}]" for d in rings], scan)]

    for desc, prec in size["universality"]:
        def universality(desc=desc, prec=prec):
            rep = universality_scan(build_ring(desc), prec)
            counts = (rep["hom_points"], rep["diagonal_equivalent"],
                      rep["off_diagonal_refuted"])
            return {f"universality[{desc}]": rep["all_as_predicted"]
                    and counts == tuple(expected["universality"][desc])}
        tasks.append(Task(f"universality[{desc}]", [f"universality[{desc}]"],
                          universality))

    desc = size["table"]

    def table():
        T = RingTable(build_ring(desc))
        n, units = expected["table"][desc]
        idx = np.arange(T.n)
        ok = (T.n == n and len(T.units) == units
              and (T.MUL[T.one] == idx).all() and (T.ADD[T.zero] == idx).all()
              and (T.MUL[T.units, T.INV[T.units]] == T.one).all())
        return {f"table[{desc}]": bool(ok)}

    tasks.append(Task(f"table[{desc}]", [f"table[{desc}]"], table))
    return tasks


# -- series-deep ---------------------------------------------------------------


def _random_series(ring, rng, prec, pools):
    """A random automorphism: c0 in the maximal ideal, c1 a unit."""
    mideal, units, elements = pools
    return TruncatedSeries(ring, [rng.choice(mideal), rng.choice(units)]
                           + [rng.choice(elements) for _ in range(prec - 2)])


def _series_tasks(size, seed):
    rng = random.Random(seed)
    tasks = []
    cprec = size["cocycle_prec"]

    def cocycle():
        # cocycle_matrix raises when the degree-shift hypothesis fails
        Z = cocycle_matrix(cprec)
        return {f"cocycle[{cprec}]": len(Z) > cprec
                and all(len(row) == cprec for row in Z)}

    tasks.append(Task("cocycle", [f"cocycle[{cprec}]"], cocycle))

    for desc in size["lift_rings"]:
        def lift(desc=desc):
            ring = build_ring(desc)
            ok, _ = lift_certificate(
                VersalPoint(ring, ring.one + ring.generator("u")),
                size["lift_prec"])
            return {f"lift[{desc}]": ok is True}
        tasks.append(Task(f"lift[{desc}]", [f"lift[{desc}]"], lift))

    # Versal points of cyclo(3), sampled by the seed (25 exist).
    ring3 = build_ring("cyclo(3)")
    n_pts = size["iterate_points"]
    picks = sorted(rng.sample(range(25), n_pts))
    iprec = size["iterate_prec"]

    def iterates():
        pts = hom_points(ring3)
        result = {}
        for k, i in enumerate(picks):
            p = pts[i]
            fam = versal_family(p, iprec)
            ok = True
            for j in range(6):
                direct = power(fam, j)
                closed = iterate_closed_form(p, j, iprec)
                ok = ok and closed.series.agrees_with(direct.series,
                                                      direct.prec)
            result[f"iterates[cyclo(3)#{k}]"] = ok
        return result

    tasks.append(Task("iterates", [f"iterates[cyclo(3)#{k}]"
                                   for k in range(n_pts)], iterates))

    for desc in ("F5[e]/(e^2)", "cyclo(3)", "cyclo(5)"):
        ring = build_ring(desc)
        pools = (list(ring.enumerate("maximal-ideal")),
                 list(ring.enumerate("units")), list(ring.enumerate()))
        P, Q = size["compose_prec"], size["inverse_prec"]
        f = _random_series(ring, rng, P, pools)
        h = _random_series(ring, rng, P, pools)

        def inverse(ring=ring, f=f.truncate(Q), desc=desc):
            g = f.comp_inverse()
            fg = f.compose(g)
            return {f"comp_inverse[{desc}]":
                    fg.agrees_with(TruncatedSeries.t(ring, fg.prec))}

        def compose(f=f, h=h, desc=desc):
            # composition commutes with truncation: f(h) at prec P agrees
            # with f(h) at prec Q < P on the lower result's precision
            big = f.compose(h)
            small = f.truncate(Q).compose(h.truncate(Q))
            return {f"compose[{desc}]": big.agrees_with(small, small.prec)}

        tasks.append(Task(f"comp_inverse[{desc}]", [f"comp_inverse[{desc}]"],
                          inverse))
        tasks.append(Task(f"compose[{desc}]", [f"compose[{desc}]"], compose))
    return tasks


def tasks_for(workload, seed, smoke=False, expected=EXPECTED, info=None):
    """The task list of one workload.  ``info`` receives the verify-all step
    split of ``certify-full`` for the per-layer metrics."""
    size = SIZES[smoke]
    if workload == "certify-full":
        return _certify_tasks(size, {} if info is None else info)
    if workload == "exhaustive-scan":
        return _scan_tasks(size, expected)
    if workload == "series-deep":
        return _series_tasks(size, seed)
    raise ValueError(f"unknown workload {workload!r}")


def execute(tasks):
    """Run the tasks one at a time; returns {check name: passed}."""
    results = {}
    for task in tasks:
        try:
            got = task.run()
        except Exception:
            print(f"task {task.name} raised:", file=sys.stderr)
            traceback.print_exc()
            got = {}
        for c in task.checks:
            results[c] = got.get(c) is True
    return results


def wrong_expected():
    """EXPECTED with one deliberately wrong certificate value, so that the
    benchmark's tests can see a wrong result counted as a failure."""
    bad = json.loads(json.dumps(EXPECTED))
    for desc, counts in bad["universality"].items():
        bad["universality"][desc] = [counts[0], counts[1], counts[2] + 1]
    return bad
