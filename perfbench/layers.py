"""Per-layer timings: each layer of defo5 on its own, in one fresh interpreter.

Inputs are built from the seed and warmed before timing (ring tables and
rings are built, micro-operations run once), and every timing uses
``time.perf_counter_ns``.  Operations of microseconds are timed in batches
and reported as the median per call; longer calls are repeated while the
total stays short and reported as the median.  ``--smoke`` swaps the large
inputs for small ones under the same names, for the benchmark's tests only.
"""

from __future__ import annotations

import io
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from defo5 import cli, gf5
from defo5.artin import RingTable, build_ring
from defo5.deformation import (cocycle_matrix, conjugator_search,
                               hom_points, obstruction_check,
                               proof_chain_check, proof_chain_scan,
                               tangent_report, universality_scan,
                               versal_family)
from defo5.nottingham import power
from defo5.series import TruncatedSeries
from defo5.symbolic import (consistency_sample, expand_lhs, expand_rhs,
                            verify_displayed_equations)
from metrics import (CHECK_RINGS, ELEMENT_RINGS, HOM_POINT_RINGS, OBSTRUCTION,
                     SERIES_RINGS, SLUGS, SUITE, TABLE_RINGS, UNIVERSALITY)

# --smoke: small stand-ins for the large inputs (same metric names).
_SMOKE = {"cyclo(5)": "F5[e]/(e^3)", "Z/5^6": "Z/5^3", "Z/5^7": "Z/5^3",
          "F5[e]/(e^4)": "F5[e]/(e^2)", "cyclo(4)": "cyclo(2)",
          "F5[e1]/(e1^2)[e2]/(e2^2)": "F5[e]/(e^2)",
          "F25[e]/(e^2)": "F25", "cyclo(3)": "cyclo(2)",
          "F5[e]/(e^3)": "F5[e]/(e^2)"}


def _median_ns_per_call(calls, budget_ns=60_000_000, min_batches=5):
    """Median over batches of the mean time per call; each batch runs every
    thunk in ``calls`` once."""
    for c in calls:
        c()
    per_call = []
    spent = 0
    while len(per_call) < min_batches or (spent < budget_ns and len(per_call) < 50):
        t0 = time.perf_counter_ns()
        for c in calls:
            c()
        dt = time.perf_counter_ns() - t0
        spent += dt
        per_call.append(dt / len(calls))
    return statistics.median(per_call)


def _timed(fn, *args, budget_ns=300_000_000, max_reps=7):
    """(median seconds, last result) of repeated calls of fn(*args): at
    least one call, more while the total stays within the budget."""
    times, spent, result = [], 0, None
    while not times or (spent < budget_ns and len(times) < max_reps):
        t0 = time.perf_counter_ns()
        result = fn(*args)
        dt = time.perf_counter_ns() - t0
        spent += dt
        times.append(dt)
    return statistics.median(times) / 1e9, result


class Suite:
    def __init__(self, seed, smoke):
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.metrics = {}
        self.checks = {}

    def size(self, x):
        """The smoke-mode stand-in of a descriptor or precision."""
        if not self.smoke:
            return x
        if isinstance(x, int):
            return min(x, 8)
        return _SMOKE.get(x, x)

    def ring(self, desc):
        return build_ring(self.size(desc))

    def put(self, name, value):
        self.metrics[name] = float(value)

    # -- artin.rings -----------------------------------------------------------

    def rings(self):
        for desc in ELEMENT_RINGS:
            ring = self.ring(desc)
            els = list(ring.enumerate())
            units = list(ring.enumerate("units"))
            xs = [self.rng.choice(els) for _ in range(64)]
            ys = [self.rng.choice(els) for _ in range(64)]
            us = [self.rng.choice(units) for _ in range(64)]
            squares = [u * u for u in us]
            slug = SLUGS[desc]
            pairs = list(zip(xs, ys))
            self.put(f"rings.mul_us.{slug}", _median_ns_per_call(
                [lambda a=a, b=b: a * b for a, b in pairs]) / 1e3)
            self.put(f"rings.add_us.{slug}", _median_ns_per_call(
                [lambda a=a, b=b: a + b for a, b in pairs]) / 1e3)
            self.put(f"rings.inv_us.{slug}", _median_ns_per_call(
                [u.inv for u in us]) / 1e3)
            self.put(f"rings.sqrt_us.{slug}", _median_ns_per_call(
                [s.sqrt for s in squares]) / 1e3)
        uncached = getattr(build_ring, "__wrapped__", build_ring)
        self.put("rings.build_s.z5_7", _timed(uncached, self.size("Z/5^7"))[0])

    # -- artin.tables ------------------------------------------------------------

    def tables(self):
        for n, desc in TABLE_RINGS.items():
            ring = self.ring(desc)
            secs, table = _timed(RingTable, ring, max_reps=1 if n == 3125 else 3)
            self.put(f"tables.build_s.{n}", secs)
            if n == 3125:
                # computed from the array sizes, not measured
                self.put("tables.bytes.3125", sum(
                    v.nbytes for v in vars(table).values()
                    if isinstance(v, np.ndarray)))

    # -- series and nottingham ------------------------------------------------------

    def _series(self, ring, prec, unit_c0=False):
        els = list(ring.enumerate())
        c0 = (ring.one if unit_c0 else
              self.rng.choice(list(ring.enumerate("maximal-ideal"))))
        c1 = self.rng.choice(list(ring.enumerate("units")))
        return TruncatedSeries(ring, [c0, c1] + [self.rng.choice(els)
                                                 for _ in range(prec - 2)])

    def series(self):
        for desc in SERIES_RINGS:
            ring = self.ring(desc)
            slug = SLUGS[desc]
            for prec in (16, 32):
                p = self.size(prec)
                f = self._series(ring, p)
                g = self._series(ring, p)
                u = self._series(ring, p, unit_c0=True)  # 1 + ..., a square
                ops = {"mul": lambda: f * g, "div": lambda: f.div(u),
                       "sqrt": lambda: u.sqrt(), "compose": lambda: f.compose(g),
                       "comp_inverse": lambda: f.comp_inverse()}
                for op, fn in ops.items():
                    self.put(f"series.{op}_us.{slug}.{prec}",
                             _timed(fn, budget_ns=200_000_000)[0] * 1e6)
                fam = versal_family(hom_points(ring)[-1], p)
                self.put(f"nottingham.power5_ms.{slug}.{prec}",
                         _timed(power, fam, 5, budget_ns=200_000_000)[0] * 1e3)

    # -- deformation -----------------------------------------------------------------

    def tangent(self):
        for prec in (16, 24, 32):
            secs, Z = _timed(cocycle_matrix, self.size(prec), max_reps=1)
            self.put(f"tangent.cocycle_s.{prec}", secs)
        self.put("gf5.nullspace_ms.32",
                 _timed(gf5.nullspace, Z, self.size(32))[0] * 1e3)
        sweep = (8, 12, 16) if not self.smoke else (8,)
        secs, rep = _timed(tangent_report, sweep, max_reps=1)
        self.put("tangent.report_s", secs)
        self.checks["tangent_report dimension 1"] = rep["dimension"] == 1

    def equivalence(self):
        for desc, prec in UNIVERSALITY:
            ring = self.ring(desc)
            universality_scan(ring, 2)  # builds the ring table
            secs, rep = _timed(universality_scan, ring, prec, max_reps=3)
            self.put(f"equivalence.universality_s.{SLUGS[desc]}", secs)
            self.checks[f"universality[{desc}]"] = rep["all_as_predicted"]
        ring = self.ring("F5[e]/(e^3)")
        pts = hom_points(ring)
        fams = [versal_family(p, 4 + ring.nilpotency_index - 1) for p in pts]
        secs, (xi, count) = _timed(conjugator_search, fams[0], fams[0], 4)
        self.put("equivalence.diagonal_pair_s.e3", secs)
        self.put("equivalence.conjugators.e3", count)
        secs, (xi_off, _) = _timed(conjugator_search, fams[0], fams[1], 4)
        self.put("equivalence.offdiag_pair_s.e3", secs)
        self.checks["conjugator search e3"] = xi is not None and xi_off is None

    def proofchain(self):
        for desc in CHECK_RINGS:
            ring = self.ring(desc)
            proof_chain_check(ring)  # builds the ring table
            secs, rep = _timed(proof_chain_check, ring, max_reps=3)
            self.put(f"proofchain.check_s.{SLUGS[desc]}", secs)
            self.checks[f"proof-chain[{desc}]"] = rep["passed"]
        bound = 125 if self.smoke else 625
        proof_chain_scan(bound)  # builds every catalog table
        secs, rep = _timed(proof_chain_scan, bound, max_reps=1)
        self.put("proofchain.scan_s", secs)
        self.put("proofchain.witnesses_per_s", sum(
            s["checked"] for r in rep["reports"] for s in r["steps"]) / secs)
        # forked workers inherit the warm tables; never gated (2 cores here)
        secs2, rep2 = _timed(proof_chain_scan, bound, 2, max_reps=1)
        self.put("proofchain.scan_jobs2_s", secs2)
        self.put("proofchain.jobs2_speedup", secs / secs2)
        self.checks["proof-chain scan"] = rep["passed"] and rep2["passed"]

    def versal_obstruction(self):
        for desc in HOM_POINT_RINGS:
            ring = self.ring(desc)
            self.put(f"versal.hom_points_s.{SLUGS[desc]}",
                     _timed(hom_points, ring, max_reps=3)[0])
        for desc in OBSTRUCTION:
            self.ring(desc)  # builds and caches the ring
            secs, rep = _timed(obstruction_check, self.size(desc), 8, max_reps=3)
            self.put(f"obstruction.check_s.{SLUGS[desc]}", secs)
            self.checks[f"obstruction[{desc}]"] = rep["obstructed"]

    def cli_refusal(self):
        """Time until `defo5 universality --ring cyclo(5)` exits 2; its table
        is not cached yet (tables() built its own RingTable)."""
        argv = ["universality", "--ring", self.size("cyclo(5)")]
        if self.smoke:
            argv = ["obstruction", "--n", "1"]
        out = io.StringIO()
        t0 = time.perf_counter_ns()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        self.put("cli.refusal_s.universality_cyclo5",
                 (time.perf_counter_ns() - t0) / 1e9)
        self.checks["refusal exits 2"] = code == 2

    def symbolic(self):
        # first calls: sympy's caches are cold, as in a fresh `defo5` process
        secs, _ = _timed(lambda: (expand_lhs(4), expand_rhs(4)), max_reps=1)
        self.put("symbolic.expand_s", secs)
        vsecs, rep = _timed(verify_displayed_equations, max_reps=1)
        self.put("symbolic.verify_displayed_s", vsecs)
        # the difference of two sample sizes cancels the fixed expansion cost
        n = 14 if self.smoke else 70
        seed = self.rng.randrange(2**32)
        small, s1 = _timed(consistency_sample, n, seed, max_reps=1)
        large, s2 = _timed(consistency_sample, 2 * n, seed, max_reps=1)
        self.put("symbolic.consistency_ms_per_witness",
                 (large - small) / (s2["witnesses"] - s1["witnesses"]) * 1e3)
        self.checks["symbolic"] = rep["passed"] and s1["passed"] and s2["passed"]


def run_suite(seed, smoke=False):
    """All per-layer suite values ({name: value}) and their checks."""
    s = Suite(seed, smoke)
    s.rings()
    s.tables()
    s.cli_refusal()
    s.series()
    s.tangent()
    s.equivalence()
    s.proofchain()
    s.versal_obstruction()
    s.symbolic()
    missing = set(SUITE) - set(s.metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {sorted(missing)}")
    return s.metrics, s.checks
