"""Exhaustive finite-ring verification of the universality implication chain.

Setting: y1, y2 are versal points of a catalog ring A, g = a0 + a1*t + a2*t^2
+ O(t^3) conjugates sigma_{y1} to sigma_{y2} with a0 in m_A and a1 a unit,
and s1, s2 denote square roots of a0^2 + y1 and y2.  The named equations are

    Eq3:  a0 = a0/s1
    Eq4:  a1/s1 - a0^2*a1/s1^3 = a1/s2
    Eq5:  1/s1 - 1/s2 = a0^2
    3rd:  a0*a1^2/s1^3
          - (a0/s1)*(a0^2*a1^2/s1^4
                     + (1/2)*(a0^2*a1^2/s1^4 - (a1^2 + 2*a0*a2)/s1^2))
          = a2/s1 - a2/y2
    Eq6:  a2*(1/s2)*(1/s2 - 1) = (3/2)*(a0^2 - 1)*a0*a1^2

and the chain is checked as six implications over every witness
(a0 in m_A, a1 in A^*, a2 in A, versal y1, y2, both branches of s1 and s2):

    (i)   Eq3 and Eq4                =>  Eq5
    (ii)  Eq3 and Eq5 and 3rd        =>  Eq6
    (iii) Eq6                        =>  a0 in (1/s2 - 1)*A
    (iv)  Eq3 and Eq5                =>  a0*(1 - 1/s2) = a0^3
    (v)   a0^2 in a0^3*A             =>  a0^2 = 0      (locality of A)
    (vi)  Eq5 and a0^2 = 0           =>  y1 = y2

Two exact reductions keep the scans tractable without weakening them:

 *  a1 enters Eq4 only as a unit factor, so Eq4 is equivalent to
    1/s1 - a0^2/s1^3 - 1/s2 = 0 (a unit times x vanishes iff x does), and
    the 3rd-order equation and Eq6 depend on a1 only through u = a1^2, so
    quantifying over units a1 is quantifying over unit squares u.
 *  the 3rd-order equation factors as u*K = a2*N and Eq6 as a2*P = u*Q with

        K = (3/2) * (a0/s1^3) * (1 - a0^2/s1^2)
        N = 1/s1 - 1/y2 - a0^2/s1^3
        P = (1/s2) * (1/s2 - 1)
        Q = (3/2) * (a0^2 - 1) * a0

    which is plain ring algebra (2 is a unit); the tests re-check the
    factored forms against the literal displays on sampled witnesses.

Four evaluation shortcuts then decide each step's predicate over exactly
the witnesses that a pass per s2 pair, per (a2, u) or per a0 would visit:

 *  steps (i) and (vi) range over every (a0, y1, s1) row and every pair
    (y2, s2).  Eq4 forces 1/s2 = 1/s1 - a0^2/s1^3 and Eq5 forces
    1/s2 = 1/s1 - a0^2, and distinct pairs have distinct s2, so on each row
    the premise holds for at most one pair: the one that a table from 1/s2
    to its pair index names.  Every other pair fails the premise, so it is
    still counted in ``checked`` but cannot be a counterexample; and a row
    without Eq3 (step (i)) or with a0^2 != 0 (step (vi)) is never looked
    up.
 *  steps (ii) and (iv) assume Eq3 and Eq5, which pin s2 on each row, so
    they are evaluated on the survivors only: the rows with Eq3 whose s2
    from Eq5 squares to a versal point (1 750 of the 31 250 rows of
    F5[e]/(e^4)).  The survivors, 1/s1, a0^2 and the pair table are
    computed once per scan, on first use.
 *  the unit square u = a1^2 factors out of steps (ii) and (iii).  In (ii),
    a2 = u*b turns "some a2 has a2*N = u*K, a2*P != u*Q" into "some b has
    b*N = K, b*P != Q" for every u.  In (iii), P = (1/s2)*z with the unit
    1/s2 and z = 1/s2 - 1, so Eq6 is satisfiable at a0 (u*Q in P*A) iff Q is
    in z*A: one z*A membership matrix decides premise and conclusion.
 *  step (ii) then asks, per distinct (K, N, P, Q), whether the fibre
    {b : b*N = K} = pre + ann(N) is non-empty with ann(N)*P != 0 or
    pre*P != Q.  One pass over all b per distinct (N, P) tabulates both, so
    every quad is a lookup: the same (a2, u) set, |A| * |U^2| per quad,
    without building the |A| x |U^2| matrix.

Step (v) tests a0^2 in a0^3*A for every a0 in m at once, on the rows of
``MUL`` at the cubes.  Witnesses are the ones the loop forms pick: the
lowest pair index, then the lowest row; in step (ii) the lexicographically
first bad quad, its first row, then the lowest a2 and u, found by one
broadcast on that quad only; in step (v) the lowest a0.

Step (iv) is stated with the sign that the algebra forces: multiplying Eq5
by a0 and applying Eq3 gives a0*(1 - 1/s2) = a0^3.  The source display has
the opposite sign, which fails on witnesses with a0^3 != 0 (for example
a0 = e, y1 = 1 - e^2 over F5[e]/(e^4)); the report records whether the
displayed sign also held.  Either sign yields a0^2 in a0^3*A, the only
consequence used downstream.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..artin.rings import Ring, RingError, build_ring
from ..artin.tables import ring_table
from .versal import versal_scan

# bound on the elements of one intermediate array in step (ii)
_CHUNK = 1 << 14

CATALOG = (
    "F5",
    "F25",
    "Z/25",
    "Z/125",
    "Z/625",
    "F5[e]/(e^2)",
    "F5[e]/(e^3)",
    "F5[e]/(e^4)",
    "F5[e1]/(e1^2)[e2]/(e2^2)",
    "F25[e]/(e^2)",
    "cyclo(2)",
    "cyclo(3)",
    "cyclo(4)",
)


def catalog_rings(max_cardinality: int = 5 ** 4):
    """The canonical enumerable catalog, cardinality-bounded."""
    rings = [build_ring(d) for d in CATALOG]
    return [r for r in rings if r.cardinality <= max_cardinality]


class _Scan:
    """Index-table arithmetic shared by the six steps, over one ring.

    The row quantities that several steps share (1/s1, a0^2, the Eq5
    survivors and the pair lookup) are derived on first use from the
    attributes set here, so a copy with an attribute replaced derives them
    from the replacement."""

    def __init__(self, ring: Ring):
        self.ring = ring
        T = self.T = ring_table(ring)
        self.MUL, self.ADD, self.INV = T.MUL, T.ADD, T.INV
        self.NEG, self.SQ = T.NEG, T.SQ
        self.zero, self.one = T.zero, T.one
        self.all_idx = np.arange(T.n, dtype=np.int32)
        self.unit_squares = np.flatnonzero(
            np.bincount(T.SQ[T.units], minlength=T.n))
        self.threehalf = self.MUL[T.from_int(3), self.INV[T.from_int(2)]]
        rows, hits = versal_scan(ring)  # the versal points, ranked
        self.ys = (rows[hits] @ np.array(ring._weights)).tolist()
        self.y_mask = np.isin(self.all_idx, self.ys)
        # All (a0, y1, s1) with s1^2 = a0^2 + y1 (by y1, then a0, then s1 in
        # the order of T.roots), as parallel arrays, plus the Eq3 mask
        # a0*s1 = a0.  by_square lists the roots of each value in turn.
        by_square = np.argsort(T.SQ, kind="stable").astype(np.int32)
        n_roots = np.bincount(T.SQ, minlength=T.n)
        start = np.cumsum(n_roots) - n_roots
        y1 = np.repeat(np.array(self.ys, dtype=np.int32), len(T.mideal))
        a0 = np.tile(T.mideal, len(self.ys))
        square = self.ADD[self.SQ[a0], y1]
        count = n_roots[square]
        self.A0 = np.repeat(a0, count)
        self.Y1 = np.repeat(y1, count)
        offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count,
                                                    count)
        self.S1 = by_square[np.repeat(start[square], count) + offset]
        self.EQ3 = self.MUL[self.A0, self.S1] == self.A0
        # s2 candidates: (y2, s2) with s2^2 = y2, both branches.
        self.s2_pairs = [(y2, s2) for y2 in self.ys for s2 in T.roots[y2]]

    def el(self, idx):
        return str(self.T.element(int(idx)))

    # -- row quantities shared by the steps ----------------------------------

    @cached_property
    def inv_s1(self):
        return self.INV[self.S1]

    @cached_property
    def a0sq(self):
        return self.SQ[self.A0]

    @cached_property
    def survivors(self):
        """(rows, 1/s2, s2, y2): the rows with Eq3 whose s2 determined by
        Eq5 (1/s2 = 1/s1 - a0^2) squares to a versal point, and that s2;
        these are exactly the witnesses of Eq3 and Eq5."""
        rows = np.flatnonzero(self.EQ3)
        inv_s2 = self.ADD[self.inv_s1[rows], self.NEG[self.a0sq[rows]]]
        s2 = self.INV[inv_s2]
        y2 = self.SQ[s2]
        keep = self.y_mask[y2]
        return rows[keep], inv_s2[keep], s2[keep], y2[keep]

    @cached_property
    def pair_of(self):
        """For every element v, the index of the s2 pair with 1/s2 = v, or
        -1.  Distinct pairs have distinct s2, so at most one pair has it;
        Eq4 and Eq5 each pin 1/s2 to one value per (a0, y1, s1) row, so a
        row meets at most that one pair."""
        lookup = np.full(self.T.n, -1, dtype=np.int64)
        s2 = np.array([s2 for _, s2 in self.s2_pairs], dtype=np.int64)
        lookup[self.INV[s2]] = np.arange(len(s2))
        return lookup


def _witness(scan, **elts):
    return {k: scan.el(v) for k, v in elts.items()}


def _step_report(name, statement, checked, witness=None, **extra):
    rep = {
        "step": name,
        "statement": statement,
        "checked": int(checked),
        "counterexamples": 0 if witness is None else 1,
        "witness": witness,
    }
    rep.update(extra)
    return rep


def _first_bad(scan, rows, pair):
    """The witness of the lowest bad pair index, then the lowest row, among
    the bad ``rows`` (ascending) and their pair indices."""
    if not rows.size:
        return None
    k = int(np.argmin(pair))
    i = rows[k]
    y2, s2 = scan.s2_pairs[int(pair[k])]
    return _witness(scan, a0=scan.A0[i], y1=scan.Y1[i], s1=scan.S1[i],
                    y2=y2, s2=s2)


def _step_i(scan):
    """Eq3 and Eq4 imply Eq5 (a1 eliminated as a unit factor)."""
    MUL, ADD, NEG, SQ = scan.MUL, scan.ADD, scan.NEG, scan.SQ
    rows = np.flatnonzero(scan.EQ3)
    inv_s1, a0sq = scan.inv_s1[rows], scan.a0sq[rows]
    # Eq4 pins 1/s2 = core, and Eq5 then fails iff core != 1/s1 - a0^2
    core = ADD[inv_s1, NEG[MUL[a0sq, MUL[inv_s1, SQ[inv_s1]]]]]
    pair = scan.pair_of[core]
    bad = (pair >= 0) & (core != ADD[inv_s1, NEG[a0sq]])
    return _step_report("i", "Eq3 and Eq4 imply Eq5",
                        len(scan.s2_pairs) * len(scan.A0),
                        _first_bad(scan, rows[bad], pair[bad]))


def _bad_quads(scan, K, N, P, Q):
    """For parallel arrays of quads: whether some a2 in A and unit square u
    have a2*N = u*K and a2*P != u*Q, i.e. some b has b*N = K and b*P != Q.
    Per distinct (N, P) group g, val[g, x] = pre*P for some pre with
    pre*N = x (-1: none) and moving[g] = (ann(N)*P != 0)."""
    MUL, n = scan.MUL, scan.T.n
    groups, g_q = np.unique(N.astype(np.int64) * n + P, return_inverse=True)
    val = np.full((groups.size, n), -1, dtype=MUL.dtype)
    moving = np.zeros(groups.size, dtype=bool)
    block = max(1, _CHUNK // n)
    for g0 in range(0, groups.size, block):
        g = slice(g0, g0 + block)
        rn, rp = MUL[groups[g] // n], MUL[groups[g] % n]
        val[np.arange(g0, g0 + len(rn))[:, None], rn] = rp
        moving[g] = ((rn == scan.zero) & (rp != scan.zero)).any(axis=1)
    pre_p = val[g_q, K]
    return (pre_p >= 0) & (moving[g_q] | (pre_p != Q))


def _step_ii(scan):
    """Eq3, Eq5 and the 3rd-order equation imply Eq6, quantified over unit
    squares u = a1^2 and all a2 with the factored forms u*K = a2*N and
    a2*P = u*Q, on the Eq3 and Eq5 survivors only."""
    MUL, ADD, NEG, SQ, INV = scan.MUL, scan.ADD, scan.NEG, scan.SQ, scan.INV
    rows, inv_s2, s2, y2 = scan.survivors
    a0, inv_s1, a0sq = scan.A0[rows], scan.inv_s1[rows], scan.a0sq[rows]
    inv_s1_sq = SQ[inv_s1]
    inv_s1_cu = MUL[inv_s1, inv_s1_sq]
    K = MUL[scan.threehalf,
            MUL[MUL[a0, inv_s1_cu], ADD[scan.one, NEG[MUL[a0sq, inv_s1_sq]]]]]
    N = ADD[ADD[inv_s1, NEG[INV[y2]]], NEG[MUL[a0sq, inv_s1_cu]]]
    P = MUL[inv_s2, ADD[inv_s2, NEG[scan.one]]]
    Q = MUL[scan.threehalf, MUL[ADD[a0sq, NEG[scan.one]], a0]]
    U, n = scan.unit_squares, scan.T.n
    witness = None
    # distinct quads (K, N, P, Q) in lexicographic order, as one int64 key
    # (n^4 < 2^63 for every n <= TABLE_BOUND)
    key = K.astype(np.int64)
    for col in (N, P, Q):
        key = key * n + col
    quads, first = np.unique(key, return_index=True)
    k, nn, p, q = (quads // n ** e % n for e in (3, 2, 1, 0))
    bad_quad = _bad_quads(scan, k, nn, p, q)
    if bad_quad.any():
        # the first bad quad, its first row, then the lowest a2 and u
        j = int(np.argmax(bad_quad))
        bad = ((MUL[scan.all_idx, nn[j]][:, None] == MUL[U, k[j]][None, :])
               & (MUL[scan.all_idx, p[j]][:, None] != MUL[U, q[j]][None, :]))
        a2_i, u_i = np.argwhere(bad)[0]
        u = int(U[u_i])
        a1 = int(scan.T.units[np.flatnonzero(scan.SQ[scan.T.units] == u)[0]])
        f = first[j]
        i = rows[f]
        witness = _witness(
            scan, a0=scan.A0[i], a1=a1, a2=scan.all_idx[a2_i],
            y1=scan.Y1[i], s1=scan.S1[i], y2=y2[f], s2=s2[f])
    return _step_report("ii", "Eq3, Eq5 and the 3rd-order equation imply Eq6",
                        rows.size * len(U) * n, witness)


def _ideal_members(scan, s2):
    """member[p, x]: whether x is in (1/s2[p] - 1)*A, from one ``MUL`` gather
    (MUL is symmetric, so row z of MUL is z*A)."""
    image = scan.MUL[scan.ADD[scan.INV[s2], scan.NEG[scan.one]]]
    member = np.zeros(image.shape, dtype=bool)
    member[np.arange(len(s2))[:, None], image] = True
    return member


def _step_iii(scan):
    """Eq6 implies a0 in (1/s2 - 1)*A, where Eq6 is satisfiable at a0 iff Q
    is in (1/s2 - 1)*A (u-invariance, see the module docstring)."""
    MUL, ADD, NEG = scan.MUL, scan.ADD, scan.NEG
    # Q depends only on a0; take one row per distinct a0
    a0_vals = scan.T.mideal
    Q = MUL[scan.threehalf,
            MUL[ADD[scan.SQ[a0_vals], NEG[scan.one]], a0_vals]]
    member = _ideal_members(scan, np.array([s2 for _, s2 in scan.s2_pairs],
                                           dtype=MUL.dtype))
    bad = np.argwhere(member[:, Q] & ~member[:, a0_vals])
    witness = None
    if bad.size:
        p, i = bad[0]
        y2, s2 = scan.s2_pairs[p]
        witness = _witness(scan, a0=a0_vals[i], y2=y2, s2=s2)
    return _step_report("iii", "Eq6 implies a0 in (1/s2 - 1)*A",
                        len(scan.s2_pairs) * len(a0_vals), witness)


def _step_iv(scan):
    """Eq3 and Eq5 imply a0*(1 - 1/s2) = a0^3, on the survivors only."""
    MUL, ADD, NEG = scan.MUL, scan.ADD, scan.NEG
    rows, inv_s2, s2, y2 = scan.survivors
    a0 = scan.A0[rows]
    a0cu = MUL[a0, scan.a0sq[rows]]
    good = MUL[a0, ADD[scan.one, NEG[inv_s2]]] == a0cu
    displayed = MUL[a0, ADD[inv_s2, NEG[scan.one]]] == a0cu
    witness = None
    if not good.all():
        f = int(np.argmin(good))
        i = rows[f]
        witness = _witness(scan, a0=scan.A0[i], y1=scan.Y1[i], s1=scan.S1[i],
                           y2=y2[f], s2=s2[f])
    return _step_report(
        "iv", "Eq3 and Eq5 imply a0*(1 - 1/s2) = a0^3", rows.size, witness,
        displayed_sign_holds=bool(displayed.all()))


def _step_v(scan):
    """a0^2 in a0^3*A implies a0^2 = 0 (locality)."""
    MUL = scan.MUL
    a0 = scan.T.mideal
    sq = scan.SQ[a0]
    # MUL is symmetric, so row a0^3 of MUL is a0^3*A
    bad = (MUL[MUL[a0, sq]] == sq[:, None]).any(axis=1) & (sq != scan.zero)
    witness = None
    if bad.any():
        witness = _witness(scan, a0=a0[np.argmax(bad)])
    return _step_report("v", "a0^2 in a0^3*A implies a0^2 = 0",
                        len(a0), witness)


def _step_vi(scan):
    """Eq5 and a0^2 = 0 imply y1 = y2."""
    ADD, NEG = scan.ADD, scan.NEG
    rows = np.flatnonzero(scan.a0sq == scan.zero)
    # Eq5 pins 1/s2 = 1/s1 - a0^2
    pair = scan.pair_of[ADD[scan.inv_s1[rows], NEG[scan.a0sq[rows]]]]
    pair_y2 = np.array([y2 for y2, _ in scan.s2_pairs] + [-1])
    bad = (pair >= 0) & (scan.Y1[rows] != pair_y2[pair])
    return _step_report("vi", "Eq5 and a0^2 = 0 imply y1 = y2",
                        len(scan.s2_pairs) * rows.size,
                        _first_bad(scan, rows[bad], pair[bad]))


def proof_chain_check(ring: Ring | str):
    """Run all six implication steps exhaustively over one catalog ring."""
    if isinstance(ring, str):
        ring = build_ring(ring)
    scan = _Scan(ring)
    steps = [f(scan) for f in
             (_step_i, _step_ii, _step_iii, _step_iv, _step_v, _step_vi)]
    return {
        "ring": ring.descriptor,
        "cardinality": ring.cardinality,
        "hom_points": len(scan.ys),
        "steps": steps,
        "counterexamples": sum(s["counterexamples"] for s in steps),
        "passed": all(s["counterexamples"] == 0 for s in steps),
    }


def proof_chain_scan(max_cardinality: int = 5 ** 4, jobs: int = 1):
    """proof_chain_check over the whole catalog, optionally in parallel;
    results are merged in canonical catalog order."""
    if max_cardinality < 5:
        raise RingError(f"max_cardinality {max_cardinality} admits no "
                        "catalog ring: the smallest, F5, has 5 elements")
    rings = catalog_rings(max_cardinality)
    if jobs > 1:
        # imported here, so that importing the package leaves multiprocessing
        # unloaded (about 20 ms of every run)
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(rings))) as pool:
            reports = list(pool.map(proof_chain_check,
                                    [r.descriptor for r in rings]))
    else:
        reports = [proof_chain_check(r) for r in rings]
    return {
        "max_cardinality": max_cardinality,
        "rings": [r["ring"] for r in reports],
        "reports": reports,
        "counterexamples": sum(r["counterexamples"] for r in reports),
        "passed": all(r["passed"] for r in reports),
    }

