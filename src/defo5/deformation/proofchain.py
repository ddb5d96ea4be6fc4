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

Three evaluation shortcuts then decide each step's predicate over exactly
the witnesses that a pass per s2 pair, or per (a2, u), would visit:

 *  steps (i) and (vi) range over every (a0, y1, s1) row and every pair
    (y2, s2).  Eq4 forces 1/s2 = 1/s1 - a0^2/s1^3 and Eq5 forces
    1/s2 = 1/s1 - a0^2, and distinct pairs have distinct s2, so on each row
    the premise holds for at most one pair: the one that a table from 1/s2
    to its pair index names.  Every other pair fails the premise, so it is
    still counted in ``checked`` but cannot be a counterexample.
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

Witnesses are the ones the loop forms pick: the lowest pair index, then the
lowest row; in step (ii) the lexicographically first bad quad, its first
row, then the lowest a2 and u, found by one broadcast on that quad only.

Step (iv) is stated with the sign that the algebra forces: multiplying Eq5
by a0 and applying Eq3 gives a0*(1 - 1/s2) = a0^3.  The source display has
the opposite sign, which fails on witnesses with a0^3 != 0 (for example
a0 = e, y1 = 1 - e^2 over F5[e]/(e^4)); the report records whether the
displayed sign also held.  Either sign yields a0^2 in a0^3*A, the only
consequence used downstream.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..artin.rings import Ring, build_ring
from ..artin.tables import ring_table

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
    """Index-table arithmetic shared by the six steps, over one ring."""

    def __init__(self, ring: Ring):
        self.ring = ring
        T = self.T = ring_table(ring)
        self.MUL, self.ADD, self.INV = T.MUL, T.ADD, T.INV
        self.NEG, self.SQ = T.NEG, T.SQ
        self.zero, self.one = T.zero, T.one
        self.all_idx = np.arange(T.n, dtype=np.int32)
        self.unit_squares = np.unique(T.SQ[T.units])
        self.threehalf = self.MUL[T.from_int(3), self.INV[T.from_int(2)]]
        y, phi = self.ADD[T.one, T.mideal], T.one
        for _ in range(4):  # Phi5(y) = 1 + y(1 + y(1 + y(1 + y)))
            phi = self.ADD[T.one, self.MUL[y, phi]]
        self.ys = sorted(y[phi == T.zero].tolist())  # the versal points
        self.y_mask = np.zeros(T.n, dtype=bool)
        self.y_mask[self.ys] = True
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

    # -- factored coefficient expressions ------------------------------------

    def _knq(self):
        """K, N (3rd-order) and Q (Eq6) along the (A0, Y1, S1) arrays; N needs
        y2, supplied by the caller as the determined value from Eq5."""
        MUL, ADD, NEG, SQ, INV = self.MUL, self.ADD, self.NEG, self.SQ, self.INV
        inv_s1 = INV[self.S1]
        inv_s1_sq = SQ[inv_s1]
        inv_s1_cu = MUL[inv_s1, inv_s1_sq]
        a0sq = SQ[self.A0]
        K = MUL[self.threehalf,
                MUL[MUL[self.A0, inv_s1_cu],
                    ADD[self.one, NEG[MUL[a0sq, inv_s1_sq]]]]]
        Q = MUL[self.threehalf, MUL[ADD[a0sq, NEG[self.one]], self.A0]]
        return inv_s1, inv_s1_cu, a0sq, K, Q


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


def _pair_lookup(scan):
    """For every element v, the index of the first s2 pair with 1/s2 = v, or
    -1.  Eq4 and Eq5 each pin 1/s2 to one value per (a0, y1, s1) row, and
    distinct pairs have distinct s2, so a row meets at most that one pair."""
    lookup = np.full(scan.T.n, -1, dtype=np.int64)
    for p in range(len(scan.s2_pairs) - 1, -1, -1):
        lookup[scan.INV[scan.s2_pairs[p][1]]] = p
    return lookup


def _first_bad(scan, bad, pair):
    """The witness of the lowest bad pair index, then the lowest row."""
    rows = np.flatnonzero(bad)
    if not rows.size:
        return None
    i = int(rows[np.argmin(pair[rows])])
    y2, s2 = scan.s2_pairs[int(pair[i])]
    return _witness(scan, a0=scan.A0[i], y1=scan.Y1[i], s1=scan.S1[i],
                    y2=y2, s2=s2)


def _step_i(scan):
    """Eq3 and Eq4 imply Eq5 (a1 eliminated as a unit factor)."""
    MUL, ADD, NEG, SQ, INV = scan.MUL, scan.ADD, scan.NEG, scan.SQ, scan.INV
    inv_s1 = INV[scan.S1]
    a0sq = SQ[scan.A0]
    # Eq4 pins 1/s2 = core, and Eq5 then fails iff core != 1/s1 - a0^2
    core = ADD[inv_s1, NEG[MUL[a0sq, MUL[inv_s1, SQ[inv_s1]]]]]
    pair = _pair_lookup(scan)[core]
    bad = scan.EQ3 & (pair >= 0) & (core != ADD[inv_s1, NEG[a0sq]])
    return _step_report("i", "Eq3 and Eq4 imply Eq5",
                        len(scan.s2_pairs) * len(scan.A0),
                        _first_bad(scan, bad, pair))


def _eq5_survivors(scan):
    """Among (A0, Y1, S1) with Eq3, the s2 determined by Eq5
    (1/s2 = 1/s1 - a0^2) whenever its square is a versal point; these are
    exactly the witnesses of Eq3 and Eq5."""
    MUL, ADD, NEG, SQ, INV = scan.MUL, scan.ADD, scan.NEG, scan.SQ, scan.INV
    inv_s1 = INV[scan.S1]
    a0sq = SQ[scan.A0]
    inv_s2 = ADD[inv_s1, NEG[a0sq]]
    s2 = INV[inv_s2]
    y2 = SQ[s2]
    ok = scan.EQ3 & scan.y_mask[y2]
    return ok, inv_s2, s2, y2


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
    a2*P = u*Q."""
    MUL, ADD, NEG, INV = scan.MUL, scan.ADD, scan.NEG, scan.INV
    ok, inv_s2, s2, y2 = _eq5_survivors(scan)
    inv_s1, inv_s1_cu, a0sq, K, Q = scan._knq()
    N = ADD[ADD[inv_s1, NEG[INV[y2]]], NEG[MUL[a0sq, inv_s1_cu]]]
    P = MUL[inv_s2, ADD[inv_s2, NEG[scan.one]]]
    U, n = scan.unit_squares, scan.T.n
    sel = np.flatnonzero(ok)
    witness = None
    # distinct quads (K, N, P, Q) in lexicographic order, as one int64 key
    # (n^4 < 2^63 for every n <= TABLE_BOUND)
    key = K[sel].astype(np.int64)
    for col in (N, P, Q):
        key = key * n + col[sel]
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
        i = int(sel[first[j]])
        witness = _witness(
            scan, a0=scan.A0[i], a1=a1, a2=scan.all_idx[a2_i],
            y1=scan.Y1[i], s1=scan.S1[i], y2=y2[i], s2=s2[i])
    return _step_report("ii", "Eq3, Eq5 and the 3rd-order equation imply Eq6",
                        sel.size * len(U) * n, witness)


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
    """Eq3 and Eq5 imply a0*(1 - 1/s2) = a0^3."""
    MUL, ADD, NEG, SQ = scan.MUL, scan.ADD, scan.NEG, scan.SQ
    ok, inv_s2, s2, y2 = _eq5_survivors(scan)
    a0cu = MUL[scan.A0, SQ[scan.A0]]
    lhs = MUL[scan.A0, ADD[scan.one, NEG[inv_s2]]]
    good = lhs == a0cu
    displayed = MUL[scan.A0, ADD[inv_s2, NEG[scan.one]]] == a0cu
    bad = ok & ~good
    witness = None
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        witness = _witness(scan, a0=scan.A0[i], y1=scan.Y1[i], s1=scan.S1[i],
                           y2=y2[i], s2=s2[i])
    return _step_report(
        "iv", "Eq3 and Eq5 imply a0*(1 - 1/s2) = a0^3", int(ok.sum()), witness,
        displayed_sign_holds=bool((ok & ~displayed).sum() == 0))


def _step_v(scan):
    """a0^2 in a0^3*A implies a0^2 = 0 (locality)."""
    MUL, SQ = scan.MUL, scan.SQ
    witness = None
    for a0 in scan.T.mideal:
        sq = int(SQ[a0])
        cube = int(MUL[a0, sq])
        if (MUL[scan.all_idx, cube] == sq).any() and sq != scan.zero:
            witness = _witness(scan, a0=a0)
            break
    return _step_report("v", "a0^2 in a0^3*A implies a0^2 = 0",
                        len(scan.T.mideal), witness)


def _step_vi(scan):
    """Eq5 and a0^2 = 0 imply y1 = y2."""
    ADD, NEG, SQ, INV = scan.ADD, scan.NEG, scan.SQ, scan.INV
    sel = SQ[scan.A0] == scan.zero
    # Eq5 pins 1/s2 = 1/s1 - a0^2
    pair = _pair_lookup(scan)[ADD[INV[scan.S1], NEG[SQ[scan.A0]]]]
    pair_y2 = np.array([y2 for y2, _ in scan.s2_pairs] + [-1])
    bad = sel & (pair >= 0) & (scan.Y1 != pair_y2[pair])
    return _step_report("vi", "Eq5 and a0^2 = 0 imply y1 = y2",
                        len(scan.s2_pairs) * int(sel.sum()),
                        _first_bad(scan, bad, pair))


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
    rings = catalog_rings(max_cardinality)
    if jobs > 1:
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

