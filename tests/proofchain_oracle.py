"""The loop-and-broadcast proof-chain steps (i), (ii), (iii) and (vi) used
before the fibre-table and pair-lookup forms in ``defo5.deformation.proofchain``:
one pass per s2 pair, and one |A| x |U^2| broadcast per distinct (K, N, P, Q)
in step (ii).  Kept as an independent test oracle; each returns the same step
report as its counterpart."""

import numpy as np

from defo5.deformation.proofchain import (_eq5_survivors, _step_report,
                                          _witness)


def p_of(scan, s2):
    """P = (1/s2)(1/s2 - 1), the generator of the ideal in Eq6."""
    inv_s2 = scan.INV[s2]
    return scan.MUL[inv_s2, scan.ADD[inv_s2, scan.NEG[scan.one]]]


def step_i(scan):
    """Eq3 and Eq4 imply Eq5 (a1 eliminated as a unit factor)."""
    MUL, ADD, NEG, SQ, INV = scan.MUL, scan.ADD, scan.NEG, scan.SQ, scan.INV
    inv_s1 = INV[scan.S1]
    a0sq = SQ[scan.A0]
    core = ADD[inv_s1, NEG[MUL[a0sq, MUL[inv_s1, SQ[inv_s1]]]]]
    checked = 0
    witness = None
    for y2, s2 in scan.s2_pairs:
        inv_s2 = int(INV[s2])
        eq4 = ADD[core, scan.NEG[inv_s2]] == scan.zero
        eq5 = ADD[inv_s1, scan.NEG[inv_s2]] == a0sq
        bad = scan.EQ3 & eq4 & ~eq5
        checked += len(scan.A0)
        if witness is None and bad.any():
            i = int(np.flatnonzero(bad)[0])
            witness = _witness(scan, a0=scan.A0[i], y1=scan.Y1[i],
                               s1=scan.S1[i], y2=y2, s2=s2)
    return _step_report("i", "Eq3 and Eq4 imply Eq5", checked, witness)


def step_ii(scan):
    """Eq3, Eq5 and the 3rd-order equation imply Eq6, quantified over unit
    squares u = a1^2 and all a2 with the factored forms u*K = a2*N and
    a2*P = u*Q."""
    MUL, ADD, NEG, INV = scan.MUL, scan.ADD, scan.NEG, scan.INV
    ok, inv_s2, s2, y2 = _eq5_survivors(scan)
    inv_s1, inv_s1_cu, a0sq, K, Q = scan._knq()
    N = ADD[ADD[inv_s1, NEG[INV[y2]]], NEG[MUL[a0sq, inv_s1_cu]]]
    P = MUL[inv_s2, ADD[inv_s2, NEG[scan.one]]]
    quads = np.stack([K[ok], N[ok], P[ok], Q[ok]], axis=1)
    checked = int(ok.sum()) * len(scan.unit_squares) * scan.T.n
    witness = None
    if quads.size:
        uniq, first = np.unique(quads, axis=0, return_index=True)
        sel = np.flatnonzero(ok)
        for (k, nn, p, q), fi in zip(uniq, sel[first]):
            lk = MUL[scan.unit_squares, k]
            lq = MUL[scan.unit_squares, q]
            rn = MUL[scan.all_idx, nn]
            rp = MUL[scan.all_idx, p]
            bad = (rn[:, None] == lk[None, :]) & (rp[:, None] != lq[None, :])
            if witness is None and bad.any():
                a2_i, u_i = np.argwhere(bad)[0]
                u = int(scan.unit_squares[u_i])
                a1 = int(scan.T.units[np.flatnonzero(
                    scan.SQ[scan.T.units] == u)[0]])
                i = int(fi)
                witness = _witness(
                    scan, a0=scan.A0[i], a1=a1, a2=scan.all_idx[a2_i],
                    y1=scan.Y1[i], s1=scan.S1[i], y2=y2[i], s2=s2[i])
    return _step_report("ii", "Eq3, Eq5 and the 3rd-order equation imply Eq6",
                        checked, witness)


def step_iii(scan):
    """Eq6 implies a0 in (1/s2 - 1)*A."""
    MUL, ADD, NEG = scan.MUL, scan.ADD, scan.NEG
    # Q depends only on a0; take one row per distinct a0.
    a0_vals = scan.T.mideal
    Q = MUL[scan.threehalf,
            MUL[ADD[scan.SQ[a0_vals], NEG[scan.one]], a0_vals]]
    checked = 0
    witness = None
    for y2, s2 in scan.s2_pairs:
        z = ADD[scan.INV[s2], NEG[scan.one]]
        ideal = MUL[scan.all_idx, z]
        member = np.zeros(scan.T.n, dtype=bool)
        member[ideal] = True
        rp_set = np.unique(MUL[scan.all_idx, p_of(scan, s2)])
        lq = MUL[scan.unit_squares[None, :], Q[:, None]]
        sat = np.isin(lq, rp_set).any(axis=1)  # Eq6 satisfiable per a0
        bad = sat & ~member[a0_vals]
        checked += len(a0_vals)
        if witness is None and bad.any():
            witness = _witness(scan, a0=a0_vals[int(np.flatnonzero(bad)[0])],
                               y2=y2, s2=s2)
    return _step_report("iii", "Eq6 implies a0 in (1/s2 - 1)*A",
                        checked, witness)


def step_vi(scan):
    """Eq5 and a0^2 = 0 imply y1 = y2."""
    ADD, NEG, SQ, INV = scan.ADD, scan.NEG, scan.SQ, scan.INV
    sel = SQ[scan.A0] == scan.zero
    inv_s1 = INV[scan.S1]
    checked = 0
    witness = None
    for y2, s2 in scan.s2_pairs:
        eq5 = ADD[inv_s1, NEG[int(INV[s2])]] == SQ[scan.A0]
        bad = sel & eq5 & (scan.Y1 != y2)
        checked += int(sel.sum())
        if witness is None and bad.any():
            i = int(np.flatnonzero(bad)[0])
            witness = _witness(scan, a0=scan.A0[i], y1=scan.Y1[i],
                               s1=scan.S1[i], y2=y2, s2=s2)
    return _step_report("vi", "Eq5 and a0^2 = 0 imply y1 = y2",
                        checked, witness)
