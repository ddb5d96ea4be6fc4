"""The loop-and-broadcast proof-chain steps used before the fibre-table,
pair-lookup and survivor-row forms in ``defo5.deformation.proofchain``: one
pass per s2 pair, one |A| x |U^2| broadcast per distinct (K, N, P, Q) in
step (ii), every (a0, y1, s1) row in steps (ii) and (iv), and one a0 at a
time in step (v).  Kept as an independent test oracle; each returns the same
step report as its counterpart, and derives every row quantity itself from
the scan's attributes."""

import numpy as np

from defo5.deformation.proofchain import _step_report, _witness


def eq5_survivors(scan):
    """Among all (A0, Y1, S1) rows: the mask of Eq3 and of an s2 determined
    by Eq5 (1/s2 = 1/s1 - a0^2) whose square is a versal point, and 1/s2,
    s2 and y2 on every row."""
    MUL, ADD, NEG, SQ, INV = scan.MUL, scan.ADD, scan.NEG, scan.SQ, scan.INV
    inv_s1 = INV[scan.S1]
    a0sq = SQ[scan.A0]
    inv_s2 = ADD[inv_s1, NEG[a0sq]]
    s2 = INV[inv_s2]
    y2 = SQ[s2]
    ok = scan.EQ3 & scan.y_mask[y2]
    return ok, inv_s2, s2, y2


def knq(scan):
    """1/s1, 1/s1^3, a0^2, K (3rd-order) and Q (Eq6) on every row."""
    MUL, ADD, NEG, SQ, INV = scan.MUL, scan.ADD, scan.NEG, scan.SQ, scan.INV
    inv_s1 = INV[scan.S1]
    inv_s1_sq = SQ[inv_s1]
    inv_s1_cu = MUL[inv_s1, inv_s1_sq]
    a0sq = SQ[scan.A0]
    K = MUL[scan.threehalf,
            MUL[MUL[scan.A0, inv_s1_cu],
                ADD[scan.one, NEG[MUL[a0sq, inv_s1_sq]]]]]
    Q = MUL[scan.threehalf, MUL[ADD[a0sq, NEG[scan.one]], scan.A0]]
    return inv_s1, inv_s1_cu, a0sq, K, Q


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
    ok, inv_s2, s2, y2 = eq5_survivors(scan)
    inv_s1, inv_s1_cu, a0sq, K, Q = knq(scan)
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


def step_iv(scan):
    """Eq3 and Eq5 imply a0*(1 - 1/s2) = a0^3, over every row."""
    MUL, ADD, NEG, SQ = scan.MUL, scan.ADD, scan.NEG, scan.SQ
    ok, inv_s2, s2, y2 = eq5_survivors(scan)
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


def step_v(scan):
    """a0^2 in a0^3*A implies a0^2 = 0, one a0 at a time."""
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
