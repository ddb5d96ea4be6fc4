"""Equivalence of lifts: exhaustive truncated-conjugator search.

Two lifts are equivalent when they are conjugate by an automorphism xi with
xi(t) = t mod m_A.  The search space for xi truncated at precision P is

    c0 in m_A,  c1 in 1 + m_A,  c_i in m_A (i >= 2),

and a candidate is accepted when xi o lift1 = lift2 o xi holds coefficient
by coefficient through t^(P-1), with both composites computed exactly from
the candidate polynomial.  Any genuine conjugator truncates to an accepted
candidate, so an exhausted search is a sound refutation of equivalence;
a found candidate is a certificate at precision only.

The scan is breadth-first over the coefficients: partial candidates are
pruned as soon as one coefficient equation fails, with all candidates at a
level checked in one vectorized pass over the ring's index tables.
"""

from __future__ import annotations

import numpy as np

from ..artin.rings import ENUMERATION_BOUND, EnumerationBoundError, Ring, RingError
from ..artin.tables import ring_table
from ..nottingham import Automorphism
from ..series import TruncatedSeries
from .versal import hom_points, versal_family


def _refuse_search_space(ring: Ring, prec: int):
    """Refuse a conjugator search whose a-priori space |m|^(prec+1) exceeds
    the enumeration bound, from cardinalities alone."""
    n_m = ring.cardinality // ring.residue_ring.cardinality
    if n_m ** (prec + 1) > ENUMERATION_BOUND:
        raise EnumerationBoundError(
            f"conjugator search space |m|^{prec + 1} exceeds the bound")


def _conv_batch(T, A, B, upto):
    """Coefficient-wise product of two batched series (index arrays)."""
    out = np.zeros((A.shape[0], upto), dtype=np.int32)
    for m in range(upto):
        acc = None
        lo = max(0, m - (B.shape[1] - 1))
        hi = min(m, A.shape[1] - 1)
        for a in range(lo, hi + 1):
            term = T.MUL[A[:, a], B[:, m - a]]
            acc = term if acc is None else T.ADD[acc, term]
        if acc is not None:
            out[:, m] = acc
    return out


def conjugator_search(lift1: Automorphism, lift2: Automorphism, prec: int):
    """Truncated conjugators xi with xi o lift1 = lift2 o xi through
    t^(prec-1), by a complete search.

    Returns (xi, count): xi is the first conjugator in enumeration order, or
    None when there is none, and count is the exact number of conjugators.
    """
    ring = lift1.ring
    if lift2.ring != ring:
        raise RingError("lifts over different rings")
    e = ring.nilpotency_index
    jmax = prec + e - 2
    if lift1.prec < prec or lift2.prec < jmax + 1:
        raise RingError(
            f"conjugator search at precision {prec} needs lift1 precision >= "
            f"{prec} and lift2 precision >= {jmax + 1}")
    _refuse_search_space(ring, prec)
    T = ring_table(ring)

    # Powers of lift1 (as series) through t^(prec-1); index form.
    s1 = lift1.series.truncate(prec)
    pow_idx = []
    acc = TruncatedSeries.constant(ring, 1, prec)
    for i in range(prec):
        pow_idx.append([T.index(c) for c in acc.coeffs])
        acc = (acc * s1) if i + 1 < prec else acc
    d_idx = [T.index(lift2.series.coeffs[j]) for j in range(jmax + 1)]

    mideal = T.mideal.astype(np.int32)
    one_plus_m = T.ADD[T.one, mideal].astype(np.int32)

    batch = np.zeros((1, 0), dtype=np.int32)
    for k in range(prec):
        vals = one_plus_m if k == 1 else mideal
        nb, nv = batch.shape[0], len(vals)
        ext = np.empty((nb * nv, k + 1), dtype=np.int32)
        if k:
            ext[:, :k] = np.repeat(batch, nv, axis=0)
        ext[:, k] = np.tile(vals, nb)

        # LHS coefficient k of xi o lift1: sum_i xi_i * (lift1^i)_k.
        lhs = None
        for i in range(k + 1):
            term = T.MUL[ext[:, i], pow_idx[i][k]]
            lhs = term if lhs is None else T.ADD[lhs, term]

        # RHS coefficient k of lift2 o xi: sum_j d_j * (xi^j)_k.
        rhs = np.full(ext.shape[0], d_idx[0] if k == 0 else T.zero,
                      dtype=np.int32)
        p = ext  # xi^1 truncated to k+1 coefficients
        for j in range(1, jmax + 1):
            if j > 1:
                p = _conv_batch(T, p, ext, k + 1)
            rhs = T.ADD[rhs, T.MUL[d_idx[j], p[:, k]]]

        batch = ext[lhs == rhs]
        if batch.shape[0] == 0:
            return None, 0

    count = int(batch.shape[0])
    first = batch[0]
    xi = Automorphism(TruncatedSeries(
        ring, [T.element(int(i)) for i in first]))
    if __debug__:
        left = xi.series.exact_extension(prec + e - 1).compose(
            lift1.series.truncate(prec))
        right = lift2.series.truncate(jmax + 1).compose(
            xi.series.exact_extension(prec + e - 1))
        assert left.agrees_with(right, prec)
    return xi, count


def equivalent(lift1: Automorphism, lift2: Automorphism, prec: int):
    """Conjugator xi at precision ``prec``, or None (sound refutation)."""
    xi, _ = conjugator_search(lift1, lift2, prec)
    return xi


def universality_scan(ring: Ring, prec: int):
    """For every ordered pair of versal points, search for a conjugator
    between their versal families; the pro-representability theorem predicts
    a conjugator exactly on the diagonal.

    Returns a report dict with one entry per pair.
    """
    _refuse_search_space(ring, prec)
    e = ring.nilpotency_index
    pts = hom_points(ring)
    fams = [versal_family(p, prec + e - 1) for p in pts]
    pairs = []
    ok = True
    for i, p1 in enumerate(pts):
        for j, p2 in enumerate(pts):
            xi, count = conjugator_search(fams[i], fams[j], prec)
            found = xi is not None
            expected = (i == j)
            verdict = found == expected
            ok = ok and verdict
            pairs.append({
                "y1": str(p1.y),
                "y2": str(p2.y),
                "conjugator_found": found,
                "conjugators_at_precision": count,
                "conjugator": str(xi.series) if xi else None,
                "expected_equivalent": expected,
                "as_predicted": verdict,
            })
    return {
        "ring": ring.descriptor,
        "prec": prec,
        "hom_points": len(pts),
        "pairs": pairs,
        "diagonal_equivalent": sum(1 for p in pairs
                                   if p["expected_equivalent"] and p["conjugator_found"]),
        "off_diagonal_refuted": sum(1 for p in pairs
                                    if not p["expected_equivalent"]
                                    and not p["conjugator_found"]),
        "all_as_predicted": ok,
    }
