"""The enumerate-and-filter conjugator search used before the per-level
solve in ``defo5.deformation.equivalence``: every candidate xi_k in m (or
1 + m at k = 1) is appended to every survivor, both composites are
recomputed from scratch at each level, and the candidates that fail
coefficient k are dropped.  Kept as an independent test oracle; it returns
the same (first conjugator, count) for lifts with zero constant term."""

import numpy as np

from defo5.artin.rings import (ENUMERATION_BOUND, EnumerationBoundError,
                               Ring, RingError)
from defo5.artin.tables import ring_table
from defo5.nottingham import Automorphism
from defo5.series import TruncatedSeries


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
