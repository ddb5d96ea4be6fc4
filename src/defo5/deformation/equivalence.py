"""Equivalence of lifts: exhaustive truncated-conjugator search, one level
at a time.

Two lifts are equivalent when they are conjugate by an automorphism xi with
xi(t) = t mod m_A.  Truncated at precision P, xi = xi_0 + xi_1 t + ... with

    xi_0 in m_A,  xi_1 in 1 + m_A,  xi_k in m_A (k >= 2),

and xi is a conjugator when xi o lift1 = lift2 o xi holds coefficient by
coefficient through t^(P-1).  Any genuine conjugator truncates to one, so an
exhausted search is a sound refutation of equivalence; a found xi is a
certificate at precision only.

Precondition: lift1 has zero constant term (every versal family has).  Then
(lift1^i)_k = 0 for i > k, so coefficient k of xi o lift1 is
sum_{i<=k} xi_i (lift1^i)_k, in which xi_k appears once, as xi_k c1^k.  In
coefficient k of lift2 o xi = sum_j d_j xi^j, xi_k appears in (xi^j)_k only
next to j - 1 copies of xi_0, as j xi_0^(j-1) xi_k.  So for k >= 1
coefficient k is linear in xi_k:

    delta_k(xi_0) xi_k = r_k(xi_0, ..., xi_{k-1}),
    delta_k = c1^k - lift2'(xi_0),

where r_k collects every term without xi_k.  Only level 0, xi_0 =
lift2(xi_0), is nonlinear; its solutions are the fixed points of lift2 in m,
found by evaluating lift2 on all of m.  At level k >= 1 the solutions are
the fibre {x in vals : delta x = r} with vals = 1 + m at k = 1 and m
otherwise, read from one table that lists, for every (delta, r), its
solutions in the order of vals.  The search is breadth-first over xi_0,
xi_1, ...: every row is a solved prefix, and solving a level replaces each
row by one row per fibre element, so candidates equal survivors.  Each row
keeps (xi^j)_a for a < k, and only coefficient k is added per level.  With
a nonzero constant term the left side also carries xi_i (lift1^i)_k for
i > k, and the level is not linear in xi_k, so ``conjugator_search`` raises
``RingError`` for such a lift1.

Order.  vals lists m by index, and 1 + m as 1 + x for x in m by index.
Fibres list their solutions in the order of vals and rows are expanded in
place, so the rows of every level are in lexicographic order of
(xi_0, xi_1, ...), each coefficient ordered as in vals: the order in which
a full enumeration of candidates meets them.  The first conjugator is
therefore the first solution of the first row of the last level with a
non-empty fibre, and the count is the sum of the fibre sizes at the last
level, which is never materialised.

Pairs.  One kernel serves ``conjugator_search`` (one pair) and
``universality_scan`` (every ordered pair of versal points): rows carry a
pair tag, the lift1 power tables and lift2 coefficients are computed once
per family, and pairs are expanded in groups whose next level has at most
FRONTIER_BOUND rows.

Refusal, by two rules.  (1) From cardinalities alone, before any table,
versal point or family is built: |m|^3 <= ENUMERATION_BOUND, since a ring
has at most |m|^2 pairs of versal points (they lie in 1 + m) and each pair
starts from |m| candidates for xi_0.  (2) Live frontier: the next level of a
single pair is counted from its fibre sizes before it is allocated, and a
pair whose next level alone exceeds FRONTIER_BOUND rows is refused.
"""

from __future__ import annotations

import numpy as np

from ..artin.rings import ENUMERATION_BOUND, EnumerationBoundError, Ring, RingError
from ..artin.tables import ring_table
from ..nottingham import Automorphism
from ..series import TruncatedSeries, require_prec
from .versal import hom_points, ideal_size, versal_family

# Rows of one batched level: pairs are grouped so that the next level fits,
# and a single pair whose next level exceeds it is refused.  A prec-4 scan of
# a 625-element ring stays under 70 MB with it; larger groups are no faster.
FRONTIER_BOUND = 1 << 16


def _refuse_cardinality(ring: Ring):
    """Refuse a search over a ring with |m|^3 > ENUMERATION_BOUND, from
    cardinalities alone."""
    n_m = ideal_size(ring)
    if n_m ** 3 > ENUMERATION_BOUND:
        raise EnumerationBoundError(
            f"conjugator search over {ring.descriptor}: |m|^3 = {n_m ** 3} "
            f"exceeds the bound {ENUMERATION_BOUND}")


def _fibres(T, vals):
    """(sol, start, count): for every delta, r in A the x in ``vals`` with
    delta x = r are sol[start[key]:start[key] + count[key]] in the order of
    ``vals``, key = delta * |A| + r."""
    key = (np.arange(T.n)[:, None] * T.n + T.MUL[:, vals]).ravel()
    order = np.argsort(key, kind="stable")
    count = np.bincount(key, minlength=T.n * T.n)
    return vals[order % len(vals)], np.cumsum(count) - count, count


class _Search:
    """Conjugator search for a list of (lift1, lift2) pairs of families over
    one ring, all pairs advanced level by level together."""

    def __init__(self, T, sources, targets, prec):
        ring = T.ring
        self.T, self.prec = T, prec
        self.e = ring.nilpotency_index
        self.J = J = prec + self.e - 1  # xi^j, j < J
        for lift in sources:
            if lift.series.coeffs[0] != ring.zero:
                raise RingError("conjugator search needs lift1 with zero "
                                "constant term")
        if any(lift.prec < prec for lift in sources) or any(
                lift.prec < J for lift in targets):
            raise RingError(
                f"conjugator search at precision {prec} needs lift1 precision "
                f">= {prec} and lift2 precision >= {J}")
        MUL, ADD = T.MUL, T.ADD
        self.MULf, self.ADDf = MUL.ravel(), ADD.ravel()
        self.n = np.int64(T.n)  # so that a * n + b widens int16 indices

        # POW1[f, i, k] = (lift1^i)_k; C1K[f, k] = c1^k = (lift1^k)_k
        self.POW1 = np.zeros((len(sources), prec, prec), dtype=np.int32)
        for f, lift in enumerate(sources):
            s1 = lift.series.truncate(prec)
            acc = TruncatedSeries.constant(ring, 1, prec)
            for i in range(prec):
                self.POW1[f, i] = [T.index(c) for c in acc.coeffs]
                if i + 1 < prec:
                    acc = acc * s1
        self.C1K = self.POW1[:, np.arange(prec), np.arange(prec)]
        # D[f, j] = coefficient j of lift2
        self.D = D = np.array([[T.index(c) for c in lift.series.coeffs[:J]]
                               for lift in targets],
                              dtype=np.int32).reshape(len(targets), J)

        # XP[x, j] = x^j and JX[x, j] = j x^(j-1), for every x in A
        elems = np.arange(T.n, dtype=np.int32)
        XP = np.empty((T.n, J), dtype=np.int32)
        XP[:, 0] = T.one
        for j in range(1, J):
            XP[:, j] = MUL[XP[:, j - 1], elems]
        self.XP = XP
        self.JX = JX = np.zeros((T.n, J), dtype=np.int32)
        for j in range(1, J):
            JX[:, j] = MUL[T.from_int(j), XP[:, j - 1]]

        # level 0: the fixed points of lift2 in m, per target family, and
        # DERIV[f, x] = lift2'(x)
        m = T.mideal.astype(np.int32)
        value = np.zeros((len(targets), len(m)), dtype=np.int32)
        self.DERIV = np.zeros((len(targets), T.n), dtype=np.int32)
        for j in range(J):
            value = ADD[value, MUL[D[:, j, None], XP[m, j]]]
            self.DERIV = ADD[self.DERIV, MUL[D[:, j, None], JX[:, j]]]
        fixed = value == m
        self.sol0 = np.broadcast_to(m, fixed.shape)[fixed]
        self.count0 = fixed.sum(axis=1)
        self.start0 = np.cumsum(self.count0) - self.count0
        self.vals = {False: m, True: ADD[T.one, m]}  # keyed by k == 1
        self.fibres = {}

    def run(self, pairs):
        """Per pair: the first conjugator as a row of indices (or None), and
        the exact number of conjugators."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.src, self.tgt = pairs[:, 0], pairs[:, 1]
        self.count = np.zeros(len(pairs), dtype=np.int64)
        self.first = [None] * len(pairs)
        if len(pairs):
            p = np.arange(len(pairs))
            self._advance(p, [], [], 0, self.sol0, self.start0[self.tgt],
                          self.count0[self.tgt], None)
        return self.first, self.count

    def _mul(self, a, b):
        return np.take(self.MULf, a * self.n + b)

    def _add(self, a, b):
        return np.take(self.ADDf, a * self.n + b)

    def _level(self, p, xi, pw, k):
        """Fibres of level k >= 1 for every row, and Q[j], the part of
        (xi^j)_k without xi_k.  Row data, one array each: xi[a] = xi_a and
        pw[a][j] = (xi^j)_a for a < k and 2 <= j < a + e.  (xi^j)_a = 0 for
        j >= a + e: each of its terms has at most a factors xi_i with i > 0,
        so at least e factors xi_0, and xi_0^e = 0."""
        mul, add = self._mul, self._add
        src, tgt = self.src[p], self.tgt[p]
        left = mul(xi[1], np.take(self.POW1[:, 1, k], src)) if k > 1 else 0
        for i in range(2, k):
            left = add(left, mul(xi[i], np.take(self.POW1[:, i, k], src)))
        right = zero = np.zeros(len(p), dtype=np.int32)
        Q = [zero, zero]
        for j in range(2, min(self.J, k + self.e)):
            q = mul(Q[j - 1], xi[0])
            for a in range(1, k):
                if j - 1 < a + self.e:
                    y = xi[a] if j == 2 else pw[a][j - 1]
                    q = add(q, mul(y, xi[k - a]))
            Q.append(q)
            right = add(right, mul(np.take(self.D[:, j], tgt), q))
        delta = add(np.take(self.C1K[:, k], src),
                    np.take(self.T.NEG, self.DERIV[tgt, xi[0]]))
        unit = k == 1
        if unit not in self.fibres:
            self.fibres[unit] = _fibres(self.T, self.vals[unit])
        sol, start, count = self.fibres[unit]
        key = delta * self.n + add(right, np.take(self.T.NEG, left))
        return sol, start[key], count[key], Q

    def _advance(self, p, xi, pw, k, sol, start, count, Q):
        """Rows of level k with their fibres: record them at the last level,
        otherwise expand them group by group and descend."""
        if k == self.prec - 1:
            self._record(p, xi, sol, start, count)
            return
        powers = range(2, min(self.J, k + self.e))
        for lo, hi in self._groups(p, count, k):
            n = count[lo:hi]
            rep = np.repeat(np.arange(lo, hi), n)
            pos = np.repeat(start[lo:hi] - (np.cumsum(n) - n), n)
            xk = sol[pos + np.arange(len(rep))]
            nxi = [np.take(x, rep) for x in xi] + [xk]
            if k == 0:  # (xi^j)_0 = xi_0^j
                col = {j: np.take(self.XP[:, j], xk) for j in powers}
            else:  # (xi^j)_k = Q[j] + j xi_0^(j-1) xi_k
                col = {j: self._add(np.take(Q[j], rep), self._mul(
                           np.take(self.JX[:, j], nxi[0]), xk))
                       for j in powers}
            npw = [{j: np.take(y, rep) for j, y in row.items()}
                   for row in pw] + [col]
            np_ = np.take(p, rep)
            self._advance(np_, nxi, npw, k + 1,
                          *self._level(np_, nxi, npw, k + 1))

    def _groups(self, p, count, k):
        """Row ranges of whole pairs whose next level has at most
        FRONTIER_BOUND rows together; refuses a pair that alone exceeds it."""
        bounds = np.flatnonzero(np.r_[True, p[1:] != p[:-1], True])
        total = np.r_[0, np.cumsum(count)][bounds]
        lo = 0
        while lo < len(bounds) - 1:
            hi = int(np.searchsorted(total, total[lo] + FRONTIER_BOUND,
                                     side="right")) - 1
            if hi == lo:
                raise EnumerationBoundError(
                    f"conjugator search frontier of "
                    f"{total[lo + 1] - total[lo]} rows at level {k + 1} "
                    f"exceeds the bound {FRONTIER_BOUND}")
            if total[hi] > total[lo]:
                yield bounds[lo], bounds[hi]
            lo = hi

    def _record(self, p, xi, sol, start, count):
        # a pair's rows never straddle two groups: one call sees all of them
        self.count += np.bincount(p, weights=count,
                                  minlength=len(self.count)).astype(np.int64)
        hit = np.flatnonzero(count)
        pairs, first = np.unique(p[hit], return_index=True)
        for pair, row in zip(pairs.tolist(), hit[first].tolist()):
            self.first[pair] = [int(x[row]) for x in xi] + [
                int(sol[start[row]])]


def _conjugator(T, row, lift1, lift2, prec):
    """The automorphism with coefficient indices ``row``; in debug builds
    both composites are recomputed and compared."""
    ring = T.ring
    xi = Automorphism(TruncatedSeries(ring, [T.element(i) for i in row]))
    if __debug__:
        e = ring.nilpotency_index
        left = xi.series.exact_extension(prec + e - 1).compose(
            lift1.series.truncate(prec))
        right = lift2.series.truncate(prec + e - 1).compose(
            xi.series.exact_extension(prec + e - 1))
        assert left.agrees_with(right, prec)
    return xi


def conjugator_search(lift1: Automorphism, lift2: Automorphism, prec: int):
    """Truncated conjugators xi with xi o lift1 = lift2 o xi through
    t^(prec-1), by a complete search.  lift1 must have zero constant term
    (``RingError`` otherwise).

    Returns (xi, count): xi is the first conjugator in enumeration order, or
    None when there is none, and count is the exact number of conjugators.
    """
    ring = lift1.ring
    if lift2.ring != ring:
        raise RingError("lifts over different rings")
    _refuse_cardinality(ring)
    T = ring_table(ring)
    (first,), (count,) = _Search(T, [lift1], [lift2], prec).run([(0, 0)])
    if first is None:
        return None, 0
    return _conjugator(T, first, lift1, lift2, prec), int(count)


def universality_scan(ring: Ring, prec: int):
    """For every ordered pair of versal points, search for a conjugator
    between their versal families; the pro-representability theorem predicts
    a conjugator exactly on the diagonal.

    Returns a report dict with one entry per pair.
    """
    require_prec(prec)
    _refuse_cardinality(ring)
    e = ring.nilpotency_index
    pts = hom_points(ring)
    fams = [versal_family(p, prec + e - 1) for p in pts]
    T = ring_table(ring)
    pairs = [(i, j) for i in range(len(pts)) for j in range(len(pts))]
    firsts, counts = _Search(T, fams, fams, prec).run(pairs)
    ys = [str(p.y) for p in pts]
    rows = []
    for (i, j), first, count in zip(pairs, firsts, counts.tolist()):
        xi = None if first is None else _conjugator(T, first, fams[i],
                                                    fams[j], prec)
        found = xi is not None
        rows.append({
            "y1": ys[i],
            "y2": ys[j],
            "conjugator_found": found,
            "conjugators_at_precision": count,
            "conjugator": str(xi.series) if xi else None,
            "expected_equivalent": i == j,
            "as_predicted": found == (i == j),
        })
    seen = [(p["expected_equivalent"], p["conjugator_found"]) for p in rows]
    return {
        "ring": ring.descriptor,
        "prec": prec,
        "hom_points": len(pts),
        "pairs": rows,
        "diagonal_equivalent": seen.count((True, True)),
        "off_diagonal_refuted": seen.count((False, False)),
        "all_as_predicted": all(p["as_predicted"] for p in rows),
    }
