"""Tangent space of the deformation functor at F5[e]/(e^2).

A first-order lift is sigma + eps*d(t) with d over F5; the order-5 condition
is linear in d because eps^2 = 0 (the cocycle map Z), and first-order
conjugation xi = t + eps*c acts by d -> d + c(sigma) - sigma' * c (the
coboundary map B).  The tangent space at precision P is ker Z_P / im B_P.

Theorem.  For every P >= 2, dim_P = 1, rank Z_P = ceil(P/5) and rank B_P =
N_B(P) = P - 2 - floor((P-1)/5), and two cocycles are equivalent exactly
when their t-coefficients (phi) agree.  Period lemma: over F5, sigma^k =
t (1 + k t^2)^(-1/2), so column j of Z is t^j sum_k W_k (1 + k t^2)^(-j/2)
and column j of B is t^j [(1 + t^2)^(-j/2) - (1 + t^2)^(-3/2)]; as (1 +
k t^2)^5 = 1 + k t^10 (Frobenius), rows j..j+9 of column j of either are
rows r..r+9 of column r = j mod 5.  Proof of the theorem: on columns 0..4,
Z is 0 on rows j..j+7 and leads with 4 at row j + 8 when j = 0 mod 5, and
B is 0 on rows j, j+1 and has (3 - j)/2 at row j + 2.  By the lemma this
holds in every column, so rows 0 and 1 of B are 0, and ceil(P/5) columns
of Z and the N_B(P) columns j <= P - 3, j != 3 mod 5, of B lead at distinct
rows.  As im B lies in ker Z (a conjugate of sigma has order 5), dim_P <=
P - ceil(P/5) - N_B(P) = 1.  The direction of a versal point y = 1 + c*eps
is a cocycle at every P (sigma_y^5 = t by the group law, and t^j, j >= P,
only reaches rows >= P + 8) with phi = -c/2, and phi vanishes on im B, so
dim_P >= 1.

``tangent_report`` checks this on Z and B at BASE_PREC, reads phi at
precision 2 and counts ranks in closed form: no work grows with P, and no
verdict rests on elimination.  The tests check Z and B against series
products, the 5-fold composition over F5[e]/(e^2) and the period lemma at
P = 1025, and the ranks and equivalences against GF(5) echelons.
"""

from __future__ import annotations

from math import comb

import numpy as np

from ..artin.rings import RingError, build_ring
from ..nottingham import base_sigma
from ..series import (MIN_PREC, PrecisionError, TruncatedSeries, family,
                      require_prec)
from .versal import hom_points, lift_certificate, versal_family

_DUAL = "F5[e]/(e^2)"


def _eps_part(coeff):
    """F5 coordinate along eps of an element of F5[e]/(e^2) in eps*F5."""
    if coeff.coords[0] != 0:
        raise RingError(f"{coeff} is not purely infinitesimal")
    return coeff.coords[1]


# The t^j direction first shows up in the order-5 defect at t^(j+SHIFT), so
# Z has rows through t^(prec+SHIFT-1); the constructor checks every column
# t^j is 0 below t^(j+SHIFT), which keeps t^j, j >= prec, out of those rows
# and makes Z at a smaller precision the top-left corner of Z at a larger.
COCYCLE_SHIFT = 8

# The period lemma (module docstring): rows j..j+WINDOW-1 of column j of Z
# and of B depend on j mod PERIOD only.  Z and B at BASE_PREC hold two
# periods of columns with their windows, the last ending at row 18.
PERIOD = 5
WINDOW = 2 * PERIOD
BASE_PREC = 2 * PERIOD + WINDOW


def _power_columns(starts, ks):
    """The int8 array [s, row, j] mod 5 of columns j < rows of summand s:
    columns 0 and 1 are the F5 series ``starts[s]`` of ``rows`` terms, and
    column j + 2 is column j times t^2/(1 + k_s t^2): r[m] = c[m-2] -
    k_s*r[m-2], r[0] = r[1] = 0, one row at a time for all s and j."""
    cols = np.array([[[c.coords[0] for c in s.coeffs] for s in pair]
                     for pair in starts], dtype=np.int8).transpose(0, 2, 1)
    out = np.zeros(cols.shape[:2] + cols.shape[1:2], dtype=np.int8)
    out[..., :2] = cols[..., :out.shape[1]]  # one column when rows = 1
    k = np.array(ks, dtype=np.int8)[:, None]
    for m in range(2, out.shape[1]):
        out[:, m, 2:] = (out[:, m - 2, :-2] - k * out[:, m - 2, 2:]) % 5
    return out


def cocycle_matrix(prec):
    """Z as a list of rows: row i is the t^i coefficient (over F5) of
    ((sigma + eps*t^j)^5 - t)/eps as j runs over columns, with rows running
    through t^(prec + COCYCLE_SHIFT - 1).

    Since eps^2 = 0, that is the chain-rule derivative of the composite in
    the direction d = t^j:  Z(d) = sum_{k=0..4} W_k * d(sigma^k(t)) with
    weights W_k = (sigma^(4-k))'(sigma^(k+1)(t)).  By the group law
    (versal.iterate_parameters) sigma^k = t / sqrt(k t^2 + 1) over F5, whose
    derivative is (k t^2 + 1)^(-3/2); as (4-k) + (k+1) = 0 in F5,
    W_k = (1 + (k+1) t^2)^(3/2).  As (sigma^k)^2 = t^2/(k t^2 + 1), the
    summands W_k*(sigma^k)^j are steps of ``_power_columns``.
    """
    f5 = build_ring("F5")
    rows = prec + COCYCLE_SHIFT
    bodies = [TruncatedSeries(f5, [1, 0, k + 1], prec=rows) for k in range(5)]
    weights = [body * body.sqrt() for body in bodies]
    starts = [(w, w * family(f5, k, 1, rows)) for k, w in enumerate(weights)]
    z = _power_columns(starts, range(5)).sum(axis=0) % 5
    for j in range(rows):
        if z[:j + COCYCLE_SHIFT, j].any():
            raise RingError(
                f"cocycle degree-shift hypothesis fails at direction t^{j}")
    return z[:, :prec].tolist()


def coboundary_matrix(prec):
    """B as rows: the t^i coefficient of t^j(sigma) - sigma' * t^j over F5.
    Both terms are steps of ``_power_columns``: sigma^(j+2) = sigma^j *
    t^2/(t^2 + 1) (k = 1) and t^(j+2) = t^j * t^2 (k = 0)."""
    f5 = build_ring("F5")
    sigma = base_sigma(f5, prec + 1).series  # the derivative drops one
    sigma_prime = sigma.derivative()
    powers = _power_columns(
        [(TruncatedSeries.constant(f5, 1, prec), sigma.truncate(prec)),
         (sigma_prime, sigma_prime * TruncatedSeries.t(f5, prec))], [1, 0])
    return ((powers[0] - powers[1]) % 5).tolist()


def hom_point_directions(prec):
    """The first-order directions (sigma_{1+c*eps} - sigma)/eps, one per
    versal point y = 1 + c*eps of F5[e]/(e^2), as (c, direction)."""
    ring = build_ring(_DUAL)
    sigma = base_sigma(ring, prec).series
    return [(_eps_part(p.y - ring.one),
             [_eps_part(x) for x in (versal_family(p, prec).series
                                     - sigma).coeffs])
            for p in hom_points(ring)]


def _check_base_table():
    """Check Z and B at BASE_PREC against every fact the certificate reads,
    in this order; the first that fails raises ``RingError``."""
    Z, B = (np.array(build(BASE_PREC))
            for build in (cocycle_matrix, coboundary_matrix))
    for failed, fact in [
            # (1 + k t^2)^PERIOD has C(PERIOD, i) k^i at t^(2i)
            (any((comb(PERIOD, i) * k ** i - (i == PERIOD) * k) % 5
                 for k in range(5) for i in range(1, PERIOD + 1)),
             f"(1 + k t^2)^{PERIOD} = 1 + k t^{2 * PERIOD} (Frobenius)"),
            (np.triu(Z, 1 - COCYCLE_SHIFT).any(),
             "column j of Z is 0 on rows 0..j+7"),
            (np.triu(B, -1).any(), "column j of B is 0 on rows 0..j+1"),
            (Z[COCYCLE_SHIFT, 0] != 4, "column 0 of Z leads with 4 at row 8"),
            (any(B[j + 2, j] != (3 - j) * 3 % 5 for j in range(PERIOD)),
             "column j of B has (3 - j)/2 at row j + 2"),
            (not all(np.array_equal(M[j:j + WINDOW, j],
                                    M[j + PERIOD:j + PERIOD + WINDOW,
                                      j + PERIOD])
                     for M in (Z, B) for j in range(PERIOD)),
             f"two periods of Z and B agree on {WINDOW} rows"),
            ((Z @ B % 5).any(), "every coboundary is a cocycle")]:
        if failed:
            raise RingError(f"the base table fails the check: {fact}")


def tangent_report(prec_sweep=(8, 12, 16)):
    """Tangent-space dimension across a precision sweep, with the check that
    the five hom-point directions are cocycles, pairwise inequivalent (their
    t-coefficients differ), and exhaust the classes.  Each sweep entry adds
    only a count of its lead columns to the one check of the base table."""
    if not prec_sweep:
        raise PrecisionError("the precision sweep is empty")
    require_prec(min(prec_sweep))
    _check_base_table()
    # sigma_y^5 = t by the group law: a cocycle at every precision
    cocycles = [lift_certificate(p, MIN_PREC)[0]
                for p in hom_points(build_ring(_DUAL))]
    # phi, the t-coefficient, vanishes on im B (rows 0 and 1 of B are 0)
    phis = [vec[1] for _, vec in hom_point_directions(MIN_PREC)]
    distinct = len(set(phis)) == len(phis)
    details = {}
    for prec in dict.fromkeys(prec_sweep):  # a repeated entry adds nothing
        rank_z, rank_b = -(-prec // PERIOD), prec - 2 - (prec - 1) // PERIOD
        # dim ker Z / im B <= prec - rank Z - rank B, and a cocycle with
        # phi != 0 lies outside im B
        if (prec - rank_z - rank_b != 1
                or not any(c and phi for c, phi in zip(cocycles, phis))):
            raise RingError(
                f"no certificate of dimension 1 at precision {prec}")
        details[str(prec)] = {
            "dimension": 1,
            "class_count": 5,
            "hom_directions_are_cocycles": all(cocycles),
            "hom_directions_distinct_mod_coboundaries": distinct,
            "hom_directions_exhaust_classes": len(phis) == 5 and distinct,
        }
    return {
        "prec_sweep": list(prec_sweep),
        "dimensions": dict.fromkeys(details, 1),
        "stable": True,
        "dimension": 1,
        "per_precision": details,
    }
