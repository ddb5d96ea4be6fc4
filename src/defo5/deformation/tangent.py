"""Tangent space of the deformation functor at F5[e]/(e^2).

A first-order lift is sigma + eps*d(t) with d over F5; the order-5 condition
is linear in d because eps^2 = 0 (the cocycle map Z), and first-order
conjugation xi = t + eps*c acts by d -> d + c(sigma) - sigma' * c (the
coboundary map B).  The tangent space at precision P is ker Z_P / im B_P.

Theorem.  For every P >= 2, dim_P = 1, rank Z_P = ceil(P/5) and rank B_P =
N_B(P) = P - 2 - floor((P-1)/5), and two cocycles are equivalent exactly
when their t-coefficients (phi) agree.  Proof.  Over F5, sigma^k =
t (1 + k t^2)^(-1/2).  Column j of B is t^j [(1 + t^2)^(-j/2) - (1 + t^2)^
(-3/2)] = (3 - j)/2 t^(j+2) + ..., so rows 0 and 1 of B are 0 and the N_B(P)
columns j <= P - 3, j != 3 mod 5, lead at distinct rows j + 2.  For j = 0
mod 5, (1 + k t^2)^(-j/2) = 1 + O(t^10), so column j of Z is t^j sum_x
(1 + x t^2)^(3/2) + O(t^(j+10)) over x in F5, led by -C(3/2, 4) = 4 at
t^(j+8): ceil(P/5) distinct leads.  As im B lies in ker Z, dim_P <= P -
ceil(P/5) - N_B(P) = 1; the direction of y = 1 + c*eps is a cocycle
(sigma_y^5 = t) with phi = -c/2, and phi vanishes on im B, so dim_P >= 1.

``tangent_report`` checks these facts on the Z, B and directions it builds
(every column of Z and B a step of the group law's two-term recurrence)
and raises ``RingError`` when one fails: no verdict rests on elimination.
The tests check Z and B against series products and the 5-fold composition
over F5[e]/(e^2), and the ranks and equivalences against GF(5) echelons.
"""

from __future__ import annotations

import numpy as np

from ..artin.rings import RingError, build_ring
from ..nottingham import base_sigma
from ..series import PrecisionError, TruncatedSeries, family, require_prec
from .versal import hom_points, versal_family

_DUAL = "F5[e]/(e^2)"


def _eps_part(coeff):
    """F5 coordinate along eps of an element of F5[e]/(e^2) in eps*F5."""
    if coeff.coords[0] != 0:
        raise RingError(f"{coeff} is not purely infinitesimal")
    return coeff.coords[1]


# The linearized order-5 condition raises t-order: the t^j direction first
# shows up in the defect at degree >= j + SHIFT, so the cocycle system is
# built rectangular, with equations through t^(prec+SHIFT-1).  The
# constructor checks that every column t^j is 0 below t^(j+SHIFT), which
# keeps t^j, j >= prec, out of those rows and makes the top-left corner of
# Z at a larger precision the matrix at a smaller one.
COCYCLE_SHIFT = 8


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


def _sparse(vectors):
    return [[(i, v) for i, v in enumerate(vec) if v] for vec in vectors]


def _first_defect_row(z_cols, vec):
    """The first row where Z @ vec is nonzero mod 5, or None, for Z and vec
    sparse.  Truncated to a smaller prec, vec is a cocycle exactly when that
    row is None or at least prec + COCYCLE_SHIFT."""
    acc = [0] * (len(z_cols) + COCYCLE_SHIFT)
    for k, v in vec:
        for i, z in z_cols[k]:
            acc[i] += z * v
    return next((i for i, x in enumerate(acc) if x % 5), None)


def _leads(prec):
    """The lead (row, value) of each column certifying a rank at ``prec``:
    column j = 0 mod 5 of Z leads with 4 at t^(j + COCYCLE_SHIFT), and
    column j <= prec - 3, j != 3 mod 5, of B leads with (3 - j)/2 at
    t^(j + 2).  Distinct lead rows make those columns independent."""
    return ({j: (j + COCYCLE_SHIFT, 4) for j in range(0, prec, 5)},
            {j: (j + 2, (3 - j) * 3 % 5)
             for j in range(prec - 2) if j % 5 != 3})


def tangent_report(prec_sweep=(8, 12, 16)):
    """Tangent-space dimension across a precision sweep, with the check that
    the five hom-point directions are cocycles, pairwise inequivalent (their
    t-coefficients differ), and exhaust the classes.  Z, B and the directions
    are built, and the certificate checked, once, at the largest precision:
    each fact reads only the top-left corner of every smaller entry."""
    if not prec_sweep:
        raise PrecisionError("the precision sweep is empty")
    require_prec(min(prec_sweep))
    top = max(prec_sweep)
    Z, B = cocycle_matrix(top), coboundary_matrix(top)
    dirs = hom_point_directions(top)
    z_cols, b_cols = _sparse(zip(*Z)), _sparse(zip(*B))
    if any(_first_defect_row(z_cols, b) is not None for b in b_cols):
        raise RingError(f"a coboundary is not a cocycle at precision {top}")
    z_leads, b_leads = _leads(top)
    if (any(z_cols[j][:1] != [lead] for j, lead in z_leads.items())
            or any(b_cols[j][:1] != [lead] for j, lead in b_leads.items())
            or any(B[0]) or any(B[1])):
        raise RingError(f"the rank certificate fails at precision {top}")
    # phi, the t-coefficient, vanishes on im B (rows 0 and 1 of B are 0)
    phis = [vec[1] for _, vec in dirs]
    defect_rows = [_first_defect_row(z_cols, vec) for vec in
                   _sparse(vec for _, vec in dirs)]
    distinct = len(set(phis)) == len(phis)
    details = {}
    for prec in dict.fromkeys(prec_sweep):  # a repeated entry adds nothing
        z_leads, b_leads = _leads(prec)
        cocycles = [row is None or row >= prec + COCYCLE_SHIFT
                    for row in defect_rows]
        # dim ker Z / im B <= prec - rank Z - rank B, and a cocycle with
        # phi != 0 lies outside im B
        if (prec - len(z_leads) - len(b_leads) != 1
                or not any(c and phi for c, phi in zip(cocycles, phis))):
            raise RingError(
                f"no certificate of dimension 1 at precision {prec}")
        details[str(prec)] = {
            "dimension": 1,
            "class_count": 5,
            "hom_directions_are_cocycles": all(cocycles),
            "hom_directions_distinct_mod_coboundaries": distinct,
            "hom_directions_exhaust_classes": len(dirs) == 5 and distinct,
        }
    return {
        "prec_sweep": list(prec_sweep),
        "dimensions": dict.fromkeys(details, 1),
        "stable": True,
        "dimension": 1,
        "per_precision": details,
    }
