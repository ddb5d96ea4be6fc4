"""Tangent space of the deformation functor at F5[e]/(e^2).

A first-order lift is sigma + eps*d(t) with d over F5; the order-5 condition
is linear in d because eps^2 = 0 (the cocycle map Z), and first-order
conjugation xi = t + eps*c acts by d -> d + c(sigma) - sigma' * c (the
coboundary map B).  Coboundaries are cocycles (im B lies in ker Z, checked
exactly), so the tangent space ker Z / im B has dimension
prec - rank Z - rank B over GF(5), from one echelon of Z's rows and one of
B's columns; two cocycles are equivalent exactly when their normal forms
modulo im B agree.  All of this runs on truncated coefficient vectors, at
several precisions with a stabilization check.

Z is built over F5 by the chain rule (``cocycle_matrix``); the tests check
it against the 5-fold composition over F5[e]/(e^2).
"""

from __future__ import annotations

from .. import gf5
from ..artin.rings import RingError, build_ring
from ..nottingham import base_sigma
from ..series import TruncatedSeries, family
from .versal import hom_points, versal_family

_DUAL = "F5[e]/(e^2)"


def _eps_part(coeff):
    """F5 coordinate along eps of an element of F5[e]/(e^2) in eps*F5."""
    if coeff.coords[0] != 0:
        raise RingError(f"{coeff} is not purely infinitesimal")
    return coeff.coords[1]


# The linearized order-5 condition raises t-order: the t^j direction first
# shows up in the defect at degree >= j + SHIFT (the five chain-rule terms of
# the 5-fold composite cancel to high order).  A square prec x prec system
# therefore loses exactly the equations that constrain the top unknowns, so
# the cocycle system is built rectangular: unknowns d_0..d_{prec-1}, equations
# through t^(prec+SHIFT-1).  Soundness needs every direction t^j with
# j >= prec to stay out of those rows; the constructor asserts that every
# column t^j it computes is 0 below t^(j+SHIFT), which also makes the
# top-left corner of Z at a larger precision the matrix at a smaller one.
COCYCLE_SHIFT = 8


def cocycle_matrix(prec):
    """Z as a list of rows: row i is the t^i coefficient (over F5) of
    ((sigma + eps*t^j)^5 - t)/eps as j runs over columns, with rows running
    through t^(prec + COCYCLE_SHIFT - 1).

    Since eps^2 = 0, that is the chain-rule derivative of the composite in
    the direction d = t^j:  Z(d) = sum_{k=0..4} W_k * d(sigma^k(t)) with
    weights W_k = (sigma^(4-k))'(sigma^(k+1)(t)).  By the group law
    (versal.iterate_parameters) sigma^k = t / sqrt(k t^2 + 1) over F5, whose
    derivative is (k t^2 + 1)^(-3/2); as (4-k) + (k+1) = 0 in F5,
    W_k = (1 + (k+1) t^2)^(3/2).  Then each column costs five products.
    """
    f5 = build_ring("F5")
    rows = prec + COCYCLE_SHIFT
    iterates = [family(f5, k, 1, rows) for k in range(5)]
    # terms[k] = W_k * sigma^k(t)^j, exact through t^(rows-1)
    bodies = [TruncatedSeries(f5, [1, 0, k + 1], prec=rows) for k in range(5)]
    terms = [body * body.sqrt() for body in bodies]
    cols = []
    for j in range(rows):
        col = [c.coords[0] for c in sum(terms[1:], terms[0]).coeffs]
        if any(col[:j + COCYCLE_SHIFT]):
            raise RingError(
                f"cocycle degree-shift hypothesis fails at direction t^{j}")
        cols.append(col)
        terms = [w * it for w, it in zip(terms, iterates)]
    return [list(row[:prec]) for row in zip(*cols)]


def coboundary_matrix(prec):
    """B as rows: the t^i coefficient of t^j(sigma) - sigma' * t^j over F5."""
    f5 = build_ring("F5")
    internal = prec + 1  # the derivative drops one coefficient
    sigma = base_sigma(f5, internal).series
    sigma_prime = sigma.derivative()
    cols = []
    acc = TruncatedSeries.constant(f5, 1, internal)
    for j in range(prec):
        mono = TruncatedSeries(f5, [0] * j + [1], prec=internal)
        col_series = acc - sigma_prime * mono
        cols.append([int(col_series.coeffs[i].coords[0]) for i in range(prec)])
        acc = acc * sigma
    return [[cols[j][i] for j in range(prec)] for i in range(prec)]


def hom_point_directions(prec):
    """The first-order directions (sigma_{1+c*eps} - sigma)/eps, one per
    versal point y = 1 + c*eps of F5[e]/(e^2), as (c, direction)."""
    ring = build_ring(_DUAL)
    sigma = base_sigma(ring, prec).series
    return [(_eps_part(p.y - ring.one),
             [_eps_part(x) for x in (versal_family(p, prec).series
                                     - sigma).coeffs])
            for p in hom_points(ring)]


def _is_cocycle(z_cols, vec):
    """Whether Z @ vec = 0, from the sparse columns [(row, value), ...] of Z
    at precision len(vec)."""
    acc = [0] * (len(vec) + COCYCLE_SHIFT)
    for k, v in enumerate(vec):
        if v:
            for i, z in z_cols[k]:
                acc[i] += z * v
    return not any(x % 5 for x in acc)


def _tangent_data(Z, B, prec):
    """(dimension, echelon of Z's rows, echelon of im B, sparse columns of Z)
    at ``prec``, from Z and B built at ``prec`` or above: their top-left
    corners are the matrices at ``prec``, because cocycle_matrix checks that
    column t^j of Z is 0 above t^(j + COCYCLE_SHIFT)."""
    z = [row[:prec] for row in Z[:prec + COCYCLE_SHIFT]]
    z_cols = [[(i, v) for i, v in enumerate(col) if v] for col in zip(*z)]
    b_cols = list(zip(*B[:prec]))[:prec]
    if not all(_is_cocycle(z_cols, b) for b in b_cols):
        raise RingError(f"a coboundary is not a cocycle at precision {prec}")
    rows_z = gf5.Echelon(z)
    # last column first: column t^j starts at t^(j+2) or later, so pivots
    # come mostly in descending order, rarely clearing a stored row
    im_b = gf5.Echelon(reversed(b_cols))
    # im B lies in ker Z, so ker Z / im B has dimension prec - rank Z - rank B
    return prec - rows_z.rank - im_b.rank, rows_z, im_b, z_cols


def tangent_space(prec):
    """(dimension, class_count, kernel_basis) at one precision."""
    dim, rows_z, _, _ = _tangent_data(cocycle_matrix(prec),
                                      coboundary_matrix(prec), prec)
    return dim, 5 ** dim, rows_z.nullspace(prec)


def tangent_report(prec_sweep=(8, 12, 16)):
    """Tangent-space dimension across a precision sweep, with the check that
    the five hom-point directions are cocycles, pairwise inequivalent (their
    normal forms modulo im B differ), and exhaust the classes.  Z, B and the
    directions are built once, at the largest precision of the sweep."""
    top = max(prec_sweep)
    Z, B = cocycle_matrix(top), coboundary_matrix(top)
    dirs = hom_point_directions(top)
    dims = {}
    details = {}
    for prec in dict.fromkeys(prec_sweep):  # a repeated entry adds nothing
        dim, _, im_b, z_cols = _tangent_data(Z, B, prec)
        dims[prec] = dim
        vecs = [vec[:prec] for _, vec in dirs]
        all_cocycles = all(_is_cocycle(z_cols, vec) for vec in vecs)
        forms = {tuple(im_b.reduce(vec).items()) for vec in vecs}
        distinct = len(forms) == len(vecs)
        exhaust = (5 ** dim == len(dirs)) and distinct
        details[prec] = {
            "dimension": dim,
            "class_count": 5 ** dim,
            "hom_directions_are_cocycles": all_cocycles,
            "hom_directions_distinct_mod_coboundaries": distinct,
            "hom_directions_exhaust_classes": exhaust,
        }
    stable = len(set(dims.values())) == 1
    return {
        "prec_sweep": list(prec_sweep),
        "dimensions": {str(k): v for k, v in dims.items()},
        "stable": stable,
        "dimension": dims[prec_sweep[0]] if stable else None,
        "per_precision": {str(k): v for k, v in details.items()},
    }
