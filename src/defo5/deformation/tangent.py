"""Tangent space of the deformation functor at F5[e]/(e^2).

A first-order lift is sigma + eps*d(t) with d over F5; the order-5 condition
is linear in d because eps^2 = 0 (the cocycle map Z), and first-order
conjugation xi = t + eps*c acts by d -> d + c(sigma) - sigma' * c (the
coboundary map B).  The tangent space is ker Z / (im B  intersect  ker Z),
computed by exact linear algebra over GF(5) on truncated coefficient
vectors, at several precisions with a stabilization check.

Z is built over F5 by the chain rule (``cocycle_matrix``); the 5-fold
composition over F5[e]/(e^2) is kept as the test oracle ``cocycle_defect``.
"""

from __future__ import annotations

from .. import gf5
from ..artin.rings import RingError, build_ring
from ..nottingham import Automorphism, base_sigma, power
from ..series import TruncatedSeries
from .versal import VersalPoint, versal_family

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
# j >= prec to stay out of those rows, which the constructor asserts.
COCYCLE_SHIFT = 8


def cocycle_matrix(prec):
    """Z as a list of rows: row i is the t^i coefficient (over F5) of
    ((sigma + eps*t^j)^5 - t)/eps as j runs over columns, with rows running
    through t^(prec + COCYCLE_SHIFT - 1).

    Since eps^2 = 0, that is the chain-rule derivative of the composite in
    the direction d = t^j:  Z(d) = sum_{k=0..4} W_k * d(sigma^k(t)) with
    weights W_k = (sigma^(4-k))'(sigma^(k+1)(t)).  The iterates and weights
    are computed once over F5; then each column costs five series products.
    """
    f5 = build_ring("F5")
    rows = prec + COCYCLE_SHIFT
    sigma = base_sigma(f5, rows + 1)
    iterates = [Automorphism.identity(f5, rows + 1)]
    for _ in range(5):
        iterates.append(sigma(iterates[-1]))
    if not iterates[5].is_identity_at_precision():
        raise RingError(f"sigma^5 is not t at precision {rows + 1}")
    # terms[k] = W_k * sigma^k(t)^j, exact through t^(rows-1)
    terms = [iterates[4 - k].series.derivative().compose(iterates[k + 1].series)
             for k in range(5)]
    cols = []
    for j in range(rows):
        col = sum(terms[1:], terms[0])
        cols.append([col.coeffs[i].coords[0] for i in range(rows)])
        terms = [w * it.series for w, it in zip(terms, iterates)]
    for j in range(prec, rows):
        if any(cols[j]):
            raise RingError(
                f"cocycle degree-shift hypothesis fails at direction t^{j}")
    return [[cols[j][i] for j in range(prec)] for i in range(rows)]


def cocycle_defect(d_vec, prec):
    """Brute-force ((sigma + eps*d)^5 - t)/eps for an arbitrary d over F5;
    used to validate linearity of the cocycle map."""
    ring = build_ring(_DUAL)
    rows = prec + COCYCLE_SHIFT
    internal = rows + 4
    sigma = base_sigma(ring, internal)
    eps = ring.generator("e")
    t = TruncatedSeries.t(ring, internal)
    pert = [eps * int(d_vec[j]) if j < len(d_vec) else ring.zero
            for j in range(internal)]
    tilted = Automorphism(sigma.series + TruncatedSeries(ring, pert))
    defect = power(tilted, 5).series - t
    return [_eps_part(defect.coeffs[i]) for i in range(rows)]


def coboundary_matrix(prec):
    """B as rows: the t^i coefficient of t^j(sigma) - sigma' * t^j over F5."""
    f5 = build_ring("F5")
    internal = prec + 2
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


def coboundary_apply(c_vec, prec):
    """c(sigma) - sigma' * c for an arbitrary c over F5, truncated."""
    f5 = build_ring("F5")
    internal = prec + 2
    sigma = base_sigma(f5, internal).series
    c = TruncatedSeries(f5, list(c_vec), prec=internal)
    out = c.compose(sigma) - sigma.derivative() * c
    return [int(out.coeffs[i].coords[0]) for i in range(prec)]


def hom_point_directions(prec):
    """The first-order directions (sigma_{1+c*eps} - sigma)/eps for c in F5."""
    ring = build_ring(_DUAL)
    internal = prec + 4
    sigma = base_sigma(ring, internal)
    eps = ring.generator("e")
    out = []
    for c in range(5):
        pt = VersalPoint(ring, ring.one + eps * c)
        fam = versal_family(pt, internal)
        diff = fam.series - sigma.series
        out.append((c, [_eps_part(diff.coeffs[i]) for i in range(prec)]))
    return out


def _tangent_data(prec):
    """(dimension, Z, kernel basis of Z, columns of B) at one precision."""
    Z = cocycle_matrix(prec)
    B = coboundary_matrix(prec)
    ker = gf5.nullspace(Z, prec)
    im_b = [[row[j] for row in B] for j in range(prec)]  # columns of B
    dim = len(ker) - gf5.intersect_dim(im_b, ker)
    return dim, Z, ker, im_b


def tangent_space(prec):
    """(dimension, class_count, kernel_basis) at one precision."""
    dim, _, ker, _ = _tangent_data(prec)
    return dim, 5 ** dim, ker


def tangent_report(prec_sweep=(8, 12, 16)):
    """Tangent-space dimension across a precision sweep, with the check that
    the five hom-point directions are cocycles, pairwise inequivalent, and
    exhaust the classes."""
    dims = {}
    details = {}
    for prec in prec_sweep:
        dim, Z, _, im_b = _tangent_data(prec)
        dims[prec] = dim
        dirs = hom_point_directions(prec)
        all_cocycles = all(
            all(v % 5 == 0 for v in gf5.matvec(Z, vec)) for _, vec in dirs)
        distinct = True
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                diff = [(a - b) % 5 for a, b in zip(dirs[i][1], dirs[j][1])]
                if gf5.in_span(im_b, diff):
                    distinct = False
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
