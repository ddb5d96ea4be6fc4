"""Brute-force tangent-space maps, kept as test oracles for the matrices of
``defo5.deformation.tangent``: the cocycle map by the 5-fold composition
over F5[e]/(e^2), the coboundary map by composing with sigma, and both
matrices column by column by series products."""

from defo5.artin.rings import build_ring
from defo5.deformation.tangent import COCYCLE_SHIFT
from defo5.nottingham import Automorphism, base_sigma, power
from defo5.series import TruncatedSeries, family


def _eps_part(coeff):
    """F5 coordinate along eps of an element of F5[e]/(e^2) in eps*F5."""
    assert coeff.coords[0] == 0, f"{coeff} is not purely infinitesimal"
    return coeff.coords[1]


def cocycle_defect(d_vec, prec):
    """Brute-force ((sigma + eps*d)^5 - t)/eps for an arbitrary d over F5;
    used to validate linearity of the cocycle map."""
    ring = build_ring("F5[e]/(e^2)")
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


def coboundary_apply(c_vec, prec):
    """c(sigma) - sigma' * c for an arbitrary c over F5, truncated."""
    f5 = build_ring("F5")
    internal = prec + 2
    sigma = base_sigma(f5, internal).series
    c = TruncatedSeries(f5, list(c_vec), prec=internal)
    out = c.compose(sigma) - sigma.derivative() * c
    return [int(out.coeffs[i].coords[0]) for i in range(prec)]


def cocycle_matrix_by_products(prec):
    """Z by series products: column j is sum_k W_k * (sigma^k)^j, each
    summand one product further than at column j - 1."""
    f5 = build_ring("F5")
    rows = prec + COCYCLE_SHIFT
    iterates = [family(f5, k, 1, rows) for k in range(5)]
    bodies = [TruncatedSeries(f5, [1, 0, k + 1], prec=rows) for k in range(5)]
    terms = [body * body.sqrt() for body in bodies]
    cols = []
    for _ in range(prec):
        cols.append([c.coords[0] for c in sum(terms[1:], terms[0]).coeffs])
        terms = [w * it for w, it in zip(terms, iterates)]
    return [list(row) for row in zip(*cols)]


def coboundary_matrix_by_products(prec):
    """B by series products: column j is sigma^j - sigma' * t^j."""
    f5 = build_ring("F5")
    internal = prec + 1
    sigma = base_sigma(f5, internal).series
    sigma_prime = sigma.derivative()
    cols = []
    acc = TruncatedSeries.constant(f5, 1, internal)
    for j in range(prec):
        mono = TruncatedSeries(f5, [0] * j + [1], prec=internal)
        col_series = acc - sigma_prime * mono
        cols.append([int(col_series.coeffs[i].coords[0]) for i in range(prec)])
        acc = acc * sigma
    return [list(row) for row in zip(*cols)]
