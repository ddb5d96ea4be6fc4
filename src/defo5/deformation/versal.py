"""The versal family sigma_y : t -> t / sqrt(t^2 + y) and its points.

A versal point of a ring A is an element y with Phi5(y) = 0 and y = 1 mod
m_A; it corresponds exactly to a local homomorphism from
W(k)[y]/(1 + y + y^2 + y^3 + y^4) into A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..artin.rings import Element, EnumerationBoundError, Ring, RingError
from ..nottingham import Automorphism
from ..series import family, require_prec


def phi5(y: Element) -> Element:
    """1 + y + y^2 + y^3 + y^4, by Horner's rule."""
    one = acc = y.ring.one
    for _ in range(4):
        acc = acc * y + one
    return acc


@dataclass(frozen=True)
class VersalPoint:
    ring: Ring
    y: Element

    def __post_init__(self):
        if self.y.ring != self.ring:
            raise RingError("versal point element lives in the wrong ring")
        if phi5(self.y) != self.ring.zero:
            raise RingError(f"Phi5({self.y}) != 0")
        if not (self.y - self.ring.one).in_maximal_ideal():
            raise RingError(f"{self.y} is not congruent to 1 mod the maximal ideal")


# The scan of 1 + m takes 1 ms (Z/5^7) to 24-30 ms (F5[e]/(e^7),
# F25[e]/(e^4)) at |m| = 5^6, in process on a 2-core host; the VersalPoints
# of its hits add 0.1 s (3 125 points) to 0.6-0.7 s (15 625 points).
HOM_POINTS_BOUND = 5 ** 6


def ideal_size(ring: Ring) -> int:
    """|m|, from cardinalities alone."""
    return ring.cardinality // ring.residue_ring.cardinality


def versal_scan(ring: Ring):
    """(rows, hits): the canonical coordinates of 1 + m, one row per element
    in table-index order, and the mask of the rows y with Phi5(y) = 0; a ring
    with |m| > HOM_POINTS_BOUND is refused before any array is built.

    The residue coordinates of 1 + m step by 5 from those of 1, the others
    take their full range.  Horner's rule runs on all rows at once: row n of
    ``times_y`` is the matrix of x -> x * y_n from ``ring.mul_basis``, and
    each product is reduced by ``diag``.  No int64 overflow: under the bound
    |A| <= 25 |m| <= 5^8, so dim <= 8 and every diag <= 5^7 (Z/5^7), and a
    product stays below dim^2 * 5^21 < 2^55."""
    n_m = ideal_size(ring)
    if n_m > HOM_POINTS_BOUND:
        raise EnumerationBoundError(
            f"versal-point scan over {ring.descriptor}: |m| = {n_m} "
            f"exceeds the bound {HOM_POINTS_BOUND}")
    k = ring.residue_ring.dim
    axes = [np.arange(int(j == 0), m, 5 if j < k else 1)
            for j, m in enumerate(ring.diag)]
    grid = np.meshgrid(*axes, indexing="ij")
    rows = np.stack(grid, axis=-1).reshape(-1, ring.dim)
    times_y = np.einsum("nb,abk->nak", rows,
                        np.array(ring.mul_basis, dtype=np.int64))
    one = np.eye(ring.dim, dtype=np.int64)[0]
    phi = np.broadcast_to(one, rows.shape)
    for _ in range(4):  # Phi5(y) = 1 + y(1 + y(1 + y(1 + y)))
        phi = (np.einsum("na,nak->nk", phi, times_y) + one) % ring.diag
    return rows, ~phi.any(axis=1)


def hom_points(ring: Ring):
    """The versal points of a ring, in table-index order: the hits of
    ``versal_scan``, each checked once more by VersalPoint."""
    rows, hits = versal_scan(ring)
    return [VersalPoint(ring, Element(ring, y)) for y in rows[hits].tolist()]


def versal_family(point: VersalPoint, prec: int) -> Automorphism:
    """t / sqrt(t^2 + y) with the principal branch: y = 1 mod m, so its
    root has residue 1."""
    require_prec(prec)
    return Automorphism(family(point.ring, 1, point.y, prec))


def iterate_parameters(y: Element, k: int):
    """(S_k(y), y^k) with S_k = 1 + y + ... + y^(k-1), for k >= 0.

    The group law: f_{a,b} = t / sqrt(a t^2 + b) (a in A, b in 1 + m, root
    of residue 1) has f_{a,b} o f_{c,d} = f_{a+bc, bd}.  Both sides square
    to t^2 / ((a+bc) t^2 + bd) and are t times a unit = 1 mod (m, t), and
    two such units g, h with g^2 = h^2 are equal: (g - h)(g + h) = 0 and
    g + h = 2 mod (m, t) is a unit.  So sigma_y = f_{1,y} has
    sigma_y^(k+1) = sigma_y^k o sigma_y = f_{S_k(y) + y^k, y^(k+1)}.
    """
    if k < 0:
        raise RingError("iterate_parameters expects k >= 0")
    s_k = y.ring.zero
    p = y.ring.one
    for _ in range(k):
        s_k = s_k + p
        p = p * y
    return s_k, p


def iterate_closed_form(point: VersalPoint, k: int, prec: int) -> Automorphism:
    """sigma_y^k(t) = t / sqrt(S_k(y) t^2 + y^k), by the group law; at k = 5
    this is exactly t, since S_5(y) = Phi5(y) = 0 and y^5 = 1."""
    require_prec(prec)
    return Automorphism(family(point.ring, *iterate_parameters(point.y, k),
                               prec))


def lift_certificate(point: VersalPoint, prec: int):
    """Whether versal_family(point, prec) lifts sigma: (ok, detail), with
    detail naming the failed condition, if any.  By ring arithmetic: sigma_y
    reduces to sigma when y = 1 mod m, and by the group law sigma_y^5 =
    f_{S_5(y), y^5} is t when (S_5(y), y^5) = (0, 1)."""
    require_prec(prec)
    ring = point.ring
    if not (point.y - ring.one).in_maximal_ideal():
        return False, "reduction modulo the maximal ideal differs from sigma"
    if iterate_parameters(point.y, 5) != (ring.zero, ring.one):
        return False, f"fifth power is not t at precision {prec}"
    return True, f"lift certified at precision {prec}"
