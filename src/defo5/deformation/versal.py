"""The versal family sigma_y : t -> t / sqrt(t^2 + y) and its points.

A versal point of a ring A is an element y with Phi5(y) = 0 and y = 1 mod
m_A; it corresponds exactly to a local homomorphism from
W(k)[y]/(1 + y + y^2 + y^3 + y^4) into A.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..artin.rings import Element, EnumerationBoundError, Ring, RingError
from ..nottingham import Automorphism, base_sigma, power
from ..series import TruncatedSeries, family


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


# The scan of 1 + m takes 0.4-1.9 s at |m| = 5^6 (Z/5^7, F5[e]/(e^7),
# F25[e]/(e^4)), 1.5-4.2 s at 5^7 (Z/5^8, F5[e]/(e^8)) and about five times
# more per further power of 5 (2-core host).
HOM_POINTS_BOUND = 5 ** 6


def ideal_size(ring: Ring) -> int:
    """|m|, from cardinalities alone."""
    return ring.cardinality // ring.residue_ring.cardinality


def hom_points(ring: Ring):
    """All versal points of an enumerable ring, by exhaustive scan of 1 + m;
    a ring with |m| > HOM_POINTS_BOUND is refused before the scan."""
    n_m = ideal_size(ring)
    if n_m > HOM_POINTS_BOUND:
        raise EnumerationBoundError(
            f"versal-point scan over {ring.descriptor}: |m| = {n_m} "
            f"exceeds the bound {HOM_POINTS_BOUND}")
    pts = []
    one = ring.one
    zero = ring.zero
    for x in ring.enumerate("maximal-ideal"):
        y = one + x
        if phi5(y) == zero:
            pts.append(VersalPoint(ring, y))
    return pts


def versal_family(point: VersalPoint, prec: int) -> Automorphism:
    """t / sqrt(t^2 + y) with the principal branch: y = 1 mod m, so its
    root has residue 1."""
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
    return Automorphism(family(point.ring, *iterate_parameters(point.y, k),
                               prec))


def is_lift(aut: Automorphism, prec: int):
    """Check the two lift conditions at precision ``prec``:

    (1) the residue reduction equals sigma over the residue field;
    (2) the fifth compositional power is t.

    Both are compared at ``prec``; when the fifth power is known to fewer
    coefficients (composition loses precision to a nonzero constant term)
    the comparison raises ``PrecisionError``.  Returns (ok, detail) where
    detail names the failed condition, if any.
    """
    sigma_k = base_sigma(aut.ring.residue_ring, prec)
    if not aut.reduce_residue().series.agrees_with(sigma_k.series, prec):
        return False, "reduction modulo the maximal ideal differs from sigma"
    t = TruncatedSeries.t(aut.ring, prec)
    if not power(aut, 5).series.agrees_with(t, prec):
        return False, f"fifth power is not t at precision {prec}"
    return True, f"lift certified at precision {prec}"


def lift_certificate(point: VersalPoint, prec: int):
    """is_lift(versal_family(point, prec), prec) by ring arithmetic: sigma_y
    reduces to sigma when y = 1 mod m, and by the group law sigma_y^5 =
    f_{S_5(y), y^5} is t when (S_5(y), y^5) = (0, 1)."""
    ring = point.ring
    if not (point.y - ring.one).in_maximal_ideal():
        return False, "reduction modulo the maximal ideal differs from sigma"
    if iterate_parameters(point.y, 5) != (ring.zero, ring.one):
        return False, f"fifth power is not t at precision {prec}"
    return True, f"lift certified at precision {prec}"
