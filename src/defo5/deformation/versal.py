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
    """1 + y + y^2 + y^3 + y^4."""
    acc = y.ring.one
    p = y.ring.one
    for _ in range(4):
        p = p * y
        acc = acc + p
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


def iterate_closed_form(point: VersalPoint, k: int, prec: int) -> Automorphism:
    """The k-th compositional iterate of sigma_y in closed form:

        sigma_y^k(t) = t / sqrt(S_k(y) t^2 + y^k),  S_k = 1 + y + ... + y^(k-1).

    At k = 5 this is exactly t, since S_5(y) = Phi5(y) = 0 and y^5 = 1.
    """
    if k < 0:
        raise RingError("iterate_closed_form expects k >= 0")
    ring = point.ring
    s_k = ring.zero
    p = ring.one
    for _ in range(k):
        s_k = s_k + p
        p = p * point.y
    return Automorphism(family(ring, s_k, p, prec))


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
    """Build the versal family at ``prec`` and run is_lift: its constant
    term is 0, so composing it loses no precision."""
    return is_lift(versal_family(point, prec), prec)
