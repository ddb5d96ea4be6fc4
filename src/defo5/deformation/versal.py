"""The versal family sigma_y : t -> t / sqrt(t^2 + y) and its points.

A versal point of a ring A is an element y with Phi5(y) = 0 and y = 1 mod
m_A; it corresponds exactly to a local homomorphism from
W(k)[y]/(1 + y + y^2 + y^3 + y^4) into A.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..artin.rings import Element, Ring, RingError
from ..nottingham import Automorphism, base_sigma, power
from ..series import TruncatedSeries


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


def hom_points(ring: Ring):
    """All versal points of an enumerable ring, by exhaustive scan of 1 + m."""
    pts = []
    one = ring.one
    zero = ring.zero
    for x in ring.enumerate("maximal-ideal"):
        y = one + x
        if phi5(y) == zero:
            pts.append(VersalPoint(ring, y))
    return pts


def versal_family(point: VersalPoint, prec: int) -> Automorphism:
    """t / sqrt(t^2 + y) with the principal branch (residue root 1)."""
    ring = point.ring
    t = TruncatedSeries.t(ring, prec)
    body = t * t + TruncatedSeries.constant(ring, point.y, prec)
    return Automorphism(t.div(body.sqrt(ring.residue_ring.one)))


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
    yk = p
    t = TruncatedSeries.t(ring, prec)
    body = t * t * s_k + TruncatedSeries.constant(ring, yk, prec)
    return Automorphism(t.div(body.sqrt(ring.residue_ring.one)))


def is_lift(aut: Automorphism, prec: int):
    """Check the two lift conditions at precision ``prec``:

    (1) the residue reduction equals sigma over the residue field;
    (2) the fifth compositional power is t.

    The automorphism must carry enough guaranteed precision for (2):
    prec + 4*(e-1) coefficients, e the nilpotency index.  Returns
    (ok, detail) where detail names the failed condition, if any.
    """
    ring = aut.ring
    slack = 4 * (ring.nilpotency_index - 1)
    if aut.prec < prec + slack:
        raise RingError(
            f"is_lift at precision {prec} needs input precision >= {prec + slack}")
    k = ring.residue_ring
    sigma_k = base_sigma(k, prec)
    red = aut.reduce_residue()
    if not red.series.agrees_with(sigma_k.series, prec):
        return False, "reduction modulo the maximal ideal differs from sigma"
    p5 = power(aut, 5)
    t = TruncatedSeries.t(ring, prec)
    if not p5.series.agrees_with(t, prec):
        return False, f"fifth power is not t at precision {prec}"
    return True, f"lift certified at precision {prec}"


def lift_certificate(point: VersalPoint, prec: int):
    """Convenience: build the versal family with enough slack and run is_lift."""
    ring = point.ring
    slack = 4 * (ring.nilpotency_index - 1)
    aut = versal_family(point, prec + slack)
    return is_lift(aut, prec)
