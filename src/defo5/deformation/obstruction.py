"""Obstruction to deforming sigma over Z/5^n (n >= 2).

The versal ring has no points in Z/5^n for n >= 2, so sigma admits no lift
there.  A versal point y = 1 + u (u in 5A) of Z/5^n reduces to one of Z/25,
and there Phi5(1 + u) = 5 + 10u + 10u^2 + 5u^3 + u^4 = 5 mod 25, so scanning
the five elements of 1 + 5(Z/25) certifies the empty point set for every
n >= 2 in constant time.  For n = 2 the lift is also refuted directly: any
candidate lift over Z/25 is sigma_W + 5*d with sigma_W the principal-branch
t/sqrt(t^2+1) over Z/25 and d over F5, and since (5d)^2 = 0 the order-5
condition is the inhomogeneous linear system Z*d = -(sigma_W^5 - t)/5 over
F5, with Z the tangent-space cocycle matrix.  The system is certified
inconsistent by one echelon of Z's columns over GF(5): it is consistent
exactly when the right-hand side's normal form modulo that span is empty.
"""

from __future__ import annotations

from .. import gf5
from ..artin.rings import DescriptorError, RingError, build_ring
from ..nottingham import base_sigma, power
from ..series import TruncatedSeries
from .tangent import COCYCLE_SHIFT, cocycle_matrix
from .versal import hom_points


def sigma_w(prec: int):
    """The principal-branch t/sqrt(t^2+1) over Z/25."""
    return base_sigma(build_ring("Z/25"), prec)


def defect_vector(prec: int):
    """(sigma_W^5 - t)/5 over F5 through t^(prec-1)."""
    ring = build_ring("Z/25")
    internal = prec + 4
    aut = sigma_w(internal)
    t = TruncatedSeries.t(ring, internal)
    diff = power(aut, 5).series - t
    out = []
    for i in range(prec):
        v = diff.coeffs[i].coords[0]
        if v % 5 != 0:
            raise RingError(f"sigma_W^5 - t has a unit coefficient at t^{i}")
        out.append((v // 5) % 5)
    return out


def obstruction_check(descriptor: str, prec: int):
    """Report that sigma has no lift over Z/5^n: hom_points empty for any
    n >= 2, and for n = 2 the linear order-5 system certified inconsistent."""
    ring = build_ring(descriptor)  # bounds the numerals first
    n = ring.nilpotency_index  # Z/5^n has nilpotency index n
    if ring.dim != 1 or ring is not build_ring(f"Z/5^{n}"):
        raise DescriptorError(f"{descriptor!r} is not a Z/5^n descriptor")
    if n < 2:
        raise RingError("obstruction_check expects n >= 2")
    # Z/5^n -> Z/25 maps versal points to versal points
    pts = hom_points(ring) if hom_points(build_ring("Z/25")) else []
    report = {
        "ring": ring.descriptor,
        "prec": prec,
        "hom_points": len(pts),
        "hom_points_empty": not pts,
    }
    if n == 2:
        rows = prec + COCYCLE_SHIFT
        defect = defect_vector(rows)
        lead = next((i for i, v in enumerate(defect) if v), None)
        # last column first: column t^j starts at row j + COCYCLE_SHIFT or
        # later, so pivots come mostly in descending order, rarely clearing
        span = gf5.Echelon(reversed(list(zip(*cocycle_matrix(prec)))))
        consistent = not span.reduce([-v for v in defect])
        report.update({
            "defect_leading_order": lead,
            "defect_leading_coeff": defect[lead] if lead is not None else None,
            "linear_system_consistent": consistent,
        })
        report["obstructed"] = report["hom_points_empty"] and not consistent
    else:
        report["obstructed"] = report["hom_points_empty"]
    return report
