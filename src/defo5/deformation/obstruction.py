"""Obstruction to deforming sigma over Z/5^n (n >= 2).

The versal ring has no points in Z/5^n for n >= 2, so sigma admits no lift
there.  A versal point y = 1 + u (u in 5A) of Z/5^n reduces to one of Z/25,
and there Phi5(1 + u) = 5 + 10u + 10u^2 + 5u^3 + u^4 = 5 mod 25, so scanning
the five elements of 1 + 5(Z/25) certifies the empty point set for every
n >= 2 in constant time.  For n = 2 the lift is also refuted directly: any
candidate lift over Z/25 is sigma_W + 5*d with sigma_W the principal-branch
t/sqrt(t^2+1) over Z/25 and d over F5, and since (5d)^2 = 0 the order-5
condition is the inhomogeneous linear system Z*d = -(sigma_W^5 - t)/5 over
F5, with Z the tangent-space cocycle matrix.

Theorem.  For every precision P >= 2 that system is inconsistent.  Proof.
By the group law sigma_W^5 = t (1 + 5 t^2)^(-1/2), and mod 25 the binomial
series is 1 - (5/2) t^2: so the defect (sigma_W^5 - t)/5 is exactly 2 t^3
over F5.  Column j of Z is t^j times a series, 0 below t^(j +
COCYCLE_SHIFT), so row 3 of Z_P is 0 at every P: the row functional w = e_3
has w Z = 0 and w (-defect) = -2 != 0.

``obstruction_check`` reads that certificate off the defect and Z at
``tangent.BASE_PREC``, whatever P (a row i < BASE_PREC of Z_P is row i of
that table, cut to P columns or padded by zeros): the system is
inconsistent when the defect is nonzero on a zero row of Z, and consistent
when it is 0 (take d = 0); any other defect raises ``RingError``.
"""

from __future__ import annotations

from ..artin.rings import DescriptorError, RingError, build_ring
from ..series import TruncatedSeries, family, require_prec
from .tangent import BASE_PREC, COCYCLE_SHIFT, cocycle_matrix
from .versal import hom_points


def defect_vector(prec: int):
    """(sigma_W^5 - t)/5 over F5 through t^(prec-1); by the group law
    (versal.iterate_parameters) sigma_W^5 = t / sqrt(5 t^2 + 1)."""
    ring = build_ring("Z/25")
    diff = family(ring, 5, 1, prec) - TruncatedSeries.t(ring, prec)
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
    require_prec(prec)  # the theorem holds for P >= 2
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
        defect = defect_vector(BASE_PREC)[:prec + COCYCLE_SHIFT]  # Z_P's rows
        lead = next((i for i, v in enumerate(defect) if v), None)
        Z = cocycle_matrix(BASE_PREC)
        # refuted by w = e_i for a zero row i of Z where the defect is
        # nonzero; a zero defect is consistent (take d = 0)
        refuted = any(v and not any(Z[i]) for i, v in enumerate(defect))
        if lead is not None and not refuted:
            raise RingError("no certificate decides the order-5 system "
                            f"at precision {prec}")
        report.update({
            "defect_leading_order": lead,
            "defect_leading_coeff": defect[lead] if lead is not None else None,
            "linear_system_consistent": not refuted,
        })
        report["obstructed"] = report["hom_points_empty"] and refuted
    else:
        report["obstructed"] = report["hom_points_empty"]
    return report
