"""Test oracles for ``defo5.deformation.versal``.

``one_plus_m`` and ``versal_points`` are the Element loop that found the
versal points before ``versal_scan``: every y in 1 + m in enumeration
order, each with Phi5(y) evaluated as the plain sum 1 + y + y^2 + y^3 + y^4
in ``Element`` arithmetic.  ``is_lift`` checks a lift by composing its fifth
power, the oracle of the ring-arithmetic ``lift_certificate``."""

from functools import lru_cache

from defo5.nottingham import Automorphism, base_sigma, power
from defo5.series import TruncatedSeries


@lru_cache(maxsize=None)
def one_plus_m(ring):
    """[(y, Phi5(y)) for every y in 1 + m], in enumeration order."""
    out = []
    for x in ring.enumerate("maximal-ideal"):
        y = ring.one + x
        out.append((y, sum((y ** i for i in range(1, 5)), ring.one)))
    return out


def versal_points(ring):
    """The y of ``one_plus_m`` with Phi5(y) = 0."""
    return [y for y, phi in one_plus_m(ring) if phi == ring.zero]


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
