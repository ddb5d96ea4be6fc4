"""The Element loop that found the versal points before
``defo5.deformation.versal.versal_scan``: every y in 1 + m in enumeration
order, each with Phi5(y) evaluated as the plain sum 1 + y + y^2 + y^3 + y^4
in ``Element`` arithmetic.  Kept as an independent test oracle for the
array scan."""

from functools import lru_cache


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
