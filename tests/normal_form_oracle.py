"""The depth-first coefficient search that ``defo5.nottingham`` used for the
order-5/conductor-2 normal form before the one-pass solve: at level k it
tries every value of c_k (units at k = 1), checks xi o sigma = a o xi at
precision k + 1 and backtracks when a branch dies.  Kept verbatim as an
independent test oracle; the one-pass solve must return the same
conjugator, or None, and raise the same errors."""

from defo5.artin.rings import RingError
from defo5.nottingham import (Automorphism, base_sigma, conjugate,
                              hasse_conductor, order)
from defo5.series import PrecisionError, TruncatedSeries


def normal_form_o5c2(a: Automorphism, prec: int):
    """Over F5: find the lexicographically least conjugator xi (c0 = 0,
    c1 a unit) with xi o sigma o xi^{-1} = a at precision ``prec``, by
    depth-first coefficient search.  Returns the conjugator or None.

    Precondition (checked): order 5 and Hasse conductor 2 at precision.
    """
    ring = a.ring
    if ring.descriptor != "F5":
        raise RingError("normal form search is implemented over F5")
    if a.prec < prec:
        raise PrecisionError(f"input automorphism has precision {a.prec} < {prec}")
    n, _ = order(a, 5)
    if n != 5:
        raise RingError("normal form needs an automorphism of order 5 at precision")
    cond, _ = hasse_conductor(a)
    if cond != 2:
        raise RingError("normal form needs Hasse conductor 2")
    sigma = base_sigma(ring, prec).series
    target = a.series.truncate(prec)
    zero, one = ring.zero, ring.one

    # Solve xi o sigma = a o xi coefficient by coefficient: the degree-k
    # coefficient of both sides depends only on xi's coefficients c_1..c_k.
    def both_sides(coeffs, upto):
        xi = TruncatedSeries(ring, coeffs, prec=upto)
        lhs = xi.compose(sigma.truncate(upto))
        rhs = target.truncate(upto).compose(xi)
        return lhs, rhs

    units = [ring.from_int(v) for v in range(1, 5)]
    scalars = [ring.from_int(v) for v in range(5)]

    def dfs(coeffs):
        k = len(coeffs)
        if k == prec:
            return list(coeffs)
        choices = units if k == 1 else scalars
        for c in choices:
            cand = coeffs + [c]
            lhs, rhs = both_sides(cand, k + 1)
            if lhs.agrees_with(rhs):
                hit = dfs(cand)
                if hit is not None:
                    return hit
        return None

    hit = dfs([zero])
    if hit is None:
        return None
    xi = Automorphism(TruncatedSeries(ring, hit))
    if __debug__:
        assert conjugate(Automorphism(sigma), xi).series.agrees_with(target)
    return xi
