"""The group of continuous A-algebra automorphisms of A[[t]].

An automorphism is a truncated series with nilpotent constant term and unit
linear coefficient, under composition.  The distinguished element is

    sigma : t -> t / sqrt(t^2 + 1)

which over F5 has order 5 and Hasse conductor 2.
"""

from __future__ import annotations

from .artin.rings import Ring, RingError
from .series import PrecisionError, TruncatedSeries, family


class NotAnAutomorphismError(RingError):
    """The series violates the nilpotent-c0 / unit-c1 conditions."""


class ConductorUndefinedError(RingError):
    """The automorphism is the identity at this precision."""


class Automorphism:
    """A composition-invertible series, closed under the group operations."""

    __slots__ = ("series",)

    def __init__(self, series: TruncatedSeries):
        c0 = series.coeffs[0]
        if c0.is_unit():
            raise NotAnAutomorphismError("constant term must be nilpotent")
        if series.prec < 2 or not series.coeffs[1].is_unit():
            raise NotAnAutomorphismError("linear coefficient must be a unit")
        self.series = series

    @property
    def ring(self) -> Ring:
        return self.series.ring

    @property
    def prec(self) -> int:
        return self.series.prec

    @classmethod
    def identity(cls, ring, prec):
        return cls(TruncatedSeries.t(ring, prec))

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.series == other.series

    def __hash__(self):
        return hash(self.series)

    def __repr__(self):
        return f"Automorphism({self.series})"

    def __call__(self, other):
        """Group law: (self . other)(t) = self(other(t))."""
        return Automorphism(self.series.compose(other.series))

    def inverse(self):
        return Automorphism(self.series.comp_inverse())

    def is_identity_at_precision(self):
        t = TruncatedSeries.t(self.ring, self.prec)
        return self.series == t

    def reduce_residue(self):
        """Coefficient-wise reduction modulo the maximal ideal."""
        k = self.ring.residue_ring
        return Automorphism(TruncatedSeries(
            k, [c.residue() for c in self.series.coeffs]))


def base_sigma(ring: Ring, prec: int) -> Automorphism:
    """t / sqrt(t^2 + 1) with the principal square-root branch."""
    return Automorphism(family(ring, 1, 1, prec))


def power(a: Automorphism, n: int) -> Automorphism:
    """n-fold composition of ``a`` (n >= 0)."""
    if n < 0:
        raise RingError("power expects n >= 0")
    out = Automorphism.identity(a.ring, a.prec)
    for _ in range(n):
        out = a(out)
    return out


def order(a: Automorphism, cap: int):
    """Least n <= cap with a^n = identity at the propagated working
    precision; returns (n, precision_checked) or (None, precision)."""
    if cap < 1:
        raise RingError("order cap must be >= 1")
    acc = a
    for n in range(1, cap + 1):
        if acc.is_identity_at_precision():
            return n, acc.prec
        if n < cap:
            try:
                acc = a(acc)
            except PrecisionError:
                return None, acc.prec
    return None, acc.prec


def hasse_conductor(a: Automorphism):
    """ord_t(a(t)/t - 1) of the residue-field reduction; also returns the
    leading coefficient.  Undefined for the identity."""
    red = a.reduce_residue()
    ratio = red.series.shift_down(1) - 1
    m = ratio.t_order()
    if m is None:
        raise ConductorUndefinedError(
            f"identity at precision {red.prec}: conductor undefined")
    return m, ratio.coeffs[m]


def conjugate(a: Automorphism, x: Automorphism) -> Automorphism:
    """x o a o x^{-1} at propagated precision."""
    return x(a(x.inverse()))


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
