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
    c1 a unit) with xi o sigma o xi^{-1} = a at precision ``prec``.  Returns
    the conjugator or None.

    Precondition (checked): order 5 and Hasse conductor 2 at precision.

    One pass over j = 1..prec-1: at precision min(j + 3, prec), c_j takes
    the least value (1..4 at j = 1, 0..4 otherwise) for which xi o sigma and
    a o xi agree, and the search stops with None when none does.  No level
    is tried twice.

    Theorem.  Whenever a conjugator at precision ``prec`` extends the
    coefficients fixed so far, every value that passes at level j extends
    them to one too.  So the pass returns the lexicographically least
    conjugator, or None when there is none, as a depth-first search over
    all values would.

    Proof.  The checks force a = t + a3 t^3 + ... with a3 != 0, and sigma =
    t + s3 t^3 + ... is odd, s3 = -1/2 = 2.  With c0 = 0 the coefficient of
    t^k in xi o sigma - a o xi involves only c_1..c_{k-2}: c_k cancels, and
    a_2 = 0.  So the check at level j reads c_j first in its t^(j+2)
    coefficient: c1 s3 - a3 c1^3 at j = 1, and for j >= 2 a term linear in
    c_j with factor s3 j - 3 a3 c1^2, which the t^3 equation a3 c1^2 = s3
    makes 2 (j - 3).
    - j + 2 >= prec: no checked coefficient reads c_j, every value passes
      and every one extends.
    - j = 1: c1^2 = s3/a3 has two roots or none.  t -> -t commutes with
      sigma, so xi -> xi(-t) maps the conjugators with c1 onto those with
      -c1 and keeps c0.
    - j = 5m + 3: the factor is 0, so the check passes for all five values
      or none.  N = t sigma(t) sigma^2(t) sigma^3(t) sigma^4(t) is
      sigma-invariant and starts t^5, and z_m = t / sqrt(N^m t^2 + 1)
      commutes with sigma: z_m o sigma and sigma o z_m both square to
      t^2 / ((N^m + 1) t^2 + 1), and as in the group law of
      ``deformation.versal.iterate_parameters`` two series t + ... with
      equal squares are equal.  z_m = t + 2 t^(5m+3) + ..., so xi -> xi o
      z_m^k keeps c_1..c_{j-1} and adds 2 k c1 to c_j: it maps the
      conjugators with one value of c_j onto those with any other.
    - every other j: the factor is a unit, so only the value of the
      conjugator being extended passes.
    A pass that completes has checked the whole equation at ``prec``.
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
    coeffs = [0]
    for j in range(1, prec):
        upto = min(j + 3, prec)
        sigma_j, target_j = sigma.truncate(upto), target.truncate(upto)
        for v in range(1 if j == 1 else 0, 5):
            xi = TruncatedSeries(ring, coeffs + [v], prec=upto)
            if xi.compose(sigma_j).agrees_with(target_j.compose(xi)):
                coeffs.append(v)
                break
        else:
            return None
    xi = Automorphism(TruncatedSeries(ring, coeffs))
    if __debug__:
        assert conjugate(Automorphism(sigma), xi).series.agrees_with(target)
    return xi
