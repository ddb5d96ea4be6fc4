"""The sympy-``Expr`` SurdExpression and t-expansion: every component is a
sympy expression kept in ``cancel(together(...))`` form, and ``evaluate``
converts each component to a fraction of ``Poly`` terms.  Also the witness
sampler of ``consistency_sample`` as it was, taking both square roots by
``sqrt`` and retrying on failure, and ``to_expr``, the sympy image of a
component N / (r^i * y2^j) of ``defo5.symbolic.surd``.  Kept as an
independent test oracle, and the only place sympy does algebra: its
expansions, displays, evaluations, printed strings and witness draws must
agree with the package's sympy-free implementation."""

from __future__ import annotations

from functools import lru_cache
from numbers import Rational as _PyRational

import sympy as sp

A0, A1, A2, A3, Y1, Y2 = sp.symbols("a0 a1 a2 a3 y1 y2")
SYMBOLS = (A0, A1, A2, A3, Y1, Y2)

_S1_SQ = A0 ** 2 + Y1
_S2_SQ = Y2


class SurdError(ValueError):
    pass


def to_expr(component):
    """The sympy expression N / ((a0**2 + y1)**i * y2**j) of a component."""
    numer = sp.Add(*(sp.Rational(c.numerator, c.denominator)
                     * sp.Mul(*(s ** e for s, e in zip(SYMBOLS, m)))
                     for m, c in component.num.items()))
    return numer / (_S1_SQ ** component.i * _S2_SQ ** component.j)


def _norm(e):
    return sp.cancel(sp.together(sp.sympify(e)))


class SurdExpression:
    """c00 + c10*s1 + c01*s2 + c11*s1*s2 with rational-function components."""

    __slots__ = ("c00", "c10", "c01", "c11")

    def __init__(self, c00=0, c10=0, c01=0, c11=0):
        self.c00 = _norm(c00)
        self.c10 = _norm(c10)
        self.c01 = _norm(c01)
        self.c11 = _norm(c11)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def s1(cls):
        return cls(0, 1, 0, 0)

    @classmethod
    def s2(cls):
        return cls(0, 0, 1, 0)

    @classmethod
    def of(cls, expr):
        """A surd-free expression (symbol, rational, or combination)."""
        return cls(expr, 0, 0, 0)

    # -- ring structure -------------------------------------------------------

    def _components(self):
        return (self.c00, self.c10, self.c01, self.c11)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return all(sp.cancel(a - b) == 0
                   for a, b in zip(self._components(), other._components()))

    def __hash__(self):
        return hash(tuple(self._components()))

    def is_zero(self):
        return all(c == 0 for c in self._components())

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SurdExpression(*(a + b for a, b in
                                zip(self._components(), other._components())))

    __radd__ = __add__

    def __neg__(self):
        return SurdExpression(*(-c for c in self._components()))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x00, x10, x01, x11 = self._components()
        y00, y10, y01, y11 = other._components()
        r, s = _S1_SQ, _S2_SQ
        return SurdExpression(
            x00 * y00 + r * x10 * y10 + s * x01 * y01 + r * s * x11 * y11,
            x00 * y10 + x10 * y00 + s * (x01 * y11 + x11 * y01),
            x00 * y01 + x01 * y00 + r * (x10 * y11 + x11 * y10),
            x00 * y11 + x11 * y00 + x10 * y01 + x01 * y10,
        )

    __rmul__ = __mul__

    # -- conjugates, norm, inversion -------------------------------------------

    def conj_s1(self):
        return SurdExpression(self.c00, -self.c10, self.c01, -self.c11)

    def conj_s2(self):
        return SurdExpression(self.c00, self.c10, -self.c01, -self.c11)

    def algebra_norm(self):
        """Product of the four sign-conjugates; a plain rational function."""
        z = self * self.conj_s1()
        w = z * z.conj_s2()
        if w.c10 != 0 or w.c01 != 0 or w.c11 != 0:
            raise SurdError("norm failed to rationalize")  # pragma: no cover
        return w.c00

    def is_invertible(self):
        return self.algebra_norm() != 0

    def inverse(self):
        n = self.algebra_norm()
        if n == 0:
            raise SurdError(f"{self} is not invertible (zero norm)")
        z = self * self.conj_s1()
        return self.conj_s1() * z.conj_s2() * SurdExpression.of(1 / n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    # -- presentation -----------------------------------------------------------

    def canonical_str(self):
        parts = []
        for comp, tag in zip(self._components(), ("", "s1", "s2", "s1*s2")):
            if comp == 0:
                continue
            body = sp.sstr(sp.cancel(comp), order="lex")
            parts.append(f"({body})*{tag}" if tag else f"({body})")
        return " + ".join(parts) if parts else "(0)"

    def __repr__(self):
        return f"SurdExpression[{self.canonical_str()}]"

    def subs_sign(self, flip_s1=False, flip_s2=False):
        """The expression on the other square-root branch(es)."""
        out = self
        if flip_s1:
            out = out.conj_s1()
        if flip_s2:
            out = out.conj_s2()
        return out

    # -- specialization -----------------------------------------------------------

    def evaluate(self, ring, witness, powers=None):
        """Exact value in a catalog ring.  ``witness`` maps the symbol names
        a0, a1, a2, a3, y1, y2 to ring elements and s1, s2 to the chosen
        square roots of a0^2 + y1 and y2 (both must square correctly).
        Denominators must evaluate to units.  ``powers`` is the witness's
        power table (name -> [1, x, x^2, ...], filled on demand); pass one
        dict per witness to share it across evaluations."""
        if powers is None:
            powers = {}
        s1v, s2v = witness["s1"], witness["s2"]
        a0v, y1v, y2v = witness["a0"], witness["y1"], witness["y2"]
        if s1v * s1v != a0v * a0v + y1v:
            raise SurdError("witness s1 is not a square root of a0^2 + y1")
        if s2v * s2v != y2v:
            raise SurdError("witness s2 is not a square root of y2")
        vals = [_eval_rational(c, ring, witness, powers)
                for c in self._components()]
        return (vals[0] + vals[1] * s1v + vals[2] * s2v
                + vals[3] * s1v * s2v)


def _coerce(x):
    if isinstance(x, SurdExpression):
        return x
    if isinstance(x, (int, _PyRational, sp.Expr)):
        return SurdExpression.of(x)
    return NotImplemented


_NAMES = tuple(str(s) for s in SYMBOLS)
_terms_cache: dict = {}


def _poly_terms(poly_expr):
    """[(numerator, denominator, monomial exponents), ...], cached."""
    terms = _terms_cache.get(poly_expr)
    if terms is None:
        poly = sp.Poly(poly_expr, *SYMBOLS)
        terms = tuple((int(sp.Rational(c).p), int(sp.Rational(c).q), m)
                      for m, c in poly.terms())
        _terms_cache[poly_expr] = terms
    return terms


@lru_cache(maxsize=256)
def _den_inverse(ring, den):
    return ring.from_int(den).inv()


def _eval_poly(poly_expr, ring, witness, powers):
    total = ring.zero
    for num, den, monom in _poly_terms(poly_expr):
        term = ring.from_int(num)
        if den != 1:
            term = term * _den_inverse(ring, den)
        for name, exp in zip(_NAMES, monom):
            if exp:
                seq = powers.setdefault(name, [ring.one, witness[name]])
                while len(seq) <= exp:
                    seq.append(seq[-1] * seq[1])
                term = term * seq[exp]
        total = total + term
    return total


_fraction_cache: dict = {}


def _eval_rational(expr, ring, witness, powers):
    pair = _fraction_cache.get(expr)
    if pair is None:
        pair = _fraction_cache[expr] = sp.fraction(sp.cancel(sp.together(expr)))
    num_v = _eval_poly(pair[0], ring, witness, powers)
    den_v = _eval_poly(pair[1], ring, witness, powers)
    return num_v * den_v.inv()


# -- the t-expansion and the displayed equations --------------------------------

_HALF = sp.Rational(1, 2)


def _binomial_series_coeffs(alpha, n):
    """c_0..c_{n-1} of (1 + u)^alpha."""
    out = [sp.Integer(1)]
    for k in range(1, n):
        out.append(out[-1] * (alpha - (k - 1)) / k)
    return out


def _poly_mul(a, b, prec):
    out = [SurdExpression.of(0) for _ in range(prec)]
    for i, x in enumerate(a):
        if i >= prec:
            break
        for j, y in enumerate(b):
            if i + j >= prec:
                break
            out[i + j] = out[i + j] + x * y
    return out


def _g_coeffs():
    return [SurdExpression.of(s) for s in (A0, A1, A2, A3)]


@lru_cache(maxsize=None)
def expand_lhs(prec: int = 4):
    """t^0..t^(prec-1) coefficients of g(t)/sqrt(g(t)^2 + y1), expanded
    once per process."""
    g = _g_coeffs()
    g_sq = _poly_mul(g, g, prec)
    r = SurdExpression.of(A0 ** 2 + Y1)
    u = [(g_sq[i] - (g_sq[0] if i == 0 else 0)) / r for i in range(prec)]
    u[0] = SurdExpression.of(0)  # g^2 - a0^2 has no constant term
    coeffs = _binomial_series_coeffs(-_HALF, prec)
    inv_sqrt = [SurdExpression.of(0) for _ in range(prec)]
    upow = [SurdExpression.of(1)] + [SurdExpression.of(0)] * (prec - 1)
    for k, c in enumerate(coeffs):
        if k:
            upow = _poly_mul(upow, u, prec)
        for i in range(prec):
            inv_sqrt[i] = inv_sqrt[i] + c * upow[i]
    inv_s1 = SurdExpression.s1() / r  # 1/s1 = s1/(a0^2+y1)
    return tuple(c * inv_s1 for c in _poly_mul(g, inv_sqrt, prec))


def inner_series(prec: int = 4):
    """t^0..t^(prec-1) coefficients of t/sqrt(t^2 + y2)."""
    coeffs = _binomial_series_coeffs(-_HALF, prec)
    inv_s2 = SurdExpression.s2() / SurdExpression.of(Y2)
    out = [SurdExpression.of(0) for _ in range(prec)]
    # (1 + t^2/y2)^(-1/2) has only even powers; multiply by t * (1/s2).
    for k, c in enumerate(coeffs):
        deg = 2 * k + 1
        if deg >= prec:
            break
        out[deg] = inv_s2 * (c / Y2 ** k)
    return out


@lru_cache(maxsize=None)
def expand_rhs(prec: int = 4):
    """t^0..t^(prec-1) coefficients of g(t/sqrt(t^2 + y2)), expanded once
    per process."""
    inner = inner_series(prec)
    out = [SurdExpression.of(0) for _ in range(prec)]
    power = [SurdExpression.of(1)] + [SurdExpression.of(0)] * (prec - 1)
    for k, gk in enumerate(_g_coeffs()):
        if k:
            power = _poly_mul(power, inner, prec)
        for i in range(prec):
            out[i] = out[i] + gk * power[i]
    return tuple(out)


# -- the displayed equations ------------------------------------------------------

def displayed_eq3():
    """a0/s1 = a0 as (LHS, RHS)."""
    inv_s1 = SurdExpression.s1() / SurdExpression.of(A0 ** 2 + Y1)
    return SurdExpression.of(A0) * inv_s1, SurdExpression.of(A0)


def displayed_eq4():
    """a1/s1 - a0^2*a1/s1^3 = a1/s2 as (LHS, RHS)."""
    r = SurdExpression.of(A0 ** 2 + Y1)
    inv_s1 = SurdExpression.s1() / r
    inv_s1_cu = inv_s1 * inv_s1 * inv_s1
    lhs = (SurdExpression.of(A1) * inv_s1
           - SurdExpression.of(A0 ** 2 * A1) * inv_s1_cu)
    rhs = SurdExpression.of(A1) * (SurdExpression.s2() / SurdExpression.of(Y2))
    return lhs, rhs


def displayed_third_order():
    """The third-order display as (LHS, RHS)."""
    r = SurdExpression.of(A0 ** 2 + Y1)
    inv_s1 = SurdExpression.s1() / r
    inv_s1_cu = inv_s1 * inv_s1 * inv_s1
    lhs = (SurdExpression.of(A0 * A1 ** 2) * inv_s1_cu
           - SurdExpression.of(A0) * inv_s1
           * (SurdExpression.of(A0 ** 2 * A1 ** 2 / (A0 ** 2 + Y1) ** 2)
              + _HALF * (SurdExpression.of(A0 ** 2 * A1 ** 2
                                           / (A0 ** 2 + Y1) ** 2)
                         - SurdExpression.of((A1 ** 2 + 2 * A0 * A2)
                                             / (A0 ** 2 + Y1)))))
    rhs = (SurdExpression.of(A2) * inv_s1
           - SurdExpression.of(A2 / Y2))
    return lhs, rhs


# -- the witness sampler ---------------------------------------------------------

def _sample_witness(ring, rng, pools):
    one = ring.one
    mideal, units, elements = pools
    while True:
        a0 = rng.choice(mideal)
        a1 = rng.choice(units)
        a2 = rng.choice(elements)
        a3 = rng.choice(elements)
        y1 = one + rng.choice(mideal)
        y2 = one + rng.choice(mideal)
        base1, base2 = a0 * a0 + y1, y2
        try:
            roots1 = [base1.sqrt(b) for b in (ring.residue_ring.one,
                                              -ring.residue_ring.one)]
            roots2 = [base2.sqrt(b) for b in (ring.residue_ring.one,
                                              -ring.residue_ring.one)]
        except Exception:
            continue
        s1 = rng.choice(roots1)
        s2 = rng.choice(roots2)
        return dict(a0=a0, a1=a1, a2=a2, a3=a3, y1=y1, y2=y2, s1=s1, s2=s2)
