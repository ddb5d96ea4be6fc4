"""Exact rational expressions in a0, a1, a2, a3, y1, y2 with the two surds
s1 = sqrt(a0^2 + y1) and s2 = sqrt(y2) adjoined.

A SurdExpression is a rank-4 module element

    c00 + c10*s1 + c01*s2 + c11*s1*s2

whose components lie in FIELD = QQ(a0, a1, a2, a3, y1, y2), sympy's sparse
rational-function field of reduced fractions, so arithmetic and equality are
exact and canonical.  Sympy input is converted once; anything but a rational
function of the six symbols over Q raises SurdError.  The relations
s1^2 = a0^2 + y1 and s2^2 = y2 are applied eagerly, so surd exponents never
exceed 1.  Inversion rationalizes through the four sign-conjugates
(s1 -> +-s1, s2 -> +-s2): an expression is invertible exactly when its
algebra norm (the product of the conjugates, an element of FIELD) is nonzero.
All coefficient arithmetic is characteristic 0.  evaluate() specializes to a
finite catalog ring by one rule: each nonzero component is its numerator
terms times the inverse of its denominator terms (here, up to a rational
constant, a product of powers of a0^2 + y1 and y2, so a unit at every
witness of the sample rings).  Rational constants have denominators prime
to 5 and become integers modulo the characteristic.
"""

from __future__ import annotations

from numbers import Rational as _PyRational

import sympy as sp
from sympy.polys.fields import FracElement

A0, A1, A2, A3, Y1, Y2 = sp.symbols("a0 a1 a2 a3 y1 y2")
SYMBOLS = (A0, A1, A2, A3, Y1, Y2)
FIELD = sp.field("a0,a1,a2,a3,y1,y2", sp.QQ)[0]
_NAMES = tuple(str(s) for s in SYMBOLS)


class SurdError(ValueError):
    pass


def _norm(e):
    """``e`` as an element of FIELD."""
    if isinstance(e, FracElement) and e.field is FIELD:
        return e
    try:
        expr = sp.sympify(e, strict=True)
        if not isinstance(expr, sp.Expr) or expr.has(sp.Float):
            raise ValueError("not an exact scalar expression")
        return FIELD.from_expr(expr)
    except ValueError as exc:  # also sympy's SympifyError
        raise SurdError(f"{e!r} is not a rational function of "
                        f"{', '.join(_NAMES)} over Q") from exc


_S1_SQ, _S2_SQ = _norm(A0 ** 2 + Y1), _norm(Y2)


class SurdExpression:
    """c00 + c10*s1 + c01*s2 + c11*s1*s2 with components in FIELD."""

    __slots__ = ("c00", "c10", "c01", "c11", "_plans")

    def __init__(self, c00=0, c10=0, c01=0, c11=0):
        comps = map(_norm, (c00, c10, c01, c11))
        self.c00, self.c10, self.c01, self.c11 = comps
        self._plans = None

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
        return self._components() == other._components()

    def __hash__(self):
        return hash(self._components())

    def is_zero(self):
        return not any(self._components())

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
        if w.c10 or w.c01 or w.c11:
            raise SurdError("norm failed to rationalize")  # pragma: no cover
        return w.c00

    def is_invertible(self):
        return bool(self.algebra_norm())

    def inverse(self):
        n = self.algebra_norm()
        if not n:
            raise SurdError(f"{self} is not invertible (zero norm)")
        z = self * self.conj_s1()
        return self.conj_s1() * z.conj_s2() * SurdExpression(1 / n)

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
            if not comp:
                continue
            body = sp.sstr(sp.cancel(comp.as_expr()), order="lex")
            parts.append(f"({body})*{tag}" if tag else f"({body})")
        return " + ".join(parts) if parts else "(0)"

    def __repr__(self):
        return f"SurdExpression[{self.canonical_str()}]"

    def subs_sign(self, flip_s1=False, flip_s2=False):
        """The expression on the other square-root branch(es)."""
        out = self.conj_s1() if flip_s1 else self
        return out.conj_s2() if flip_s2 else out

    # -- specialization -----------------------------------------------------------

    def evaluate(self, ring, witness):
        """Exact value in a catalog ring.  ``witness`` maps the symbol names
        a0, a1, a2, a3, y1, y2 to ring elements and s1, s2 to the chosen
        square roots of a0^2 + y1 and y2 (both must square correctly).
        Each denominator must evaluate to a unit (NotAUnitError otherwise)."""
        s1v, s2v = witness["s1"], witness["s2"]
        if s1v * s1v != witness["a0"] * witness["a0"] + witness["y1"]:
            raise SurdError("witness s1 is not a square root of a0^2 + y1")
        if s2v * s2v != witness["y2"]:
            raise SurdError("witness s2 is not a square root of y2")
        if self._plans is None:
            self._plans = tuple((_terms(c.numer), _terms(c.denom)) if c
                                else None for c in self._components())
        pows = [[ring.one, witness[name]] for name in _NAMES]
        total = ring.zero
        for plan, surds in zip(self._plans, ((), (s1v,), (s2v,), (s1v, s2v))):
            if plan is not None:
                numer, denom = plan
                value = (_eval_terms(numer, ring, pows)
                         * _eval_terms(denom, ring, pows).inv())
                for s in surds:
                    value = value * s
                total = total + value
        return total


def _coerce(x):
    if isinstance(x, SurdExpression):
        return x
    if isinstance(x, (int, _PyRational, sp.Expr)):
        return SurdExpression.of(x)
    return NotImplemented


def _terms(poly):
    """((numerator, denominator, exponents), ...) of the terms of poly."""
    return tuple((int(c.numerator), int(c.denominator), m)
                 for m, c in poly.terms())


def _eval_terms(terms, ring, pows):
    """The value of a term list; ``pows`` holds one list [1, x, x^2, ...]
    per symbol, extended on demand."""
    total = ring.zero
    for num, den, monom in terms:
        term = num * pow(den, -1, ring.char)  # an int until the first power
        for seq, exp in zip(pows, monom):
            if exp:
                while len(seq) <= exp:
                    seq.append(seq[-1] * seq[1])
                term = seq[exp] * term
        total = total + term
    return total
