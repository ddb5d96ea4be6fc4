"""Exact expressions in a0, a1, a2, a3, y1, y2 with the two surds
s1 = sqrt(r), r = a0^2 + y1, and s2 = sqrt(y2) adjoined.

A SurdExpression is a rank-4 module element

    c00 + c10*s1 + c01*s2 + c11*s1*s2

whose components lie in Q[a0, a1, a2, a3, y1, y2][1/r, 1/y2].  A component
is one canonical triple (N, i, j) standing for N / (r^i * y2^j): N maps
exponent tuples (a0, a1, a2, a3, y1, y2) to nonzero rational coefficients
(int or Fraction), is not divisible by r when i > 0 and not by y2 when
j > 0.  Division by r is exact division in y1, since r is monic of degree 1
in y1; r and y2 are prime, so the form is unique without any gcd, and
equality and hashing are structural.  The relations s1^2 = r and
s2^2 = y2 are applied eagerly, so surd exponents never exceed 1.
Constants are ints, Fractions or other numbers.Rational instances;
anything else raises SurdError.

Inversion rationalizes through the four sign-conjugates (s1 -> +-s1,
s2 -> +-s2).  It is defined exactly when the algebra norm (their product,
a component) is a unit of the coefficient ring, c * r^a * y2^b; otherwise
it raises SurdError.

canonical_str() prints a component as sympy's ``sstr(cancel(e),
order="lex")`` does: numerator P and denominator Q = c * r^i * y2^j coprime
over Z with c > 0, terms in lex order a0 > a1 > a2 > a3 > y1 > y2, and a
constant denominator distributed over the terms of P.

A Specialization values expressions at a batch of witnesses in one catalog
ring of at most TABLE_BOUND elements, by one rule: each nonzero component
is its numerator terms times the inverse of its denominator r^i * y2^j (a
unit at every witness of the sample rings).  It works on numpy arrays of
indices into the ring's RingTable, one entry per witness, and is shared by
every expression valued at that batch: it checks s1^2 = r and s2^2 = y2
once for all witnesses (SurdError), keeps one power table per symbol,
gathers the inverse of each distinct r^i * y2^j once from INV
(NotAUnitError if it is not a unit at some witness) and none for a zero
component.  A larger ring is refused with EnumerationBoundError before any
table is built.  evaluate() is the batch-of-one case, on Elements.
Rational constants have denominators prime to 5 and become integers modulo
the characteristic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational as _PyRational
from operator import add

import numpy as np

from ..artin.rings import MismatchError, NotAUnitError
from ..artin.tables import ring_table

_NAMES = ("a0", "a1", "a2", "a3", "y1", "y2")
_WITNESS_NAMES = _NAMES + ("s1", "s2")  # the keys of a witness
_UNIT = (0,) * 6


class SurdError(ValueError):
    pass


# -- polynomials: {exponent tuple: nonzero rational} ---------------------------

def _padd(p, q, sign=1):
    """p + sign*q."""
    out = dict(p)
    for m, c in q.items():
        c = out.get(m, 0) + sign * c
        if c:
            out[m] = c
        else:
            del out[m]
    return out


def _pmul(p, q):
    out = {}
    get = out.get
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(map(add, m1, m2))
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _shift(p, k, var):
    """p times the k-th power of variable number ``var``."""
    return {m[:var] + (m[var] + k,) + m[var + 1:]: c for m, c in p.items()}


def _r_power(k):
    """(a0^2 + y1)^k."""
    out = {_UNIT: 1}
    for _ in range(k):
        out = _pmul(out, {(2, 0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1, 0): 1})
    return out


def _div_r(n):
    """n / r, or None when r does not divide n.  With n = sum_d n_d y1^d,
    the quotient q = sum_d q_d y1^d has q_(d-1) = n_d - a0^2 q_d and
    leaves the remainder n_0 - a0^2 q_0."""
    by_degree = {}
    for m, c in n.items():
        by_degree.setdefault(m[4], {})[m[:4] + (0,) + m[5:]] = c
    quotient, q = {}, {}
    for d in range(max(by_degree, default=0), 0, -1):
        q = _padd(by_degree.get(d, {}), _shift(q, 2, 0), -1)
        quotient.update(_shift(q, d - 1, 4))
    return quotient if by_degree.get(0, {}) == _shift(q, 2, 0) else None


# -- components ------------------------------------------------------------------

class Component:
    """N / (r^i * y2^j) in canonical form; build one with ``_reduced``."""

    __slots__ = ("num", "i", "j")

    def __init__(self, num, i=0, j=0):
        self.num, self.i, self.j = num, i, j

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (self.i == other.i and self.j == other.j
                and self.num == other.num)

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.i, self.j))

    def __neg__(self):
        return Component({m: -c for m, c in self.num.items()}, self.i, self.j)

    def _lifted(self, i, j):
        """The numerator of self over r^i * y2^j (i >= self.i, j >= self.j)."""
        num = self.num
        if i > self.i:
            num = _pmul(num, _r_power(i - self.i))
        return _shift(num, j - self.j, 5) if j > self.j else num

    def __add__(self, other):
        if not other.num:
            return self
        if not self.num:
            return other
        i, j = max(self.i, other.i), max(self.j, other.j)
        return _reduced(_padd(self._lifted(i, j), other._lifted(i, j)), i, j)

    def __mul__(self, other):
        if not self.num or not other.num:
            return _ZERO
        return _reduced(_pmul(self.num, other.num),
                        self.i + other.i, self.j + other.j)

    def unit_inverse(self):
        """1/self if self is c * r^a * y2^b (a, b any integers), else None."""
        num, a, b = self.num, -self.i, -self.j
        if not num:
            return None
        k = min(m[5] for m in num)
        num, b = _shift(num, -k, 5), b + k
        while (q := _div_r(num)) is not None:
            num, a = q, a + 1
        if list(num) != [_UNIT]:
            return None
        inv = _pmul({_UNIT: 1 / Fraction(num[_UNIT])}, _r_power(max(-a, 0)))
        return Component(_shift(inv, max(-b, 0), 5), max(a, 0), max(b, 0))

    def __str__(self):
        """sympy's ``sstr(cancel(self), order="lex")``."""
        num, i, j = self.num, self.i, self.j
        if not num:
            return "0"
        if not i and not j:
            return _sum_str(num)
        # P / Q with P = L*N over Z, Q = L * r^i * y2^j: the content of N is
        # gcd(numerators)/L with L the lcm of the denominators, so P and Q
        # are coprime.  sympy keeps L apart from a monomial Q.
        den = lcm(*(c.denominator for c in num.values()))
        p = {m: c.numerator * (den // c.denominator) for m, c in num.items()}
        if i:
            q = _shift(_pmul({_UNIT: den}, _r_power(i)), j, 5)
            denom, den = [f"({_sum_str(q)})"], 1
        else:
            denom = ["y2" if j == 1 else f"y2**{j}"]
        if len(p) > 1:
            return _product("", [f"({_sum_str(p)})"],
                            ([str(den)] if den != 1 else []) + denom)
        (m, c), = p.items()
        if m == _UNIT and c == den and not i and j > 1:  # sympy's Pow
            return f"y2**(-{j})"
        return _mul_str(Fraction(c, den), m, denom)


def _reduced(num, i, j):
    """The canonical component equal to num / (r^i * y2^j)."""
    if not num:
        return _ZERO
    if j:
        k = min(j, min(m[5] for m in num))
        if k:
            num, j = _shift(num, -k, 5), j - k
    while i and (q := _div_r(num)) is not None:
        num, i = q, i - 1
    return Component(num, i, j)


_ZERO = Component({})
_R = Component(_r_power(1))  # r = a0^2 + y1 = s1^2
_Y2 = Component({(0, 0, 0, 0, 0, 1): 1})


def _product(sign, numer, denom):
    """sign * prod(numer) / prod(denom) as sympy prints a Mul."""
    out = sign + "*".join(numer or ["1"])
    if not denom:
        return out
    return out + "/" + (denom[0] if len(denom) == 1
                        else "(" + "*".join(denom) + ")")


def _mul_str(coeff, m, denom=()):
    """coeff * m / prod(denom) as sympy prints it."""
    numer = [str(abs(coeff.numerator))] if abs(coeff.numerator) != 1 else []
    numer += [n if e == 1 else f"{n}**{e}" for n, e in zip(_NAMES, m) if e]
    denom = ([str(coeff.denominator)] if coeff.denominator != 1 else []) \
        + list(denom)
    return _product("-" if coeff < 0 else "", numer, denom)


def _sum_str(poly):
    """A polynomial as sympy prints an Add in lex order."""
    out = ""
    for m in sorted(poly, reverse=True):
        term = _mul_str(poly[m], m)
        if term[0] == "-":
            out += (" - " if out else "-") + term[1:]
        else:
            out += (" + " if out else "") + term
    return out


def _constant(c):
    return Component({_UNIT: Fraction(c)}) if c else _ZERO


def _norm(e):
    """``e`` as a component."""
    if isinstance(e, SurdExpression):
        if e.c10 or e.c01 or e.c11:
            raise SurdError(f"{e} has a surd part")
        return e.c00
    if isinstance(e, _PyRational):
        return _constant(e)
    raise SurdError(f"{e!r} is not a rational function of "
                    f"{', '.join(_NAMES)} over Q")


def _make(c00, c10, c01, c11):
    out = object.__new__(SurdExpression)
    out.c00, out.c10, out.c01, out.c11 = c00, c10, c01, c11
    return out


class SurdExpression:
    """c00 + c10*s1 + c01*s2 + c11*s1*s2 with canonical components."""

    __slots__ = ("c00", "c10", "c01", "c11")

    def __init__(self, c00=0, c10=0, c01=0, c11=0):
        comps = map(_norm, (c00, c10, c01, c11))
        self.c00, self.c10, self.c01, self.c11 = comps

    # -- constructors ---------------------------------------------------------

    @classmethod
    def s1(cls):
        return cls(0, 1, 0, 0)

    @classmethod
    def s2(cls):
        return cls(0, 0, 1, 0)

    @classmethod
    def of(cls, expr):
        """A surd-free expression (generator, rational, or combination)."""
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
        return _make(*(a + b for a, b in
                       zip(self._components(), other._components())))

    __radd__ = __add__

    def __neg__(self):
        return _make(*(-c for c in self._components()))

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
        r, s = _R, _Y2
        return _make(
            x00 * y00 + r * x10 * y10 + s * x01 * y01 + r * s * x11 * y11,
            x00 * y10 + x10 * y00 + s * (x01 * y11 + x11 * y01),
            x00 * y01 + x01 * y00 + r * (x10 * y11 + x11 * y10),
            x00 * y11 + x11 * y00 + x10 * y01 + x01 * y10,
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** -n
        out, base = SurdExpression.of(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- conjugates, norm, inversion -------------------------------------------

    def conj_s1(self):
        return _make(self.c00, -self.c10, self.c01, -self.c11)

    def conj_s2(self):
        return _make(self.c00, self.c10, -self.c01, -self.c11)

    def algebra_norm(self):
        """Product of the four sign-conjugates; a surd-free component."""
        z = self * self.conj_s1()
        w = z * z.conj_s2()
        if w.c10 or w.c01 or w.c11:
            raise SurdError("norm failed to rationalize")  # pragma: no cover
        return w.c00

    def inverse(self):
        n = self.algebra_norm()
        if not n:
            raise SurdError(f"{self} is not invertible (zero norm)")
        inv = n.unit_inverse()
        if inv is None:
            raise SurdError(f"{self} is not a unit: its norm ({n}) is not "
                            f"c * (a0**2 + y1)**a * y2**b")
        z = self * self.conj_s1()
        return self.conj_s1() * z.conj_s2() * _make(inv, _ZERO, _ZERO, _ZERO)

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
            if comp:
                parts.append(f"({comp})*{tag}" if tag else f"({comp})")
        return " + ".join(parts) if parts else "(0)"

    def __repr__(self):
        return f"SurdExpression[{self.canonical_str()}]"

    # -- specialization -----------------------------------------------------------

    def evaluate(self, ring, witness):
        """Exact value in a catalog ring of at most ``TABLE_BOUND`` elements
        at one witness of ``Element``s: the batch-of-one case of
        ``Specialization``.  It needs the ring's whole ``RingTable``.  Up to
        ``KERNEL_BOUND`` (125) elements ``ring_table`` keeps that for the
        process; above, the table lives only while something holds it, so
        unless the caller holds ``ring_table(ring)``, every call builds it
        anew and frees it on return: about 0.1 s and a 27 MB traced peak
        at 3125 (``cyclo(5)``) for one value.  Value many witnesses of a
        large ring through one ``Specialization``."""
        tab = ring_table(ring)  # EnumerationBoundError before any work
        if any(witness[name].ring is not ring for name in _WITNESS_NAMES):
            raise MismatchError(f"a witness is not in {ring.descriptor}")
        batch = {name: [tab.index(witness[name])] for name in _WITNESS_NAMES}
        return tab.element(int(Specialization(ring, batch)(self)[0]))

    def _terms(self, char):
        """Per component: None if it is zero, else (i, j, terms) with one
        (coefficient mod char, ((symbol number, exponent), ...)) per
        numerator term.  Rational constants have denominators prime to 5."""
        return tuple(
            (comp.i, comp.j, tuple(
                (c.numerator * pow(c.denominator, -1, char) % char,
                 tuple((v, e) for v, e in enumerate(m) if e))
                for m, c in comp.num.items()))
            if comp else None for comp in self._components())


class Specialization:
    """A batch of witnesses in one catalog ring of at most ``TABLE_BOUND``
    elements, shared by every expression valued there (module docstring).
    ``witness`` maps the symbol names a0, a1, a2, a3, y1, y2, and s1, s2 for
    the chosen square roots of a0^2 + y1 and y2, to equal-length sequences
    of indices in the ring's ``RingTable``.  A call returns the values as a
    numpy index array, one entry per witness."""

    def __init__(self, ring, witness):
        tab = self._table = ring_table(ring)  # EnumerationBoundError first
        self._char = ring.char
        MUL, SQ = tab.MUL, tab.SQ
        a0, a1, a2, a3, y1, y2, s1, s2 = (
            np.asarray(witness[name], dtype=np.int16)
            for name in _WITNESS_NAMES)
        r = tab.ADD[SQ[a0], y1]
        if (SQ[s1] != r).any():
            raise SurdError("witness s1 is not a square root of a0^2 + y1")
        if (SQ[s2] != y2).any():
            raise SurdError("witness s2 is not a square root of y2")
        one = np.full_like(r, tab.one)
        # powers of a0..y2, then of r and y2 for the denominators
        self._pows = [[one, x] for x in (a0, a1, a2, a3, y1, y2, r, y2)]
        self._surds = (one, s1, s2, MUL[s1, s2])
        self._inverses = {}

    def _power(self, v, e):
        """Power e of symbol v (6: r, 7: y2), from its table extended on
        demand."""
        seq = self._pows[v]
        while len(seq) <= e:
            seq.append(self._table.MUL[seq[-1], seq[1]])
        return seq[e]

    def _inverse(self, i, j):
        """The inverse of r^i * y2^j, one ``INV`` gather per (i, j)
        (NotAUnitError if it is not a unit at some witness)."""
        inv = self._inverses.get((i, j))
        if inv is None:
            tab = self._table
            inv = tab.INV[tab.MUL[self._power(6, i), self._power(7, j)]]
            if (inv < 0).any():
                raise NotAUnitError(f"r^{i} * y2^{j} is not a unit at every "
                                    f"witness of {tab.ring.descriptor}")
            self._inverses[i, j] = inv
        return inv

    def __call__(self, expr):
        """The values of ``expr`` here: each nonzero component is its
        numerator terms times the inverse of its denominator r^i * y2^j."""
        tab = self._table
        MUL, ADD = tab.MUL, tab.ADD
        one = self._surds[0]
        total = np.zeros_like(one)  # index 0 is the zero element
        for plan, surd in zip(expr._terms(self._char), self._surds):
            if plan is None:
                continue
            i, j, terms = plan
            numer = np.zeros_like(one)
            for c, monom in terms:
                term = np.full_like(one, tab.from_int(c))
                for v, e in monom:
                    term = MUL[term, self._power(v, e)]
                numer = ADD[numer, term]
            total = ADD[total, MUL[MUL[numer, self._inverse(i, j)], surd]]
        return total


def _coerce(x):
    if isinstance(x, SurdExpression):
        return x
    if isinstance(x, _PyRational):
        return _make(_constant(x), _ZERO, _ZERO, _ZERO)
    return NotImplemented


def _generator(k):
    return _make(Component({_UNIT[:k] + (1,) + _UNIT[k + 1:]: 1}),
                 _ZERO, _ZERO, _ZERO)


A0, A1, A2, A3, Y1, Y2 = SYMBOLS = tuple(map(_generator, range(6)))
