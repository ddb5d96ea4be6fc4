"""Truncated formal power series over catalog rings.

A :class:`TruncatedSeries` stores exactly ``prec`` coefficients and means "I
know this element of A[[t]] exactly modulo t^prec".  Every operation reports
a result precision that is justified by what the inputs guarantee:

* add/sub/mul: ``min`` of the input precisions;
* composition g(f): ``min(prec(g) - (n0 - 1), prec(f))`` where n0 is the
  nilpotency order of the constant term of f (no loss at all when that
  constant term is exactly zero);
* compositional inverse: ``prec - 2*(e - 1)`` with e the ring's nilpotency
  index (a safe, not tight, constant).

Coefficient recurrences are used for division and square root, Horner for
composition, and Newton iteration for the compositional inverse.  In debug
builds every div/sqrt result is re-multiplied and checked exactly.
"""

from __future__ import annotations

import re
import struct
from itertools import zip_longest

from .artin.literals import LiteralError, _Parser
from .artin.rings import (Element, MismatchError, NotAUnitError, Ring,
                          RingError, build_ring)


class PrecisionError(RingError):
    """An operation cannot guarantee at least one exact coefficient."""


def _coerce(ring, c):
    if isinstance(c, Element):
        if c.ring != ring:
            raise MismatchError("coefficient from a different ring")
        return c
    if isinstance(c, int):
        return ring.from_int(c)
    raise TypeError(f"cannot use {c!r} as a series coefficient")


class TruncatedSeries:
    __slots__ = ("ring", "coeffs", "prec")

    def __init__(self, ring: Ring, coeffs, prec=None):
        coeffs = tuple(_coerce(ring, c) for c in coeffs)
        if prec is not None:
            if prec < len(coeffs):
                coeffs = coeffs[:prec]
            elif prec > len(coeffs):
                coeffs = coeffs + tuple([ring.zero] * (prec - len(coeffs)))
        self._set(ring, coeffs)

    def _set(self, ring, coeffs):
        if not coeffs:
            raise PrecisionError("a series needs precision >= 1")
        self.ring = ring
        self.coeffs = coeffs
        self.prec = len(coeffs)

    @classmethod
    def _of(cls, ring, coeffs):
        """The series with these coefficients, already Elements of ``ring``
        (results of this module's arithmetic), taken without coercion."""
        self = cls.__new__(cls)
        self._set(ring, tuple(coeffs))
        return self

    # -- constructors ----------------------------------------------------------

    @classmethod
    def constant(cls, ring, value, prec):
        return cls(ring, [value], prec=prec)

    @classmethod
    def t(cls, ring, prec):
        return cls(ring, [0, 1], prec=prec)

    @classmethod
    def zero(cls, ring, prec):
        return cls(ring, [], prec=prec)

    # -- basics ----------------------------------------------------------------

    def __getitem__(self, i):
        return self.coeffs[i]

    def _join(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.ring, other, self.prec)
        if other.ring != self.ring:
            raise MismatchError("series over different rings")
        return other, min(self.prec, other.prec)

    def truncate(self, prec):
        if prec > self.prec:
            raise PrecisionError(
                f"cannot truncate a prec-{self.prec} series to prec {prec}")
        return TruncatedSeries._of(self.ring, self.coeffs[:prec])

    def exact_extension(self, prec):
        """Reinterpret the stored coefficients as the *whole* series and pad
        with zeros.  Only sound when the series is known to be a polynomial."""
        if prec < self.prec:
            return self.truncate(prec)
        return TruncatedSeries(self.ring, self.coeffs, prec=prec)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.ring == other.ring and self.prec == other.prec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring.descriptor, self.coeffs))

    def agrees_with(self, other, prec=None):
        """Coefficient-wise equality on the common guaranteed range."""
        other, p = self._join(other)
        if prec is not None:
            if prec > p:
                raise PrecisionError(f"agreement check beyond precision {p}")
            p = prec
        return self.coeffs[:p] == other.coeffs[:p]

    def is_zero(self):
        z = self.ring.zero
        return all(c == z for c in self.coeffs)

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        other, p = self._join(other)
        return TruncatedSeries._of(self.ring, [
            a + b for a, b in zip(self.coeffs[:p], other.coeffs[:p])])

    __radd__ = __add__

    def __sub__(self, other):
        other, p = self._join(other)
        return TruncatedSeries._of(self.ring, [
            a - b for a, b in zip(self.coeffs[:p], other.coeffs[:p])])

    def __rsub__(self, other):
        other, _ = self._join(other)
        return other - self

    def __neg__(self):
        return TruncatedSeries._of(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Element) or isinstance(other, int):
            c = _coerce(self.ring, other)
            return TruncatedSeries._of(self.ring, [a * c for a in self.coeffs])
        other, p = self._join(other)
        return TruncatedSeries._of(
            self.ring, _mul_raw(self.ring, self.coeffs, other.coeffs, p))

    __rmul__ = __mul__

    def div(self, other):
        """self / other, requiring a unit constant term in ``other``."""
        other, p = self._join(other)
        result = TruncatedSeries._of(
            self.ring, _div_raw(self.ring, self.coeffs, other.coeffs, p))
        if __debug__:
            assert (result * other).agrees_with(self, p)
        return result

    def inverse_unit(self):
        return TruncatedSeries.constant(self.ring, 1, self.prec).div(self)

    def sqrt(self, branch=None):
        """Square root with the given residue-field branch for the constant
        term; the result squares back to ``self`` exactly at this precision."""
        r0 = self.coeffs[0].sqrt(branch)
        inv_2r0 = (r0 + r0).inv()
        r = [r0]
        for n in range(1, self.prec):
            acc = self.coeffs[n]
            for i in range(1, n):
                acc = acc - r[i] * r[n - i]
            r.append(acc * inv_2r0)
        result = TruncatedSeries._of(self.ring, r)
        if __debug__:
            assert (result * result).agrees_with(self)
        return result

    # -- calculus and composition --------------------------------------------------

    def derivative(self):
        if self.prec < 2:
            raise PrecisionError("derivative needs precision >= 2")
        return TruncatedSeries._of(
            self.ring, [self.coeffs[i] * i for i in range(1, self.prec)])

    def compose(self, inner):
        """self(inner(t)); the constant term of ``inner`` must be nilpotent."""
        inner, p = self._join(inner)
        c0 = inner.coeffs[0]
        if c0 == self.ring.zero:
            loss = 0
        else:
            if c0.is_unit():
                raise RingError(
                    "composition needs a nilpotent constant term in the inner series")
            loss = c0.nilpotency_order() - 1
        prec_out = min(self.prec - loss, inner.prec)
        if prec_out < 1:
            raise PrecisionError("composition result would have precision < 1")
        out = _compose_raw(self.ring, self.coeffs, inner.coeffs[:p], p)
        return TruncatedSeries._of(self.ring, out[:prec_out])

    def comp_inverse(self):
        """Compositional inverse; needs nilpotent c0 and unit c1."""
        ring = self.ring
        c0, c1 = self.coeffs[0], self.coeffs[1]
        if c0.is_unit():
            raise RingError("compositional inverse needs nilpotent constant term")
        if not c1.is_unit():
            raise NotAUnitError("compositional inverse needs a unit linear coefficient")
        e = ring.nilpotency_index
        prec_out = self.prec - 2 * (e - 1)
        if prec_out < 1:
            raise PrecisionError("compositional inverse would have precision < 1")
        P = self.prec
        g = list(self.coeffs)
        gp = _derivative_raw(ring, g, P)
        inv_c1 = c1.inv()
        # h0 = (t - c0)/c1 makes g(h0) = t + (higher filtration) exactly.
        h = [(-c0) * inv_c1, inv_c1] + [ring.zero] * (P - 2)
        tvec = [ring.zero, ring.one] + [ring.zero] * (P - 2)
        for _ in range(8 * (P + e)):
            err = _sub_raw(_compose_raw(ring, g, h, P), tvec)
            if all(c == ring.zero for c in err):
                break
            denom = _compose_raw(ring, gp, h, P)
            delta = _div_raw(ring, err, denom, P)
            h = _sub_raw(h, delta)
        else:
            raise RingError("compositional-inverse Newton iteration stalled")
        result = TruncatedSeries._of(ring, h[:prec_out])
        if __debug__:
            check = self.compose(result)
            assert check.agrees_with(TruncatedSeries.t(ring, check.prec))
        return result

    def t_order(self):
        """Least i with a nonzero coefficient, or None when the series
        vanishes at this precision (read: t-order >= prec)."""
        z = self.ring.zero
        for i, c in enumerate(self.coeffs):
            if c != z:
                return i
        return None

    def shift_down(self, k=1):
        """Divide by t^k; the dropped coefficients must vanish."""
        z = self.ring.zero
        if any(c != z for c in self.coeffs[:k]):
            raise RingError(f"series is not divisible by t^{k}")
        if self.prec - k < 1:
            raise PrecisionError("shift would drop below precision 1")
        return TruncatedSeries._of(self.ring, self.coeffs[k:])

    # -- text and binary forms -------------------------------------------------

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.ring.zero:
                continue
            lit = str(c)
            if "+" in lit or "-" in lit:
                lit = f"({lit})"
            if i == 0:
                parts.append(lit)
            else:
                tpow = "t" if i == 1 else f"t^{i}"
                parts.append(tpow if lit == "1" else f"{lit}*{tpow}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} @prec={self.prec}"

    def __repr__(self):
        return f"TruncatedSeries({self.ring.descriptor!r}, {self})"

    @classmethod
    def from_literal(cls, ring, text):
        return _parse_series(ring, text)

    MAGIC = b"TS05"

    def to_bytes(self):
        desc = self.ring.descriptor.encode()
        head = self.MAGIC + struct.pack("<HIH", len(desc), self.prec, self.ring.dim)
        body = b"".join(struct.pack("<%dQ" % self.ring.dim, *c.coords)
                        for c in self.coeffs)
        return head + desc + body

    @classmethod
    def from_bytes(cls, data):
        if data[:4] != cls.MAGIC:
            raise RingError("bad series magic")
        try:
            dlen, prec, dim = struct.unpack_from("<HIH", data, 4)
            off = 4 + 8
            ring = build_ring(data[off:off + dlen].decode())
        except (struct.error, UnicodeDecodeError) as exc:
            raise RingError(f"malformed series header: {exc}") from None
        if ring.dim != dim:
            raise RingError("series dimension does not match ring")
        off += dlen
        if len(data) != off + 8 * dim * prec:
            raise RingError("series data length does not match its header")
        coeffs = []
        for _ in range(prec):
            coords = struct.unpack_from("<%dQ" % dim, data, off)
            off += 8 * dim
            coeffs.append(Element(ring, ring.reduce(coords)))
        return cls._of(ring, coeffs)


# -- raw fixed-length helpers (no precision semantics) ---------------------------


def _mul_raw(ring, a, b, p):
    # zero terms are skipped by comparing coordinate tuples, which costs no
    # Python-level Element.__eq__ call
    zero = ring.zero
    z = zero.coords
    out = [zero] * p
    nonzero_b = [(j, bj) for j, bj in enumerate(b[:p]) if bj.coords != z]
    for i, ai in enumerate(a[:p]):
        if ai.coords == z:
            continue
        for j, bj in nonzero_b:
            if i + j >= p:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def _sub_raw(a, b):
    return [x - y for x, y in zip(a, b)]


def _compose_raw(ring, g, f, p):
    zero = ring.zero
    out = [zero] * p
    for gi in reversed(list(g)):
        out = _mul_raw(ring, out, f, p)
        out[0] = out[0] + gi
    return out


def _derivative_raw(ring, g, p):
    out = [g[i] * i for i in range(1, len(g))]
    out = out + [ring.zero] * (p - len(out))
    return out[:p]


def _div_raw(ring, f, g, p):
    inv_g0 = g[0].inv()
    q = []
    for n in range(p):
        acc = f[n] if n < len(f) else ring.zero
        for i in range(1, n + 1):
            if i < len(g):
                acc = acc - g[i] * q[n - i]
        q.append(acc * inv_g0)
    return q


# -- series literal parsing -------------------------------------------------------

_PREC_RE = re.compile(r"@\s*prec\s*=\s*(\d{1,18})\s*$")

# A series literal never has more than MAX_DEGREE + 1 coefficients: a larger
# @prec, or (without @prec) a product of larger formal degree, is refused
# before any work is done.
MAX_DEGREE = 1024


class _SeriesParser(_Parser):
    """The element-literal parser over A[t]: values are coefficient lists,
    cut at the declared precision ``prec`` (None: kept whole)."""

    what = "series literal"

    def __init__(self, ring, prec):
        super().__init__(ring)
        self.prec = prec

    def leaf(self, tok):
        if tok == "t":
            return [self.ring.zero, self.ring.one]
        return [super().leaf(tok)]

    def add(self, a, b):
        zero = self.ring.zero
        return [x + y for x, y in zip_longest(a, b, fillvalue=zero)]

    def neg(self, a):
        return [-x for x in a]

    def mul(self, a, b):
        n = len(a) + len(b) - 1
        if self.prec is not None:
            n = min(n, self.prec)
        elif n > MAX_DEGREE + 1:
            raise LiteralError(
                f"series literal without @prec has degree > {MAX_DEGREE}")
        return _mul_raw(self.ring, a, b, n)


def _parse_series(ring, text):
    prec = None
    m = _PREC_RE.search(text)
    if m:
        prec = int(m.group(1))
        if not 1 <= prec <= MAX_DEGREE + 1:
            raise LiteralError(f"@prec must lie in 1..{MAX_DEGREE + 1}")
        text = text[:m.start()]
    poly = _SeriesParser(ring, prec).parse(text)
    return TruncatedSeries(ring, poly, prec=prec or len(poly))
