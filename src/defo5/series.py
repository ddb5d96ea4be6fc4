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

Callers read the result precision off ``prec`` and do not re-derive it; a
check past it raises ``PrecisionError``.

Coefficient recurrences are used for division and square root, Horner for
composition, and Newton iteration for the compositional inverse.  In debug
builds every div/sqrt/comp_inverse result is re-multiplied (re-composed) and
checked exactly.

What is stored.  A series holds its coefficients in raw form only.  In a
ring with a table kernel (at most ``KERNEL_BOUND`` elements) a raw
coefficient is its table index, and every sum of products is a chain of
``MUL``/``ADD`` lookups.  In a larger ring it is its canonical coordinate
tuple: a sum of products is accumulated as an unreduced integer vector and
reduced once, which is exact because coordinatewise reduction mod ``diag``
is a homomorphism from Z^dim.  There is one product: each operation
expands, once, the multiplication matrix of every nonzero coefficient of
one factor (of the second factor of a product, of the inner series of a
composition for all its Horner steps, of the divisor of a division or
square root and of the unit that closes each recurrence step) from the
sparse structure constants, and each product by that coefficient is then
one pass over the other coefficient's nonzero coordinates.
Every operation, from ``+`` to ``comp_inverse``, ``==`` and ``t_order``,
maps raw lists to raw lists.

When ``Element``s appear.  Only at the API edge: the constructor coerces its
arguments, and ``coeffs`` (also ``s[i]``, ``str``, ``to_bytes``) builds the
tuple of ``Element``s on first use and caches it; on a kernel ring those
are the interned elements.  The few constant terms that must be inverted,
square-rooted or tested for nilpotency go through ``Element.inv``,
``Element.sqrt`` and ``Element.nilpotency_order``, so both raw forms raise
the same errors.

Horner by valuation.  To compose g(f) to p terms when f has t-order v >= 1,
the k-th Horner accumulator is multiplied by f^k = O(t^(v*k)), so only its
first p - v*k terms matter, and only the g_k with v*k < p take part.  Step
k then costs about (p - k)^2 / 2 coefficient products for v = 1, about
P^3/6 over a composition at precision P instead of the P^3/2 of running
every step at full width.  An inner series with a nonzero (nilpotent)
constant term keeps the full-width Horner.
"""

from __future__ import annotations

import re
import struct
from itertools import zip_longest
from operator import add, sub

from .artin.literals import LiteralError, _Parser
from .artin.rings import (Element, MismatchError, NotAUnitError, Ring,
                          RingError, build_ring)


class PrecisionError(RingError):
    """An operation cannot guarantee at least one exact coefficient."""


# Every series needs its linear coefficient, so a precision is at least 2.
MIN_PREC = 2


def require_prec(prec):
    """Refuse a working precision below MIN_PREC, naming it."""
    if prec < MIN_PREC:
        raise PrecisionError(f"precision {prec} is below {MIN_PREC}: a "
                             "series needs its linear coefficient")


def _coerce(ring, c):
    if isinstance(c, Element):
        if c.ring is not ring:
            raise MismatchError("coefficient from a different ring")
        return c
    if isinstance(c, int):
        return ring.from_int(c)
    raise TypeError(f"cannot use {c!r} as a series coefficient")


class TruncatedSeries:
    __slots__ = ("ring", "prec", "_raw", "_coeffs")

    def __init__(self, ring: Ring, coeffs, prec=None):
        raw = _raw(ring, [_coerce(ring, c) for c in coeffs])
        if prec is not None:
            if prec < len(raw):
                raw = raw[:prec]
            elif prec > len(raw):
                raw += [_zero(ring)] * (prec - len(raw))
        self._set(ring, raw)

    def _set(self, ring, raw):
        if not raw:
            raise PrecisionError("a series needs precision >= 1")
        self.ring = ring
        self.prec = len(raw)
        self._raw = raw
        self._coeffs = None

    @classmethod
    def _of(cls, ring, raw):
        """The series with this raw coefficient list (results of this
        module's arithmetic), taken as it is: the caller hands it over."""
        self = cls.__new__(cls)
        self._set(ring, raw)
        return self

    @property
    def coeffs(self):
        """The coefficients as a tuple of ``Element``s, built on first use."""
        coeffs = self._coeffs
        if coeffs is None:
            coeffs = self._coeffs = tuple(_elements(self.ring, self._raw))
        return coeffs

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
        if other.ring is not self.ring:
            raise MismatchError("series over different rings")
        return other, min(self.prec, other.prec)

    def truncate(self, prec):
        if prec > self.prec:
            raise PrecisionError(
                f"cannot truncate a prec-{self.prec} series to prec {prec}")
        return TruncatedSeries._of(self.ring, self._raw[:prec])

    def exact_extension(self, prec):
        """Reinterpret the stored coefficients as the *whole* series and pad
        with zeros.  Only sound when the series is known to be a polynomial."""
        if prec < self.prec:
            return self.truncate(prec)
        return TruncatedSeries._of(
            self.ring, self._raw + [_zero(self.ring)] * (prec - self.prec))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.ring is other.ring and self.prec == other.prec
                and self._raw == other._raw)

    def __hash__(self):
        return hash((self.ring.descriptor, tuple(self._raw)))

    def agrees_with(self, other, prec=None):
        """Coefficient-wise equality on the common guaranteed range."""
        other, p = self._join(other)
        if prec is not None:
            if prec > p:
                raise PrecisionError(f"agreement check beyond precision {p}")
            p = prec
        return self._raw[:p] == other._raw[:p]

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        other, _ = self._join(other)
        return TruncatedSeries._of(
            self.ring, _add_raw(self.ring, self._raw, other._raw))

    __radd__ = __add__

    def __sub__(self, other):
        other, _ = self._join(other)
        return TruncatedSeries._of(
            self.ring, _sub_raw(self.ring, self._raw, other._raw))

    def __neg__(self):
        ring = self.ring
        return TruncatedSeries._of(
            ring, _sub_raw(ring, [_zero(ring)] * self.prec, self._raw))

    def __mul__(self, other):
        other, p = self._join(other)
        return TruncatedSeries._of(
            self.ring, _mul_raw(self.ring, self._raw, other._raw, p))

    __rmul__ = __mul__

    def div(self, other):
        """self / other, requiring a unit constant term in ``other``."""
        other, p = self._join(other)
        ring = self.ring
        result = TruncatedSeries._of(
            ring, _div_raw(ring, self._raw, other._raw, p))
        if __debug__:
            assert (result * other).agrees_with(self, p)
        return result

    def sqrt(self, branch=None):
        """Square root with the given residue-field branch for the constant
        term; the result squares back to ``self`` exactly at this precision."""
        ring = self.ring
        r0 = _elements(ring, self._raw[:1])[0].sqrt(branch)
        u = (r0 + r0).inv()
        r = _raw(ring, (r0,))
        _recur(ring, self._raw, r, _raw(ring, (u,))[0], r, self.prec)
        result = TruncatedSeries._of(ring, r)
        if __debug__:
            assert (result * result).agrees_with(self)
        return result

    # -- calculus and composition --------------------------------------------------

    def derivative(self):
        if self.prec < 2:
            raise PrecisionError("derivative needs precision >= 2")
        return TruncatedSeries._of(self.ring,
                                   _derivative_raw(self.ring, self._raw))

    def compose(self, inner):
        """self(inner(t)); the constant term of ``inner`` must be nilpotent."""
        inner, p = self._join(inner)
        ring = self.ring
        f = inner._raw
        if f[0] == _zero(ring):
            loss = 0
        else:
            c0 = _elements(ring, f[:1])[0]
            if c0.is_unit():
                raise RingError(
                    "composition needs a nilpotent constant term in the inner series")
            loss = c0.nilpotency_order() - 1
        prec_out = min(self.prec - loss, inner.prec)
        if prec_out < 1:
            raise PrecisionError("composition result would have precision < 1")
        out = _compose_raw(ring, self._raw, f[:p], p)
        return TruncatedSeries._of(ring, out[:prec_out])

    def comp_inverse(self):
        """Compositional inverse; needs nilpotent c0 and unit c1."""
        ring = self.ring
        g = self._raw
        c0, c1 = _elements(ring, (g[0], g[1]))
        if c0.is_unit():
            raise RingError("compositional inverse needs nilpotent constant term")
        if not c1.is_unit():
            raise NotAUnitError("compositional inverse needs a unit linear coefficient")
        e = ring.nilpotency_index
        prec_out = self.prec - 2 * (e - 1)
        if prec_out < 1:
            raise PrecisionError("compositional inverse would have precision < 1")
        P = self.prec
        zero = _zero(ring)
        gp = _derivative_raw(ring, g) + [zero]
        inv_c1 = c1.inv()
        # h0 = (t - c0)/c1 makes g(h0) = t + (higher filtration) exactly.
        zeros = [zero] * (P - 2)
        h = _raw(ring, [(-c0) * inv_c1, inv_c1]) + zeros
        tvec = [zero] + _raw(ring, [ring.one]) + zeros
        for _ in range(8 * (P + e)):
            err = _sub_raw(ring, _compose_raw(ring, g, h, P), tvec)
            if all(c == zero for c in err):
                break
            denom = _compose_raw(ring, gp, h, P)
            h = _sub_raw(ring, h, _div_raw(ring, err, denom, P))
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
        return _t_order(self._raw, _zero(self.ring))

    def shift_down(self, k=1):
        """Divide by t^k; the dropped coefficients must vanish."""
        zero = _zero(self.ring)
        if any(c != zero for c in self._raw[:k]):
            raise RingError(f"series is not divisible by t^{k}")
        if self.prec - k < 1:
            raise PrecisionError("shift would drop below precision 1")
        return TruncatedSeries._of(self.ring, self._raw[k:])

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
        return cls._of(ring, _raw(ring, coeffs))


def family(ring, a, b, prec, branch=None):
    """t / sqrt(a t^2 + b) to ``prec`` terms, with the square root of b on
    the residue branch ``branch`` (default: the principal one)."""
    t = TruncatedSeries.t(ring, prec)
    body = t * t * a + TruncatedSeries.constant(ring, b, prec)
    return t.div(body.sqrt(branch))


# -- raw form (module docstring) -------------------------------------------------


def _raw(ring, coeffs):
    """The raw form of some Elements of ``ring``, as a new list."""
    if ring._kernel is not None:
        return [c._i for c in coeffs]
    return [c.coords for c in coeffs]


def _elements(ring, raw):
    """The Elements of ``ring`` with this raw form."""
    kern = ring._kernel
    if kern is not None:
        return list(map(kern.els.__getitem__, raw))
    return [Element(ring, c) for c in raw]


def _zero(ring):
    """The raw zero: index 0 on a kernel, else the zero coordinate tuple."""
    return 0 if ring._kernel is not None else ring.zero.coords


def _t_order(raw, zero):
    """The index of the first nonzero raw coefficient, or None."""
    return next((i for i, c in enumerate(raw) if c != zero), None)


def _mul(ring, a, b, p):
    """The first p coefficients of a*b, as Elements."""
    return _elements(ring, _mul_raw(ring, _raw(ring, a), _raw(ring, b), p))


def _matrix(ring, x, sign=1):
    """The multiplication matrix of sign*x on coordinate vectors: for each
    basis vector b_j, the nonzero (k, v) of sign*x*b_j, unreduced."""
    cols = [[0] * ring.dim for _ in range(ring.dim)]
    for xi, row in zip(x, ring._mul_rows):
        if xi:
            xi *= sign
            for col, terms in zip(cols, row):
                for k, v in terms:
                    col[k] += xi * v
    return [[(k, v) for k, v in enumerate(col) if v] for col in cols]


def _matrices(ring, b):
    """(j, _matrix of b_j) for the nonzero coordinate tuples b_j, in order."""
    zero = ring.zero.coords
    return [(j, _matrix(ring, y)) for j, y in enumerate(b) if y != zero]


def _mac_matrix(mx, vec, y):
    """vec += x*y, given mx = _matrix of x."""
    for yj, terms in zip(y, mx):
        if yj:
            for k, v in terms:
                vec[k] += yj * v


def _add_raw(ring, a, b):
    kern = ring._kernel
    if kern is not None:
        ADD = kern.ADD
        return [ADD[x][y] for x, y in zip(a, b)]
    return [ring.reduce(map(add, x, y)) for x, y in zip(a, b)]


def _sub_raw(ring, a, b):
    kern = ring._kernel
    if kern is not None:
        SUB = kern.SUB
        return [SUB[x][y] for x, y in zip(a, b)]
    return [ring.reduce(map(sub, x, y)) for x, y in zip(a, b)]


def _derivative_raw(ring, a):
    """The coefficients i*a_i for i >= 1."""
    kern = ring._kernel
    if kern is not None:
        MUL = kern.MUL
        return [MUL[x][ring.from_int(i)._i] for i, x in enumerate(a) if i]
    return [ring.reduce([c * i for c in x]) for i, x in enumerate(a) if i]


def _mul_raw(ring, a, b, p, c=None, b_mats=None):
    """The first p coefficients of a*b + c, with c a constant (default 0).
    On coordinate vectors ``b_mats`` may pass (j, _matrix of b_j) for the
    nonzero b_j in order; by default they are expanded here."""
    kern = ring._kernel
    if kern is not None:  # index 0 is the zero element
        MUL, ADD = kern.MUL, kern.ADD
        nonzero_b = [(j, y) for j, y in enumerate(b[:p]) if y]
        out = [0] * p
        if c is not None:
            out[0] = c
        for i, x in enumerate(a[:p]):
            if x:
                row = MUL[x]
                for j, y in nonzero_b:
                    k = i + j
                    if k >= p:
                        break
                    out[k] = ADD[out[k]][row[y]]
        return out
    zero = ring.zero.coords
    if b_mats is None:
        b_mats = _matrices(ring, b[:p])
    vecs = [[0] * ring.dim for _ in range(p)]
    if c is not None:
        vecs[0][:] = c
    for i, x in enumerate(a[:p]):
        if x != zero:
            for j, my in b_mats:
                if i + j >= p:
                    break
                _mac_matrix(my, vecs[i + j], x)
    return list(map(ring.reduce, vecs))


def _compose_raw(ring, g, f, p):
    """g(f) to p terms, by Horner truncated by the t-order v of f (module
    docstring): v = p when f = 0 to p terms, so g(f) = g[0], and a nilpotent
    constant term (v = 0) runs every step at full width."""
    zero = _zero(ring)
    v = _t_order(f[:p], zero)
    if v is None:
        v = p
    top = min(len(g) - 1, (p - 1) // v) if v else len(g) - 1
    out = [g[top]]
    f_mats = None if ring._kernel is not None else _matrices(ring, f[:p])
    for k in range(top - 1, -1, -1):
        out = _mul_raw(ring, out, f, p - v * k, g[k], f_mats)
    return out + [zero] * (p - len(out))


def _recur(ring, f, g, u, q, p):
    """Extend q to p terms by q_n = u * (f_n - sum g_i*q_(n-i)) over
    0 < i <= n with i < len(g).  Division passes q = [], square root passes
    g = q itself, so that at step n the sum stops at i = n - 1."""
    kern = ring._kernel
    if kern is not None:
        MUL, SUB, by_u = kern.MUL, kern.SUB, kern.MUL[u]
        for n in range(len(q), p):
            acc = f[n] if n < len(f) else 0
            for i in range(1, min(n + 1, len(g))):
                gi, qi = g[i], q[n - i]
                if gi and qi:
                    acc = SUB[acc][MUL[gi][qi]]
            q.append(by_u[acc])
        return q
    zero = ring.zero.coords
    mu = _matrix(ring, u)
    minus_g = [None]  # _matrix of -g_i from the first step it enters
    for n in range(len(q), p):
        vec = list(f[n] if n < len(f) else zero)
        top = min(n + 1, len(g))
        while len(minus_g) < top:  # g grows with q for a square root
            gi = g[len(minus_g)]
            minus_g.append(_matrix(ring, gi, -1) if gi != zero else None)
        for i in range(1, top):
            if minus_g[i] is not None:
                _mac_matrix(minus_g[i], vec, q[n - i])
        # reduction is a homomorphism, so vec is multiplied unreduced
        out = [0] * ring.dim
        _mac_matrix(mu, out, vec)
        q.append(ring.reduce(out))
    return q


def _div_raw(ring, f, g, p):
    """f/g to p terms; the constant term of g must be a unit."""
    u = _elements(ring, g[:1])[0].inv()  # NotAUnitError otherwise
    return _recur(ring, f, g, _raw(ring, (u,))[0], [], p)


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
        return _mul(self.ring, a, b, n)


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
