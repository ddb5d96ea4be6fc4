"""Finite Artinian local rings with residue characteristic 5.

Rings come from a fixed constructor catalog:

    F5                          the prime field
    F25                         the quadratic extension F5[w]/(w^2 - 2)
    Z/5^n                       truncated Witt vectors (n >= 1)
    <base>[e]/(e^m)             nilpotent extension by a fresh generator
    cyclo(m)                    Z[u]/(Phi5(1+u), u^m)

Every ring is stored as a free presentation: a monomial basis, integer
structure constants for basis products, and the additive order ``diag[j]``
of each basis vector, so elements are canonical coordinate vectors with
0 <= c[j] < diag[j], reduced componentwise.  The invariants come in closed
form from the constructors:

* moduli: cyclo(m) = Z5[zeta5]/(u^m) with u = y - 1 a uniformiser and
  u^4 in 5*R^x, so coordinate u^i has modulus 5^ceil((m - i)/4); a tower
  B[e]/(e^m) is m copies of B;
* nilpotency index: 1 for F5 and F25, n for Z/5^n, m for cyclo(m), and
  e_B + m - 1 for B[e]/(e^m);
* residue field: on the first coordinates, so the residue of an element is
  its first ``residue_ring.dim`` coordinates mod 5, and the section pads a
  residue-field vector with zeros.

Two scalar kernels share the one ``Element`` type, chosen by cardinality.  A
ring of at most ``KERNEL_BOUND`` elements does its arithmetic by lookups in
list copies of its ``RingTable`` (built on the first operation, through the
one table cache, which keeps the tables of such rings for the process): each
element carries its table index, and ``+ - * neg inv sqrt residue`` return
interned elements.
Larger rings multiply through the sparse structure constants and lift
inverses and square roots from the residue field by Newton iteration.  At
625 elements the list tables would cost 10-16 ms of ``tolist`` and about
8 MB each, more than the scalar work they would save there.  Series
(``defo5.series``) store raw coefficients and bypass ``Element``: on a
kernel they chain the ``MUL``/``ADD``/``SUB`` rows on table indices, and on
a larger ring they accumulate unreduced coordinate vectors through
``_mul_rows`` and call ``reduce`` once per coefficient.  The unit, inverse,
square-root and nilpotency tests inside ``Element`` compare coordinates,
not ``Element``s, so the constant terms a series inverts cost no ``==``.

The residue field, F5 or F25, is just another table.  Every ring, a field
being its own residue field, reads residue inverses from the ``INV`` and
residue square roots from the ``roots`` of its residue field's
``RingTable`` (through ``ring_table``, the one table cache, which keeps
both residue fields' tables for the process: they have at most
``KERNEL_BOUND`` elements), by residue index.  A table index is the
mixed-radix rank of the canonical coordinates, first coordinate most
significant, so ascending index order is the lexicographic order of
coordinates: the first entry of ``roots[i]`` is the root with the
lexicographically smallest coordinates, the principal branch.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property, lru_cache
from operator import add, mod, mul, sub

ENUMERATION_BOUND = 1 << 24

# Rings with at most this many elements use the table kernel (module docstring).
KERNEL_BOUND = 125

# Descriptor bounds, checked before anything is built.  Numerals have at most
# MAX_DIGITS digits (descriptors and element literals alike); Z/5^n needs
# n <= MAX_ZMOD_EXPONENT; the whole ring has at most MAX_DIM basis elements,
# which also bounds every nilpotent exponent by MAX_DIM: the structure
# constants have dim^3 entries, built in about 3 ms for F5[e]/(e^32) and
# growing as dim^3 (the nilpotency index is a closed form, not searched).
MAX_DIGITS = 18
MAX_ZMOD_EXPONENT = 1000
MAX_DIM = 32

# Phi5(1+u) = 5 + 10u + 10u^2 + 5u^3 + u^4
_PHI5_SHIFTED = (5, 10, 10, 5, 1)


class RingError(Exception):
    """Base class for ring-level failures."""


class DescriptorError(RingError):
    """The descriptor string does not parse or is out of documented bounds."""


class MismatchError(RingError):
    """Operands belong to different rings."""


class NotAUnitError(RingError):
    """Inversion (or square root) of a non-unit was requested."""


class NoSquareRootError(RingError):
    """The residue of the element is not a nonzero square."""


class EnumerationBoundError(RingError):
    """Enumeration was requested beyond the configured cardinality bound."""


class Ring:
    """A finite Artinian local ring from the constructor catalog."""

    def __init__(self, descriptor, basis, mul_basis, diag, residue_ring,
                 nilpotency_index, generators):
        self.descriptor = descriptor
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.mul_basis = mul_basis  # dim x dim table of canonical vectors
        self.diag = tuple(diag)
        # sparse structure constants: the nonzero (k, v) of each basis product
        self._mul_rows = tuple(
            tuple(tuple((k, v) for k, v in enumerate(vec) if v) for vec in row)
            for row in mul_basis)
        # a field, passed residue_ring None, is its own residue ring
        self.residue_ring = residue_ring or self
        self.nilpotency_index = nilpotency_index
        self._generator_vecs = dict(generators)
        # mixed-radix weights, first coordinate most significant: an
        # element's index in enumerate() order and in the ring's table
        weights = [1] * self.dim
        for j in range(self.dim - 2, -1, -1):
            weights[j] = weights[j + 1] * self.diag[j + 1]
        self._weights = tuple(weights)
        self.cardinality = weights[0] * self.diag[0]
        self._indexed = self.cardinality <= KERNEL_BOUND
        self.zero = Element(self, (0,) * self.dim)
        self.one = Element(self, (1,) + (0,) * (self.dim - 1))
        # 1 is the first basis vector, so the characteristic is diag[0]
        self.char = self.diag[0]

    # -- structure, computed on first use ----------------------------------------

    @cached_property
    def _kernel(self):
        """The table kernel of a ring of at most KERNEL_BOUND elements, else
        None.  Never touched while ``__init__`` runs, so the table is built
        from a finished ring."""
        if not self._indexed:
            return None
        return _Kernel(self, ring_table(self))

    # -- canonical form --------------------------------------------------------

    def reduce(self, vec):
        return tuple(map(mod, vec, self.diag))

    # -- element construction --------------------------------------------------

    def _residue(self, coords):
        """The residue-field image of a coordinate vector: its first
        coordinates (module docstring)."""
        k = self.residue_ring
        return Element(k, k.reduce(coords[:k.dim]))

    def element(self, coords):
        if len(coords) != self.dim:
            raise RingError("coordinate vector has wrong length")
        return Element(self, self.reduce(coords))

    def from_int(self, n):
        kern = self._kernel
        if kern is not None:
            return kern.els[n % self.char * self._weights[0]]
        vec = [0] * self.dim
        vec[0] = n
        return Element(self, self.reduce(vec))

    def generator(self, name):
        try:
            return Element(self, self._generator_vecs[name])
        except KeyError:
            raise DescriptorError(
                f"ring {self.descriptor!r} has no generator {name!r}") from None

    def section(self, res):
        """A multiplicative-basis lift of a residue-field element."""
        if res.ring is not self.residue_ring:
            raise MismatchError("section argument must live in the residue field")
        return Element(self, res.coords + (0,) * (self.dim - len(res.coords)))

    # -- enumeration -----------------------------------------------------------

    def enumerate(self, which="all"):
        """Yield ring elements in the deterministic mixed-radix order.

        ``which`` is one of ``all``, ``maximal-ideal``, ``units``.
        """
        if self.cardinality > ENUMERATION_BOUND:
            raise EnumerationBoundError(
                f"cardinality {self.cardinality} exceeds bound {ENUMERATION_BOUND}")
        if which not in ("all", "maximal-ideal", "units"):
            raise RingError(f"unknown enumeration filter {which!r}")
        for coords in itertools.product(*(range(d) for d in self.diag)):
            el = Element(self, coords)
            if which == "all" or el.is_unit() == (which == "units"):
                yield el

    @cached_property
    def _half(self):
        return self.from_int(2).inv()

    def __repr__(self):
        return f"Ring({self.descriptor!r})"


class Element:
    """An element of a catalog ring: its canonical coordinate vector and, in a
    ring of at most KERNEL_BOUND elements, its table index."""

    __slots__ = ("ring", "coords", "_i")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = coords = tuple(coords)
        self._i = sum(map(mul, coords, ring._weights)) if ring._indexed else None

    def _check(self, other):
        """An operand that is not an element of this ring, coerced."""
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, Element):
            raise MismatchError(
                f"elements of {self.ring.descriptor!r} and {other.ring.descriptor!r}")
        return NotImplemented

    def __add__(self, other):
        ring = self.ring
        if other.__class__ is not Element or other.ring is not ring:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        kern = ring._kernel
        if kern is not None:
            return kern.els[kern.ADD[self._i][other._i]]
        return Element(ring, ring.reduce(map(add, self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        ring = self.ring
        if other.__class__ is not Element or other.ring is not ring:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        kern = ring._kernel
        if kern is not None:
            return kern.els[kern.SUB[self._i][other._i]]
        return Element(ring, ring.reduce(map(sub, self.coords, other.coords)))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        kern = self.ring._kernel
        if kern is not None:
            return kern.els[kern.NEG[self._i]]
        return Element(self.ring, self.ring.reduce([-a for a in self.coords]))

    def __mul__(self, other):
        ring = self.ring
        kern = ring._kernel
        if other.__class__ is not Element or other.ring is not ring:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        if kern is not None:
            return kern.els[kern.MUL[self._i][other._i]]
        a, b = self.coords, other.coords
        acc = [0] * ring.dim
        for ai, row in zip(a, ring._mul_rows):
            if ai:
                for bj, terms in zip(b, row):
                    if bj:
                        c = ai * bj
                        for k, v in terms:
                            acc[k] += c * v
        return Element(ring, ring.reduce(acc))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        elif not isinstance(other, Element):
            return NotImplemented
        return other.ring is self.ring and other.coords == self.coords

    def __hash__(self):
        return hash((self.ring.descriptor, self.coords))

    def residue(self):
        ring = self.ring
        kern = ring._kernel
        if kern is not None:
            return kern.res[self._i]
        return ring._residue(self.coords)

    def is_unit(self):
        return any(self.residue().coords)

    def in_maximal_ideal(self):
        return not self.is_unit()

    def nilpotency_order(self):
        """Least n with self**n == 0; raises for units."""
        if self.is_unit():
            raise NotAUnitError("units are not nilpotent")
        x = self
        n = 1
        while any(x.coords):
            x = x * self
            n += 1
            if n > self.ring.nilpotency_index + 1:
                raise RingError("nilpotency order overflow")
        return n

    def inv(self):
        """Exact inverse of a unit: a table lookup, or a Newton lift of the
        residue inverse from the residue field's table."""
        ring = self.ring
        kern = ring._kernel
        if kern is not None:
            j = kern.INV[self._i]
            if j < 0:
                raise NotAUnitError(f"{self} is not a unit")
            return kern.els[j]
        rtab = ring_table(ring.residue_ring)
        j = rtab.INV[self.residue()._i]
        if j < 0:
            raise NotAUnitError(f"{self} is not a unit")
        r = ring.section(rtab.element(j))
        two = ring.from_int(2)
        for _ in range(64):
            prod = self * r
            if prod.coords == ring.one.coords:
                return r
            r = r * (two - prod)
        raise RingError("unit inversion did not converge")

    def sqrt(self, branch=None):
        """Exact square root of a unit whose residue is a nonzero square.

        ``branch`` selects the residue-field root (an Element of the residue
        field, or an int for F5).  Default: the principal branch, the root
        whose residue has the lexicographically smallest canonical
        coordinates: the first of the residue's roots in the residue field's
        table (module docstring).  A kernel ring returns its root on that
        branch by residue index; a larger ring lifts the section of the
        residue root's inverse to 1/sqrt(self) by Newton iteration, which
        needs no inversion, and returns self times it.
        """
        ring = self.ring
        k = ring.residue_ring
        res = self.residue()
        if not res._i:  # index 0 is the zero element
            raise NotAUnitError("square roots are only taken of units")
        rtab = ring_table(k)
        roots = rtab.roots[res._i]  # no zero root: res is a unit
        if not roots:
            raise NoSquareRootError(
                f"residue {res} is not a nonzero square in {k.descriptor}")
        if branch is None:
            pick = roots[0]
        else:
            if isinstance(branch, int):
                branch = k.from_int(branch)
            if branch.ring is not k:
                raise MismatchError("branch must live in the residue field")
            pick = branch._i
            if pick not in roots:
                raise NoSquareRootError(
                    f"{branch} is not a square root of residue {res}")
        kern = ring._kernel
        if kern is not None:  # the one root on branch ``pick``, by Hensel
            return next(kern.els[j] for j in kern.roots[self._i]
                        if kern.res[j]._i == pick)
        # r -> r(3 - x r^2)/2 keeps r = 1/pick mod m, so x r is on branch
        r = ring.section(rtab.element(rtab.INV[pick]))
        half, three = ring._half, ring.from_int(3)
        for _ in range(64):
            root = self * r
            if (root * root).coords == self.coords:
                return root
            r = r * (three - root * r) * half
        raise RingError("square-root Newton iteration did not converge")

    def __repr__(self):
        return f"<{self} in {self.ring.descriptor}>"

    def __str__(self):
        parts = []
        for c, name in zip(self.coords, self.ring.basis):
            if not c:
                continue
            if name == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(name)
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts) if parts else "0"


class _Kernel:
    """List copies of a ring's ``RingTable`` and one interned ``Element`` per
    index: ``els[ADD[i][j]]`` is ``els[i] + els[j]``, and so on; ``INV`` is -1
    off the units, ``res[i]`` the residue of ``els[i]``, ``roots[i]`` the
    indices of the square roots of ``els[i]``."""

    __slots__ = ("els", "res", "ADD", "SUB", "MUL", "NEG", "INV", "roots")

    def __init__(self, ring, table):
        self.els = els = [Element(ring, c) for c in table.coords.tolist()]
        self.res = [ring._residue(x.coords) for x in els]
        add = table.ADD[range(table.n)]
        self.ADD, self.SUB = add.tolist(), add[:, table.NEG].tolist()
        self.MUL = table.MUL.tolist()
        self.NEG = table.NEG.tolist()
        self.INV = table.INV.tolist()
        self.roots = table.roots


# -- constructors --------------------------------------------------------------


def _make_f5():
    return Ring(
        descriptor="F5",
        basis=("1",),
        mul_basis=(((1,),),),
        diag=(5,),
        residue_ring=None,
        nilpotency_index=1,  # a field
        generators={},
    )


def _make_f25():
    # F25 = F5[w]/(w^2 - 2); 2 is a non-square mod 5.
    mul = (
        ((1, 0), (0, 1)),
        ((0, 1), (2, 0)),
    )
    return Ring(
        descriptor="F25",
        basis=("1", "w"),
        mul_basis=mul,
        diag=(5, 5),
        residue_ring=None,
        nilpotency_index=1,  # a field
        generators={"w": (0, 1)},
    )


def _make_zmod(n, f5):
    if n < 1:
        raise DescriptorError("Z/5^n needs n >= 1")
    if n == 1:
        return f5
    return Ring(
        descriptor=f"Z/5^{n}",
        basis=("1",),
        mul_basis=(((1,),),),
        diag=(5 ** n,),
        residue_ring=f5,
        nilpotency_index=n,  # the maximal ideal is (5), and 5^(n-1) != 0
        generators={},
    )


def _make_nilpotent_extension(base, name, m):
    if m < 2:
        raise DescriptorError("nilpotent extension needs exponent >= 2")
    if name in base._generator_vecs or name in ("w", "u"):
        raise DescriptorError(f"generator name {name!r} already in use")
    d = base.dim
    dim = d * m
    powers = ["1", name] + [f"{name}^{s}" for s in range(2, m)]
    basis = [b if pw == "1" else pw if b == "1" else f"{b}*{pw}"
             for pw in powers for b in base.basis]

    def product(s, i, r, j):  # e^s b_i * e^r b_j = e^(s+r) b_i b_j
        vec = [0] * dim
        if s + r < m:
            vec[(s + r) * d:(s + r + 1) * d] = base.mul_basis[i][j]
        return tuple(vec)

    mul = tuple(tuple(product(s, i, r, j) for r in range(m) for j in range(d))
                for s in range(m) for i in range(d))
    gens = {g: vec + (0,) * (dim - d) for g, vec in base._generator_vecs.items()}
    gens[name] = (0,) * d + (1,) + (0,) * (dim - d - 1)
    return Ring(
        descriptor=f"{base.descriptor}[{name}]/({name}^{m})",
        basis=basis,
        mul_basis=mul,
        diag=base.diag * m,  # m copies of B, one per power of e
        residue_ring=base.residue_ring,
        # the maximal ideal is (m_B, e), and (m_B, e)^k is the sum of the
        # m_B^i e^j with i + j = k: nonzero exactly for k <= (e_B - 1) + (m - 1)
        nilpotency_index=base.nilpotency_index + m - 1,
        generators=gens,
    )


def _cyclo_reduce_poly(coeffs, diag):
    """The canonical coordinates of an integer polynomial in u in cyclo(m):
    fold u^4 -> -5-10u-10u^2-5u^3 down to degree < 4, keep the first
    min(m, 4) = len(diag) coordinates (u^i = 0 for i >= m <= 4) and reduce
    each modulo its diag."""
    work = list(coeffs) + [0] * (4 - len(coeffs))
    while len(work) > 4:
        top = work.pop()
        k = len(work) - 4  # u^len = u^k * u^4
        for i, c in enumerate(_PHI5_SHIFTED[:4]):
            work[k + i] -= top * c
    return tuple(map(mod, work, diag))


def _make_cyclo(m, f5):
    if m < 1:
        raise DescriptorError("cyclo(m) needs m >= 1")
    if m > 8:
        raise DescriptorError("cyclo(m) supported for m <= 8 (25 = 0 there)")
    d = min(m, 4)
    # 5 = unit * u^4, so 5^k u^i = unit * u^(4k+i) is 0 exactly when 4k+i >= m
    diag = tuple(5 ** ((m - i + 3) // 4) for i in range(d))
    mul = tuple(tuple(_cyclo_reduce_poly([0] * (i + j) + [1], diag)
                      for j in range(d)) for i in range(d))
    return Ring(
        descriptor=f"cyclo({m})",
        basis=tuple("1" if i == 0 else ("u" if i == 1 else f"u^{i}")
                    for i in range(d)),
        mul_basis=mul,
        diag=diag,
        residue_ring=f5,
        nilpotency_index=m,  # u is a uniformiser and u^m = 0 != u^(m-1)
        generators={"u": (0, 1) + (0,) * (d - 2)} if m > 1 else {},
    )


# -- descriptor grammar ---------------------------------------------------------

_ATOM_RE = re.compile(
    r"^(?:(F5|F25)|Z/5\^(\d+)|Z/(\d+)|cyclo\((\d+)\))")
_SUFFIX_RE = re.compile(r"^\[([A-Za-z][A-Za-z0-9]*)\]/\(([A-Za-z][A-Za-z0-9]*)\^(\d+)\)")


def _numeral(text):
    if len(text) > MAX_DIGITS:
        raise DescriptorError(f"numeral longer than {MAX_DIGITS} digits")
    return int(text)


@lru_cache(maxsize=None)
def build_ring(descriptor: str) -> Ring:
    """Build a catalog ring from its descriptor string.

    Grammar: ``F5``, ``F25``, ``Z/5^<n>`` (also ``Z/<5^n>`` literals),
    ``cyclo(<m>)``, and nilpotent extensions ``<base>[e]/(e^<m>)``.
    Every spelling of a ring (spaces, ``Z/25`` for ``Z/5^2``, leading zeros)
    returns the one object interned under its canonical descriptor: rings
    compare by identity, and ``Ring`` defines no equality of its own.  The whole
    descriptor is parsed and checked against the bounds ``MAX_DIGITS``,
    ``MAX_ZMOD_EXPONENT`` and ``MAX_DIM`` before any ring is constructed.
    """
    text = descriptor.replace(" ", "")
    m = _ATOM_RE.match(text)
    if not m:
        raise DescriptorError(f"cannot parse ring descriptor {descriptor!r}")
    suffixes = []
    rest = text[m.end():]
    while rest:
        sm = _SUFFIX_RE.match(rest)
        if not sm:
            raise DescriptorError(f"cannot parse ring descriptor {descriptor!r}")
        name, name2, power = sm.group(1), sm.group(2), _numeral(sm.group(3))
        if name != name2:
            raise DescriptorError(
                f"generator names disagree in {descriptor!r}: {name} vs {name2}")
        suffixes.append((name, power))
        rest = rest[sm.end():]
    atom, zexp, zlit, cyclo_m = m.groups()
    if zlit is not None:
        q = _numeral(zlit)
        e = 0
        while q > 1 and q % 5 == 0:
            q //= 5
            e += 1
        if q != 1 or e < 1:
            raise DescriptorError(f"Z/<n> must have n a power of 5: {descriptor!r}")
    elif zexp is not None:
        e = _numeral(zexp)
        if e > MAX_ZMOD_EXPONENT:
            raise DescriptorError(f"Z/5^{e}: exponent exceeds {MAX_ZMOD_EXPONENT}")
    if cyclo_m is not None:
        cyclo_m = _numeral(cyclo_m)
    dim = 2 if atom == "F25" else min(cyclo_m or 1, 4)
    for _, power in suffixes:
        dim *= power
    if dim > MAX_DIM:
        raise DescriptorError(f"{descriptor!r} has dimension {dim} > {MAX_DIM}")

    if atom == "F5":
        ring = _F5
    elif atom == "F25":
        ring = _F25
    elif cyclo_m is not None:
        ring = _make_cyclo(cyclo_m, _F5)
    else:
        ring = _make_zmod(e, _F5)
    for name, power in suffixes:
        ring = _make_nilpotent_extension(ring, name, power)
    return _RINGS.setdefault(ring.descriptor, ring)


_F5 = _make_f5()
_F25 = _make_f25()
_RINGS = {"F5": _F5, "F25": _F25}  # canonical descriptor -> the ring

# tables imports this module, so the one table cache is bound last
from .tables import ring_table  # noqa: E402
