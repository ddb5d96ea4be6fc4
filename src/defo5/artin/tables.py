"""Dense index tables for exhaustive scans over small catalog rings.

Elements are identified with their rank in the deterministic enumeration
order (mixed radix over the canonical coordinate box, first coordinate most
significant).  Addition and multiplication become int16 table lookups (each
index is below ``TABLE_BOUND`` = 3125 < 2^15), which lets the exhaustive
scans run vectorized over numpy index arrays; a flat index a * n + b formed
from table values must be widened first.  For a ring of at most
``rings.KERNEL_BOUND`` elements the same table, copied to Python lists, is
also the scalar kernel of ``Element`` (see ``rings``).

``ADD`` is the Kronecker sum of the cyclic tables Z/diag[k]: as an abelian
group the ring is the product of the Z/diag[k], and ranking puts coordinate
k above all later ones, so folding the coordinates from the last one, the
table of coordinates k.. is (diag[k] x diag[k] cyclic table) * weight[k]
broadcast-added to the table of coordinates k+1.., with no carry to resolve.
Each cyclic table is a sliding window over two periods of 0..diag[k]-1.

``MUL`` is built by split columns.  Every modulus ``diag[k]`` is a power of
5, so the ranks are base-5 numerals in which coordinate k owns a run of
digits.  For n2 = 5^a dividing n, a column j = j1 * n2 + j2 with j2 < n2 has
the coordinate vector of j1 * n2 plus that of j2 with no carry: the two
summands occupy disjoint base-5 digits.  Products are additive in y,
x * y = x * y1 + x * y2, so coordinate k of the table is
U_k[i, j1] + V_k[i, j2] mod diag[k] for two narrow blocks, n x n1 and
n x n2 with n1, n2 about sqrt(n), that are already reduced.  The blocks are
products of the reduced x-side structure constants with coordinate vectors,
sums of d terms each below (max diag - 1)^2, so they are formed in int16
whenever d * (max diag - 1)^2 < 2^15 and in int64 otherwise (``Z/5^5``).
One broadcast add ranks the unreduced sums, and each coordinate then needs
one conditional subtraction of diag[k] * weight[k], where
U_k >= diag[k] - V_k.  Products come from the structure constants, so
nothing here uses ``Element`` arithmetic and a table can be built before its
ring's kernel exists.

``ring_table`` is the one table cache, weak-valued: a table lives exactly as
long as something holds it (a proof-chain scan, a conjugator search, a
``Specialization``, a caller's variable), so a scan over many rings keeps
only the tables it is still using.  Tables of rings of at most
``KERNEL_BOUND`` elements are the exception and stay for the process: their
``ADD`` and ``MUL`` take at most 62 KB, the residue fields F5 and F25 are
read by the ``inv`` and ``sqrt`` of every larger ring, and kernels copy
them.  That is decided by the ring's ``_indexed`` flag (its cardinality
against ``KERNEL_BOUND``), not by whether a kernel exists, so running a
small ring on its structure constants never rebuilds its table.
"""

from __future__ import annotations

import weakref

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rings import EnumerationBoundError, Element, Ring, RingError

TABLE_BOUND = 5 ** 5

# Table entries per row block of the carry pass, so that its temporaries stay
# in cache: about half the time of whole-table passes at 3125 elements.
_BLOCK = 1 << 17


def _kronecker_sum(diag):
    """The addition table of Z/diag[0] x ... x Z/diag[-1] on ranks: with
    the coordinates from k on folded into a table of order w, coordinate
    k - 1 contributes its cyclic table times w."""
    w = 1
    out = np.zeros((1, 1), dtype=np.int16)
    for m in reversed(diag):
        cyclic = sliding_window_view(np.arange(2 * m, dtype=np.int16) % m * w,
                                     m)[:m]
        out = (cyclic[:, None, :, None] + out[None, :, None, :]).reshape(
            m * w, m * w)
        w *= m
    return out


def _block_dtype(diag):
    """int16 when every entry of the MUL blocks, a sum of len(diag) products
    of reduced coordinates, stays below 2^15; int64 otherwise."""
    return np.int16 if len(diag) * (max(diag) - 1) ** 2 < 2 ** 15 \
        else np.int64


def _reduce(blocks, diag):
    """blocks[k] %= diag[k] in place, by a division by a scalar (numpy
    divides by an array element by element), with one quotient buffer."""
    q = np.empty_like(blocks[0])
    for k, m in enumerate(diag):
        np.floor_divide(blocks[k], m, out=q)
        q *= m
        blocks[k] -= q


def _sum_table(U, V, diag, weights):
    """The n x n1*n2 index table whose entry [i, j1 * n2 + j2] ranks the
    vector with coordinate k = (U[k, i, j1] + V[k, i, j2]) mod diag[k].

    ``U`` (d x n x n1) and ``V`` (d x n x n2) are reduced mod ``diag``, so
    each coordinate sum is below 2 * diag[k] and carries at most once, and
    each rank below 2n."""
    U = U.astype(np.int16, copy=False)
    V = V.astype(np.int16, copy=False)
    _, n, n1 = U.shape
    w = np.array(weights, dtype=np.int16)
    lo = np.einsum("k,kij->ij", w, U)[:, :, None]
    hi = np.einsum("k,kij->ij", w, V)[:, None, :]
    out = np.empty((n, n1, V.shape[2]), dtype=np.int16)
    # coordinate k carries where U_k >= diag[k] - V_k; never if it cannot
    carries = [(U[k][:, :, None], (m - V[k])[:, None, :], np.int16(m * wk))
               for k, (m, wk) in enumerate(zip(diag, weights))
               if U[k].max() + V[k].max() >= m]
    rows = max(1, _BLOCK // out[0].size)
    for a in range(0, n, rows):
        b = a + rows
        block = out[a:b]
        np.add(lo[a:b], hi[a:b], out=block)
        for u, floor, c in carries:
            block -= (u[a:b] >= floor[a:b]) * c
    return out.reshape(n, -1)


class RingTable:
    def __init__(self, ring: Ring):
        if ring.cardinality > TABLE_BOUND:
            raise EnumerationBoundError(
                f"{ring.descriptor}: cardinality {ring.cardinality} exceeds "
                f"table bound {TABLE_BOUND}")
        self.ring = ring
        n = self.n = ring.cardinality
        d = ring.dim
        weights = self._weights = ring._weights
        coords = self.coords = np.indices(ring.diag).reshape(d, -1).T.astype(np.int64)

        self.ADD = _kronecker_sum(ring.diag)
        # n2, the least power of 5 with n2^2 >= n, divides n; column
        # j = j1 * n2 + j2 has coordinates ys[:, j1] + ys[:, n1 + j2]
        n2 = 1
        while n2 * n2 < n:
            n2 *= 5
        n1 = n // n2
        dtype = _block_dtype(ring.diag)
        ys = np.concatenate([coords[::n2], coords[:n2]]).T.astype(dtype)
        mods = np.array(ring.diag, dtype=dtype)[:, None, None]
        # xs[k, i, b] = sum_a x_a S[a, b, k] mod diag[k]: coordinate k of
        # x * y is xs[k, i] . y mod diag[k]
        xs = np.einsum("ia,abk->kib", coords,
                       np.array(ring.mul_basis, dtype=np.int64))
        xs = (xs % mods).astype(dtype)
        blocks = np.einsum("kib,bj->kij", xs, ys)
        _reduce(blocks, ring.diag)
        mul = self.MUL = _sum_table(blocks[:, :, :n1], blocks[:, :, n1:],
                                    ring.diag, weights)
        self.NEG = ((-coords % ring.diag) @ weights).astype(np.int16)
        self.SQ = mul.diagonal().copy()
        self.zero = 0
        self.one = self.index(ring.one)

        # the residue is the first coordinates, reduced in the all-5 box of
        # both residue fields, F5 and F25
        in_m = (coords[:, :ring.residue_ring.dim] % 5 == 0).all(axis=1)
        self.mideal = np.flatnonzero(in_m).astype(np.int16)
        self.units = np.flatnonzero(~in_m).astype(np.int16)

        # u^-1 = u^(|U| - 1) by Lagrange, powered over all units at once
        acc = np.full_like(self.units, self.one)
        for bit in bin(len(self.units) - 1)[2:]:
            acc = mul[acc, acc]
            if bit == "1":
                acc = mul[acc, self.units]
        self.INV = np.full(n, -1, dtype=np.int16)
        self.INV[self.units] = acc
        roots = [[] for _ in range(n)]
        for i, sq in enumerate(self.SQ.tolist()):
            roots[sq].append(i)
        self.roots = [tuple(r) for r in roots]

    # -- conversions ------------------------------------------------------------

    def index(self, el: Element) -> int:
        return sum(c * w for c, w in zip(el.coords, self._weights))

    def element(self, idx: int) -> Element:
        if not 0 <= idx < self.n:
            raise RingError(f"{self.ring.descriptor}: no element with table "
                            f"index {idx} (0 <= index < {self.n})")
        return Element(self.ring, tuple(self.coords[idx].tolist()))

    def from_int(self, k: int) -> int:
        return self.index(self.ring.from_int(k))


_table_cache: weakref.WeakValueDictionary[str, RingTable] = \
    weakref.WeakValueDictionary()
# strong references to the tables of rings of at most KERNEL_BOUND elements
_pinned: list[RingTable] = []


def ring_table(ring: Ring) -> RingTable:
    """The table of ``ring``: the one already held, if any, else a new one
    (module docstring).  Small rings' tables are built once per process."""
    tab = _table_cache.get(ring.descriptor)
    if tab is None:
        tab = _table_cache[ring.descriptor] = RingTable(ring)
        if ring._indexed:
            _pinned.append(tab)
    return tab
