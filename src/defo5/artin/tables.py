"""Dense index tables for exhaustive scans over small catalog rings.

Elements are identified with their rank in the deterministic enumeration
order (mixed radix over the canonical coordinate box, first coordinate most
significant).  Addition and multiplication become int16 table lookups (each
index is below ``TABLE_BOUND`` = 3125 < 2^15), which lets the exhaustive
scans run vectorized over numpy index arrays; a flat index a * n + b formed
from table values must be widened first.  For a ring of at most
``rings.KERNEL_BOUND`` elements the same table, copied to Python lists, is
also the scalar kernel of ``Element`` (see ``rings``).

``ADD`` and ``MUL`` are built by split columns.  Every modulus ``diag[k]`` is
a power of 5, so the ranks are base-5 numerals in which coordinate k owns a
run of digits.  For n2 = 5^a dividing n, a column j = j1 * n2 + j2 with
j2 < n2 has the coordinate vector of j1 * n2 plus that of j2 with no carry:
the two summands occupy disjoint base-5 digits.  Both sums and products are
additive in y, x + y = (x + y1) + y2 and x * y = x * y1 + x * y2, so
coordinate k of either table is U_k[i, j1] + V_k[i, j2] mod diag[k] for two
narrow blocks, n x n1 and n x n2 with n1, n2 about sqrt(n), that are already
reduced.  One broadcast add ranks the unreduced sums, and each coordinate
then needs one conditional subtraction of diag[k] * weight[k], where
U_k >= diag[k] - V_k.  Products come from the structure constants, so
nothing here uses ``Element`` arithmetic and a table can be built before its
ring's kernel exists.  ``ring_table`` keeps one table per ring and process.
"""

from __future__ import annotations

import numpy as np

from .rings import EnumerationBoundError, Element, Ring, RingError

TABLE_BOUND = 5 ** 5

# Table entries per row block of the carry pass, so that its temporaries stay
# in cache: about half the time of whole-table passes at 3125 elements.
_BLOCK = 1 << 17


def _sum_table(U, V, diag, weights):
    """The n x n1*n2 index table whose entry [i, j1 * n2 + j2] ranks the
    vector with coordinate k = (U[k, i, j1] + V[k, i, j2]) mod diag[k].

    ``U`` (d x n x n1) and ``V`` (d x n x n2, or d x 1 x n2 for blocks that do
    not depend on the row) are reduced mod ``diag``, so each coordinate sum is
    below 2 * diag[k] and carries at most once, and each rank below 2n."""
    U = U.astype(np.int16)
    V = V.astype(np.int16)
    _, n, n1 = U.shape
    n2 = V.shape[2]

    def cols(v):  # v[i, j2] as an n x 1 x n2 view
        return np.broadcast_to(v[:, None, :], (n, 1, n2))

    w = np.array(weights, dtype=np.int16)
    lo = np.tensordot(w, U, 1)[:, :, None]
    hi = cols(np.tensordot(w, V, 1))
    out = np.empty((n, n1, n2), dtype=np.int16)
    # coordinate k carries where U_k >= diag[k] - V_k; never if it cannot
    carries = [(U[k][:, :, None], cols(m - V[k]), np.int16(m * wk))
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

        # n2, the least power of 5 with n2^2 >= n, divides n; column
        # j = j1 * n2 + j2 has coordinates y1s[:, j1] + y2s[:, j2]
        n2 = 1
        while n2 * n2 < n:
            n2 *= 5
        y1s, y2s = coords[::n2].T, coords[:n2].T
        mods = np.array(ring.diag, dtype=np.int64)[:, None, None]
        self.ADD = _sum_table((coords.T[:, :, None] + y1s[:, None, :]) % mods,
                              y2s[:, None, :], ring.diag, weights)
        # xs[k, i, b] = sum_a x_a S[a, b, k]: coordinate k of x * y is xs[k, i] . y
        xs = np.einsum("ia,abk->kib", coords,
                       np.array(ring.mul_basis, dtype=np.int64))
        mul = self.MUL = _sum_table(xs @ y1s % mods, xs @ y2s % mods,
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
        for i in range(n):
            roots[self.SQ[i]].append(i)
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


_table_cache: dict[str, RingTable] = {}


def ring_table(ring: Ring) -> RingTable:
    """The table of ``ring``, built once per process."""
    tab = _table_cache.get(ring.descriptor)
    if tab is None:
        tab = _table_cache[ring.descriptor] = RingTable(ring)
    return tab
