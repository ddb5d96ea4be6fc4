"""Dense index tables for exhaustive scans over small catalog rings.

Elements are identified with their rank in the deterministic enumeration
order (mixed radix over the canonical coordinate box, first coordinate most
significant).  Addition and multiplication become int32 table lookups, which
lets the exhaustive scans run vectorized over numpy index arrays.  For a ring
of at most ``rings.KERNEL_BOUND`` elements the same table, copied to Python
lists, is also the scalar kernel of ``Element`` (see ``rings``).

Every table comes from the ring's own presentation: basis vector k has
additive order ``diag[k]``, so each output coordinate is reduced on its own,
and coordinate k of a product is the bilinear form ``S[:, :, k]`` of the
structure constants.  Nothing here uses ``Element`` arithmetic, so a table
can be built before its ring's kernel exists.  ``ring_table`` keeps one
table per ring and process.
"""

from __future__ import annotations

import numpy as np

from .rings import EnumerationBoundError, Element, Ring

TABLE_BOUND = 5 ** 5


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

        S = np.array(ring.mul_basis, dtype=np.int64)  # S[i, j, k]
        add = self.ADD = np.zeros((n, n), dtype=np.int32)
        mul = self.MUL = np.zeros((n, n), dtype=np.int32)
        for k, (m, w) in enumerate(zip(ring.diag, weights)):
            add += np.add.outer(coords[:, k], coords[:, k]) % m * w
            mul += (coords @ S[:, :, k]) @ coords.T % m * w
        self.NEG = ((-coords % ring.diag) @ weights).astype(np.int32)
        self.SQ = mul.diagonal().copy()
        self.zero = 0
        self.one = self.index(ring.one)

        # the residue is the first coordinates, reduced in the all-5 box of
        # both residue fields, F5 and F25
        in_m = (coords[:, :ring.residue_ring.dim] % 5 == 0).all(axis=1)
        self.mideal = np.flatnonzero(in_m).astype(np.int32)
        self.units = np.flatnonzero(~in_m).astype(np.int32)

        # u^-1 = u^(|U| - 1) by Lagrange, powered over all units at once
        acc = np.full_like(self.units, self.one)
        for bit in bin(len(self.units) - 1)[2:]:
            acc = mul[acc, acc]
            if bit == "1":
                acc = mul[acc, self.units]
        self.INV = np.full(n, -1, dtype=np.int32)
        self.INV[self.units] = acc
        roots = [[] for _ in range(n)]
        for i in range(n):
            roots[self.SQ[i]].append(i)
        self.roots = [tuple(r) for r in roots]

    # -- conversions ------------------------------------------------------------

    def index(self, el: Element) -> int:
        return sum(c * w for c, w in zip(el.coords, self._weights))

    def element(self, idx: int) -> Element:
        return Element(self.ring, tuple(int(c) for c in self.coords[idx]))

    def from_int(self, k: int) -> int:
        return self.index(self.ring.from_int(k))


_table_cache: dict[str, RingTable] = {}


def ring_table(ring: Ring) -> RingTable:
    """The table of ``ring``, built once per process."""
    tab = _table_cache.get(ring.descriptor)
    if tab is None:
        tab = _table_cache[ring.descriptor] = RingTable(ring)
    return tab
