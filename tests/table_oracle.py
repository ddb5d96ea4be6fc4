"""The generic RingTable build used before the tables were computed per
coordinate: a chunked ``einsum`` over the structure constants and a row-by-row
reduction by the Hermite normal form of the relation lattice, which
``ring_oracle`` derives from the presentation.  Kept as an independent test
oracle."""

import numpy as np

from ring_oracle import relation_hnf


def reference_tables(ring):
    """{name: value} for coords, ADD, MUL, NEG, SQ, INV, mideal, units,
    roots, one and zero, built the generic way."""
    d = ring.dim
    H = np.array(relation_hnf(ring), dtype=np.int64)
    diag = np.diagonal(H)
    n = int(np.prod(diag))
    weights = np.ones(d, dtype=np.int64)
    for j in range(d - 2, -1, -1):
        weights[j] = weights[j + 1] * diag[j + 1]
    coords = np.indices(tuple(diag)).reshape(d, -1).T.astype(np.int64)

    def reduce(v):
        v = v.copy()
        for j in range(d):
            q = v[..., j] // H[j, j]
            v -= q[..., None] * H[j]
        return v

    def rank(v):
        return (v @ weights).astype(np.int32)

    S = np.array([[ring.mul_basis[i][j] for j in range(d)]
                  for i in range(d)], dtype=np.int64)
    add = np.empty((n, n), dtype=np.int32)
    mul = np.empty((n, n), dtype=np.int32)
    chunk = max(1, (1 << 22) // max(1, n))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        block = coords[lo:hi, None, :] + coords[None, :, :]
        add[lo:hi] = rank(reduce(block))
        prod = np.einsum("xi,yj,ijk->xyk", coords[lo:hi], coords, S)
        mul[lo:hi] = rank(reduce(prod))
    one = np.zeros(d, dtype=np.int64)
    one[0] = 1
    one = int(rank(reduce(one[None, :]))[0])
    idx = np.arange(n)
    sq = mul[idx, idx]
    # the maximal ideal is the nilpotent elements: x^(2^k) = 0 once 2^k >= n
    power = idx
    for _ in range(n.bit_length()):
        power = mul[power, power]
    mideal_mask = power == 0
    inv = np.full(n, -1, dtype=np.int32)
    rows, cols = np.nonzero(mul == one)
    inv[rows] = cols
    roots = [[] for _ in range(n)]
    for i in range(n):
        roots[sq[i]].append(i)
    return {
        "coords": coords, "ADD": add, "MUL": mul,
        "NEG": rank(reduce(-coords)), "SQ": sq, "INV": inv,
        "mideal": np.nonzero(mideal_mask)[0].astype(np.int32),
        "units": np.nonzero(~mideal_mask)[0].astype(np.int32),
        "roots": [tuple(r) for r in roots], "one": one, "zero": 0,
    }
