"""Two earlier RingTable builds, kept as independent test oracles.

``reference_tables`` is the generic build: a chunked ``einsum`` over the
structure constants and a row-by-row reduction by the Hermite normal form of
the relation lattice, which ``ring_oracle`` derives from the presentation.

``per_coordinate_tables`` is the build that replaced it: for each output
coordinate k, an n x n ``add.outer`` and the bilinear form ``S[:, :, k]``,
each reduced mod ``diag[k]`` and ranked into the int16 tables.  It reads the
ring's own moduli, so it is fast enough for the 3125-element rings."""

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
        return (v @ weights).astype(np.int16)

    S = np.array([[ring.mul_basis[i][j] for j in range(d)]
                  for i in range(d)], dtype=np.int64)
    add = np.empty((n, n), dtype=np.int16)
    mul = np.empty((n, n), dtype=np.int16)
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
    inv = np.full(n, -1, dtype=np.int16)
    rows, cols = np.nonzero(mul == one)
    inv[rows] = cols
    roots = [[] for _ in range(n)]
    for i in range(n):
        roots[sq[i]].append(i)
    return {
        "coords": coords, "ADD": add, "MUL": mul,
        "NEG": rank(reduce(-coords)), "SQ": sq, "INV": inv,
        "mideal": np.nonzero(mideal_mask)[0].astype(np.int16),
        "units": np.nonzero(~mideal_mask)[0].astype(np.int16),
        "roots": [tuple(r) for r in roots], "one": one, "zero": 0,
    }


def per_coordinate_tables(ring):
    """(ADD, MUL), one output coordinate at a time."""
    n, d = ring.cardinality, ring.dim
    coords = np.indices(ring.diag).reshape(d, -1).T.astype(np.int64)
    S = np.array(ring.mul_basis, dtype=np.int64)  # S[i, j, k]
    add = np.zeros((n, n), dtype=np.int16)
    mul = np.zeros((n, n), dtype=np.int16)
    for k, (m, w) in enumerate(zip(ring.diag, ring._weights)):
        add += np.add.outer(coords[:, k], coords[:, k]) % m * w
        mul += (coords @ S[:, :, k]) @ coords.T % m * w
    return add, mul
