"""The generic algorithms that the catalog constructors replaced with closed
forms: a row Hermite normal form of each ring's additive relation lattice,
built from its presentation, and a breadth-first search for the nilpotency
index.  Kept as independent test oracles."""

import re

from defo5.artin.rings import build_ring

# Phi5(1+u) = 5 + 10u + 10u^2 + 5u^3 + u^4
PHI5_SHIFTED = (5, 10, 10, 5, 1)


def hnf_rows(rows, dim):
    """Row Hermite normal form (upper triangular, positive pivots) of the
    lattice spanned by ``rows``.  Raises if the lattice is not full rank,
    which would mean the presented ring is infinite."""
    work = [list(r) for r in rows if any(r)]
    out = []
    for col in range(dim):
        pivots = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not pivots:
            raise ValueError("additive relation lattice is not full rank")
        # Reduce all rows with a nonzero entry in `col` down to one via gcd.
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            a = pivots[0]
            for r in pivots[1:]:
                q = r[col] // a[col]
                for k in range(dim):
                    r[k] -= q * a[k]
            moved = [r for r in pivots[1:] if r[col] == 0]
            rest.extend(r for r in moved if any(r))
            pivots = [pivots[0]] + [r for r in pivots[1:] if r[col] != 0]
        pivot = pivots[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        out.append(pivot)
        work = [r for r in rest if any(r)]
    # Normalize entries above each pivot.
    for i in range(dim - 1, -1, -1):
        for k in range(i):
            q = out[k][i] // out[i][i]
            if q:
                for c in range(dim):
                    out[k][c] -= q * out[i][c]
    return tuple(tuple(r) for r in out)


def cyclo_relation_rows(m):
    """The ideal (u^m) of Z[u]/(Phi5(1+u)) on the basis 1, u, u^2, u^3: the
    rows u^(m+j), j = 0..3, folded by u^4 = -5 - 10u - 10u^2 - 5u^3."""
    rows = []
    for j in range(4):
        p = [0] * (m + j) + [1]
        while len(p) > 4:
            top = p.pop()
            for i, c in enumerate(PHI5_SHIFTED[:4]):
                p[len(p) - 4 + i] -= top * c
        rows.append(p + [0] * (4 - len(p)))
    return rows


_TOWER = re.compile(r"^(.*)\[(\w+)\]/\(\2\^(\d+)\)$")


def relation_hnf(ring):
    """The HNF of the additive relations among the basis vectors of a catalog
    ring, from its descriptor: 5 for F5 and F25, 5^n for Z/5^n, the cyclo
    rows above (u^i = 0 for i >= m, so cyclo(m) keeps the first min(m, 4)
    columns), and m copies of the base lattice for a tower B[e]/(e^m)."""
    desc = ring.descriptor
    tower = _TOWER.match(desc)
    if tower:
        base = relation_hnf(build_ring(tower.group(1)))
        d, m = len(base), int(tower.group(3))
        return hnf_rows([[0] * (s * d) + list(row) + [0] * ((m - 1 - s) * d)
                         for s in range(m) for row in base], ring.dim)
    if desc in ("F5", "F25"):
        return hnf_rows([[5 * (i == j) for j in range(ring.dim)]
                         for i in range(ring.dim)], ring.dim)
    if desc.startswith("Z/5^"):
        return ((5 ** int(desc[4:]),),)
    d = ring.dim  # cyclo(m)
    return tuple(row[:d] for row in
                 hnf_rows(cyclo_relation_rows(int(desc[6:-1])), 4)[:d])


def _is_nilpotent(x):
    """Whether some power of x is 0: the powers of x either reach 0 or
    repeat."""
    seen, p = set(), x
    while p.coords not in seen:
        if p == x.ring.zero:
            return True
        seen.add(p.coords)
        p = p * x
    return False


def nilpotency_index_by_search(ring):
    """The least e with m^e = 0, by breadth-first products of generators of
    the maximal ideal: 5 and the nilpotent basis vectors.  The layer after
    k - 1 steps holds the nonzero products of k generators, which span m^k
    additively."""
    basis = [ring.element([int(i == j) for j in range(ring.dim)])
             for i in range(ring.dim)]
    gens = [g for g in [ring.from_int(5)] + basis
            if g != ring.zero and _is_nilpotent(g)]
    layer = {g.coords for g in gens}
    e = 1
    while layer:
        e += 1
        layer = {p.coords for g in gens for c in layer
                 if (p := g * ring.element(list(c))) != ring.zero}
        if e > ring.cardinality:
            raise ValueError("nilpotency search overflow")
    return e
