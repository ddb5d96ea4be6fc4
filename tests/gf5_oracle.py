"""The dense GF(5) linear algebra that ``defo5.gf5.Echelon`` replaced, kept
as a test oracle: a dense reduced row echelon form, recomputed in full by
every rank, nullspace, span and solvability query; and the matrix-vector
product over GF(5)."""

from __future__ import annotations

P = 5
_INV = {1: 1, 2: 3, 3: 2, 4: 4}


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    mat = [[x % P for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = _INV[mat[r][c]]
        mat[r] = [(x * inv) % P for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % P for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows):
    if not rows:
        return 0
    return len(rref(rows)[0])


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0} in GF(5)^ncols."""
    red, pivots = rref(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in zip(red, pivots):
            vec[c] = (-r[f]) % P
        basis.append(vec)
    return basis


def in_span(basis, vec):
    if not basis:
        return all(x % P == 0 for x in vec)
    return rank(list(basis) + [vec]) == rank(basis)


def solvable(rows, rhs):
    """Whether rows @ x = rhs has a solution."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    return rank(aug) == rank(rows)


def matvec(rows, x):
    return [sum(a * b for a, b in zip(r, x)) % P for r in rows]
