"""The sparse GF(5) echelon against the dense oracle in ``gf5_oracle``, on
seeded random matrices; and both as the oracle of the closed-form tangent
and obstruction certificates on the matrices Z and B."""

import random

import pytest

import gf5_oracle as oracle
import tangent_oracle
from defo5 import gf5
from defo5.deformation.obstruction import defect_vector
from defo5.deformation.tangent import (COCYCLE_SHIFT, coboundary_matrix,
                                       cocycle_matrix, hom_point_directions,
                                       tangent_report)


def _random(rng, nrows, ncols):
    return [[rng.randrange(5) for _ in range(ncols)] for _ in range(nrows)]


def _low_rank(rng, nrows, ncols, r):
    left, right = _random(rng, nrows, r), _random(rng, r, ncols)
    return [[sum(a * b for a, b in zip(row, col)) % 5 for col in zip(*right)]
            for row in left]


def _full_rank(rng, n):
    while True:
        rows = _random(rng, n, n)
        if oracle.rank(rows) == n:
            return rows


def _shapes():
    rng = random.Random(2009)
    return [
        ("empty", [], 6),
        ("all zero", [[0] * 7 for _ in range(4)], 7),
        ("1 x n", _random(rng, 1, 9), 9),
        ("1 x n zero", [[0] * 9], 9),
        ("tall", _random(rng, 14, 5), 5),
        ("wide", _random(rng, 5, 14), 14),
        ("full rank", _full_rank(rng, 8), 8),
        ("rank deficient", _low_rank(rng, 10, 12, 4), 12),
        ("rank deficient tall", _low_rank(rng, 16, 6, 3), 6),
        ("sparse", [[rng.choice((0, 0, 0, 0, 1, 2, 3, 4)) for _ in range(15)]
                    for _ in range(11)], 15),
    ]


SHAPES = pytest.mark.parametrize("name,rows,ncols", _shapes(),
                                 ids=[s[0] for s in _shapes()])


def _dense(row, ncols):
    return [row.get(c, 0) for c in range(ncols)]


def _span(rng, rows, ncols):
    """A random element of the row span."""
    out = [0] * ncols
    for row in rows:
        f = rng.randrange(5)
        out = [(a + f * b) % 5 for a, b in zip(out, row)]
    return out


@SHAPES
def test_echelon_matches_dense_oracle(name, rows, ncols):
    ech = gf5.Echelon(rows)
    red, pivots = oracle.rref(rows) if rows else ([], [])
    assert ech.rank == oracle.rank(rows) == len(pivots)
    # the stored rows are the reduced row echelon form, whatever the order
    assert sorted(ech.rows) == pivots
    assert [_dense(ech.rows[p], ncols) for p in pivots] == red
    assert gf5.Echelon(rows[::-1]).rows == ech.rows
    assert ech.nullspace(ncols) == gf5.nullspace(rows, ncols) \
        == oracle.nullspace(rows, ncols)
    rng = random.Random(len(rows) * 31 + ncols)
    for _ in range(20):
        v = [rng.randrange(5) for _ in range(ncols)]
        assert (not ech.reduce(v)) == oracle.in_span(rows, v)
        assert not ech.reduce(_span(rng, rows, ncols))


@SHAPES
def test_column_echelon_decides_solvability(name, rows, ncols):
    cols = gf5.Echelon(zip(*rows))
    rng = random.Random(ncols)
    for _ in range(20):
        rhs = [rng.randrange(5) for _ in rows]
        assert (not cols.reduce(rhs)) == oracle.solvable(rows, rhs)
        x = [rng.randrange(5) for _ in range(ncols)]
        assert not cols.reduce(oracle.matvec(rows, x))


@SHAPES
def test_normal_form_is_canonical(name, rows, ncols):
    """reduce(v) == reduce(v + w) for w in the span, and it is 0 at every
    pivot: the normal form depends on the coset only."""
    ech = gf5.Echelon(rows)
    rng = random.Random(ncols * 7 + len(rows))
    for _ in range(30):
        v = [rng.randrange(5) for _ in range(ncols)]
        w = _span(rng, rows, ncols)
        form = ech.reduce(v)
        assert ech.reduce([a + b for a, b in zip(v, w)]) == form
        assert ech.reduce([a - b for a, b in zip(v, w)]) == form
        assert not set(form) & set(ech.rows)
        assert ech.reduce(_dense(form, ncols)) == form


def test_add_reports_new_directions():
    ech = gf5.Echelon()
    assert ech.add([0, 2, 1]) is True
    assert ech.add([0, 4, 2]) is False  # twice the first
    assert ech.add([0, 0, 0]) is False
    assert ech.add([1, 1, 1]) is True
    assert ech.rank == 2
    assert ech.rows == {0: {0: 1, 2: 3}, 1: {1: 1, 2: 3}}


@pytest.mark.parametrize("P", [*range(2, 65), 256])
def test_tangent_matrices_against_dense_oracle(P):
    """The closed forms that the tangent and obstruction certificates read
    off Z and B, against elimination: rank Z_P = ceil(P/5), rank B_P =
    P - 2 - floor((P-1)/5), dimension 1, cocycles equivalent exactly when
    their t-coefficients agree, and the defect exactly 2 t^3; Z and B
    themselves against the series-product oracle."""
    Z = cocycle_matrix(P)
    B = coboundary_matrix(P)
    assert (Z, B) == (tangent_oracle.cocycle_matrix_by_products(P),
                      tangent_oracle.coboundary_matrix_by_products(P))
    im_b = [list(col) for col in zip(*B)]
    ker = oracle.nullspace(Z, P)
    rows_z, cols_b = gf5.Echelon(Z), gf5.Echelon(im_b)
    assert rows_z.rank == oracle.rank(Z) == -(-P // 5)
    assert rows_z.nullspace(P) == ker
    assert cols_b.rank == oracle.rank(im_b) == P - 2 - (P - 1) // 5
    # the old formula dim ker Z - dim(im B meet ker Z) against the closed form
    meet = oracle.rank(im_b) + len(ker) - oracle.rank(im_b + ker)
    assert len(ker) - meet == P - rows_z.rank - cols_b.rank == 1
    detail = tangent_report((P,))["per_precision"][str(P)]
    assert detail["dimension"] == 1 and detail["class_count"] == 5
    dirs = [vec for _, vec in hom_point_directions(P)]
    for i in range(5):
        for j in range(i + 1, 5):
            diff = [(a - b) % 5 for a, b in zip(dirs[i], dirs[j])]
            assert oracle.in_span(im_b, diff) is False
            assert cols_b.reduce(dirs[i]) != cols_b.reduce(dirs[j])
    # seeded kernel vectors, each also moved by a random coboundary
    rng = random.Random(P)
    vecs = list(dirs)
    for _ in range(4):
        v = _span(rng, ker, P)
        vecs += [v, [(a + b) % 5 for a, b in zip(v, _span(rng, im_b, P))]]
    for v in vecs:
        assert not any(oracle.matvec(Z, v))
        for w in vecs:
            same_class = not cols_b.reduce([a - b for a, b in zip(v, w)])
            assert same_class == (v[1] == w[1])
    rows = P + COCYCLE_SHIFT
    assert defect_vector(rows) == [0, 0, 0, 2] + [0] * (rows - 4)
