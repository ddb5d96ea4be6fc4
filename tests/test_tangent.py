"""Tangent-space linear algebra over F5: cocycle/coboundary maps validated
against brute-force composition, and the dimension-1 stabilization."""

import random

import pytest

from defo5 import gf5
from defo5.artin.rings import build_ring
from defo5.deformation import tangent
from defo5.deformation.tangent import (COCYCLE_SHIFT, coboundary_apply,
                                       coboundary_matrix, cocycle_defect,
                                       cocycle_matrix, hom_point_directions,
                                       tangent_report, tangent_space)


def test_cocycle_matrix_shape_and_shift():
    P = 8
    Z = cocycle_matrix(P)
    assert len(Z) == P + COCYCLE_SHIFT
    assert all(len(row) == P for row in Z)
    # the t^j direction first appears at degree >= j + COCYCLE_SHIFT
    for j in range(P):
        lead = next((i for i, row in enumerate(Z) if row[j]), None)
        assert lead is None or lead >= j + COCYCLE_SHIFT


def test_cocycle_linearity_against_brute_force():
    P = 8
    Z = cocycle_matrix(P)
    rng = random.Random(12345)
    for _ in range(6):
        d = [rng.randrange(5) for _ in range(P)]
        assert gf5.matvec(Z, d) == cocycle_defect(d, P)


@pytest.mark.parametrize("P", [8, 12])
def test_cocycle_columns_against_dual_number_composition(P):
    """The chain-rule matrix against the 5-fold composition over
    F5[e]/(e^2), one basis direction t^j at a time."""
    Z = cocycle_matrix(P)
    for j in range(P):
        e_j = [0] * P
        e_j[j] = 1
        assert [row[j] for row in Z] == cocycle_defect(e_j, P)


def test_tangent_report_builds_each_matrix_once(monkeypatch):
    calls = {"Z": [], "B": []}
    real_z, real_b = tangent.cocycle_matrix, tangent.coboundary_matrix
    monkeypatch.setattr(tangent, "cocycle_matrix",
                        lambda p: calls["Z"].append(p) or real_z(p))
    monkeypatch.setattr(tangent, "coboundary_matrix",
                        lambda p: calls["B"].append(p) or real_b(p))
    tangent_report((8, 12))
    assert calls == {"Z": [8, 12], "B": [8, 12]}


def test_coboundary_matrix_against_direct_application():
    P = 10
    B = coboundary_matrix(P)
    rng = random.Random(777)
    for _ in range(6):
        c = [rng.randrange(5) for _ in range(P)]
        assert gf5.matvec(B, c) == coboundary_apply(c, P)
    assert coboundary_apply([0] * P, P) == [0] * P  # B(0) = 0


def test_coboundaries_are_cocycles():
    P = 8
    Z = cocycle_matrix(P)
    B = coboundary_matrix(P)
    for j in range(P):
        col = [row[j] for row in B]
        assert all(v == 0 for v in gf5.matvec(Z, col))


def test_tangent_dimension_one():
    dim, count, ker = tangent_space(8)
    assert dim == 1
    assert count == 5
    assert len(ker) >= 1


def test_hom_directions_are_cocycles_and_distinct():
    P = 8
    Z = cocycle_matrix(P)
    B = coboundary_matrix(P)
    im_b = [[row[j] for row in B] for j in range(P)]
    dirs = hom_point_directions(P)
    assert len(dirs) == 5
    for _, vec in dirs:
        assert all(v == 0 for v in gf5.matvec(Z, vec))
    for i in range(5):
        for j in range(i + 1, 5):
            diff = [(a - b) % 5 for a, b in zip(dirs[i][1], dirs[j][1])]
            assert not gf5.in_span(im_b, diff)


def test_tangent_report_stable():
    rep = tangent_report((8, 12, 16))
    assert rep["stable"]
    assert rep["dimension"] == 1
    for detail in rep["per_precision"].values():
        assert detail["class_count"] == 5
        assert detail["hom_directions_exhaust_classes"]


def test_gf5_linear_algebra():
    assert gf5.rank([[1, 2], [2, 4]]) == 1
    ns = gf5.nullspace([[1, 2], [2, 4]], 2)
    assert len(ns) == 1 and gf5.matvec([[1, 2]], ns[0]) == [0]
    assert gf5.intersect_dim([[1, 0]], [[0, 1]]) == 0
    assert gf5.intersect_dim([[1, 0], [0, 1]], [[1, 1]]) == 1
    assert gf5.solvable([[1, 1], [2, 2]], [1, 2])
    assert not gf5.solvable([[1, 1], [2, 2]], [1, 3])
