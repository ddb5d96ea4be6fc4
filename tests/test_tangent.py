"""Tangent-space linear algebra over F5: cocycle/coboundary maps validated
against brute-force composition, the dimension-1 stabilization, and the
certificate checks refusing tampered matrices and directions."""

import json
import random

import pytest

import gf5_oracle as oracle
from defo5 import cli, gf5, series
from defo5.artin.rings import RingError, build_ring
from defo5.deformation import tangent
from defo5.deformation.tangent import (COCYCLE_SHIFT, coboundary_matrix,
                                       cocycle_matrix, hom_point_directions,
                                       tangent_report)
from tangent_oracle import coboundary_apply, cocycle_defect


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
        assert oracle.matvec(Z, d) == cocycle_defect(d, P)


@pytest.mark.parametrize("P", [8, 12])
def test_cocycle_columns_against_dual_number_composition(P):
    """The chain-rule matrix against the 5-fold composition over
    F5[e]/(e^2), one basis direction t^j at a time."""
    Z = cocycle_matrix(P)
    for j in range(P):
        e_j = [0] * P
        e_j[j] = 1
        assert [row[j] for row in Z] == cocycle_defect(e_j, P)


def test_cocycle_matrix_series_products_do_not_grow_with_prec(monkeypatch):
    """The columns come from the two-term recurrence: only the starting
    series are products, so their number does not depend on P."""
    counts = []
    for P in (16, 64):
        calls = []
        real = series._mul_raw
        monkeypatch.setattr(series, "_mul_raw",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        cocycle_matrix(P)
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_cocycle_matrix_refuses_a_column_below_the_shift(monkeypatch):
    # column 0 leads at t^8, below a claimed shift of 9
    monkeypatch.setattr(tangent, "COCYCLE_SHIFT", COCYCLE_SHIFT + 1)
    with pytest.raises(RingError, match="fails at direction t\\^0$"):
        cocycle_matrix(8)


def test_tangent_report_builds_each_matrix_once(monkeypatch):
    calls = {"Z": [], "B": []}
    real_z, real_b = tangent.cocycle_matrix, tangent.coboundary_matrix
    monkeypatch.setattr(tangent, "cocycle_matrix",
                        lambda p: calls["Z"].append(p) or real_z(p))
    monkeypatch.setattr(tangent, "coboundary_matrix",
                        lambda p: calls["B"].append(p) or real_b(p))
    tangent_report((8, 12))
    assert calls == {"Z": [12], "B": [12]}


def test_sweep_corners_equal_direct_builds():
    """A sweep builds Z, B and the hom directions once, at its largest
    precision; their top-left corners are the matrices at each smaller one."""
    P = 16
    Z, B = cocycle_matrix(P), coboundary_matrix(P)
    dirs = hom_point_directions(P)
    for p in (8, 12):
        assert [row[:p] for row in Z[:p + COCYCLE_SHIFT]] == cocycle_matrix(p)
        assert [row[:p] for row in B[:p]] == coboundary_matrix(p)
        assert [(c, v[:p]) for c, v in dirs] == hom_point_directions(p)
    sweep = tangent_report((8, 12, 16, 12))["per_precision"]
    for p in (8, 12, 16):
        assert sweep[str(p)] == tangent_report((p,))["per_precision"][str(p)]


def test_coboundary_outside_kernel_raises(monkeypatch):
    """im B must lie in ker Z for dim = prec - rank Z - rank B; a coboundary
    matrix with a column outside ker Z is refused, not counted."""
    real_b = tangent.coboundary_matrix

    def tampered(p):
        B = real_b(p)
        B[0][0] = (B[0][0] + 1) % 5
        return B
    monkeypatch.setattr(tangent, "coboundary_matrix", tampered)
    with pytest.raises(RingError, match="not a cocycle at precision 8"):
        tangent_report((8,))


def _tamper(monkeypatch, name, edit):
    """Replace tangent.<name> by the real builder followed by ``edit``."""
    real = getattr(tangent, name)

    def tampered(p):
        built = real(p)
        edit(built)
        return built
    monkeypatch.setattr(tangent, name, tampered)


def _zero_lead(Z):
    Z[5 + COCYCLE_SHIFT][5] = 0


def _double_lead_row(Z):
    Z[5 + COCYCLE_SHIFT] = [2 * v % 5 for v in Z[5 + COCYCLE_SHIFT]]


@pytest.mark.parametrize("edit,match", [
    # im B leaves ker Z, and the cocycle check sees it first
    (_zero_lead, "not a cocycle"),
    # a row scaled by a unit keeps ker Z: only the lead check sees it
    (_double_lead_row, "rank certificate fails"),
], ids=["zeroed", "row-doubled"])
def test_z_lead_off_its_value_raises(monkeypatch, edit, match):
    """Column 5 of Z must lead with 4 at t^(5 + COCYCLE_SHIFT)."""
    _tamper(monkeypatch, "cocycle_matrix", edit)
    with pytest.raises(RingError, match=match):
        tangent_report((16,))


def test_nonzero_row_one_of_b_raises(monkeypatch):
    """phi must vanish on im B.  Adding a hom direction (a cocycle with
    phi != 0) to the last column of B keeps every column a cocycle and
    every certifying lead in place, but puts a nonzero entry in row 1."""
    direction = hom_point_directions(12)[1][1]

    def edit(B):
        for i, v in enumerate(direction):
            B[i][-1] = (B[i][-1] + v) % 5
    _tamper(monkeypatch, "coboundary_matrix", edit)
    with pytest.raises(RingError, match="rank certificate fails"):
        tangent_report((12,))


def test_directions_without_t_coefficient_raise(monkeypatch):
    """No direction with phi != 0 leaves dim >= 1 uncertified."""
    def edit(dirs):
        for _, vec in dirs:
            vec[1] = 0
    _tamper(monkeypatch, "hom_point_directions", edit)
    with pytest.raises(RingError, match="no certificate of dimension 1"):
        tangent_report((8, 12))


def test_equal_t_coefficients_are_one_class(monkeypatch, capsys):
    """Direction 1 moved into the class of direction 0 (by a coboundary,
    so it stays a cocycle) makes two directions equivalent: the report
    says so and the verdict fails."""
    B = coboundary_matrix(8)

    def edit(dirs):
        dirs[1] = (dirs[1][0], [(a + row[4]) % 5
                                for a, row in zip(dirs[0][1], B)])
    _tamper(monkeypatch, "hom_point_directions", edit)
    assert cli.main(["tangent", "--prec-sweep", "8"]) == 1
    detail = json.loads(capsys.readouterr().out)["details"]
    assert detail["per_precision"]["8"] == {
        "dimension": 1,
        "class_count": 5,
        "hom_directions_are_cocycles": True,
        "hom_directions_distinct_mod_coboundaries": False,
        "hom_directions_exhaust_classes": False,
    }


def test_coboundary_matrix_against_direct_application():
    P = 10
    B = coboundary_matrix(P)
    rng = random.Random(777)
    for _ in range(6):
        c = [rng.randrange(5) for _ in range(P)]
        assert oracle.matvec(B, c) == coboundary_apply(c, P)
    assert coboundary_apply([0] * P, P) == [0] * P  # B(0) = 0


def test_coboundaries_are_cocycles():
    P = 8
    Z = cocycle_matrix(P)
    B = coboundary_matrix(P)
    for j in range(P):
        col = [row[j] for row in B]
        assert all(v == 0 for v in oracle.matvec(Z, col))


def test_tangent_dimension_one():
    detail = tangent_report((8,))["per_precision"]["8"]
    assert detail["dimension"] == 1
    assert detail["class_count"] == 5
    assert len(gf5.nullspace(cocycle_matrix(8), 8)) >= 1


def test_hom_directions_are_cocycles_and_distinct():
    P = 8
    Z = cocycle_matrix(P)
    B = coboundary_matrix(P)
    im_b = [[row[j] for row in B] for j in range(P)]
    dirs = hom_point_directions(P)
    assert len(dirs) == 5
    for _, vec in dirs:
        assert all(v == 0 for v in oracle.matvec(Z, vec))
    for i in range(5):
        for j in range(i + 1, 5):
            diff = [(a - b) % 5 for a, b in zip(dirs[i][1], dirs[j][1])]
            assert not oracle.in_span(im_b, diff)


def test_tangent_report_stable():
    rep = tangent_report((8, 12, 16))
    assert rep["stable"]
    assert rep["dimension"] == 1
    for detail in rep["per_precision"].values():
        assert detail["class_count"] == 5
        assert detail["hom_directions_exhaust_classes"]


def test_gf5_linear_algebra():
    ech = gf5.Echelon([[1, 2], [2, 4]])
    assert ech.rank == 1
    ns = gf5.nullspace([[1, 2], [2, 4]], 2)
    assert len(ns) == 1 and oracle.matvec([[1, 2]], ns[0]) == [0]
    # a vector is in the span exactly when its normal form is empty
    assert gf5.Echelon([[1, 0]]).reduce([0, 1]) == {1: 1}
    assert gf5.Echelon([[1, 0], [0, 1]]).reduce([1, 1]) == {}
    # rows @ x = rhs is solvable exactly when rhs reduces to 0 modulo the
    # span of the columns
    cols = gf5.Echelon(zip(*[[1, 1], [2, 2]]))
    assert cols.reduce([1, 2]) == {}
    assert cols.reduce([1, 3]) != {}


@pytest.mark.parametrize("sweep,named", [((1,), "precision 1 "),
                                         ((8, 0, 12), "precision 0 "),
                                         ((), "precision sweep is empty")])
def test_tangent_report_refuses_a_sweep_below_the_floor(monkeypatch, sweep,
                                                         named):
    def boom(*args, **kwargs):
        raise AssertionError("a series was built before the refusal")

    monkeypatch.setattr(series.TruncatedSeries, "__init__", boom)
    monkeypatch.setattr(tangent, "cocycle_matrix", boom)
    with pytest.raises(series.PrecisionError, match=named):
        tangent_report(sweep)
