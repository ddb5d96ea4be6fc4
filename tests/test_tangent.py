"""Tangent-space linear algebra over F5: cocycle/coboundary maps validated
against brute-force composition, the period lemma, the dimension-1
stabilization, and the certificate checks refusing a tampered base table,
tampered directions and a failed group-law certificate."""

import json
import random

import numpy as np
import pytest

import gf5_oracle as oracle
from defo5 import cli, gf5, series
from defo5.artin.rings import RingError, build_ring
from defo5.deformation import obstruction, tangent
from defo5.deformation.tangent import (BASE_PREC, COCYCLE_SHIFT, PERIOD,
                                       WINDOW, coboundary_matrix,
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
    assert calls == {"Z": [BASE_PREC], "B": [BASE_PREC]}


def _builder_calls(monkeypatch, run):
    """The builder calls and the length of every series made by ``run()``,
    in order, after one warm-up run."""
    run()
    calls = []
    for module, name in [(tangent, "cocycle_matrix"),
                         (tangent, "coboundary_matrix"),
                         (tangent, "hom_point_directions"),
                         (obstruction, "cocycle_matrix"),
                         (obstruction, "defect_vector")]:
        def record(*args, _name=name, _real=getattr(module, name)):
            calls.append((_name, args))
            return _real(*args)
        monkeypatch.setattr(module, name, record)
    real_set = series.TruncatedSeries._set
    monkeypatch.setattr(
        series.TruncatedSeries, "_set",
        lambda self, ring, raw: calls.append(len(raw))
        or real_set(self, ring, raw))
    run()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("report", [
    lambda p: tangent_report((p,)),
    lambda p: obstruction.obstruction_check("Z/25", p)],
    ids=["tangent", "obstruction"])
def test_report_work_does_not_grow_with_prec(monkeypatch, report):
    """The same builders at the same sizes, and series of the same lengths,
    at P = 8 and at the ceiling P = 1025."""
    calls = _builder_calls(monkeypatch, lambda: report(8))
    assert calls == _builder_calls(monkeypatch, lambda: report(1025))
    assert ("cocycle_matrix", (BASE_PREC,)) in calls
    assert max(n for n in calls if isinstance(n, int)) <= BASE_PREC + 8


@pytest.mark.parametrize("build,rows", [(cocycle_matrix, 1025 + 8),
                                        (coboundary_matrix, 1025)],
                         ids=["Z", "B"])
def test_period_lemma_at_the_ceiling(build, rows):
    """Rows 0..j-1 of column j are 0, and rows j..j+WINDOW-1 are rows
    r..r+WINDOW-1 of column r = j mod PERIOD, for every column of Z and B
    at P = 1025."""
    M = np.array(build(1025))
    assert M.shape == (rows, 1025)
    for j in range(1025):
        r = j % PERIOD
        window = M[j:j + WINDOW, j]
        assert not M[:j, j].any(), j
        assert np.array_equal(window, M[r:r + len(window), r]), j


def test_sweep_corners_equal_direct_builds():
    """Z, B and the hom directions at a precision are the top-left corners
    of those at a larger one, and a sweep entry's report does not depend on
    the rest of the sweep."""
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


def _tamper(monkeypatch, name, edit):
    """Replace tangent.<name> by the real builder followed by ``edit``."""
    real = getattr(tangent, name)

    def tampered(p):
        built = real(p)
        edit(built)
        return built
    monkeypatch.setattr(tangent, name, tampered)


def test_coboundary_outside_kernel_raises(monkeypatch):
    """im B must lie in ker Z for dim = prec - rank Z - rank B.  Column 13 of
    B is outside the two periods and 0 on row 15 (13 = 3 mod 5); a 1 there
    keeps every window fact and sends the column outside ker Z (column 15
    of Z leads at row 23)."""
    def edit(B):
        B[15][13] = 1
    _tamper(monkeypatch, "coboundary_matrix", edit)
    with pytest.raises(RingError, match="every coboundary is a cocycle$"):
        tangent_report((8,))


def _zero_lead(Z):
    Z[COCYCLE_SHIFT][0] = 0


def _double_lead_row(Z):
    Z[COCYCLE_SHIFT] = [2 * v % 5 for v in Z[COCYCLE_SHIFT]]


# each edit also breaks the agreement of the two periods, which is checked
# after the window facts
@pytest.mark.parametrize("edit", [_zero_lead, _double_lead_row],
                         ids=["zeroed", "row-doubled"])
def test_z_lead_off_its_value_raises(monkeypatch, edit):
    """Column 0 of the base table of Z must lead with 4 at t^COCYCLE_SHIFT;
    a row scaled by a unit keeps ker Z, so only the lead check sees it."""
    _tamper(monkeypatch, "cocycle_matrix", edit)
    with pytest.raises(RingError, match="column 0 of Z leads with 4 at row 8"):
        tangent_report((16,))


@pytest.mark.parametrize("j", [0, 3])
def test_b_lead_off_its_value_raises(monkeypatch, j):
    """Column j of B must have (3 - j)/2 at row j + 2: 4 for j = 0, and 0
    for j = 3, the column that certifies no rank."""
    def edit(B):
        B[j + 2][j] = (B[j + 2][j] + 1) % 5
    _tamper(monkeypatch, "coboundary_matrix", edit)
    with pytest.raises(RingError, match="B has \\(3 - j\\)/2 at row j \\+ 2$"):
        tangent_report((8,))


def test_z_nonzero_on_its_window_raises(monkeypatch):
    """Column 0 of Z must be 0 on rows 0..7: a 1 at row 7 is refused by the
    window check, before the period check would see it."""
    def edit(Z):
        Z[COCYCLE_SHIFT - 1][0] = 1
    _tamper(monkeypatch, "cocycle_matrix", edit)
    with pytest.raises(RingError, match="Z is 0 on rows 0..j\\+7$"):
        tangent_report((8,))


def test_two_periods_that_disagree_raise(monkeypatch):
    """Column 7 of B off its period below its lead row, every window fact
    of columns 0..4 kept."""
    def edit(B):
        B[12][7] = (B[12][7] + 1) % 5
    _tamper(monkeypatch, "coboundary_matrix", edit)
    with pytest.raises(RingError, match="two periods of Z and B agree"):
        tangent_report((8,))


@pytest.mark.parametrize("period", [4, 10])
def test_a_period_other_than_frobenius_raises(monkeypatch, period):
    """(1 + k t^2)^p = 1 + k t^(2p) over F5 holds for p = 5, not for 4 or 10;
    at 10 the window facts of columns 0..9 still hold."""
    monkeypatch.setattr(tangent, "PERIOD", period)
    with pytest.raises(RingError, match="\\(Frobenius\\)$"):
        tangent_report((8,))


def test_nonzero_row_one_of_b_raises(monkeypatch):
    """phi must vanish on im B.  Adding a hom direction (a cocycle with
    phi != 0) to the last column of the base table of B keeps every column
    a cocycle and every certifying lead in place, but puts a nonzero entry
    in row 1."""
    direction = hom_point_directions(BASE_PREC)[1][1]

    def edit(B):
        for i, v in enumerate(direction):
            B[i][-1] = (B[i][-1] + v) % 5
    _tamper(monkeypatch, "coboundary_matrix", edit)
    with pytest.raises(RingError, match="B is 0 on rows 0..j\\+1$"):
        tangent_report((12,))


def test_a_failed_group_law_certificate_is_reported(monkeypatch):
    """The directions are cocycles because sigma_y^5 = t (lift_certificate);
    one failed certificate fails the report, and with none left the
    dimension has no lower bound."""
    real = tangent.lift_certificate
    failed = []

    def one_fails(point, prec):
        if not failed:
            failed.append(point)
            return False, "tampered"
        return real(point, prec)
    monkeypatch.setattr(tangent, "lift_certificate", one_fails)
    detail = tangent_report((8,))["per_precision"]["8"]
    assert failed and detail["hom_directions_are_cocycles"] is False
    monkeypatch.setattr(tangent, "lift_certificate",
                        lambda point, prec: (False, "tampered"))
    with pytest.raises(RingError, match="no certificate of dimension 1"):
        tangent_report((8,))


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
