"""The per-level conjugator search against the enumerate-and-filter oracle
(``conjugator_oracle.py``), its precondition and its two refusal rules."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import conjugator_oracle as oracle
from defo5 import cli
from defo5.artin.rings import (ENUMERATION_BOUND, EnumerationBoundError,
                               RingError, build_ring)
from defo5.artin.tables import ring_table
from defo5.deformation import CATALOG, equivalence
from defo5.deformation.equivalence import conjugator_search, universality_scan
from defo5.deformation.versal import hom_points, versal_family
from defo5.nottingham import Automorphism
from defo5.series import TruncatedSeries


def _key(xi, count):
    return (str(xi.series) if xi is not None else None), count


def _families(ring, prec):
    e = ring.nilpotency_index
    return [versal_family(p, prec + e - 1) for p in hom_points(ring)]


def _m_size(ring):
    return ring.cardinality // ring.residue_ring.cardinality


SMALL = [(desc, prec) for desc in CATALOG for prec in (3, 4, 5)
         if build_ring(desc).cardinality <= 125
         and _m_size(build_ring(desc)) ** (prec + 1) <= ENUMERATION_BOUND]


@pytest.mark.parametrize("desc,prec", SMALL)
def test_every_pair_matches_enumeration_oracle(desc, prec):
    ring = build_ring(desc)
    fams = _families(ring, prec)
    rep = universality_scan(ring, prec)
    assert len(rep["pairs"]) == len(fams) ** 2
    for n, row in enumerate(rep["pairs"]):
        i, j = divmod(n, len(fams))
        want = _key(*oracle.conjugator_search(fams[i], fams[j], prec))
        assert (row["conjugator"], row["conjugators_at_precision"]) == want
        if i == 0 or i == j:  # the one-pair entry point, same kernel
            assert _key(*conjugator_search(fams[i], fams[j], prec)) == want


def test_small_cases_cover_the_catalog():
    assert {d for d, _ in SMALL} == {d for d in CATALOG
                                     if build_ring(d).cardinality <= 125}
    assert ("F5[e]/(e^3)", 4) in SMALL and ("cyclo(3)", 4) in SMALL
    assert ("F5[e]/(e^2)", 5) in SMALL


@pytest.mark.parametrize("desc", ["F5[e]/(e^4)", "cyclo(4)",
                                  "F5[e1]/(e1^2)[e2]/(e2^2)", "F25[e]/(e^2)"])
def test_sampled_pairs_at_625_match_enumeration_oracle(desc, monkeypatch):
    # the oracle's a-priori bound refuses |m| = 125 at these precisions
    monkeypatch.setattr(oracle, "ENUMERATION_BOUND", 1 << 40)
    ring = build_ring(desc)
    rng = random.Random(20261018)
    fams = _families(ring, 4)
    n = len(fams)
    off = [(i, j) for i, j in ((rng.randrange(n), rng.randrange(n))
                               for _ in range(12)) if i != j][:6]
    assert len(off) >= 4
    for i, j in off:
        want = _key(*oracle.conjugator_search(fams[i], fams[j], 4))
        assert want == (None, 0)
        assert _key(*conjugator_search(fams[i], fams[j], 4)) == want
    # a diagonal pair, at precision 3 (the oracle needs seconds at 4)
    d = rng.randrange(n)
    fams3 = _families(ring, 3)
    want = _key(*oracle.conjugator_search(fams3[d], fams3[d], 3))
    assert want[0] is not None
    assert _key(*conjugator_search(fams3[d], fams3[d], 3)) == want


def test_complete_scan_of_a_625_element_ring():
    ring = build_ring("F5[e1]/(e1^2)[e2]/(e2^2)")
    rep = universality_scan(ring, 4)
    assert rep["hom_points"] == 125
    assert rep["diagonal_equivalent"] == 125
    assert rep["off_diagonal_refuted"] == 15500
    assert rep["all_as_predicted"]
    fams = _families(ring, 4)
    for n in (0, 126, 7812, 15624):  # diagonal pairs 0, 1, 62 and 124
        row = rep["pairs"][n]
        i, j = divmod(n, 125)
        assert (row["conjugator"], row["conjugators_at_precision"]) == \
            _key(*conjugator_search(fams[i], fams[j], 4))


def test_pair_groups_do_not_change_the_report(monkeypatch):
    ring = build_ring("F5[e]/(e^3)")
    ref = universality_scan(ring, 4)
    # the largest one-pair frontier here is 625 rows (level 3, diagonal)
    monkeypatch.setattr(equivalence, "FRONTIER_BOUND", 625)
    assert universality_scan(ring, 4) == ref
    monkeypatch.setattr(equivalence, "FRONTIER_BOUND", 624)
    with pytest.raises(EnumerationBoundError, match="frontier of 625 rows"):
        universality_scan(ring, 4)


def test_frontier_refusal_exits_two(monkeypatch):
    monkeypatch.setattr(equivalence, "FRONTIER_BOUND", 100)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["universality", "--ring", "F5[e]/(e^3)",
                         "--prec", "4"])
    assert code == 2
    assert out.getvalue() == ""
    assert "frontier" in err.getvalue()
    assert "exceeds the bound" in err.getvalue()


@pytest.mark.parametrize("desc", ["cyclo(4)", "F5[e]/(e^4)"])
def test_flat_table_index_is_formed_wide(desc):
    """_mul and _add look up a * n + b for int16 table values a, b; near
    n - 1 the product a * n passes 2^15, so it must not be formed in int16."""
    ring = build_ring(desc)
    T = ring_table(ring)
    fams = _families(ring, 3)[:1]
    search = equivalence._Search(T, fams, fams, 3)
    # indices read back from the table, so they carry its int16 dtype
    a = T.NEG[T.NEG[np.arange(T.n - 20, T.n)]][:, None]
    b = T.NEG[T.NEG[np.r_[0:5, T.n - 15:T.n]]][None, :]
    assert a.dtype == np.int16 and int(a.max()) * T.n >= 2 ** 15
    els = [T.element(i) for i in range(T.n)]
    for got, op in ((search._mul(a, b), lambda x, y: x * y),
                    (search._add(a, b), lambda x, y: x + y)):
        assert got.tolist() == [[T.index(op(els[x], els[y])) for y in b[0]]
                                for x in a[:, 0]]


def test_cardinality_rule_admits_625_and_refuses_3125():
    for desc in CATALOG:
        equivalence._refuse_cardinality(build_ring(desc))
    for desc in ("cyclo(5)", "Z/5^5", "F5[e]/(e^5)"):
        with pytest.raises(EnumerationBoundError, match="exceeds the bound"):
            equivalence._refuse_cardinality(build_ring(desc))


def test_universality_at_625_exits_zero():
    # an a-priori bound |m|^(prec + 1) <= 2^24 would refuse this (exit 2)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["universality", "--ring", "F5[e]/(e^4)",
                         "--prec", "4"])
    assert code == 0
    details = json.loads(out.getvalue())["details"]
    assert (details["diagonal_equivalent"],
            details["off_diagonal_refuted"]) == (125, 15500)


def test_nonzero_constant_term_is_refused():
    # xi o lift1 = lift2 o xi for a lift1 with constant term e; a search
    # that drops the terms xi_i (lift1^i)_k with i > k refutes it wrongly
    ring = build_ring("F5[e]/(e^3)")
    e = ring.generator("e")
    sigma = versal_family(hom_points(ring)[0], 16)
    lift1 = sigma(Automorphism(TruncatedSeries(ring, [e, 1], prec=16)))
    xi = Automorphism(TruncatedSeries(ring, [0, 1, e], prec=16))
    lift2 = xi(lift1)(xi.inverse())
    assert lift1.series.coeffs[0] == e
    assert xi.series.compose(lift1.series).agrees_with(
        lift2.series.compose(xi.series), 4)
    assert oracle.conjugator_search(lift1, lift2, 4) == (None, 0)
    with pytest.raises(RingError, match="zero constant term"):
        conjugator_search(lift1, lift2, 4)
    # the precondition is on lift1 only
    assert conjugator_search(sigma, sigma, 4)[0] is not None


@pytest.mark.parametrize("desc", ["F5[e]/(e^2)", "F5[e]/(e^3)", "cyclo(2)",
                                  "cyclo(3)"])
def test_planted_conjugates_match_enumeration_oracle(desc):
    # lift2 = xi o lift1 o xi^-1 for random xi = t mod m: the first
    # conjugator is not t, and lift2 has a nonzero constant term
    ring = build_ring(desc)
    rng = random.Random(7)
    pts = hom_points(ring)
    m = list(ring.enumerate("maximal-ideal"))
    for _ in range(6):
        lift1 = versal_family(rng.choice(pts), 16)
        xi = Automorphism(TruncatedSeries(
            ring, [rng.choice(m), ring.one + rng.choice(m)]
            + [rng.choice(m) for _ in range(4)], prec=16))
        lift2 = xi(lift1)(xi.inverse())
        want = _key(*oracle.conjugator_search(lift1, lift2, 4))
        assert want[0] is not None and want[0] != "t"
        assert _key(*conjugator_search(lift1, lift2, 4)) == want
