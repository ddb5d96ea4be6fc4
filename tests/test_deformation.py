"""Versal points, lifts, equivalence scans, obstruction, and the proof
chain; the proof chain is cross-checked against an independent brute force
that evaluates the literal displayed equations over every witness."""

import copy
import time

import numpy as np
import pytest

from defo5.artin.rings import DescriptorError, RingError, build_ring
from defo5.artin.tables import ring_table
from defo5.deformation import obstruction, proofchain
from defo5.deformation.equivalence import (conjugator_search, equivalent,
                                           universality_scan)
from defo5.deformation.obstruction import defect_vector, obstruction_check
from defo5.deformation.proofchain import (CATALOG, catalog_rings,
                                          proof_chain_check, proof_chain_scan)
from defo5.deformation.versal import (VersalPoint, hom_points, is_lift,
                                      iterate_closed_form, lift_certificate,
                                      phi5, versal_family)
from defo5.nottingham import Automorphism, base_sigma, conjugate, power
from defo5.series import TruncatedSeries

import proofchain_oracle


# -- versal points -----------------------------------------------------------------

@pytest.mark.parametrize("desc,count", [
    ("F5", 1), ("F25", 1), ("Z/25", 0), ("Z/125", 0),
    ("F5[e]/(e^2)", 5), ("F5[e]/(e^3)", 25), ("cyclo(2)", 5), ("cyclo(3)", 25),
])
def test_hom_point_counts(desc, count):
    assert len(hom_points(build_ring(desc))) == count


def test_versal_point_validation():
    R = build_ring("F5[e]/(e^2)")
    with pytest.raises(Exception):
        VersalPoint(R, R.from_int(2))  # Phi5(2) = 31 != 0 and 2 != 1 mod m


def test_versal_family_reduction_is_sigma():
    R = build_ring("F5[e]/(e^2)")
    sig = base_sigma(build_ring("F5"), 8)
    for p in hom_points(R):
        fam = versal_family(p, 8)
        assert fam.reduce_residue().series == sig.series


def test_lift_certificates_cyclo():
    for m in (2, 3, 4, 5):
        R = build_ring(f"cyclo({m})")
        p = VersalPoint(R, R.one + R.generator("u"))
        ok, detail = lift_certificate(p, 16)
        assert ok, detail


def test_iterates_closed_form():
    for desc in ("F5", "F25", "F5[e]/(e^2)", "cyclo(3)"):
        R = build_ring(desc)
        for p in hom_points(R):
            fam = versal_family(p, 12)
            for k in range(6):
                closed = iterate_closed_form(p, k, 12)
                direct = power(fam, k)
                assert closed.series.agrees_with(direct.series, direct.prec)


def test_fifth_iterate_is_identity():
    R = build_ring("F5[e]/(e^2)")
    for p in hom_points(R):
        it5 = iterate_closed_form(p, 5, 10)
        assert it5.series == TruncatedSeries.t(R, 10)


def test_is_lift_rejects_wrong_reduction():
    R = build_ring("F5[e]/(e^2)")
    # 2t + ... reduces to 2t, not sigma
    bad = Automorphism(TruncatedSeries(R, [0, 2], prec=20))
    ok, detail = is_lift(bad, 12)
    assert not ok and "reduction" in detail


# -- equivalence --------------------------------------------------------------------

def test_universality_scan_dual_numbers():
    rep = universality_scan(build_ring("F5[e]/(e^2)"), 4)
    assert rep["diagonal_equivalent"] == 5
    assert rep["off_diagonal_refuted"] == 20
    assert rep["all_as_predicted"]


def test_universality_scan_e3():
    rep = universality_scan(build_ring("F5[e]/(e^3)"), 4)
    assert rep["diagonal_equivalent"] == 25
    assert rep["off_diagonal_refuted"] == 600
    assert rep["all_as_predicted"]


def test_plant_and_recover_conjugator():
    R = build_ring("F5[e]/(e^2)")
    e = R.generator("e")
    p = hom_points(R)[1]
    prec = 4
    slack = R.nilpotency_index - 1
    fam = versal_family(p, 12)
    xi = Automorphism(TruncatedSeries(R, [e, R.one + e, e], prec=10))
    planted = conjugate(fam, xi)
    found = equivalent(fam, Automorphism(planted.series), prec)
    assert found is not None
    left = found.series.exact_extension(prec + slack).compose(
        fam.series.truncate(prec))
    right = planted.series.truncate(prec + slack).compose(
        found.series.exact_extension(prec + slack))
    assert left.agrees_with(right, prec)


def test_equivalence_symmetry_and_transitivity():
    R = build_ring("F5[e]/(e^2)")
    pts = hom_points(R)
    fams = [versal_family(p, 8) for p in pts]
    xi01, _ = conjugator_search(fams[0], fams[0], 4)
    assert xi01 is not None  # reflexive
    assert conjugator_search(fams[0], fams[1], 4)[0] is None
    assert conjugator_search(fams[1], fams[0], 4)[0] is None  # symmetric


# -- obstruction ---------------------------------------------------------------------

def test_defect_vector_leading_term():
    d = defect_vector(8)
    assert d[:4] == [0, 0, 0, 2]  # -t^3/2 = 2 t^3 over F5


def test_obstruction_z25():
    rep = obstruction_check("Z/25", 8)
    assert rep["hom_points_empty"]
    assert rep["defect_leading_order"] == 3
    assert not rep["linear_system_consistent"]
    assert rep["obstructed"]


def test_obstruction_higher_n():
    rep = obstruction_check("Z/125", 8)
    assert rep["hom_points_empty"] and rep["obstructed"]


@pytest.mark.parametrize("desc,error", [
    ("Z/5", RingError),
    ("Z/5^1", RingError),
    ("F5", RingError),  # the ring Z/5
    ("F25", DescriptorError),
    ("cyclo(1)", DescriptorError),
    ("cyclo(2)", DescriptorError),
    ("Z/10", DescriptorError),
    ("Z/5^0", DescriptorError),
    ("F5[e]/(e^2)", DescriptorError),
    # int() would refuse 5000 digits
    pytest.param("Z/5^" + "9" * 5000, DescriptorError, id="5000-digit-n"),
])
def test_obstruction_refusals(desc, error):
    with pytest.raises(RingError) as info:
        obstruction_check(desc, 8)
    assert type(info.value) is error


@pytest.mark.parametrize("n", [2, 3, 4])
def test_obstruction_certificate_against_enumeration(n):
    """Phi5(1 + u) = 5 mod 25 for every u in 5A, so Z/5^n has no versal
    point; the report's point count agrees with the full enumeration."""
    ring = build_ring(f"Z/5^{n}")
    for u in ring.enumerate("maximal-ideal"):
        assert phi5(ring.one + u) - ring.from_int(5) in {
            ring.from_int(25) * x for x in ring.enumerate()}
    rep = obstruction_check(f"Z/5^{n}", 6)
    assert rep["hom_points"] == len(hom_points(ring)) == 0
    assert rep["hom_points_empty"] and rep["obstructed"]


def test_obstruction_certificate_is_constant_time(monkeypatch):
    scanned = []

    def counting_hom_points(ring):
        scanned.append(ring.descriptor)
        return hom_points(ring)

    monkeypatch.setattr(obstruction, "hom_points", counting_hom_points)
    t0 = time.perf_counter()
    rep = obstruction_check("Z/5^9", 8)
    assert time.perf_counter() - t0 < 0.5
    assert rep["hom_points"] == 0 and rep["obstructed"]
    assert scanned == ["Z/5^2"]
    # were Z/25 to have a point, the ring itself would be enumerated
    monkeypatch.setattr(obstruction, "hom_points",
                        lambda ring: scanned.append(ring.descriptor) or [1])
    scanned.clear()
    assert obstruction_check("Z/125", 8)["hom_points"] == 1
    assert scanned == ["Z/5^2", "Z/5^3"]


# -- proof chain ---------------------------------------------------------------------

def test_catalog_contents():
    rings = catalog_rings()
    assert [r.descriptor for r in rings] == [
        build_ring(d).descriptor for d in CATALOG]
    assert all(r.cardinality <= 625 for r in rings)


def test_proof_chain_zero_counterexamples_small():
    for desc in ("F5", "F25", "F5[e]/(e^2)", "cyclo(2)", "Z/25"):
        rep = proof_chain_check(desc)
        assert rep["passed"], rep
        assert rep["counterexamples"] == 0


def test_proof_chain_scan_parallel_matches_serial():
    serial = proof_chain_scan(max_cardinality=125, jobs=1)
    parallel = proof_chain_scan(max_cardinality=125, jobs=2)
    assert serial == parallel
    assert serial["passed"]


def test_displayed_sign_of_final_identity():
    """The source's closing display a0*(1/s2 - 1) = a0^3 holds only up to
    sign; the corrected statement a0*(1 - 1/s2) = a0^3 is what step (iv)
    verifies.  The displayed sign fails exactly where a0^3 can be nonzero."""
    iv = {d: next(s for s in proof_chain_check(d)["steps"]
                  if s["step"] == "iv") for d in
          ("F5[e]/(e^3)", "F5[e]/(e^4)", "cyclo(4)")}
    assert iv["F5[e]/(e^3)"]["displayed_sign_holds"]  # a0^3 = 0 there
    assert not iv["F5[e]/(e^4)"]["displayed_sign_holds"]
    assert not iv["cyclo(4)"]["displayed_sign_holds"]
    assert all(v["counterexamples"] == 0 for v in iv.values())


STEP_PAIRS = {
    "i": (proofchain._step_i, proofchain_oracle.step_i),
    "ii": (proofchain._step_ii, proofchain_oracle.step_ii),
    "iii": (proofchain._step_iii, proofchain_oracle.step_iii),
    "vi": (proofchain._step_vi, proofchain_oracle.step_vi),
}


ALL_STEP_PAIRS = {
    **STEP_PAIRS,
    "iv": (proofchain._step_iv, proofchain_oracle.step_iv),
    "v": (proofchain._step_v, proofchain_oracle.step_v),
}


def _oracle_counterexamples(scan, pairs=STEP_PAIRS):
    """Step reports against the loop-form oracle; the steps that found a
    counterexample."""
    found = set()
    for name, (fast, oracle) in pairs.items():
        rep = oracle(scan)
        assert fast(scan) == rep, name
        if rep["counterexamples"]:
            found.add(name)
    return found


@pytest.mark.parametrize("desc", CATALOG)
def test_proof_chain_steps_match_loop_oracle(desc):
    assert _oracle_counterexamples(proofchain._Scan(build_ring(desc))) == set()


@pytest.mark.parametrize("desc", CATALOG)
def test_survivor_and_locality_steps_match_loop_oracle(desc):
    """Steps (iv) and (v) on the Eq3 and Eq5 survivor rows and vectorised
    over m, against every row and one a0 at a time."""
    scan = proofchain._Scan(build_ring(desc))
    assert _oracle_counterexamples(scan, ALL_STEP_PAIRS) == set()


@pytest.mark.parametrize("desc", ["F5", "F25", "Z/25", "F5[e]/(e^2)",
                                  "F5[e]/(e^3)", "Z/125"])
def test_fibre_tables_against_broadcast(desc):
    """Random quads (K, N, P, Q), not only those the chain produces: bad iff
    some a2 and unit square u have a2*N = u*K and a2*P != u*Q."""
    scan = proofchain._Scan(build_ring(desc))
    MUL, U, a2 = scan.MUL, scan.unit_squares, scan.all_idx
    K, N, P, Q = np.random.default_rng(5).integers(0, scan.T.n, (4, 400))
    bad = proofchain._bad_quads(scan, K, N, P, Q)
    expect = [((MUL[a2, n][:, None] == MUL[U, k][None, :])
               & (MUL[a2, p][:, None] != MUL[U, q][None, :])).any()
              for k, n, p, q in zip(K, N, P, Q)]
    assert bad.tolist() == expect
    assert 0 < bad.sum() < len(bad)


@pytest.mark.parametrize("desc", ["F5", "F25", "Z/25", "F5[e]/(e^2)",
                                  "F5[e]/(e^3)", "Z/125"])
def test_ideal_members_against_broadcast(desc):
    """Random units s2 and random Q, not only those the chain produces:
    member[p, Q] iff some unit square u has u*Q in P*A, P = (1/s2)(1/s2 - 1)."""
    scan = proofchain._Scan(build_ring(desc))
    MUL, U, a2 = scan.MUL, scan.unit_squares, scan.all_idx
    rng = np.random.default_rng(6)
    s2 = rng.choice(scan.T.units, 40)
    Q = rng.integers(0, scan.T.n, 50)
    member = proofchain._ideal_members(scan, s2)[:, Q]
    expect = [[np.isin(MUL[U, q],
                       MUL[a2, proofchain_oracle.p_of(scan, s)]).any()
               for q in Q] for s in s2]
    assert member.tolist() == expect
    assert 0 < member.sum() < member.size


def test_scan_versal_points_are_hom_points():
    """_Scan reads its versal points off its own table."""
    for desc in CATALOG + ("cyclo(5)", "F5[e]/(e^5)", "Z/5^5"):
        ring = build_ring(desc)
        T = ring_table(ring)
        assert proofchain._Scan(ring).ys == sorted(
            T.index(p.y) for p in hom_points(ring)), desc


TAMPERS = {
    # Eq3 assumed everywhere: Eq4 no longer forces Eq5, nor the 3rd-order
    # equation Eq6; reversing the pairs moves the lowest bad pair index
    "eq3_everywhere": (lambda s: {"EQ3": np.ones_like(s.EQ3)}, {"i", "ii"}),
    "eq3_everywhere_pairs_reversed": (
        lambda s: {"EQ3": np.ones_like(s.EQ3), "s2_pairs": s.s2_pairs[::-1]},
        {"i", "ii"}),
    # ... and with every other pair gone, the bad rows of step (i) pin 1/s2
    # to no remaining pair, so none of them is a counterexample
    "eq3_everywhere_half_the_pairs": (
        lambda s: {"EQ3": np.ones_like(s.EQ3), "s2_pairs": s.s2_pairs[::2]},
        {"ii"}),
    # Q = 0 makes Eq6 satisfiable for every a0
    "threehalf_zero": (lambda s: {"threehalf": s.zero}, {"iii"}),
    # y2 labels shifted one pair along, or y1 one row along
    "y2_rotated": (lambda s: {"s2_pairs": [
        (s.s2_pairs[(k + 1) % len(s.s2_pairs)][0], s2)
        for k, (_, s2) in enumerate(s.s2_pairs)]}, {"vi"}),
    "y1_rolled": (lambda s: {"Y1": np.roll(s.Y1, 1)}, {"vi"}),
    "first_root_dropped": (lambda s: {"s2_pairs": s.s2_pairs[1:]}, set()),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
@pytest.mark.parametrize("desc", ["F5[e]/(e^3)", "cyclo(3)"])
def test_proof_chain_witnesses_match_loop_oracle(desc, tamper):
    """Scans with counterexamples: the fast steps pick the oracle's witness
    (lowest pair index, then lowest row, then lowest a2 and u)."""
    attrs, expected = TAMPERS[tamper]
    scan = copy.copy(proofchain._Scan(build_ring(desc)))
    scan.__dict__.update(attrs(scan))
    assert _oracle_counterexamples(scan) == expected


def _units_in_m(scan):
    """The scan with the units 2 and 3 listed among the elements of m."""
    T = copy.copy(scan.T)
    T.mideal = np.append(T.mideal, [T.from_int(2), T.from_int(3)]).astype(
        T.mideal.dtype)
    return {"T": T}


def _versal_point_cleared(scan):
    """The scan with its last versal point cleared from the y2 filter."""
    y_mask = scan.y_mask.copy()
    y_mask[scan.ys[-1]] = False
    return {"y_mask": y_mask}


# Tampers reaching steps (iv) and (v), compared over all six steps.  No
# tamper that keeps the tables consistent breaks (iv) alone: (iv) fails on a
# survivor row exactly where Eq3 fails there, and (ii) rests on Eq3 too.
LATE_TAMPERS = {
    # a0 + e^2 (u^2 in cyclo(3): rank 1, which annihilates m) keeps a0^2,
    # and Eq3 wherever s1 = 1 mod m; the stale Eq3 flag of a0 = 0 with
    # s1 = -1 mod m now lets a0 = e^2 through, where Eq3 fails.  Shifted on
    # the rows of the last y1 only, so that the first bad row is far from
    # the first bad survivor's position among the survivors
    "a0_shifted_by_e2": (lambda s: {"A0": np.where(
        s.Y1 == s.ys[-1], s.ADD[s.A0, s.T.mideal[1]], s.A0)}, {"ii", "iv"}),
    # u^2 is in u^3*A and is nonzero for a unit u; step (iii) still holds at
    # a0 = 2 and 3, since Q is then a unit times a0^2 - 1, also a unit
    "units_in_m": (_units_in_m, {"v"}),
    # no catalog ring has an Eq3 row whose Eq5 s2 squares to a non-versal
    # y2, so only a y2 filter with a point cleared makes it drop rows:
    # (ii) and (iv) then check fewer survivors and still find nothing
    "versal_point_cleared": (_versal_point_cleared, set()),
}


@pytest.mark.parametrize("tamper", sorted(LATE_TAMPERS))
@pytest.mark.parametrize("desc", ["F5[e]/(e^3)", "cyclo(3)"])
def test_survivor_and_locality_witnesses_match_loop_oracle(desc, tamper):
    """Scans with counterexamples in (iv) or (v): the survivor-row and
    vectorised steps pick the oracle's witness (lowest row, lowest a0)."""
    attrs, expected = LATE_TAMPERS[tamper]
    scan = copy.copy(proofchain._Scan(build_ring(desc)))
    scan.__dict__.update(attrs(scan))
    assert _oracle_counterexamples(scan, ALL_STEP_PAIRS) == expected


@pytest.mark.parametrize("desc", ["F5[e]/(e^3)", "cyclo(3)"])
def test_versal_filter_drops_survivors(desc):
    """With a versal point cleared from y_mask, the survivors lose exactly
    the rows whose y2 is that point, as in the oracle, and steps (ii) and
    (iv) count fewer checks."""
    scan = proofchain._Scan(build_ring(desc))
    tampered = copy.copy(scan)  # before any row quantity is cached
    tampered.__dict__.update(
        LATE_TAMPERS["versal_point_cleared"][0](tampered))
    rows, _, _, y2 = scan.survivors
    lost = y2 == scan.ys[-1]
    assert lost.any()
    assert (tampered.survivors[0].tolist() == rows[~lost].tolist()
            == np.flatnonzero(proofchain_oracle.eq5_survivors(tampered)[0])
            .tolist())
    for step in (proofchain._step_ii, proofchain._step_iv):
        assert step(tampered)["checked"] < step(scan)["checked"]


def test_proof_chain_brute_force_cross_check():
    """Independent oracle: evaluate the literal displayed equations over
    every witness of F5[e]/(e^2) with direct table arithmetic and confirm
    each implication, without the factored-form and unit-collapse
    reductions used by proof_chain_check."""
    ring = build_ring("F5[e]/(e^2)")
    T = ring_table(ring)
    MUL, ADD, INV, NEG, SQ = T.MUL, T.ADD, T.INV, T.NEG, T.SQ
    one, zero = T.one, T.zero
    ys = [T.index(p.y) for p in hom_points(ring)]
    half = INV[T.from_int(2)]
    threehalf = MUL[T.from_int(3), half]
    a2s = np.arange(T.n, dtype=np.int32)
    failures = []
    for y1 in ys:
        for a0 in T.mideal:
            a0sq, a0cu = SQ[a0], MUL[a0, SQ[a0]]
            for s1 in T.roots[ADD[a0sq, y1]]:
                i1 = INV[s1]
                i1c = MUL[i1, SQ[i1]]
                i1_5 = MUL[i1c, SQ[i1]]
                eq3 = MUL[a0, s1] == a0
                for y2 in ys:
                    iy2 = INV[y2]
                    for s2 in T.roots[y2]:
                        i2 = INV[s2]
                        eq5 = ADD[i1, NEG[i2]] == a0sq
                        # step (vi)
                        if SQ[a0] == zero and eq5 and y1 != y2:
                            failures.append(("vi", a0, y1, y2))
                        # step (iv), corrected sign
                        if eq3 and eq5 and \
                                MUL[a0, ADD[one, NEG[i2]]] != a0cu:
                            failures.append(("iv", a0, y1, y2))
                        for a1 in T.units:
                            a1sq = SQ[a1]
                            eq4 = ADD[MUL[a1, i1],
                                      NEG[MUL[a0sq, MUL[a1, i1c]]]] \
                                == MUL[a1, i2]
                            if eq3 and eq4 and not eq5:
                                failures.append(("i", a0, a1, y1, y2))
                            # literal third-order display, vectorized in a2
                            lhs3 = ADD[
                                MUL[MUL[a0, a1sq], i1c],
                                NEG[MUL[MUL[a0, i1], ADD[
                                    MUL[MUL[a0sq, a1sq], SQ[SQ[i1]]],
                                    MUL[half, ADD[
                                        MUL[MUL[a0sq, a1sq], SQ[SQ[i1]]],
                                        NEG[MUL[ADD[a1sq,
                                                    MUL[T.from_int(2),
                                                        MUL[a0, a2s]]],
                                                SQ[i1]]]]]]]]]
                            rhs3 = ADD[MUL[a2s, i1], NEG[MUL[a2s, iy2]]]
                            third = lhs3 == rhs3
                            eq6 = MUL[a2s, MUL[i2, ADD[i2, NEG[one]]]] \
                                == MUL[threehalf,
                                       MUL[ADD[a0sq, NEG[one]],
                                           MUL[a0, a1sq]]]
                            if eq3 and eq5:
                                bad = third & ~eq6
                                if bad.any():
                                    failures.append(
                                        ("ii", a0, a1, int(a2s[bad][0])))
                            # step (iii): Eq6 -> membership
                            z = ADD[i2, NEG[one]]
                            in_ideal = (MUL[a2s, 0] * 0 + (
                                MUL[np.arange(T.n, dtype=np.int32), z]
                                == a0)).any()
                            if eq6.any() and not in_ideal:
                                failures.append(("iii", a0, y2, s2))
    # step (v) standalone
    for a0 in T.mideal:
        member = (MUL[np.arange(T.n, dtype=np.int32),
                      MUL[a0, SQ[a0]]] == SQ[a0]).any()
        if member and SQ[a0] != zero:
            failures.append(("v", a0))
    assert not failures, failures[:5]
