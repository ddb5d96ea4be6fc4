"""SurdExpression algebra and the symbolic coefficient extraction, including
cross-validation of the factored forms used by the proof-chain scans."""

import random

import numpy as np
import sympy as sp
import pytest

import consistency_oracle
import surd_oracle
from defo5.artin import tables
from defo5.artin.rings import (EnumerationBoundError, MismatchError,
                               NotAUnitError, RingError, build_ring)
from defo5.artin.tables import TABLE_BOUND, ring_table
from defo5.symbolic import coefficients
from defo5.symbolic.coefficients import (consistency_sample, displayed_eq3,
                                         displayed_eq4, displayed_third_order,
                                         expand_lhs, expand_rhs, inner_series,
                                         verify_displayed_equations)
from defo5.series import TruncatedSeries
from defo5.symbolic.surd import (A0, A1, A2, A3, Y1, Y2, Specialization,
                                 SurdError, SurdExpression)


def s1():
    return SurdExpression.s1()


def s2():
    return SurdExpression.s2()


# -- algebra -----------------------------------------------------------------------

def test_defining_relations():
    assert s1() * s1() == SurdExpression.of(A0 ** 2 + Y1)
    assert s2() * s2() == SurdExpression.of(Y2)


def test_rationalized_inverse():
    assert (1 / s1()) == s1() * SurdExpression.of(1 / (A0 ** 2 + Y1))
    assert (1 / s2()) == s2() * SurdExpression.of(1 / Y2)


def test_mixed_product():
    assert ((1 / s1() - 1 / s2()) * s1() * s2()) == s2() - s1()


def test_field_axioms_samples():
    x = SurdExpression.of(A0) + s1()
    y = s2() * SurdExpression.of(A1) - SurdExpression.of(2)
    z = s1() * s2() + SurdExpression.of(Y1 / Y2)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x - x == SurdExpression.of(0)


def test_double_rationalization_round_trip():
    # units of the algebra: their norms are c * (a0^2 + y1)^a * y2^b
    for x in (s1(), s2() * SurdExpression.of(3 * A0 ** 2 + 3 * Y1),
              s1() * s2() / SurdExpression.of(2 * Y2)):
        assert 1 / (1 / x) == x
    # general elements: only the sympy oracle inverts them
    o1, o2 = surd_oracle.SurdExpression.s1(), surd_oracle.SurdExpression.s2()
    oa0, oa1 = surd_oracle.A0, surd_oracle.A1
    for x in (o1 + o2,
              surd_oracle.SurdExpression.of(oa1)
              + o1 * surd_oracle.SurdExpression.of(oa0),
              o1 * o2 + surd_oracle.SurdExpression.of(1)):
        assert 1 / (1 / x) == x


def test_zero_not_invertible():
    with pytest.raises(SurdError):
        (s1() - s1()).inverse()
    with pytest.raises(SurdError):
        SurdExpression.of(0).inverse()
    assert s1() * s1().inverse() == 1


def test_sign_conjugation():
    x = SurdExpression.of(A0) + s1() * SurdExpression.of(2) + s2()
    assert x.conj_s1() == (
        SurdExpression.of(A0) - s1() * SurdExpression.of(2) + s2())
    assert x.conj_s1().conj_s2().conj_s1().conj_s2() == x


def test_canonical_str_deterministic():
    x = s1() * SurdExpression.of(A0 / (A0 ** 2 + Y1))
    assert x.canonical_str() == "(a0/(a0**2 + y1))*s1"
    assert SurdExpression.of(0).canonical_str() == "(0)"


def test_evaluate_and_witness_validation():
    R = build_ring("F5[e]/(e^2)")
    e = R.generator("e")
    w = dict(a0=e, a1=R.one, a2=e, a3=R.zero,
             y1=R.one + e, y2=R.one - e)
    w["s1"] = (w["a0"] * w["a0"] + w["y1"]).sqrt()
    w["s2"] = w["y2"].sqrt()
    assert (s1() * s1()).evaluate(R, w) == w["a0"] * w["a0"] + w["y1"]
    assert (1 / s2()).evaluate(R, w) == w["s2"].inv()
    bad = dict(w, s1=R.one)
    with pytest.raises(SurdError):
        s1().evaluate(R, bad)


# -- coefficient extraction ----------------------------------------------------------

def test_t0_t1_match_displayed_equations():
    lhs = expand_lhs(2)
    rhs = expand_rhs(2)
    e3l, e3r = displayed_eq3()
    e4l, e4r = displayed_eq4()
    assert lhs[0] == e3l and rhs[0] == e3r
    assert lhs[1] == e4l and rhs[1] == e4r


def test_inner_series_shape():
    inner = inner_series(4)
    assert inner[0].is_zero() and inner[2].is_zero()
    assert inner[1] == s2() / SurdExpression.of(Y2)
    assert inner[3] == (s2() / SurdExpression.of(Y2)) * SurdExpression.of(
        sp.Rational(-1, 2) / Y2)


def test_third_order_display_factored_form():
    """The factored premise/conclusion used by the proof chain equals the
    literal displays: display_lhs - display_rhs == a1^2*K - a2*N, and
    Eq6_lhs - Eq6_rhs == a2*P - a1^2*Q."""
    r = SurdExpression.of(A0 ** 2 + Y1)
    inv_s1 = s1() / r
    inv_s1_sq = inv_s1 * inv_s1
    inv_s1_cu = inv_s1_sq * inv_s1
    K = (SurdExpression.of(sp.Rational(3, 2)) * SurdExpression.of(A0)
         * inv_s1_cu * (1 - SurdExpression.of(A0 ** 2) * inv_s1_sq))
    N = inv_s1 - SurdExpression.of(1 / Y2) \
        - SurdExpression.of(A0 ** 2) * inv_s1_cu
    dl, dr = displayed_third_order()
    assert dl - dr == SurdExpression.of(A1 ** 2) * K - SurdExpression.of(A2) * N
    # and the factored premise evaluates like the literal display on a witness
    R = build_ring("F5[e]/(e^3)")
    e = R.generator("e")
    w = dict(a0=e, a1=R.one + e, a2=R.from_int(3) + e, a3=R.zero,
             y1=R.one + 2 * e, y2=R.one + e * e)
    w["s1"] = (w["a0"] * w["a0"] + w["y1"]).sqrt()
    w["s2"] = w["y2"].sqrt()
    lit = (dl - dr).evaluate(R, w)
    fac = (SurdExpression.of(A1 ** 2) * K
           - SurdExpression.of(A2) * N).evaluate(R, w)
    assert lit == fac


def test_verify_displayed_equations_report():
    rep = verify_displayed_equations()
    assert rep["t0_matches_eq3"]
    assert rep["t1_matches_eq4"]
    assert rep["passed"]
    # the raw t^3 coefficient involves a3; the display does not
    assert "a3" in rep["raw_t3"]["lhs"]
    assert "a3" not in rep["third_order_display"]["lhs"]


def test_third_order_display_is_the_t2_equation():
    """The third-order display's LHS - RHS is minus the raw t^2 difference,
    exactly, and not the raw t^3 difference that the report compares it
    with (``raw_t3_difference_equals_display_difference`` reads false)."""
    lhs, rhs = expand_lhs(4), expand_rhs(4)
    dl, dr = displayed_third_order()
    assert dl - dr == -(lhs[2] - rhs[2])
    assert dl - dr != lhs[3] - rhs[3]
    rep = verify_displayed_equations()
    assert rep["raw_t3_difference_equals_display_difference"] is False


def test_branch_symmetry_on_witnesses():
    """Flipping the s1 branch of a witness equals conjugating the symbolic
    coefficient by s1 -> -s1."""
    R = build_ring("F5[e]/(e^2)")
    e = R.generator("e")
    w = dict(a0=e, a1=R.one + e, a2=R.from_int(2), a3=e,
             y1=R.one + 2 * e, y2=R.one + 3 * e)
    w["s1"] = (w["a0"] * w["a0"] + w["y1"]).sqrt()
    w["s2"] = w["y2"].sqrt()
    flipped = dict(w, s1=-w["s1"])
    for coeff in expand_lhs(4):
        assert coeff.evaluate(R, flipped) == \
            coeff.conj_s1().evaluate(R, w)


def test_consistency_sample_quick():
    rep = consistency_sample(70, seed=99)
    assert rep["passed"], rep["mismatches"][:3]
    assert rep["witnesses"] >= 70


@pytest.mark.parametrize("n", [0, -5])
def test_consistency_sample_refuses_an_empty_sample(monkeypatch, n):
    def boom(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    for target in ("expand_lhs", "build_ring", "ring_table"):
        monkeypatch.setattr(coefficients, target, boom)
    with pytest.raises(RingError, match=f"a sample of {n} witnesses"):
        consistency_sample(n)


def test_expansion_runs_once_per_process():
    # verify_displayed_equations and consistency_sample share one expansion
    assert isinstance(expand_lhs(4), tuple) and isinstance(expand_rhs(4), tuple)
    assert expand_lhs(4) is expand_lhs(4) and expand_rhs(4) is expand_rhs(4)
    misses = expand_lhs.cache_info().misses, expand_rhs.cache_info().misses
    consistency_sample(7, seed=1)
    assert (expand_lhs.cache_info().misses,
            expand_rhs.cache_info().misses) == misses


# -- the field representation against the sympy-Expr oracle -------------------------

def _assert_same(new, old):
    for a, b in zip(new._components(), old._components()):
        assert sp.cancel(surd_oracle.to_expr(a) - b) == 0
    assert new.canonical_str() == old.canonical_str()


@pytest.mark.parametrize("prec", [2, 3, 4, 5])
def test_expansion_matches_expr_oracle(prec):
    for new, old in ((expand_lhs(prec), surd_oracle.expand_lhs(prec)),
                     (expand_rhs(prec), surd_oracle.expand_rhs(prec))):
        assert len(new) == len(old) == prec
        for a, b in zip(new, old):
            _assert_same(a, b)


@pytest.mark.parametrize("display", ["displayed_eq3", "displayed_eq4",
                                     "displayed_third_order"])
def test_displays_match_expr_oracle(display):
    new = getattr(coefficients, display)()
    old = getattr(surd_oracle, display)()
    for a, b in zip(new, old):
        _assert_same(a, b)


def _witness(desc):
    R = build_ring(desc)
    x = R.generator("e") if "e" in desc else R.from_int(5)
    w = dict(a0=x, a1=R.one + x, a2=R.from_int(3) + x, a3=x * x,
             y1=R.one + 2 * x, y2=R.from_int(4) + x)
    w["s1"] = (w["a0"] * w["a0"] + w["y1"]).sqrt()
    w["s2"] = w["y2"].sqrt()
    return R, w


@pytest.mark.parametrize("desc", ["F5[e]/(e^3)", "Z/125"])
def test_evaluation_matches_expr_oracle(desc):
    R, w = _witness(desc)
    for new, old in zip(expand_lhs(4) + expand_rhs(4),
                        surd_oracle.expand_lhs(4) + surd_oracle.expand_rhs(4)):
        assert new.evaluate(R, w) == old.evaluate(R, w)


def test_evaluation_inverts_one_denominator_per_component(monkeypatch):
    coeffs = expand_lhs(4) + expand_rhs(4)
    factors = set()
    for c in coeffs:
        for comp in c._components():
            den = sp.fraction(sp.cancel(surd_oracle.to_expr(comp)))[1]
            factors.update(f for f, _ in
                           sp.factor_list(den, *surd_oracle.SYMBOLS)[1])
    assert factors == {surd_oracle.A0 ** 2 + surd_oracle.Y1, surd_oracle.Y2}
    R, w = _witness("F5[e]/(e^3)")
    values = [c.evaluate(R, w) for c in coeffs]
    tab = ring_table(R)
    gathers = []

    class CountingINV(np.ndarray):
        def __getitem__(self, key):
            gathers.append(np.asarray(key).tolist())
            return np.asarray(self)[key]

    monkeypatch.setattr(tab, "INV", tab.INV.view(CountingINV))
    assert [c.evaluate(R, w) for c in coeffs] == values

    def denominators(exprs):
        return {(comp.i, comp.j) for c in exprs for comp in c._components()
                if comp}

    assert len(gathers) == sum(len(denominators([c])) for c in coeffs) == 8
    # one specialization shared by all eight coefficients gathers the
    # inverse of each distinct r^i * y2^j once: r^1..r^4, y2, y2^2 and 1
    gathers.clear()
    at = Specialization(R, {name: [tab.index(x)] for name, x in w.items()})
    assert [tab.element(int(at(c)[0])) for c in coeffs] == values
    assert len(gathers) == len(denominators(coeffs)) == 7
    # a zero component costs nothing: s1 * s2 has three
    gathers.clear()
    assert (s1() * s2()).evaluate(R, w) == w["s1"] * w["s2"]
    assert SurdExpression.of(0).evaluate(R, w) == R.zero
    assert gathers == [[tab.one]]
    # evaluation keeps no witness state: a second pass agrees
    monkeypatch.undo()
    assert [c.evaluate(R, w) for c in coeffs] == values


def _replayed_witnesses(n, seed):
    """The (ring descriptor, ring, witness) triples that
    consistency_sample(n, seed) draws, in order."""
    rng = random.Random(seed)
    per_ring = -(-n // len(coefficients._SAMPLE_RINGS))
    for desc in coefficients._SAMPLE_RINGS:
        R = build_ring(desc)
        pools = coefficients._witness_pools(R)
        for _ in range(per_ring):
            yield desc, R, coefficients._sample_witness(R, rng, pools)


def _entry(desc, t_power, w):
    return {"ring": desc, "t_power": t_power,
            "witness": {k: str(v) for k, v in w.items()}}


def _bump_a2_y1_squared(monkeypatch):
    """Patch expand_lhs so that the coefficient of a2*y1^2 in its t^2
    coefficient is one larger; returns the added term a2*y1^2/r^3 * s1."""
    lhs = expand_lhs(4)
    delta = s1() * SurdExpression.of(A2 * Y1 ** 2 / (A0 ** 2 + Y1) ** 3)
    bumped = lhs[2] + delta
    old, new = lhs[2].c10.num, bumped.c10.num
    assert old.keys() == new.keys()
    assert [m for m in old if old[m] != new[m]] == [(0, 0, 1, 0, 2, 0)]
    monkeypatch.setattr(coefficients, "expand_lhs",
                        lambda prec=4: lhs[:2] + (bumped,) + lhs[3:])
    return delta


def test_sample_fails_on_a_perturbed_symbolic_term(monkeypatch):
    """Bump the coefficient of a2*y1^2 in the t^2 coefficient of the left
    side by one: the sample reports a mismatch at exactly the witnesses
    where that term a2*y1^2/r^3 * s1 is nonzero."""
    delta = _bump_a2_y1_squared(monkeypatch)
    report = consistency_sample(70, seed=99)
    want = [_entry(desc, 2, w) for desc, R, w in _replayed_witnesses(70, 99)
            if delta.evaluate(R, w) != R.zero]
    assert report["witnesses"] == 70 and not report["passed"]
    assert report["mismatches"] == want
    assert {m["ring"] for m in want} == set(coefficients._SAMPLE_RINGS)


def test_sample_fails_on_a_perturbed_engine(monkeypatch):
    """Add 1 to the t^1 coefficient of every engine square root: at every
    witness the t^2 coefficients of both sides move by a unit."""
    real_sqrt = TruncatedSeries.sqrt

    def bent_sqrt(self, branch=None):
        return real_sqrt(self, branch) + TruncatedSeries.t(self.ring, self.prec)

    monkeypatch.setattr(TruncatedSeries, "sqrt", bent_sqrt)
    report = consistency_sample(70, seed=99)
    assert report["witnesses"] == 70 and not report["passed"]
    for desc, R, w in _replayed_witnesses(70, 99):
        assert _entry(desc, 2, w) in report["mismatches"]
    assert {m["ring"] for m in report["mismatches"]} == \
        set(coefficients._SAMPLE_RINGS)


def test_evaluation_refuses_a_non_unit_denominator():
    R = build_ring("F5[e]/(e^2)")
    e = R.generator("e")
    w = dict(a0=e, a1=R.one, a2=R.zero, a3=R.zero, y1=R.one, y2=R.zero,
             s1=R.one, s2=R.zero)
    assert s2().evaluate(R, w) == R.zero
    with pytest.raises(NotAUnitError):
        (1 / s2()).evaluate(R, w)


@pytest.mark.parametrize("desc", coefficients._SAMPLE_RINGS)
def test_witness_draws_match_retrying_sampler(desc):
    R = build_ring(desc)
    pools = coefficients._witness_pools(R)
    new, old = random.Random(7), random.Random(7)
    for _ in range(40):
        assert (coefficients._sample_witness(R, new, pools)
                == surd_oracle._sample_witness(R, old, pools))


# -- the batched sample against the per-witness oracle -------------------------

@pytest.mark.parametrize("seed", [20260823, 1, 99])
@pytest.mark.parametrize("n", [7, 70, 1000])
def test_sample_matches_per_witness_oracle(n, seed):
    assert consistency_sample(n, seed) == \
        consistency_oracle.consistency_sample(n, seed)


@pytest.mark.parametrize("n,seed", [(70, 99), (1000, 20260823)])
def test_perturbed_sample_matches_per_witness_oracle(monkeypatch, n, seed):
    _bump_a2_y1_squared(monkeypatch)
    report = consistency_sample(n, seed)
    assert not report["passed"]
    assert report == consistency_oracle.consistency_sample(n, seed)


def test_sample_builds_one_inner_series_per_y2_and_root(monkeypatch):
    """The engine composes with one t/sqrt(t^2 + y2) per distinct (y2, s2)
    of a ring's witnesses, and takes one more series square root per
    witness (the left side's)."""
    inners, roots = {}, {}
    real_compose, real_sqrt = TruncatedSeries.compose, TruncatedSeries.sqrt

    def compose(self, inner):
        inners.setdefault(self.ring, []).append(inner)
        return real_compose(self, inner)

    def sqrt(self, branch=None):
        roots[self.ring] = roots.get(self.ring, 0) + 1
        return real_sqrt(self, branch)

    monkeypatch.setattr(TruncatedSeries, "compose", compose)
    monkeypatch.setattr(TruncatedSeries, "sqrt", sqrt)
    assert consistency_sample(1000)["passed"]
    monkeypatch.undo()
    pairs = {}
    for desc, R, w in _replayed_witnesses(1000, 20260823):
        pairs.setdefault(R, set()).add((w["y2"], w["s2"]))
    per_ring = -(-1000 // len(coefficients._SAMPLE_RINGS))
    assert set(inners) == set(roots) == set(pairs)
    for R in pairs:
        assert len(inners[R]) == per_ring
        assert len({id(x) for x in inners[R]}) == len(pairs[R])
        assert roots[R] == per_ring + len(pairs[R])
    assert sum(map(len, pairs.values())) < 1001


def _batch(R, witnesses):
    tab = ring_table(R)
    return {name: [tab.index(w[name]) for w in witnesses]
            for name in witnesses[0]}


def test_batch_refuses_a_wrong_root_or_a_non_unit_at_any_witness():
    R = build_ring("F5[e]/(e^2)")
    e = R.generator("e")
    good = dict(a0=e, a1=R.one, a2=e, a3=R.zero, y1=R.one + e, y2=R.one - e)
    good["s1"] = (good["a0"] * good["a0"] + good["y1"]).sqrt()
    good["s2"] = good["y2"].sqrt()
    at = Specialization(R, _batch(R, [good, good]))
    assert list(at(1 / s2())) == [ring_table(R).index(good["s2"].inv())] * 2
    for bad in (dict(good, s1=-good["a0"]), dict(good, s2=good["y2"])):
        with pytest.raises(SurdError):
            Specialization(R, _batch(R, [good, bad, good]))
    nonunit = dict(good, y2=R.zero, s2=R.zero)
    at = Specialization(R, _batch(R, [good, nonunit]))
    assert list(at(s2())) == [ring_table(R).index(good["s2"]), 0]
    with pytest.raises(NotAUnitError):
        at(1 / s2())
    with pytest.raises(NotAUnitError):
        (1 / s2()).evaluate(R, nonunit)
    with pytest.raises(SurdError):
        s1().evaluate(R, dict(good, s1=R.one + e))
    with pytest.raises(MismatchError):
        s1().evaluate(R, dict(good, a2=build_ring("F5").one))


def test_evaluate_refuses_a_ring_above_the_table_bound(monkeypatch):
    R = build_ring("F5[e]/(e^6)")
    assert R.cardinality > TABLE_BOUND
    w = dict(a0=R.zero, a1=R.one, a2=R.one, a3=R.one, y1=R.one, y2=R.one,
             s1=R.one, s2=R.one)

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(tables, "_sum_table", no_table)
    with pytest.raises(EnumerationBoundError):
        s1().evaluate(R, w)
    with pytest.raises(EnumerationBoundError):
        Specialization(R, {name: [0] for name in w})
    assert R.descriptor not in tables._table_cache


# -- typed failure and canonical hashing --------------------------------------------

_a0 = sp.Symbol("a0")


@pytest.mark.parametrize("bad", [sp.Symbol("z"), sp.sqrt(2), sp.pi, sp.I,
                                 sp.exp(_a0), sp.sqrt(_a0), sp.oo, sp.zoo,
                                 sp.Float(0.5), 0.5, "a0", sp.true,
                                 _a0 + sp.Symbol("z")], ids=str)
def test_non_rational_input_raises_surd_error(bad):
    with pytest.raises(SurdError):
        SurdExpression.of(bad)


def test_equal_expressions_hash_equal():
    x = SurdExpression.of((A0 ** 2 + Y1) * (A1 - 1) / (A0 ** 2 + Y1))
    y = SurdExpression.of(A1 - 1)
    assert x == y and hash(x) == hash(y)
    # a general denominator: only the sympy oracle cancels it
    ox = surd_oracle.SurdExpression.of(
        (surd_oracle.A0 ** 2 - 1) / (surd_oracle.A0 - 1))
    oy = surd_oracle.SurdExpression.of(surd_oracle.A0 + 1)
    assert ox == oy and hash(ox) == hash(oy)
    u = s1() * SurdExpression.of(Y2 / (2 * Y2)) + s2() * s2()
    v = SurdExpression.of(Y2) + s1() / 2
    assert u == v and hash(u) == hash(v)
    assert len({x, y, u, v}) == 2
