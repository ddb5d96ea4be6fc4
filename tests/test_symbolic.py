"""SurdExpression algebra and the symbolic coefficient extraction, including
cross-validation of the factored forms used by the proof-chain scans."""

import sympy as sp
import pytest

from defo5.artin.rings import build_ring
from defo5.symbolic.coefficients import (consistency_sample, displayed_eq3,
                                         displayed_eq4, displayed_third_order,
                                         expand_lhs, expand_rhs, inner_series,
                                         verify_displayed_equations)
from defo5.symbolic.surd import (A0, A1, A2, A3, Y1, Y2, SurdError,
                                 SurdExpression)


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
    for x in (s1() + s2(),
              SurdExpression.of(A1) + s1() * SurdExpression.of(A0),
              s1() * s2() + SurdExpression.of(1)):
        assert 1 / (1 / x) == x


def test_zero_not_invertible():
    with pytest.raises(SurdError):
        (s1() - s1()).inverse()
    assert not SurdExpression.of(0).is_invertible()
    assert s1().is_invertible()


def test_sign_conjugation():
    x = SurdExpression.of(A0) + s1() * SurdExpression.of(2) + s2()
    assert x.subs_sign(flip_s1=True) == (
        SurdExpression.of(A0) - s1() * SurdExpression.of(2) + s2())
    assert x.subs_sign(flip_s1=True, flip_s2=True).subs_sign(
        flip_s1=True, flip_s2=True) == x


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
    assert rep["downstream_verification"] == "oracle-verified"
    assert all(rep["oracle_proof_chain_passed"].values())
    # the raw t^3 coefficient involves a3; the display does not
    assert "a3" in rep["raw_t3"]["lhs"]
    assert "a3" not in rep["third_order_display"]["lhs"]


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
            coeff.subs_sign(flip_s1=True).evaluate(R, w)


def test_consistency_sample_quick():
    rep = consistency_sample(70, seed=99)
    assert rep["passed"], rep["mismatches"][:3]
    assert rep["witnesses"] >= 70


def test_expansion_runs_once_per_process():
    # verify_displayed_equations and consistency_sample share one expansion
    assert isinstance(expand_lhs(4), tuple) and isinstance(expand_rhs(4), tuple)
    assert expand_lhs(4) is expand_lhs(4) and expand_rhs(4) is expand_rhs(4)
    misses = expand_lhs.cache_info().misses, expand_rhs.cache_info().misses
    consistency_sample(7, seed=1)
    assert (expand_lhs.cache_info().misses,
            expand_rhs.cache_info().misses) == misses
