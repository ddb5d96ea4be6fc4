"""The sympy-free surd algebra against sympy: canonical strings, equality and
hashing on a seeded corpus of random elements, the report strings of the
displayed equations, and typed failure of inversion and of foreign input."""

import random
from fractions import Fraction

import pytest
import sympy as sp

import surd_oracle
from defo5.symbolic.coefficients import verify_displayed_equations
from defo5.symbolic.surd import (A0, A1, A3, SYMBOLS, Y1, Y2, SurdError,
                                 SurdExpression)

R_SYM = surd_oracle.A0 ** 2 + surd_oracle.Y1
Y2_SYM = surd_oracle.Y2
INV_R = 1 / SurdExpression.of(A0 ** 2 + Y1)
INV_Y2 = 1 / SurdExpression.of(Y2)


def _coefficient(rng):
    """A nonzero rational: an integer or a fraction over a power of 2."""
    num = rng.choice([n for n in range(-9, 10) if n])
    return Fraction(num, rng.choice([1, 1, 2, 4, 8]))


def _random_pair(rng):
    """One random element as (SurdExpression, sympy expression): a numerator
    of 0..4 terms, times r^k * y2^l, over r^i * y2^j."""
    terms = [(_coefficient(rng), tuple(rng.choice([0, 0, 1, 2])
                                       for _ in SYMBOLS))
             for _ in range(rng.choice([0, 1, 1, 2, 3, 4]))]
    if rng.random() < 0.25:  # a constant numerator, such as 1 or -1/2
        terms = [(rng.choice([Fraction(1), Fraction(-1), _coefficient(rng)]),
                  (0,) * len(SYMBOLS))]
    i, j = rng.choice([0, 0, 1, 2, 3]), rng.choice([0, 0, 1, 2])
    k, l = rng.choice([0, 0, i]), rng.choice([0, 0, j])
    ours = SurdExpression.of(0)
    expr = sp.Integer(0)
    for c, m in terms:
        mono, mono_sym = SurdExpression.of(c), sp.Rational(c.numerator,
                                                           c.denominator)
        for gen, sym, e in zip(SYMBOLS, surd_oracle.SYMBOLS, m):
            mono, mono_sym = mono * gen ** e, mono_sym * sym ** e
        ours, expr = ours + mono, expr + mono_sym
    ours = (ours * SurdExpression.of(A0 ** 2 + Y1) ** k * Y2 ** l
            * INV_R ** i * INV_Y2 ** j)
    expr = expr * R_SYM ** k * Y2_SYM ** l / (R_SYM ** i * Y2_SYM ** j)
    return ours, expr


def _corpus(n=240, seed=20261018):
    rng = random.Random(seed)
    return [_random_pair(rng) for _ in range(n)]


def test_corpus_covers_the_cases():
    shapes = set()
    for ours, _ in _corpus():
        comp = ours.c00
        terms = len(comp.num)
        lead = comp.num[max(comp.num)] if terms else 0
        shapes.add(("zero" if not terms else "monomial" if terms == 1
                    else "sum", lead < 0, getattr(lead, "denominator", 1) > 1,
                    comp.i > 0, comp.j > 0))
    kinds = {s[0] for s in shapes}
    assert kinds == {"zero", "monomial", "sum"}
    assert any(s[1] for s in shapes) and any(s[2] for s in shapes)
    assert {(s[3], s[4]) for s in shapes} == {(False, False), (True, False),
                                              (False, True), (True, True)}


def test_component_strings_match_sympy():
    for ours, expr in _corpus():
        assert str(ours.c00) == sp.sstr(sp.cancel(expr), order="lex"), expr


def test_canonical_str_matches_oracle():
    pairs = _corpus()
    for n in range(0, len(pairs) - 3, 4):
        (a, ea), (b, eb), (c, ec), (d, ed) = pairs[n:n + 4]
        ours = SurdExpression(a, b, c, d)
        oracle = surd_oracle.SurdExpression(ea, eb, ec, ed)
        assert ours.canonical_str() == oracle.canonical_str()


def test_equality_and_hash_agree_with_cancel():
    pairs = _corpus()
    rng = random.Random(5)
    trials = [(pairs[rng.randrange(len(pairs))], pairs[rng.randrange(len(pairs))])
              for _ in range(300)]
    # equal elements built along different paths
    for ours, expr in pairs[:60]:
        again = (ours * SurdExpression.of(A0 ** 2 + Y1) * INV_R
                 + SurdExpression.of(A1 * Y2) * INV_Y2 - A1)
        trials.append(((ours, expr), (again, expr)))
    equal = 0
    for (x, ex), (y, ey) in trials:
        same = sp.cancel(ex - ey) == 0
        assert (x == y) == same, (ex, ey)
        if same:
            equal += 1
            assert hash(x) == hash(y)
    assert equal >= 60


@pytest.mark.parametrize("key", ["eq3", "eq4", "raw_t2", "raw_t3",
                                 "third_order_display"])
def test_report_strings_match_oracle(key):
    lhs, rhs = surd_oracle.expand_lhs(4), surd_oracle.expand_rhs(4)
    oracle = {"eq3": surd_oracle.displayed_eq3(),
              "eq4": surd_oracle.displayed_eq4(),
              "raw_t2": (lhs[2], rhs[2]), "raw_t3": (lhs[3], rhs[3]),
              "third_order_display": surd_oracle.displayed_third_order()}[key]
    rep = verify_displayed_equations()[key]
    assert (rep["lhs"], rep["rhs"]) == tuple(x.canonical_str() for x in oracle)


# -- typed failure -------------------------------------------------------------------

@pytest.mark.parametrize("x", [SurdExpression.s1() + SurdExpression.s2(), A0,
                               A0 - 1, SurdExpression.s1() * A1 + 1],
                         ids=["s1+s2", "a0", "a0-1", "s1*a1+1"])
def test_inverting_a_non_unit_raises_surd_error(x):
    with pytest.raises(SurdError, match="not a unit"):
        x.inverse()
    with pytest.raises(SurdError):
        1 / x
    with pytest.raises(SurdError):
        x ** -1


@pytest.mark.parametrize("x", [SurdExpression.s1(), Y2 * 3,
                               (A0 ** 2 + Y1) * Y2 * SurdExpression.s2() / 5])
def test_units_invert(x):
    assert x * x.inverse() == 1


def test_rational_constants_accepted():
    for c in (sp.Rational(3, 4), Fraction(3, 4)):
        assert SurdExpression.of(c) == SurdExpression.of(3) / 4
        assert SurdExpression.of(c).canonical_str() == "(3/4)"
    assert SurdExpression.of(sp.Integer(-2)) == SurdExpression.of(-2)
    assert sp.Rational(1, 2) * A3 == A3 / 2 == Fraction(1, 2) * A3


def test_surd_part_is_not_a_component():
    with pytest.raises(SurdError):
        SurdExpression.of(SurdExpression.s1())
