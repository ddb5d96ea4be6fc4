"""The order-5/conductor-2 normal form: the one-pass solve against the
backtracking search it replaced, the lemma that makes one pass enough, and
its work per precision."""

import itertools
import random

import pytest

from defo5.artin.rings import build_ring
from defo5.cli import MAX_NORMAL_FORM_PREC
from defo5.nottingham import (Automorphism, base_sigma, conjugate,
                              normal_form_o5c2, power)
from defo5.series import TruncatedSeries, family

from normal_form_oracle import normal_form_o5c2 as search

F5 = build_ring("F5")


def outcome(solve, a, prec):
    """The conjugator's series, None, or the (class, message) raised."""
    try:
        xi = solve(a, prec)
    except Exception as exc:
        return type(exc), str(exc)
    return None if xi is None else xi.series


def conjugate_of_sigma(coeffs, prec, bump=None):
    """xi o sigma o xi^{-1} at ``prec`` for xi = sum coeffs[k] t^k, with 1
    added to its t^bump coefficient when ``bump`` is given."""
    xi = Automorphism(TruncatedSeries(F5, coeffs, prec=prec + 4))
    raw = list(conjugate(base_sigma(F5, prec + 4), xi).series.coeffs[:prec])
    if bump is not None:
        raw[bump] += 1
    return Automorphism(TruncatedSeries(F5, raw))


def seeded_conjugator(rng, prec):
    return [0, rng.randint(1, 4)] + [rng.randrange(5) for _ in range(prec)]


# The slowest input the backtracking search met at precision 20 (about 4 s
# in process): a conjugate of sigma, not conjugate once its t^15 coefficient
# is changed.
SLOW_XI = [0, 3, 1, 3, 0, 0, 4, 0, 2, 4, 0, 4]


def worst_conjugator(prec):
    """The least conjugator that tries the most values: c1 = 2 (of the
    roots 2, 3), 0 where its equation leaves c_j free (j = 3 mod 5), and 4,
    the last value tried, wherever the equation fixes c_j."""
    return [0, 2] + [0 if j % 5 == 3 else 4 for j in range(2, prec)]


# -- the same outcome as the backtracking search ----------------------------------

@pytest.mark.parametrize("prec", [4, 5, 6])
def test_normal_form_matches_search_on_every_small_input(prec):
    """Every input t + c3 t^3 + ... + c_{prec-1} t^(prec-1): the same
    conjugator or None, or the same error class and message."""
    for tail in itertools.product(range(5), repeat=prec - 3):
        a = Automorphism(TruncatedSeries(F5, [0, 1, 0, *tail]))
        assert outcome(normal_form_o5c2, a, prec) == outcome(search, a, prec)


@pytest.mark.parametrize("case", range(40))
def test_normal_form_matches_search_on_seeded_conjugates(case):
    """Conjugates of sigma at 8..16 and, for odd cases, conjugates with one
    coefficient changed at 8..11 (the search backtracks for seconds on
    those from about 12 on)."""
    rng = random.Random(case)
    perturbed = case % 2 == 1
    prec = rng.randint(8, 11 if perturbed else 16)
    bump = rng.randrange(4, prec) if perturbed else None
    a = conjugate_of_sigma(seeded_conjugator(rng, prec), prec, bump)
    assert outcome(normal_form_o5c2, a, prec) == outcome(search, a, prec)


# -- the lemma: one pass is enough --------------------------------------------------

def test_sigma_commutes_with_the_maps_between_sibling_conjugators():
    """At the normal-form ceiling: t -> -t commutes with sigma (it swaps
    the two roots c1), and so does z_m = t / sqrt(N^m t^2 + 1), N the
    product of t, sigma, ..., sigma^4, for every 5m + 3 below the ceiling:
    z_m = t + 2 t^(5m+3) + ..., so its powers reach every value of c_{5m+3}.
    The lemma concerns sigma alone, so this covers every run the CLI
    accepts."""
    prec = MAX_NORMAL_FORM_PREC
    sigma = base_sigma(F5, prec)
    t = TruncatedSeries.t(F5, prec)
    norm = t
    for k in range(1, 5):
        norm = norm * power(sigma, k).series
    sigma, minus_t = sigma.series, -t
    assert sigma.compose(minus_t) == minus_t.compose(sigma)
    assert norm.t_order() == 5 and norm.compose(sigma) == norm
    norm_m = TruncatedSeries.constant(F5, 1, prec)
    for j in range(3, prec, 5):
        z = family(F5, norm_m, 1, prec)
        assert z.compose(sigma) == sigma.compose(z), j
        assert (z - t).t_order() == j and (z - t)[j] == F5.from_int(2), j
        norm_m = norm_m * norm


def passing_values(a, xi, prec):
    """{j: the values of c_j that pass level j}, given xi's c_0..c_{j-1}."""
    sigma, target = base_sigma(F5, prec).series, a.series
    found = {}
    for j in range(1, prec):
        upto = min(j + 3, prec)
        found[j] = []
        for v in range(1 if j == 1 else 0, 5):
            trial = TruncatedSeries(F5, [*xi.series.coeffs[:j], v], prec=upto)
            if trial.compose(sigma.truncate(upto)).agrees_with(
                    target.truncate(upto).compose(trial)):
                found[j].append(v)
    return found


@pytest.mark.parametrize("prec", [16, 24, 32])
def test_each_level_passes_one_value_where_its_equation_fixes_it(prec):
    """On seeded conjugates of sigma: two values of c1 pass, all five pass
    where the factor 2 (j - 3) vanishes or no checked coefficient reads
    c_j, and exactly one passes at every other level."""
    rng = random.Random(prec)
    for _ in range(4):
        a = conjugate_of_sigma(seeded_conjugator(rng, prec), prec)
        xi = normal_form_o5c2(a, prec)
        for j, values in passing_values(a, xi, prec).items():
            expected = (2 if j == 1 else
                        5 if j % 5 == 3 or j + 2 >= prec else 1)
            assert len(values) == expected, (j, values)
            assert values[0] == xi.series[j]


# -- bounded work ---------------------------------------------------------------------

@pytest.mark.parametrize("prec,bump,conjugator", [
    (20, 15, SLOW_XI),
    (MAX_NORMAL_FORM_PREC, None, worst_conjugator(MAX_NORMAL_FORM_PREC)),
])
def test_normal_form_composes_at_most_twice_per_value_per_level(
        monkeypatch, prec, bump, conjugator):
    """At most five values per coefficient, two compositions each: the
    search's slowest input at 20 and the slowest conjugate at the ceiling
    stay within 2 * 5 * prec compositions, checks included."""
    a = conjugate_of_sigma(conjugator, prec, bump)
    bound = 2 * 5 * prec
    calls = []
    compose = TruncatedSeries.compose

    def counted(self, inner):
        calls.append(1)
        assert len(calls) <= bound, f"more than {bound} compositions"
        return compose(self, inner)

    monkeypatch.setattr(TruncatedSeries, "compose", counted)
    xi = normal_form_o5c2(a, prec)
    monkeypatch.undo()
    if bump is None:
        assert xi.series.coeffs[:prec - 2] == TruncatedSeries(
            F5, conjugator).coeffs[:prec - 2]
    else:
        assert xi is None
