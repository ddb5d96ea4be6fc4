"""Symbolic t-expansion of the conjugation identity

    g(t) / sqrt(g(t)^2 + y1)  =  g( t / sqrt(t^2 + y2) ),

with g = a0 + a1*t + a2*t^2 + a3*t^3, through t^3.  The left surd is
expanded as s1 * sqrt(1 + u) with u = (g^2 - a0^2)/(a0^2 + y1) (a series
with zero constant term), via the exact binomial series for (1+u)^(-1/2);
the right side substitutes the inner series t * (1/s2) * (1 + t^2/y2)^(-1/2).
Every t-coefficient is a SurdExpression with components in
Q[a0, a1, a2, a3, y1, y2][1/r, 1/y2], r = a0^2 + y1; every binomial
coefficient is a Fraction whose denominator is some 2^k, a unit in the
catalog rings.  consistency_sample compares every coefficient with the
series engine at random witnesses, one batch per sample ring: the engine
runs per witness, with one inner series t/sqrt(t^2 + y2) per distinct
(y2, s2), and one Specialization values the coefficients at all of the
ring's witnesses on table indices (numerator terms times the inverse of the
denominator).

g carries the extension symbol a3 even though the source writes
g = a0 + a1*t + a2*t^2 + O(t^3): the raw t^3 coefficients do involve a3,
and they are recorded as data rather than forced into the a3-free
third-order display (whose exact bookkeeping the source leaves implicit).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..artin.rings import RingError, build_ring
from ..artin.tables import ring_table
from ..series import TruncatedSeries, family
from .surd import (_WITNESS_NAMES, A0, A1, A2, A3, Y1, Y2, Specialization,
                   SurdExpression)

_HALF = Fraction(1, 2)


def _binomial_series_coeffs(alpha, n):
    """c_0..c_{n-1} of (1 + u)^alpha."""
    out = [Fraction(1)]
    for k in range(1, n):
        out.append(out[-1] * (alpha - (k - 1)) / k)
    return out


def _poly_mul(a, b, prec):
    out = [SurdExpression.of(0) for _ in range(prec)]
    for i, x in enumerate(a):
        if i >= prec:
            break
        for j, y in enumerate(b):
            if i + j >= prec:
                break
            out[i + j] = out[i + j] + x * y
    return out


_G = (A0, A1, A2, A3)


@lru_cache(maxsize=None)
def expand_lhs(prec: int = 4):
    """t^0..t^(prec-1) coefficients of g(t)/sqrt(g(t)^2 + y1), expanded
    once per process."""
    g_sq = _poly_mul(_G, _G, prec)
    r = A0 ** 2 + Y1
    # u = (g^2 - a0^2)/r has no constant term
    u = [SurdExpression.of(0)] + [g_sq[i] / r for i in range(1, prec)]
    coeffs = _binomial_series_coeffs(-_HALF, prec)
    inv_sqrt = [SurdExpression.of(0) for _ in range(prec)]
    upow = [SurdExpression.of(1)] + [SurdExpression.of(0)] * (prec - 1)
    for k, c in enumerate(coeffs):
        if k:
            upow = _poly_mul(upow, u, prec)
        for i in range(prec):
            inv_sqrt[i] = inv_sqrt[i] + c * upow[i]
    inv_s1 = SurdExpression.s1() / r  # 1/s1 = s1/(a0^2+y1)
    return tuple(c * inv_s1 for c in _poly_mul(_G, inv_sqrt, prec))


def inner_series(prec: int = 4):
    """t^0..t^(prec-1) coefficients of t/sqrt(t^2 + y2)."""
    coeffs = _binomial_series_coeffs(-_HALF, prec)
    inv_s2 = SurdExpression.s2() / Y2
    out = [SurdExpression.of(0) for _ in range(prec)]
    # (1 + t^2/y2)^(-1/2) has only even degrees; multiply by t * (1/s2).
    for k, c in enumerate(coeffs):
        deg = 2 * k + 1
        if deg >= prec:
            break
        out[deg] = inv_s2 * (c / Y2 ** k)
    return out


@lru_cache(maxsize=None)
def expand_rhs(prec: int = 4):
    """t^0..t^(prec-1) coefficients of g(t/sqrt(t^2 + y2)), expanded once
    per process."""
    inner = inner_series(prec)
    out = [SurdExpression.of(0) for _ in range(prec)]
    power = [SurdExpression.of(1)] + [SurdExpression.of(0)] * (prec - 1)
    for k, gk in enumerate(_G):
        if k:
            power = _poly_mul(power, inner, prec)
        for i in range(prec):
            out[i] = out[i] + gk * power[i]
    return tuple(out)


# -- the displayed equations ------------------------------------------------------

def displayed_eq3():
    """a0/s1 = a0 as (LHS, RHS)."""
    return A0 * (SurdExpression.s1() / (A0 ** 2 + Y1)), A0


def displayed_eq4():
    """a1/s1 - a0^2*a1/s1^3 = a1/s2 as (LHS, RHS)."""
    inv_s1 = SurdExpression.s1() / (A0 ** 2 + Y1)
    lhs = A1 * inv_s1 - A0 ** 2 * A1 * inv_s1 ** 3
    return lhs, A1 * (SurdExpression.s2() / Y2)


def displayed_third_order():
    """The third-order display as (LHS, RHS)."""
    r = A0 ** 2 + Y1
    inv_s1 = SurdExpression.s1() / r
    lhs = (A0 * A1 ** 2 * inv_s1 ** 3
           - A0 * inv_s1 * (A0 ** 2 * A1 ** 2 / r ** 2
                            + _HALF * (A0 ** 2 * A1 ** 2 / r ** 2
                                       - (A1 ** 2 + 2 * A0 * A2) / r)))
    return lhs, A2 * inv_s1 - A2 / Y2


def verify_displayed_equations():
    """Certify the t^0/t^1 coefficient equations symbolically against the
    displayed Eqs. (t^0: a0/s1 = a0; t^1: a1/s1 - a0^2*a1/s1^3 = a1/s2) and
    record the raw t^2/t^3 coefficients.  The downstream equations (Eq5, Eq6,
    the third-order display) are not derived here: the coeff-eqs command
    verifies them on finite rings through the proof chain."""
    lhs = expand_lhs(4)
    rhs = expand_rhs(4)
    eq3_l, eq3_r = displayed_eq3()
    eq4_l, eq4_r = displayed_eq4()
    t0_matches = (lhs[0] == eq3_l) and (rhs[0] == eq3_r)
    t1_matches = (lhs[1] == eq4_l) and (rhs[1] == eq4_r)
    # Third-order display vs. the raw t^3 coefficients: recorded, not asserted
    # (the source's a3-elimination bookkeeping is implicit).
    d3_l, d3_r = displayed_third_order()
    raw_t3_equals_display = ((lhs[3] - rhs[3]) == (d3_l - d3_r))
    return {
        "t0_matches_eq3": t0_matches,
        "t1_matches_eq4": t1_matches,
        "eq3": {"lhs": eq3_l.canonical_str(), "rhs": eq3_r.canonical_str()},
        "eq4": {"lhs": eq4_l.canonical_str(), "rhs": eq4_r.canonical_str()},
        "raw_t2": {"lhs": lhs[2].canonical_str(),
                   "rhs": rhs[2].canonical_str()},
        "raw_t3": {"lhs": lhs[3].canonical_str(),
                   "rhs": rhs[3].canonical_str()},
        "third_order_display": {"lhs": d3_l.canonical_str(),
                                "rhs": d3_r.canonical_str()},
        "raw_t3_difference_equals_display_difference": raw_t3_equals_display,
        "passed": t0_matches and t1_matches,
    }


# -- consistency with the concrete series engine ------------------------------------

_SAMPLE_RINGS = ("F5", "F25", "Z/25", "F5[e]/(e^2)", "F5[e]/(e^3)",
                 "cyclo(2)", "cyclo(3)")


def _witness_pools(ring):
    """(maximal ideal, units, all elements) of a sample ring, in order."""
    return (list(ring.enumerate("maximal-ideal")),
            list(ring.enumerate("units")), list(ring.enumerate()))


def _sample_witness(ring, rng, pools):
    """a0 lies in the maximal ideal and y1, y2 in 1 + m, so a0^2 + y1 and y2
    have residue 1: the roots with residue +-1 exist and are r and -r."""
    one = ring.one
    mideal, units, elements = pools
    a0 = rng.choice(mideal)
    a1 = rng.choice(units)
    a2 = rng.choice(elements)
    a3 = rng.choice(elements)
    y1 = one + rng.choice(mideal)
    y2 = one + rng.choice(mideal)
    r1 = (a0 * a0 + y1).sqrt(ring.residue_ring.one)
    r2 = y2.sqrt(ring.residue_ring.one)
    s1 = rng.choice([r1, -r1])
    s2 = rng.choice([r2, -r2])
    return dict(a0=a0, a1=a1, a2=a2, a3=a3, y1=y1, y2=y2, s1=s1, s2=s2)


def _engine_values(ring, w, prec, inners):
    """The t^0..t^(prec-1) coefficients of both sides computed directly by
    the series engine, as table indices: every sample ring is a kernel
    ring, whose elements carry their table index.  ``inners`` keeps the
    ring's inner series t/sqrt(t^2 + y2), built once per (y2, s2)."""
    g = TruncatedSeries(ring, [w["a0"], w["a1"], w["a2"], w["a3"]], prec=prec)
    body = g * g + TruncatedSeries.constant(ring, w["y1"], prec)
    lhs = g.div(body.sqrt(w["s1"].residue()))
    key = w["y2"], w["s2"]
    inner = inners.get(key)
    if inner is None:
        inner = inners[key] = family(ring, 1, w["y2"], prec,
                                     w["s2"].residue())
    return [c._i for c in lhs.coeffs + g.compose(inner).coeffs]


def consistency_sample(n: int = 1000, seed: int = 20260823, prec: int = 4):
    """Evaluate every symbolic t^i coefficient at >= n random witnesses
    spread across the sample rings and compare with the series engine.
    Each ring is one batch: the engine runs as its witnesses are drawn,
    then one Specialization values the 2 * prec coefficients at all of
    them."""
    if n < 1:
        raise RingError(f"a sample of {n} witnesses checks nothing")
    coeffs = expand_lhs(prec) + expand_rhs(prec)
    rng = random.Random(seed)
    per_ring = -(-n // len(_SAMPLE_RINGS))
    checked = 0
    mismatches = []
    for desc in _SAMPLE_RINGS:
        ring = build_ring(desc)
        pools = _witness_pools(ring)
        inners = {}
        witnesses = np.empty((per_ring, len(_WITNESS_NAMES)), dtype=np.int16)
        engine = np.empty((per_ring, 2 * prec), dtype=np.int16)
        for k in range(per_ring):
            w = _sample_witness(ring, rng, pools)
            witnesses[k] = [w[name]._i for name in _WITNESS_NAMES]
            engine[k] = _engine_values(ring, w, prec, inners)
        checked += per_ring
        at = Specialization(ring, dict(zip(_WITNESS_NAMES, witnesses.T)))
        differs = engine != np.stack([at(c) for c in coeffs], axis=1)
        tab = ring_table(ring)
        for k, i in zip(*np.nonzero(differs[:, :prec] | differs[:, prec:])):
            w = zip(_WITNESS_NAMES, map(tab.element, witnesses[k].tolist()))
            mismatches.append({"ring": desc, "t_power": int(i),
                               "witness": {name: str(x) for name, x in w}})
    return {
        "witnesses": checked,
        "coefficients_per_witness": 2 * prec,
        "mismatches": mismatches,
        "passed": not mismatches,
    }
