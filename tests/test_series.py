"""Truncated series arithmetic against independent closed-form oracles:
geometric series, binomial series (rational coefficients with 2-power
denominators reduced into the ring), and Lagrange inversion."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

import series_oracle as oracle
from defo5.artin.literals import LiteralError
from defo5.artin.rings import (KERNEL_BOUND, Element, NoSquareRootError,
                               NotAUnitError, RingError, build_ring)
from defo5.deformation.proofchain import CATALOG
from defo5.series import PrecisionError, TruncatedSeries
from test_artin import structure_constants


def frac_in(ring, q: Fraction):
    return ring.from_int(q.numerator) * ring.from_int(q.denominator).inv()


def binomial_coeff(alpha: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= (alpha - i)
        out /= (i + 1)
    return out


# -- oracles -----------------------------------------------------------------------

def test_geometric_series_oracle():
    """1/(1 - t) = sum t^k, exactly, over several rings."""
    for desc in ("F5", "Z/25", "F5[e]/(e^2)"):
        R = build_ring(desc)
        one = TruncatedSeries.constant(R, 1, 10)
        t = TruncatedSeries.t(R, 10)
        inv = one.div(one - t)
        assert inv.coeffs == tuple(R.one for _ in range(10))


def test_binomial_series_oracle_sqrt():
    """sqrt(1 + t) has coefficients binom(1/2, k), denominators all 2-powers."""
    for desc in ("F5", "Z/25", "cyclo(3)"):
        R = build_ring(desc)
        one = TruncatedSeries.constant(R, 1, 8)
        t = TruncatedSeries.t(R, 8)
        s = (one + t).sqrt()
        for k in range(8):
            assert s.coeffs[k] == frac_in(R, binomial_coeff(Fraction(1, 2), k))
        assert (s * s).agrees_with(one + t)


def test_sqrt_one_plus_t_squared():
    R = build_ring("F5")
    one = TruncatedSeries.constant(R, 1, 6)
    t = TruncatedSeries.t(R, 6)
    s = (one + t * t).sqrt()
    assert str(s) == "1 + 3*t^2 + 3*t^4 @prec=6"


def test_lagrange_inversion_oracle():
    """comp_inverse of f = t/(1-t) = sum_{k>=1} t^k is t/(1+t), whose
    coefficients alternate; checked against the Lagrange inversion formula
    for f = t + t^2: [t^n] f^{-1} = (1/n) [w^{n-1}] (w/(w + w^2))^n
    = (1/n) * binom(2n-2, n-1) * (-1)^(n-1) / ... computed directly."""
    R = build_ring("F5")
    t = TruncatedSeries.t(R, 8)
    one = TruncatedSeries.constant(R, 1, 8)
    f = t.div(one - t)
    g = f.comp_inverse()
    expected = t.div(one + t)  # exact closed form
    assert g.agrees_with(expected, g.prec)
    # Lagrange inversion for f = t + t^2: the inverse's t^n coefficient is
    # (1/n) * [w^{n-1}] (1 + w)^{-n} = (1/n) * binom(-n, n-1).
    f2 = t + t * t
    g2 = f2.comp_inverse()
    for n in range(1, g2.prec):
        c = Fraction(1, n) * binomial_coeff(Fraction(-n), n - 1)
        assert g2.coeffs[n] == frac_in(R, c)
    assert g2.coeffs[0] == R.zero


def test_division_examples():
    R = build_ring("F5")
    t = TruncatedSeries.t(R, 4)
    one = TruncatedSeries.constant(R, 1, 4)
    q = t.div(one + t)
    assert str(q) == "t + 4*t^2 + t^3 @prec=4"
    # re-multiplication closes
    assert (q * (one + t)).agrees_with(t)


@pytest.mark.parametrize("desc", ["F5[e]/(e^3)", "cyclo(4)"])
def test_product_skips_zeros_without_element_eq(desc, monkeypatch):
    """Products, division, square roots and composition (with a zero and
    with a nilpotent constant term inside) test coefficients for zero on the
    raw form, and the constant terms they invert or take roots of compare
    coordinates: no Element.__eq__ call, on the table kernel (125 elements)
    and on the structure constants (625)."""
    R = build_ring(desc)
    x, y = R.element([1] * R.dim), R.element(list(range(R.dim)))
    m = R.generator("e" if "e" in R._generator_vecs else "u")
    a = TruncatedSeries(R, [0, 1, 0, 3, x, 0, 2], prec=8)
    b = TruncatedSeries(R, [2, 0, y, 0, 0, 1, 0, x], prec=8)
    square = b * b
    inner = TruncatedSeries(R, [0, 1, 0, x, 0, 0, y], prec=8)
    nil_inner = TruncatedSeries(R, [m, 3, 0, x], prec=8)
    loss = m.nilpotency_order() - 1
    want = {
        "mul": tuple(sum((a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)),
                         R.zero) for k in range(8)),
        "div": tuple(oracle.div(R, a.coeffs, b.coeffs, 8)),
        "sqrt": tuple(oracle.sqrt(R, square.coeffs)),
        "compose": tuple(oracle.compose(R, a.coeffs, inner.coeffs, 8)),
        "compose nilpotent": tuple(
            oracle.compose(R, a.coeffs, nil_inner.coeffs, 8)[:8 - loss]),
    }
    calls = []
    eq = Element.__eq__

    def counting_eq(self, other):
        calls.append(other)
        return eq(self, other)

    monkeypatch.setattr(Element, "__eq__", counting_eq)
    got = {"mul": (a * b).coeffs, "div": a.div(b).coeffs,
           "sqrt": square.sqrt().coeffs, "compose": a.compose(inner).coeffs,
           "compose nilpotent": a.compose(nil_inner).coeffs}
    monkeypatch.undo()
    assert calls == []
    assert got == want


# -- both raw forms against the Element-by-Element oracle ------------------------

_SMALL = [d for d in CATALOG if build_ring(d).cardinality <= KERNEL_BOUND]
_RAW_PATHS = ([(d, "index") for d in _SMALL] + [(d, "coords") for d in _SMALL]
              + [("cyclo(4)", "coords")])
_P = 24  # the longest precision the reports use (iterates --prec 24)


@contextmanager
def _raw_path(ring, path):
    """Table indices (the ring's kernel), or unreduced coordinate vectors
    (the ring run on its structure constants, as rings above the bound)."""
    if path == "index":
        assert ring._kernel is not None
        yield
    else:
        with structure_constants(ring):
            assert ring._kernel is None
            yield


def _sparse(ring, rng, c0, p=_P, els=None):
    """c0, then p - 1 coefficients of which about 60 % are zero, drawn from
    ``els`` (default: the whole ring)."""
    els = els or list(ring.enumerate())
    return [c0] + [rng.choice(els) if rng.random() < 0.4 else ring.zero
                   for _ in range(p - 1)]


def _coords(coeffs):
    return [c.coords for c in coeffs]


def _assert_raw_path_agrees_with_element_oracle(desc, path, p):
    R = build_ring(desc)
    rng = random.Random(20261018)
    els = list(R.enumerate())  # enumerated once: Z/5^7 has 78 125
    units = [x for x in els if x.is_unit()]
    nilpotent = [x for x in els if x != R.zero and not x.is_unit()]
    f = _sparse(R, rng, rng.choice(els), p, els)
    g = _sparse(R, rng, rng.choice(units), p, els)
    square = oracle.mul(R, g, g, p)  # unit constant term, both roots exist
    inner = _sparse(R, rng, rng.choice(nilpotent) if nilpotent else R.zero,
                    p, els)
    inner[1] = rng.choice(units)
    branches = tuple(x for x in R.residue_ring.enumerate()
                     if x * x == square[0].residue())
    assert len(branches) == 2
    loss = (inner[0].nilpotency_order() - 1) if nilpotent else 0
    # the guaranteed precisions; below 1 the operation must refuse
    cut = {"compose": p - loss,
           "comp_inverse": p - 2 * (R.nilpotency_index - 1)}
    want = {
        "mul": lambda: oracle.mul(R, f, g, p),
        "div": lambda: oracle.div(R, f, g, p),
        "compose": lambda: oracle.compose(R, f, inner, p)[:cut["compose"]],
        "comp_inverse": lambda: oracle.comp_inverse(R, inner)[
            :cut["comp_inverse"]],
        **{("sqrt", b): lambda b=b: oracle.sqrt(R, square, b)
           for b in branches},
    }
    refused = {k for k, c in cut.items() if c < 1}
    with _raw_path(R, path):
        F, G, S, inner_s = (TruncatedSeries(R, c)
                            for c in (f, g, square, inner))
        got = {
            "mul": lambda: F * G,
            "div": lambda: F.div(G),
            "compose": lambda: F.compose(inner_s),
            "comp_inverse": inner_s.comp_inverse,
            **{("sqrt", b): lambda b=b: S.sqrt(b) for b in branches},
        }
        for k in refused:
            with pytest.raises(PrecisionError):
                got[k]()
        got = {k: _coords(op().coeffs) for k, op in got.items()
               if k not in refused}
    assert got == {k: _coords(op()) for k, op in want.items()
                   if k not in refused}


@pytest.mark.parametrize("desc,path", _RAW_PATHS)
def test_raw_paths_agree_with_element_oracle(desc, path):
    _assert_raw_path_agrees_with_element_oracle(desc, path, _P)


@pytest.mark.parametrize("p", [2, 4, 16])
@pytest.mark.parametrize("desc", ["cyclo(4)", "cyclo(5)", "F25[e]/(e^2)",
                                  "Z/5^7"])
def test_coordinate_path_agrees_with_element_oracle(desc, p):
    """The one coordinate product (every multiplication matrix expanded
    once) on rings above the kernel bound, from 4 coordinates down to the
    dim-1 Z/5^7, at a short, a middle and a long precision."""
    assert build_ring(desc).cardinality > KERNEL_BOUND
    _assert_raw_path_agrees_with_element_oracle(desc, "coords", p)


def _error(fn):
    try:
        fn()
    except RingError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("desc,path", _RAW_PATHS)
def test_raw_paths_raise_the_oracle_errors(desc, path):
    R = build_ring(desc)
    nonunit = next((x for x in R.enumerate("maximal-ideal") if x != R.zero),
                   R.zero)
    nonsquare = next(u for u in R.enumerate("units")
                     if not tuple(x for x in R.residue_ring.enumerate()
                                  if x * x == u.residue()))
    p = 6
    f = [R.one + R.one] + [R.one] * (p - 1)
    bad = {c0: [c0] + [R.one] * (p - 1) for c0 in (nonunit, nonsquare)}
    want = [_error(lambda: oracle.div(R, f, bad[nonunit], p)),
            _error(lambda: oracle.sqrt(R, bad[nonunit])),
            _error(lambda: oracle.sqrt(R, bad[nonsquare]))]
    assert want == [NotAUnitError, NotAUnitError, NoSquareRootError]
    with _raw_path(R, path):
        F = TruncatedSeries(R, f)
        got = [_error(lambda: F.div(TruncatedSeries(R, bad[nonunit]))),
               _error(lambda: TruncatedSeries(R, bad[nonunit]).sqrt()),
               _error(lambda: TruncatedSeries(R, bad[nonsquare]).sqrt())]
        unit_c0 = TruncatedSeries(R, [R.one, R.one], prec=p)
        assert _error(lambda: F.compose(unit_c0)) is RingError
        if nonunit != R.zero:
            short = TruncatedSeries(R, [R.one])  # nothing left after the loss
            nil_c0 = TruncatedSeries(R, [nonunit, R.one], prec=p)
            assert _error(lambda: short.compose(nil_c0)) is PrecisionError
    assert got == want


_HORNER_PRECS = (1, 2, 3, 8, 16)


def _inner_series(ring, rng, units, c0, v):
    """c0, then zeros up to t^v, a unit at t^v and sparse terms after it."""
    f = _sparse(ring, rng, c0)
    f[1:v] = [ring.zero] * (v - 1)
    f[v] = rng.choice(units)
    return f


@pytest.mark.parametrize("desc,path", _RAW_PATHS)
def test_truncated_horner_agrees_with_element_oracle(desc, path):
    """Horner cut by the t-order of the inner series (and at full width
    for a nonzero constant term), through ``compose`` and ``comp_inverse``,
    against the full-width Element oracle: inner series of t-order 1 and 2
    with zero constant term and of t-order 1 behind a nilpotent constant
    term, outer series longer and shorter than the inner one, and
    precisions down to 1 and 2 (where the inner series may vanish)."""
    R = build_ring(desc)
    rng = random.Random(20261019)
    units = list(R.enumerate("units"))
    nilpotent = [x for x in R.enumerate("maximal-ideal") if x != R.zero]
    inners = {"order 1": _inner_series(R, rng, units, R.zero, 1),
              "order 2": _inner_series(R, rng, units, R.zero, 2)}
    if nilpotent:
        inners["nilpotent c0"] = _inner_series(
            R, rng, units, rng.choice(nilpotent), 1)
    g = _sparse(R, rng, rng.choice(list(R.enumerate())), _P + 5)
    e = R.nilpotency_index
    want, got = {}, {}
    for kind, f in inners.items():
        loss = (f[0].nilpotency_order() - 1) if f[0] != R.zero else 0
        for p in _HORNER_PRECS:
            for m in (p + 5, max(1, p - 1)):  # len(g) > p, and len(g) < p
                q = min(m, p)
                cut = min(m - loss, p)
                want["compose", kind, p, m] = (
                    oracle.compose(R, g[:m], f[:q], q)[:cut] if cut >= 1
                    else PrecisionError)
            if kind != "order 2" and p >= 2 and p - 2 * (e - 1) >= 1:
                want["comp_inverse", kind, p] = oracle.comp_inverse(
                    R, f[:p])[:p - 2 * (e - 1)]
    with _raw_path(R, path):
        series = {kind: TruncatedSeries(R, f) for kind, f in inners.items()}
        outer = TruncatedSeries(R, g)
        for key in want:
            kind, p = key[1], key[2]
            f = series[kind].truncate(p)
            if key[0] == "comp_inverse":
                got[key] = f.comp_inverse().coeffs
                continue
            try:
                got[key] = outer.truncate(key[3]).compose(f).coeffs
            except PrecisionError:
                got[key] = PrecisionError
    assert len(got) == len(want) >= 24

    def shown(v):
        return v if v is PrecisionError else _coords(v)

    assert ({k: shown(v) for k, v in got.items()}
            == {k: shown(v) for k, v in want.items()})


@pytest.mark.parametrize("desc,path", _RAW_PATHS)
def test_coeffs_are_the_oracle_elements(desc, path):
    """``coeffs`` is built from the raw form on first use: the oracle's
    Elements, and on a table kernel the interned ones, also when the
    constructor was given Elements built elsewhere."""
    R = build_ring(desc)
    rng = random.Random(20261020)
    units = list(R.enumerate("units"))
    f = _sparse(R, rng, rng.choice(units))
    g = _sparse(R, rng, rng.choice(units))
    x = rng.choice(units)
    want = {"init": f, "mul": oracle.mul(R, f, g, _P),
            "div": oracle.div(R, f, g, _P),
            "add": [a + b for a, b in zip(f, g)],
            "sub": oracle.sub(f, g), "neg": [-a for a in f],
            "scale": [a * x for a in f], "scale int": [a * 7 for a in f],
            "derivative": oracle.derivative(R, f, _P - 1)}
    with _raw_path(R, path):
        F, G = TruncatedSeries(R, f), TruncatedSeries(R, g)
        got = {"init": F.coeffs, "mul": (F * G).coeffs,
               "div": F.div(G).coeffs, "add": (F + G).coeffs,
               "sub": (F - G).coeffs, "neg": (-F).coeffs,
               "scale": (F * x).coeffs, "scale int": (7 * F).coeffs,
               "derivative": F.derivative().coeffs}
        assert all(type(c) is Element and c.ring is R
                   for cs in got.values() for c in cs)
        kern = R._kernel
        if kern is not None:
            assert all(c is kern.els[c._i] for cs in got.values() for c in cs)
        assert F.coeffs is F.coeffs  # cached
        assert [F[i] for i in range(_P)] == list(F.coeffs)
    assert ({k: _coords(v) for k, v in got.items()}
            == {k: _coords(v) for k, v in want.items()})


@pytest.mark.parametrize("desc", ["F5[e]/(e^3)", "cyclo(3)", "cyclo(4)"])
def test_equal_series_hash_equal(desc):
    R = build_ring(desc)
    x = R.element([1] * R.dim)
    t = TruncatedSeries.t(R, 5)
    s = TruncatedSeries(R, [1, 2, 0, x], prec=5)
    same = [
        TruncatedSeries(R, [R.one, R.from_int(2), R.zero, x, R.zero]),
        TruncatedSeries.from_literal(R, str(s)),
        (s + t) - t,
        s * 1,
        -(-s),
        TruncatedSeries.from_bytes(s.to_bytes()),
        TruncatedSeries(R, [1, 2, 0, x, 0, 3], prec=7).truncate(5),
        s.truncate(4).exact_extension(5),
        (s * t).shift_down(1).exact_extension(5),
    ]
    assert all(u == s and hash(u) == hash(s) for u in same)
    assert len({s, *same}) == 1
    assert s + t * t * t * t != s and s.truncate(4) != s


@pytest.mark.parametrize("desc,path", _RAW_PATHS)
def test_binary_and_literal_round_trips(desc, path):
    R = build_ring(desc)
    rng = random.Random(20261021)
    f = _sparse(R, rng, rng.choice(list(R.enumerate())))
    with _raw_path(R, path):
        F = TruncatedSeries(R, f)
        back = [TruncatedSeries.from_bytes(F.to_bytes()),
                TruncatedSeries.from_literal(R, str(F))]
        assert all(b == F and b.prec == _P for b in back)
        assert all(_coords(b.coeffs) == _coords(f) for b in back)


@pytest.mark.parametrize("desc,path", _RAW_PATHS)
def test_operations_leave_their_operands_alone(desc, path):
    """No operation writes into the stored coefficients of an operand, and
    no result shares its coefficient list with one."""
    R = build_ring(desc)
    rng = random.Random(20261022)
    units = list(R.enumerate("units"))
    f = _sparse(R, rng, rng.choice(units))
    g = _sparse(R, rng, rng.choice(units))
    inner = _inner_series(R, rng, units, R.zero, 1)
    with _raw_path(R, path):
        F, G, inner_s = (TruncatedSeries(R, c) for c in (f, g, inner))
        S = G * G
        operands = (F, G, S, inner_s)
        before = [(s._raw, list(s._raw), s.coeffs) for s in operands]
        results = [F * G, F.div(G), S.sqrt(), F.compose(inner_s),
                   inner_s.comp_inverse(), F.truncate(5),
                   inner_s.shift_down(1), F * units[-1], F + G, F - G, -F,
                   F.derivative(), F.exact_extension(_P + 3), F.truncate(_P)]
        for s, (raw, copy, coeffs) in zip(operands, before):
            assert s._raw is raw and s._raw == copy and s.coeffs is coeffs
        assert not {id(r._raw) for r in results} & {id(s._raw)
                                                    for s in operands}


# -- precision tracking ---------------------------------------------------------------

def test_precision_min_rule():
    R = build_ring("F5")
    a = TruncatedSeries.t(R, 9)
    b = TruncatedSeries.constant(R, 1, 6)
    assert (a + b).prec == 6
    assert (a * b).prec == 6


def test_compose_precision_loss_nilpotent_constant():
    R = build_ring("F5[e]/(e^3)")  # nilpotency index 3
    e = R.generator("e")
    outer = TruncatedSeries.t(R, 6)
    inner_no_c0 = TruncatedSeries.t(R, 6)
    inner_with_c0 = TruncatedSeries(R, [e, R.one], prec=6)
    assert outer.compose(inner_no_c0).prec == 6       # no loss when c0 = 0
    assert outer.compose(inner_with_c0).prec == 6 - (e.nilpotency_order() - 1)


def test_comp_inverse_precision_rule():
    R = build_ring("F5[e]/(e^2)")
    t = TruncatedSeries.t(R, 10)
    assert t.comp_inverse().prec == 10 - 2 * (R.nilpotency_index - 1)
    with pytest.raises(PrecisionError):
        TruncatedSeries.t(R, 2).comp_inverse()


def test_truncation_soundness():
    """Computing at higher precision then truncating agrees with computing
    at lower precision."""
    R = build_ring("Z/25")
    one = TruncatedSeries.constant(R, 1, 12)
    t = TruncatedSeries.t(R, 12)
    hi = (one + t * t + t).sqrt() * one.div(one - t)
    lo = ((one + t * t + t).truncate(7).sqrt()
          * one.truncate(7).div((one - t).truncate(7)))
    assert hi.truncate(7) == lo


# -- structure helpers ---------------------------------------------------------------

def test_t_order_and_shift():
    R = build_ring("F5")
    s = TruncatedSeries(R, [0, 0, 3, 1], prec=6)
    assert s.t_order() == 2
    assert TruncatedSeries.zero(R, 5).t_order() is None
    shifted = s.shift_down(2)
    assert shifted.coeffs[0] == R.from_int(3)
    assert shifted.prec == 4


def test_derivative():
    R = build_ring("Z/25")
    s = TruncatedSeries(R, [1, 2, 3, 4], prec=4)
    d = s.derivative()
    assert d.coeffs[:3] == (R.from_int(2), R.from_int(6), R.from_int(12))


def test_exact_extension_polynomial():
    R = build_ring("F5")
    p = TruncatedSeries(R, [1, 1], prec=2)
    ext = p.exact_extension(6)
    assert ext.prec == 6
    assert ext.coeffs[2:] == (R.zero,) * 4


# -- serialization ----------------------------------------------------------------------

def test_literal_round_trip():
    R = build_ring("F5[e]/(e^2)")
    s = TruncatedSeries.from_literal(R, "(1+e) + 2*t + e*t^3 @prec=5")
    assert s.prec == 5
    assert TruncatedSeries.from_literal(R, str(s)) == s


def test_binary_round_trip():
    for desc in ("F5", "Z/25", "cyclo(3)"):
        R = build_ring(desc)
        t = TruncatedSeries.t(R, 7)
        one = TruncatedSeries.constant(R, 1, 7)
        s = (one + t).sqrt() * t
        assert TruncatedSeries.from_bytes(s.to_bytes()) == s


def test_binary_bad_magic():
    R = build_ring("F5")
    s = TruncatedSeries.t(R, 3)
    with pytest.raises(Exception):
        TruncatedSeries.from_bytes(b"XXXX" + s.to_bytes()[4:])


# -- literal precision and bounded-time failure ------------------------------------------

def _lit(desc, text):
    return TruncatedSeries.from_literal(build_ring(desc), text)


@pytest.mark.parametrize("desc,text,shown", [
    # without @prec the precision is the formal length of the polynomial
    ("F5", "t - t", "0 @prec=2"),
    ("F5", "5*t^2", "0 @prec=3"),
    ("F5", "t^0", "1 @prec=1"),
    ("F5", "t + 2*t^3 + 3*t^4 + 3*t^5 + t^6 + 2*t^7",
     "t + 2*t^3 + 3*t^4 + 3*t^5 + t^6 + 2*t^7 @prec=8"),
    ("F5", "2(1+t)^3", "2 + t + t^2 + 2*t^3 @prec=4"),
    ("F5[e]/(e^2)", "3e", "3*e @prec=1"),
    ("F5[e]/(e^2)", "3e*t - t^2", "3*e*t + 4*t^2 @prec=3"),
    ("F5[e]/(e^2)", "-t^2+e", "e + 4*t^2 @prec=3"),
    ("F5[e]/(e^2)", "-(1+e)t", "(4 + 4*e)*t @prec=2"),
    ("F5[e]/(e^2)", "--t", "t @prec=2"),
    ("F5[e]/(e^2)", "t^3 @prec=2", "0 @prec=2"),
])
def test_series_literal_precision(desc, text, shown):
    assert str(_lit(desc, text)) == shown


def test_series_literal_power_cut_at_prec():
    # 100000 = 5^5 * 32, so (1+t)^100000 = (1+t^3125)^32 over F5
    t0 = time.perf_counter()
    s = _lit("F5", "(1+t)^100000 @prec=8")
    assert time.perf_counter() - t0 < 1.0
    assert str(s) == "1 @prec=8"


def test_series_literal_degree_bound():
    for text in ("(1+t)^100000", "t^2000", "(1+t)^600 * (1+t)^600"):
        t0 = time.perf_counter()
        with pytest.raises(LiteralError, match="degree"):
            _lit("F5", text)
        assert time.perf_counter() - t0 < 2.0
    for text in ("t @prec=0", "t @prec=100000"):
        with pytest.raises(LiteralError, match="@prec"):
            _lit("F5", text)


def test_series_literal_nesting_bound():
    for text in ("(" * 3000 + "t" + ")" * 3000, "-" * 3000 + "t"):
        t0 = time.perf_counter()
        with pytest.raises(LiteralError, match="nests"):
            _lit("F5", text)
        assert time.perf_counter() - t0 < 1.0
    assert str(_lit("F5", "(" * 50 + "t" + ")" * 50)) == "t @prec=2"


def test_binary_truncated_data():
    R = build_ring("cyclo(3)")
    data = TruncatedSeries.from_literal(R, "1 + u*t @prec=4").to_bytes()
    t0 = time.perf_counter()
    for bad in (data[:2], data[:6], data[:11], data[:-1], data[:-8],
                data + b"\0", data[:12] + b"\xff" + data[13:]):
        with pytest.raises(RingError):
            TruncatedSeries.from_bytes(bad)
    assert time.perf_counter() - t0 < 1.0
