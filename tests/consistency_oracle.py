"""The coefficient-equation sample as it was before it ran one batch per
ring, kept as a test oracle for ``defo5.symbolic.coefficients``: one
scalar ``Specialization`` per witness, on table indices when the ring has
a table kernel and on ``Element``s otherwise (inverting each denominator
through ``Element.inv``), and a new inner series t/sqrt(t^2 + y2) for every
witness.  The witness draws and the symbolic expansions are the package's
own, read through the ``coefficients`` module so that a test's
monkeypatch of ``expand_lhs`` reaches both samples."""

from __future__ import annotations

import random
from operator import add, attrgetter, mul

from defo5.artin.rings import build_ring
from defo5.series import TruncatedSeries
from defo5.symbolic import coefficients
from defo5.symbolic.coefficients import (_SAMPLE_RINGS, _sample_witness,
                                         _witness_pools)
from defo5.symbolic.surd import _NAMES, SurdError


class Specialization:
    """One witness in one catalog ring, shared by every expression valued
    there (module docstring).  ``witness`` maps the symbol names a0, a1, a2,
    a3, y1, y2 to ring elements and s1, s2 to the chosen square roots of
    a0^2 + y1 and y2, which must square correctly.  Values are computed on
    table indices when the ring has a table kernel, else on Elements."""

    def __init__(self, ring, witness):
        s1, s2 = witness["s1"], witness["s2"]
        r, y2 = witness["a0"] * witness["a0"] + witness["y1"], witness["y2"]
        if s1 * s1 != r:
            raise SurdError("witness s1 is not a square root of a0^2 + y1")
        if s2 * s2 != y2:
            raise SurdError("witness s2 is not a square root of y2")
        self.ring = ring
        kern = ring._kernel
        if kern is None:
            self._raw = self._element = _same
            self._mul, self._add = mul, add
        else:
            MUL, ADD = kern.MUL, kern.ADD
            self._raw, self._element = attrgetter("_i"), kern.els.__getitem__
            self._mul = lambda x, y: MUL[x][y]
            self._add = lambda x, y: ADD[x][y]
        raw = self._raw
        one, s1, s2 = raw(ring.one), raw(s1), raw(s2)
        # powers of a0..y2, then of r and y2 for the denominators
        self._pows = [[one, raw(x)] for x in
                      [witness[name] for name in _NAMES] + [r, y2]]
        self._surds = (one, s1, s2, self._mul(s1, s2))
        self._inverses = {}

    def _power(self, v, e):
        """Power e of symbol v (6: r, 7: y2), from its table extended on
        demand; ``__call__`` inlines this loop."""
        seq = self._pows[v]
        while len(seq) <= e:
            seq.append(self._mul(seq[-1], seq[1]))
        return seq[e]

    def _inverse(self, i, j):
        """The inverse of r^i * y2^j, taken once by Element.inv
        (NotAUnitError if it is not a unit)."""
        inv = self._inverses.get((i, j))
        if inv is None:
            den = self._element(self._mul(self._power(6, i),
                                          self._power(7, j)))
            inv = self._inverses[i, j] = self._raw(den.inv())
        return inv

    def __call__(self, expr):
        """The value of ``expr`` here: each nonzero component is its
        numerator terms times the inverse of its denominator r^i * y2^j."""
        ring, mul, add, raw = self.ring, self._mul, self._add, self._raw
        pows = self._pows
        zero = raw(ring.zero)
        total = zero
        for plan, surd in zip(expr._terms(ring.char), self._surds):
            if plan is None:
                continue
            i, j, terms = plan
            numer = zero
            for c, monom in terms:
                term = raw(ring.from_int(c))
                for v, e in monom:
                    seq = pows[v]
                    while len(seq) <= e:
                        seq.append(mul(seq[-1], seq[1]))
                    term = mul(term, seq[e])
                numer = add(numer, term)
            total = add(total, mul(mul(numer, self._inverse(i, j)), surd))
        return self._element(total)


def _same(x):
    return x


def _engine_coefficients(ring, w, prec=4):
    """The same two sides computed directly by the series engine."""
    t = TruncatedSeries.t(ring, prec)
    g = TruncatedSeries(ring, [w["a0"], w["a1"], w["a2"], w["a3"]], prec=prec)
    body = g * g + TruncatedSeries.constant(ring, w["y1"], prec)
    lhs = g.div(body.sqrt(w["s1"].residue()))
    inner_body = t * t + TruncatedSeries.constant(ring, w["y2"], prec)
    inner = t.div(inner_body.sqrt(w["s2"].residue()))
    rhs = g.compose(inner)
    return lhs.coeffs, rhs.coeffs


def consistency_sample(n: int = 1000, seed: int = 20260823, prec: int = 4):
    """Evaluate every symbolic t^i coefficient at >= n random witnesses
    spread across the sample rings and compare with the series engine."""
    lhs_sym = coefficients.expand_lhs(prec)
    rhs_sym = coefficients.expand_rhs(prec)
    rng = random.Random(seed)
    per_ring = -(-n // len(_SAMPLE_RINGS))
    checked = 0
    mismatches = []
    for desc in _SAMPLE_RINGS:
        ring = build_ring(desc)
        pools = _witness_pools(ring)
        for _ in range(per_ring):
            w = _sample_witness(ring, rng, pools)
            lhs_eng, rhs_eng = _engine_coefficients(ring, w, prec)
            at = Specialization(ring, w)
            for i in range(prec):
                if (at(lhs_sym[i]) != lhs_eng[i]
                        or at(rhs_sym[i]) != rhs_eng[i]):
                    mismatches.append({"ring": desc, "t_power": i,
                                       "witness": {k: str(v)
                                                   for k, v in w.items()}})
            checked += 1
    return {
        "witnesses": checked,
        "coefficients_per_witness": 2 * prec,
        "mismatches": mismatches,
        "passed": not mismatches,
    }
