"""Every documented error that no other test reaches: the error class and
part of its message, one table row each."""

import re
import struct

import pytest

from defo5.artin.literals import LiteralError, parse_element
from defo5.artin.rings import (DescriptorError, EnumerationBoundError,
                               MismatchError, NotAUnitError, RingError,
                               build_ring)
from defo5.deformation.equivalence import conjugator_search
from defo5.deformation.versal import (VersalPoint, hom_points,
                                      iterate_parameters, phi5,
                                      versal_family)
from defo5.nottingham import (Automorphism, base_sigma, normal_form_o5c2,
                              order, power)
from defo5.series import PrecisionError, TruncatedSeries

F5, F25 = build_ring("F5"), build_ring("F25")


def _series(desc, coeffs):
    return TruncatedSeries(build_ring(desc), coeffs)


def _bytes_with_dim(dim):
    """A prec-2 series over F5 in binary form, its header's dimension
    replaced (magic, then <HIH: descriptor length, prec, dim)."""
    data = bytearray(TruncatedSeries.t(F5, 2).to_bytes())
    struct.pack_into("<H", data, 4 + 2 + 4, dim)
    return bytes(data)


def _family(desc, prec):
    return versal_family(hom_points(build_ring(desc))[0], prec)


_CASES = {
    # artin.rings
    "element of the wrong length":
        (RingError, "wrong length", lambda: F5.element((1, 2))),
    "section of a foreign residue":
        (MismatchError, "residue field",
         lambda: build_ring("Z/25").section(F25.one)),
    "enumeration beyond the bound":
        (EnumerationBoundError, "exceeds bound",
         lambda: next(build_ring("Z/5^11").enumerate())),
    "unknown enumeration filter":
        (RingError, "unknown enumeration filter",
         lambda: next(F5.enumerate("odd"))),
    "nilpotency order of a unit":
        (NotAUnitError, "not nilpotent", lambda: F5.one.nilpotency_order()),
    "cyclo above 8":
        (DescriptorError, "m <= 8", lambda: build_ring("cyclo(9)")),
    "extension without its quotient":
        (DescriptorError, "cannot parse", lambda: build_ring("F5[e]")),
    "generator names that disagree":
        (DescriptorError, "disagree", lambda: build_ring("F5[e]/(x^2)")),
    # artin.literals
    "unexpected token":
        (LiteralError, "unexpected token ')'",
         lambda: parse_element(F5, "1+)")),
    # series
    "coefficient from another ring":
        (MismatchError, "different ring", lambda: _series("F5", [F25.one])),
    "coefficient of no ring":
        (TypeError, "series coefficient", lambda: _series("F5", [0.5])),
    "series without coefficients":
        (PrecisionError, "precision >= 1", lambda: _series("F5", [])),
    "series over two rings":
        (MismatchError, "different rings",
         lambda: TruncatedSeries.t(F5, 3) + TruncatedSeries.t(F25, 3)),
    "truncation above the precision":
        (PrecisionError, "cannot truncate",
         lambda: TruncatedSeries.t(F5, 3).truncate(4)),
    "derivative at precision 1":
        (PrecisionError, "derivative", lambda: _series("F5", [1]).derivative()),
    "inverse of a unit constant term":
        (RingError, "nilpotent constant term",
         lambda: _series("F5", [1, 1]).comp_inverse()),
    "inverse of a zero linear coefficient":
        (NotAUnitError, "unit linear coefficient",
         lambda: _series("F5", [0, 0, 1]).comp_inverse()),
    "shift past a nonzero coefficient":
        (RingError, "not divisible by t^1",
         lambda: _series("F5", [1, 1]).shift_down(1)),
    "shift below precision 1":
        (PrecisionError, "below precision 1",
         lambda: TruncatedSeries.zero(F5, 2).shift_down(2)),
    "binary series of the wrong dimension":
        (RingError, "dimension does not match",
         lambda: TruncatedSeries.from_bytes(_bytes_with_dim(2))),
    # nottingham
    "negative power":
        (RingError, "n >= 0", lambda: power(base_sigma(F5, 8), -1)),
    "order cap below 1":
        (RingError, "cap must be >= 1", lambda: order(base_sigma(F5, 8), 0)),
    "normal form off F5":
        (RingError, "over F5", lambda: normal_form_o5c2(base_sigma(F25, 8), 8)),
    "normal form of conductor 1":
        (RingError, "Hasse conductor 2",
         lambda: normal_form_o5c2(Automorphism(TruncatedSeries.from_literal(
             F5, "t + 2*t^2 @prec=6")), 6)),
    # deformation.versal
    "versal point in another ring":
        (RingError, "wrong ring", lambda: VersalPoint(F5, F25.one)),
    "negative iterate":
        (RingError, "k >= 0", lambda: iterate_parameters(F5.one, -1)),
    # deformation.equivalence
    "conjugator search on short lifts":
        (RingError, "lift2 precision >= 5",
         lambda: conjugator_search(_family("F5[e]/(e^2)", 4),
                                   _family("F5[e]/(e^2)", 4), 4)),
    "conjugator search over two rings":
        (RingError, "different rings",
         lambda: conjugator_search(_family("F5", 4), _family("F25", 4), 4)),
}


@pytest.mark.parametrize("case", _CASES)
def test_documented_error(case):
    error, message, call = _CASES[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_order_stops_where_composition_loses_every_coefficient():
    """t -> 5 + t over Z/125: its constant term has nilpotency order 3, so
    composing at precision 2 would keep none, and ``order`` returns the
    precision it reached instead of an order."""
    a = Automorphism(_series("Z/125", [5, 1]))
    assert order(a, 5) == (None, 2)


@pytest.mark.parametrize("desc", ["F5", "F25", "cyclo(2)", "F5[e]/(e^3)",
                                  "cyclo(3)", "F25[e]/(e^2)"])
def test_phi5_roots_are_one_mod_the_maximal_ideal(desc):
    """Phi5(y) = (y - 1)^4 mod 5, so Phi5(y) = 0 puts y - 1 in m: the
    congruence ``VersalPoint`` checks after Phi5(y) = 0 can never fail, and
    no input reaches its error."""
    ring = build_ring(desc)
    roots = [y for y in ring.enumerate() if phi5(y) == 0]
    assert roots
    assert all((y - 1).in_maximal_ideal() for y in roots)
