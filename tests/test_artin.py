"""Ring catalog construction, canonical arithmetic, Hensel roots, literals."""

import gc
import random
import time
import tracemalloc
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from defo5.artin.literals import LiteralError, format_element, parse_element
from defo5.artin.rings import (KERNEL_BOUND, MAX_DIGITS, MAX_DIM,
                               MAX_ZMOD_EXPONENT, DescriptorError, Element,
                               MismatchError, NoSquareRootError,
                               NotAUnitError, Ring, RingError, build_ring)
from defo5.artin.tables import (TABLE_BOUND, RingTable, _block_dtype,
                                ring_table)
from defo5.deformation.proofchain import CATALOG
from defo5.series import TruncatedSeries

from ring_oracle import (cyclo_relation_rows, hnf_rows,
                         nilpotency_index_by_search, relation_hnf)
from table_oracle import per_coordinate_tables, reference_tables


# -- construction ---------------------------------------------------------------

@pytest.mark.parametrize("desc,card,char,e", [
    ("F5", 5, 5, 1),
    ("F25", 25, 5, 1),
    ("Z/25", 25, 25, 2),
    ("Z/5^3", 125, 125, 3),
    ("F5[e]/(e^2)", 25, 5, 2),
    ("F5[e]/(e^4)", 625, 5, 4),
    ("F5[e1]/(e1^2)[e2]/(e2^2)", 625, 5, 3),
    ("F25[e]/(e^2)", 625, 5, 2),
    ("cyclo(1)", 5, 5, 1),
    ("cyclo(2)", 25, 5, 2),
    ("cyclo(4)", 625, 5, 4),
    ("cyclo(5)", 3125, 25, 5),
])
def test_catalog_construction(desc, card, char, e):
    ring = build_ring(desc)
    assert ring.cardinality == card
    assert ring.char == char
    assert ring.nilpotency_index == e


def test_residue_fields():
    assert build_ring("F25[e]/(e^2)").residue_ring.descriptor == "F25"
    assert build_ring("cyclo(5)").residue_ring.descriptor == "F5"
    assert build_ring("Z/25").residue_ring.descriptor == "F5"


@pytest.mark.parametrize("bad", ["Q7", "Z/10", "F5[e]/(e^1)", "cyclo(0)",
                                 "F5[e]/(e^2)[e]/(e^2)", "Z/5^0", ""])
def test_bad_descriptors(bad):
    with pytest.raises(DescriptorError):
        build_ring(bad)


@pytest.mark.parametrize("bad", [
    "Z/" + "1" * 5000,                       # int() would refuse 5000 digits
    "Z/5^" + "9" * (MAX_DIGITS + 1),
    "cyclo(" + "9" * (MAX_DIGITS + 1) + ")",
    "F5[e]/(e^" + "2" * (MAX_DIGITS + 1) + ")",
    f"Z/5^{MAX_ZMOD_EXPONENT + 1}",
    "Z/5^99999",
    f"F5[e]/(e^{MAX_DIM + 1})",
    "F5[e]/(e^80)",
    f"F25[e]/(e^{MAX_DIM // 2 + 1})",         # exponent fine, dimension not
    "F5[a]/(a^4)[b]/(b^4)[c]/(c^4)",
])
def test_descriptor_bounds_refused_at_once(bad, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("a ring was constructed")

    monkeypatch.setattr(Ring, "__init__", built)
    t0 = time.perf_counter()
    with pytest.raises(DescriptorError):
        build_ring(bad)
    assert time.perf_counter() - t0 < 0.1


def test_descriptor_bounds_admit_their_limits():
    assert build_ring(f"F5[e]/(e^{MAX_DIM})").dim == MAX_DIM
    assert build_ring(f"F25[e]/(e^{MAX_DIM // 2})").dim == MAX_DIM
    assert build_ring(f"Z/5^{MAX_ZMOD_EXPONENT}").cardinality == \
        5 ** MAX_ZMOD_EXPONENT
    assert build_ring("Z/" + "0" * (MAX_DIGITS - 3) + "125") is \
        build_ring("Z/125")


def test_mixed_ring_arithmetic_rejected():
    a = build_ring("F5").one
    b = build_ring("Z/25").one
    with pytest.raises(MismatchError):
        a + b


@pytest.mark.parametrize("desc1,desc2", [
    ("F5", "Z/25"), ("F5[e]/(e^2)", "cyclo(2)"), ("F25", "F5[e]/(e^2)")])
def test_elements_of_two_rings_are_unequal(desc1, desc2):
    """Rings compare by identity: elements with the same coordinates in two
    rings are unequal, and comparing them raises nothing, but ``+`` does."""
    a, b = build_ring(desc1).one, build_ring(desc2).one
    assert a.coords == b.coords
    assert a != b and not a == b
    with pytest.raises(MismatchError):
        a + b


def test_rings_define_no_equality():
    assert "__eq__" not in vars(Ring) and "__hash__" not in vars(Ring)


# -- arithmetic -------------------------------------------------------------------

def test_zmod25_arithmetic():
    R = build_ring("Z/25")
    assert R.from_int(7) * R.from_int(8) == R.from_int(6)
    assert R.from_int(7).inv() == R.from_int(18)
    roots = sorted({R.from_int(2), R.from_int(23)},
                   key=lambda x: x.coords)
    assert sorted([R.from_int(4).sqrt(R.residue_ring.from_int(2)),
                   R.from_int(4).sqrt(R.residue_ring.from_int(3))],
                  key=lambda x: x.coords) == roots
    # 2 is a quadratic non-residue mod 5
    with pytest.raises(NoSquareRootError):
        R.from_int(2).sqrt()
    with pytest.raises(NotAUnitError):
        R.from_int(5).inv()


def test_dual_numbers_arithmetic():
    R = build_ring("F5[e]/(e^2)")
    e = R.generator("e")
    one = R.one
    assert (one + 2 * e) * (one + 3 * e) == one
    assert (one + e).sqrt() == one + 3 * e
    assert (one + e).inv() == one + 4 * e
    assert len(list(R.enumerate("maximal-ideal"))) == 5
    assert len(list(R.enumerate("units"))) == 20
    assert e.nilpotency_order() == 2
    assert R.zero.nilpotency_order() == 1


def test_cyclo5_mixed_characteristic():
    R = build_ring("cyclo(5)")
    u = R.generator("u")
    five = R.from_int(5)
    # 5 = -u^4 - 5u^3 - 10u^2 - 10u from the folded cyclotomic relation
    assert five == -(u ** 4) - 5 * u ** 3 - 10 * u ** 2 - 10 * u
    assert five * u == R.zero
    assert five * five == R.zero
    assert (R.one * 25) == R.zero


def test_sqrt_branches_and_hensel():
    for desc in ("Z/25", "F5[e]/(e^3)", "cyclo(3)", "F25"):
        R = build_ring(desc)
        count = 0
        for x in R.enumerate("units"):
            sq = x * x
            r_pos = sq.sqrt(x.residue() if x.residue().coords != (0,) * len(
                x.residue().coords) else None)
            # every unit square has exactly two roots, one per residue branch
            branches = {r.residue() for r in (x, -x)}
            assert len(branches) == 2
            for b in branches:
                r = sq.sqrt(b)
                assert r * r == sq
                assert r.residue() == b
            count += 1
            if count >= 30:
                break


def test_principal_branch_defaults_to_residue_one():
    R = build_ring("Z/25")
    # the roots of 16 are 4 and 21, with residues 4 and 1; the default
    # (principal) branch is the residue-1 root
    assert R.from_int(16).sqrt() == R.from_int(21)
    assert R.from_int(16).sqrt(R.residue_ring.from_int(4)) == R.from_int(4)


@pytest.mark.parametrize("desc,path", [
    ("F25", "table"), ("F25", "structure constants"),
    ("cyclo(3)", "table"), ("cyclo(3)", "structure constants"),
    ("F25[e]/(e^2)", "structure constants"),
])
def test_principal_branch_is_the_least_residue_root(desc, path):
    """For every unit with a square residue, the default root lies over the
    residue root with the lexicographically smallest coordinates, found by
    brute force over the residue field."""
    R = build_ring(desc)
    k = R.residue_ring
    on_table = path == "table"
    with nullcontext() if on_table else structure_constants(R):
        assert (R._kernel is not None) == on_table
        squares = 0
        for u in R.enumerate("units"):
            res = u.residue()
            roots = [x.coords for x in k.enumerate() if x * x == res]
            if roots:
                assert u.sqrt().residue().coords == min(roots)
                squares += 1
    # (q - 1)/2 residues are nonzero squares, each the residue of |A|/q units
    assert squares == (k.cardinality - 1) // 2 * (R.cardinality
                                                  // k.cardinality)


@pytest.mark.parametrize("desc", ["cyclo(3)", "cyclo(4)"])
def test_explicit_branch_must_be_a_residue_root(desc):
    R = build_ring(desc)
    k = R.residue_ring
    assert (R._kernel is None) == (R.cardinality > KERNEL_BOUND)
    x = R.from_int(4) + R.generator("u")  # residue 4, roots 2 and 3
    for b in (2, 3):
        r = x.sqrt(b)
        assert r * r == x and r.residue() == k.from_int(b)
    for foreign in (build_ring("F25").one, build_ring("Z/25").from_int(2),
                    R.from_int(2)):
        with pytest.raises(MismatchError):
            x.sqrt(foreign)
    for not_a_root in (1, 4, k.zero, k.from_int(1)):
        with pytest.raises(NoSquareRootError):
            x.sqrt(not_a_root)


@pytest.mark.parametrize("desc", ["cyclo(4)", "Z/5^40", "F25[e]/(e^3)"])
def test_sqrt_above_kernel_bound_needs_no_inversion(desc, monkeypatch):
    """Above KERNEL_BOUND the root is x times a Newton lift of 1/sqrt(x),
    so no step inverts; each branch gives the root over that residue."""
    R = build_ring(desc)
    assert R._kernel is None
    rng = random.Random(desc)
    units = [u for u in (R.element([rng.randrange(d) for d in R.diag])
                         for _ in range(40)) if u.is_unit()][:8]
    assert R._half * 2 == R.one  # 1/2, inverted once per ring and cached
    monkeypatch.setattr(Element, "inv", None)
    for u in units:
        sq = u * u
        for b in (u.residue(), (-u).residue()):
            r = sq.sqrt(b)
            assert r * r == sq and r.residue() == b
            assert r in (u, -u)


def test_cyclo2_isomorphic_to_dual_numbers():
    """cyclo(2) and F5[e]/(e^2) have identical structure constants under
    the coordinate identification u <-> e."""
    c = build_ring("cyclo(2)")
    d = build_ring("F5[e]/(e^2)")
    assert c.cardinality == d.cardinality
    assert c.diag == d.diag
    assert c.mul_basis == d.mul_basis


# -- enumeration and tables -----------------------------------------------------

def test_enumeration_counts():
    R = build_ring("F5[e]/(e^3)")
    assert len(list(R.enumerate())) == 125
    assert len(list(R.enumerate("maximal-ideal"))) == 25
    assert len(list(R.enumerate("units"))) == 100


def test_ring_table_consistency():
    R = build_ring("cyclo(3)")
    T = RingTable(R)
    els = list(R.enumerate())
    for i in (0, 1, 7, 30, 124):
        for j in (0, 2, 19, 88):
            assert T.element(T.ADD[T.index(els[i]), T.index(els[j])]) \
                == els[i] + els[j]
            assert T.element(T.MUL[T.index(els[i]), T.index(els[j])]) \
                == els[i] * els[j]
    assert T.element(T.one) == R.one
    assert len(T.mideal) == 25
    assert len(T.units) == 100


@pytest.mark.parametrize("desc", CATALOG)
def test_ring_table_matches_generic_build(desc):
    T = RingTable(build_ring(desc))
    for name, want in reference_tables(T.ring).items():
        got = getattr(T, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name


# the 3125-element rings, with mixed moduli (cyclo(5)), five equal ones
# and int16 blocks (F5[e]/(e^5)) and int64 blocks (Z/5^5); then rings whose
# column split falls inside one coordinate (Z/5^n) or on a coordinate
# boundary (Z/25[e]/(e^2)), or leaves a single wide block (F5: n1 = 1); and
# the rest of the catalog
@pytest.mark.parametrize("desc", [
    "cyclo(5)", "F5[e]/(e^5)", "Z/5^5",
    "F5", "Z/25", "Z/125", "Z/625", "Z/25[e]/(e^2)",
    *(d for d in CATALOG if d not in ("F5", "Z/25", "Z/125", "Z/625"))])
def test_ring_table_matches_per_coordinate_build(desc):
    T = RingTable(build_ring(desc))
    for name, want in zip(("ADD", "MUL"), per_coordinate_tables(T.ring)):
        got = getattr(T, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("desc,dtype", [
    ("F5[e]/(e^5)", np.int16), ("cyclo(5)", np.int16),
    ("Z/125", np.int16),  # 1 * 124^2 = 15376, the widest int16 ring
    ("Z/625", np.int64),  # 1 * 624^2 = 389376, the narrowest int64 ring
    ("Z/5^5", np.int64)])
def test_mul_blocks_dtype_follows_the_ring_bound(desc, dtype):
    assert _block_dtype(build_ring(desc).diag) is dtype


def test_mul_blocks_dtype_bound_is_strict():
    """A block entry is a sum of d products below (max diag - 1)^2; at
    d * (max diag - 1)^2 = 2^15 the largest of them wraps in int16."""
    d = 2 ** 15 // 4 ** 2
    assert _block_dtype((5,) * (d - 1)) is np.int16
    assert _block_dtype((5,) * d) is np.int64
    fours = np.full(d, 4, dtype=np.int16)
    assert int(fours @ fours) == -2 ** 15
    assert int(fours[1:] @ fours[1:]) == 2 ** 15 - 16


@pytest.mark.parametrize("desc", ["F5", "cyclo(4)", "Z/5^5"])
def test_ring_table_index_arrays_share_one_int16_dtype(desc):
    """Every index is below TABLE_BOUND < 2^15, so every index array is
    int16; only the coordinates are wider."""
    T = RingTable(build_ring(desc))
    arrays = {name: v for name, v in vars(T).items()
              if isinstance(v, np.ndarray) and name != "coords"}
    assert set(arrays) == {"ADD", "MUL", "NEG", "SQ", "INV", "mideal",
                           "units"}
    assert {v.dtype for v in arrays.values()} == {np.dtype(np.int16)}
    assert T.n <= TABLE_BOUND < 2 ** 15


def test_ring_table_build_peak_memory():
    """Building a 625-element table peaks at under twice its two tables."""
    R = build_ring("cyclo(4)")
    tracemalloc.start()
    try:
        T = RingTable(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (T.ADD.nbytes + T.MUL.nbytes)


def test_ring_table_element_refuses_indices_outside_the_table():
    T = RingTable(build_ring("F5[e]/(e^2)"))
    nonunit = int(T.mideal[1])
    assert T.INV[nonunit] == -1
    for idx in (-1, T.n, int(T.INV[nonunit])):
        with pytest.raises(RingError):
            T.element(idx)
    assert T.element(T.n - 1).coords == (4, 4)


@contextmanager
def structure_constants(ring):
    """Run the arithmetic of ``ring`` and of its residue field on their
    structure constants and Newton lifts, the kernel of rings above
    KERNEL_BOUND, instead of on their tables."""
    saved = {r: r.__dict__.pop("_kernel", None)
             for r in {ring, ring.residue_ring}}
    try:
        for r in saved:
            r._kernel = None
        yield
    finally:
        for r, kern in saved.items():
            del r._kernel
            if kern is not None:
                r._kernel = kern


_SMALL_CATALOG = [d for d in CATALOG
                  if build_ring(d).cardinality <= KERNEL_BOUND]


@pytest.mark.parametrize("desc", _SMALL_CATALOG)
def test_ring_table_against_scalar_arithmetic(desc):
    R = build_ring(desc)
    T = RingTable(R)
    with structure_constants(R):
        els = list(R.enumerate())
        assert [T.index(x) for x in els] == list(range(T.n))
        assert [T.element(i) for i in range(T.n)] == els
        idx = T.index
        for i, x in enumerate(els):
            assert list(T.ADD[i]) == [idx(x + y) for y in els]
            assert list(T.MUL[i]) == [idx(x * y) for y in els]
            assert T.NEG[i] == idx(-x)
            assert T.SQ[i] == idx(x * x)
            assert T.INV[i] == (idx(x.inv()) if x.is_unit() else -1)
            assert T.roots[i] == tuple(j for j, y in enumerate(els)
                                       if y * y == x)
        assert list(T.mideal) == [i for i, x in enumerate(els)
                                  if x.in_maximal_ideal()]
        assert list(T.units) == [i for i, x in enumerate(els) if x.is_unit()]
        assert (T.one, T.zero) == (idx(R.one), idx(R.zero))
        assert [T.from_int(k) for k in (-7, 0, 2, 30)] == \
            [idx(R.from_int(k)) for k in (-7, 0, 2, 30)]


# -- the table kernel against the structure constants ---------------------------

_INTS = (-126, -7, -1, 0, 1, 2, 5, 24, 30, 126)


def _outcome(fn, *args):
    """coords of the result, or the exception class it raised."""
    try:
        return fn(*args).coords
    except RingError as exc:
        return type(exc)


def _unary_outcomes(R):
    """Per element: -x, residue, inverse, and the square root on every
    residue branch and the principal one."""
    branches = list(R.residue_ring.enumerate()) + [None]
    return [(_outcome(x.__neg__), _outcome(x.residue), _outcome(x.inv),
             [_outcome(x.sqrt, b) for b in branches])
            for x in R.enumerate()]


def _binary_outcomes(R):
    """Per pair: x + y, x - y, x * y, x == y; per int k: the same with k on
    either side."""
    els = list(R.enumerate())
    pairs = [((x + y).coords, (x - y).coords, (x * y).coords, x == y)
             for x in els for y in els]
    ints = [((x + k).coords, (k + x).coords, (x - k).coords,
             (k - x).coords, (x * k).coords, (k * x).coords, x == k)
            for x in els for k in _INTS]
    return pairs, ints


@pytest.mark.parametrize("desc", _SMALL_CATALOG)
def test_table_kernel_against_structure_constants(desc):
    R = build_ring(desc)
    with structure_constants(R):
        assert R._kernel is None
        want_unary = _unary_outcomes(R)
        want_pairs, want_ints = _binary_outcomes(R)
    assert R._kernel is not None
    assert _unary_outcomes(R) == want_unary
    pairs, ints = _binary_outcomes(R)
    assert pairs == want_pairs
    assert ints == want_ints
    # equality is the equality of canonical coordinates
    els = list(R.enumerate())
    assert [eq for *_, eq in pairs] == [x.coords == y.coords
                                        for x in els for y in els]
    ints_as_coords = [R.reduce([k] + [0] * (R.dim - 1)) for k in _INTS]
    assert [eq for *_, eq in ints] == [x.coords == c for x in els
                                       for c in ints_as_coords]
    # some branch has no root, and every non-unit refuses inv and sqrt
    flat = [o for _, _, inv, roots in want_unary for o in [inv] + roots]
    assert NoSquareRootError in flat and NotAUnitError in flat


def test_structure_constants_reuse_the_residue_field_tables(monkeypatch):
    """inv and sqrt above KERNEL_BOUND read the residue field's table, kept
    for the process by cardinality, not by a kernel: with the kernels gone,
    100 of them build no F5 or F25 table."""
    R = build_ring("F25[e]/(e^2)")
    fields = {build_ring("F5"), build_ring("F25")}
    for k in fields:
        ring_table(k)
    built = []
    init = RingTable.__init__

    def counted(self, ring):
        built.append(ring)
        init(self, ring)

    monkeypatch.setattr(RingTable, "__init__", counted)
    units = random.Random(5).sample(list(R.enumerate("units")), 50)
    with structure_constants(R):
        gc.collect()
        for x in units:
            assert x * x.inv() == R.one
            root = (x * x).sqrt()
            assert root * root == x * x
    assert not fields & set(built)


@pytest.mark.parametrize("desc", _SMALL_CATALOG)
def test_table_kernel_results_are_interned(desc):
    R = build_ring(desc)
    kern = R._kernel
    x, y = kern.els[-1], kern.els[len(kern.els) // 2]
    for z in (x + y, x - y, x * y, -x, x * 3, 2 + y, R.from_int(7)):
        assert z is kern.els[z._i]
    assert R.one.inv() is kern.els[R.one._i]


@pytest.mark.parametrize("desc", _SMALL_CATALOG)
def test_every_constructor_meets_the_interned_elements(desc):
    R = build_ring(desc)
    kern = R._kernel
    T = ring_table(R)

    def same(x):
        z = kern.els[T.index(x)]
        assert x == z and z == x and hash(x) == hash(z)
        assert x._i == z._i

    for i, x in enumerate(R.enumerate()):
        same(x)
        same(R.element(list(x.coords)))
        same(T.element(i))
        same(parse_element(R, format_element(x)))
    series = TruncatedSeries(R, list(R.enumerate()))
    for x in TruncatedSeries.from_bytes(series.to_bytes()).coeffs:
        same(x)
    for k in _INTS:
        same(R.from_int(k))
    for r in R.residue_ring.enumerate():
        same(R.section(r))
    for name in R._generator_vecs:
        same(R.generator(name))
    same(R.zero)
    same(R.one)


@pytest.mark.parametrize("desc", ["cyclo(4)", "F5[e]/(e^4)"])
def test_no_list_kernel_above_the_bound(desc, monkeypatch):
    R = build_ring(desc)
    assert R.cardinality == 625 > KERNEL_BOUND
    R.residue_ring.one.inv()  # the residue field's own kernel may be built

    def boom(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(RingTable, "__init__", boom)
    x = R.one + R.generator("u" if desc.startswith("cyclo") else "e")
    y = x * x * 3 - x
    assert y * y.inv() == R.one
    assert (x * x).sqrt(1) * (x * x).sqrt(1) == x * x
    assert R._kernel is None and x._i is None


@pytest.mark.parametrize("desc", ["Z/5^4", "cyclo(4)", "F5[e]/(e^3)"])
def test_product_by_an_int_is_the_product_by_from_int(desc):
    """``x * k`` and ``k * x`` take the general product, on a dim-1 ring
    above the kernel bound, a coordinate ring and a kernel ring alike."""
    R = build_ring(desc)
    xs = random.Random(4).sample(list(R.enumerate()), 20)
    for x in xs:
        for k in _INTS + (5 ** 9 + 3,):
            assert x * k == k * x == x * R.from_int(k)


# -- literals ---------------------------------------------------------------------

def test_element_literal_round_trip():
    for desc in ("F5", "F25", "Z/25", "F5[e]/(e^2)", "cyclo(3)"):
        R = build_ring(desc)
        for x in list(R.enumerate())[:40]:
            assert parse_element(R, format_element(x)) == x


def test_literal_expressions():
    R = build_ring("F5[e]/(e^2)")
    e = R.generator("e")
    assert parse_element(R, "1 + 2*e") == R.one + 2 * e
    assert parse_element(R, "(1+e)*(1-e)") == R.one
    assert parse_element(R, "3e") == 3 * e
    with pytest.raises(RingError):
        parse_element(R, "1 + q")


def test_element_literal_powers_and_signs():
    R = build_ring("cyclo(3)")
    u = R.generator("u")
    assert parse_element(R, "(1+u)^7") == (R.one + u) ** 7
    assert parse_element(R, "u^0") == R.one
    assert parse_element(R, "-u^2 + +2") == 2 - u * u
    assert parse_element(R, "2**3") == R.from_int(8)
    for bad in ("", "1 +", "(1+u", "1 )", "u^-1", "u^u", "1 # 2"):
        with pytest.raises(LiteralError):
            parse_element(R, bad)


# -- interning, characteristic, and the scalar kernel against references -------

def test_rings_are_interned():
    assert build_ring("F5 [e]/(e^2)") is build_ring("F5[e]/(e^2)")
    assert build_ring("Z/25") is build_ring("Z/5^2")
    assert build_ring("Z/5^1") is build_ring("F5")
    assert build_ring("F5[e]/(e^02)") is build_ring("F5[e]/(e^2)")
    R = build_ring("F25[e]/(e^2)")
    assert R.residue_ring is build_ring("F25")


def _additive_order_by_counting(ring):
    """Reference: add 1 until 0, one step per unit of the characteristic."""
    x, n = ring.one, 1
    while x != ring.zero:
        x, n = x + ring.one, n + 1
    return n


@pytest.mark.parametrize("desc", CATALOG + tuple(f"Z/5^{n}" for n in range(1, 7)))
def test_characteristic_against_counting(desc):
    R = build_ring(desc)
    assert R.char == _additive_order_by_counting(R)


def _reference_reduce(ring, vec):
    """Generic HNF reduction, row by row."""
    H = relation_hnf(ring)
    v = list(vec)
    for j in range(ring.dim):
        q = v[j] // H[j][j]
        for k in range(j, ring.dim):
            v[k] -= q * H[j][k]
    return tuple(v)


def _reference_mul(ring, a, b):
    """Generic product through the dense structure-constant table."""
    acc = [0] * ring.dim
    for i, ai in enumerate(a.coords):
        for j, bj in enumerate(b.coords):
            for k, vk in enumerate(ring.mul_basis[i][j]):
                acc[k] += ai * bj * vk
    return _reference_reduce(ring, acc)


@pytest.mark.parametrize("desc", _SMALL_CATALOG)
def test_scalar_kernel_against_reference(desc):
    R = build_ring(desc)
    els = list(R.enumerate())
    for a in els:
        for b in els:
            assert (a * b).coords == _reference_mul(R, a, b)
            assert (a + b).coords == _reference_reduce(
                R, [x + y for x, y in zip(a.coords, b.coords)])
    for u in R.enumerate("units"):
        assert u * u.inv() == R.one
        roots = tuple(x for x in R.residue_ring.enumerate()
                      if x * x == u.residue())
        if not roots:
            with pytest.raises(NoSquareRootError):
                u.sqrt()
            continue
        for b in roots + (None,):
            r = u.sqrt(b)
            assert r * r == u
            assert b is None or r.residue() == b


@pytest.mark.parametrize("m", range(1, 9))
def test_cyclo_reduction_matches_generic_hnf(m):
    # cyclo(m >= 5) has relation lattice 5*pi^(m-4), e.g. diag(25, 5, 5, 5)
    R = build_ring(f"cyclo({m})")
    for vec in ([7, -3, 26, 124][:R.dim], [-1] * R.dim, [125] * R.dim):
        assert R.reduce(vec) == _reference_reduce(R, vec)


# -- closed-form invariants against the generic algorithms ---------------------

_TOWERS = (
    "Z/5^7", "F5[e]/(e^5)", "F25[e]/(e^3)", "Z/25[e]/(e^2)", "Z/5^3[e]/(e^3)",
    "cyclo(1)[e]/(e^3)", "cyclo(2)[e]/(e^2)", "cyclo(3)[e]/(e^2)",
    "cyclo(5)[e]/(e^2)", "cyclo(7)[e]/(e^2)", "cyclo(8)[e]/(e^4)",
    "cyclo(6)[e]/(e^3)[f]/(f^2)", "cyclo(4)[e]/(e^2)[f]/(f^2)",
    "Z/5^4[e]/(e^2)[f]/(f^3)", "Z/5^9[e]/(e^3)", "F25[e]/(e^2)[f]/(f^2)",
    "F25[e]/(e^4)[f]/(f^2)", "F5[a]/(a^2)[b]/(b^2)[c]/(c^2)", "F5[e]/(e^32)",
)


def _diagonal(entries):
    return tuple(tuple(x if i == j else 0 for j, x in enumerate(entries))
                 for i in range(len(entries)))


@pytest.mark.parametrize("m", range(1, 9))
def test_cyclo_diag_is_the_generic_hnf(m):
    """5^ceil((m - i)/4) on u^i, and u^i = 0 (modulus 1) for m <= i < 4."""
    R = build_ring(f"cyclo({m})")
    assert hnf_rows(cyclo_relation_rows(m), 4) == \
        _diagonal(R.diag + (1,) * (4 - R.dim))


@pytest.mark.parametrize("desc", CATALOG + _TOWERS)
def test_diag_is_the_generic_hnf(desc):
    R = build_ring(desc)
    assert relation_hnf(R) == _diagonal(R.diag)


@pytest.mark.parametrize("desc", CATALOG + _TOWERS)
def test_residue_ring_is_an_interned_field(desc):
    field = "F25" if desc.startswith("F25") else "F5"
    assert build_ring(desc).residue_ring is build_ring(field)


@pytest.mark.parametrize("desc", CATALOG + _TOWERS)
def test_nilpotency_index_against_search(desc):
    R = build_ring(desc)
    assert R.nilpotency_index == nilpotency_index_by_search(R)


@pytest.mark.parametrize("desc", _SMALL_CATALOG)
def test_maximal_ideal_is_the_nilpotent_elements(desc):
    R = build_ring(desc)
    for x in R.enumerate():
        assert x.in_maximal_ideal() == (x ** R.nilpotency_index == R.zero)


def _residue_checks(R, pairs):
    k = R.residue_ring
    assert R.one.residue() == k.one
    for x, y in pairs:
        assert (x + y).residue() == x.residue() + y.residue()
        assert (x * y).residue() == x.residue() * y.residue()
    for r in k.enumerate():
        assert R.section(r).residue() == r


@pytest.mark.parametrize("desc", _SMALL_CATALOG)
def test_residue_is_a_ring_map_split_by_the_section(desc):
    R = build_ring(desc)
    els = list(R.enumerate())
    _residue_checks(R, [(x, y) for x in els for y in els])
    with structure_constants(R):
        _residue_checks(R, [(x, y) for x in els[::7] for y in els[::3]])


@pytest.mark.parametrize("desc", ["cyclo(5)", "F25[e]/(e^2)", "cyclo(4)",
                                  "Z/5^4[e]/(e^2)[f]/(f^3)",
                                  "cyclo(3)[e]/(e^2)", "F25[e]/(e^2)[f]/(f^2)"])
def test_residue_is_a_ring_map_on_larger_rings(desc):
    R = build_ring(desc)
    rng = random.Random(desc)

    def sample():
        return R.element([rng.randrange(d) for d in R.diag])

    _residue_checks(R, [(sample(), sample()) for _ in range(300)])
