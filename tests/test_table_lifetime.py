"""Lifetime of ring tables: a table lives while something holds it, the
tables of rings of at most KERNEL_BOUND elements live for the process, and
no scan builds a table it already holds."""

import gc
import tracemalloc
import weakref
from collections import Counter

import pytest

from defo5 import cli
from defo5.artin import tables
from defo5.artin.rings import KERNEL_BOUND, build_ring
from defo5.artin.tables import RingTable, ring_table
from defo5.deformation.proofchain import CATALOG, proof_chain_scan


@pytest.fixture
def builds(monkeypatch):
    """Counts RingTable builds per ring descriptor."""
    counts = Counter()
    init = RingTable.__init__

    def counted(self, ring):
        counts[ring.descriptor] += 1
        init(self, ring)

    monkeypatch.setattr(RingTable, "__init__", counted)
    return counts


def test_proof_chain_scan_leaves_no_tables_behind():
    """Once the small rings' kernels are warm, the scan over the catalog up
    to 625 elements retains less than one 625-element ADD + MUL pair
    (2 x 625^2 int16 entries, about 1.56 MB)."""
    for desc in CATALOG:
        R = build_ring(desc)
        if R.cardinality <= KERNEL_BOUND:
            R._kernel
        R.residue_ring._kernel
    gc.collect()
    tracemalloc.start()
    try:
        passed = proof_chain_scan(625)["passed"]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert passed
    assert retained < 1.5e6


def test_a_held_table_is_shared_and_freed_when_dropped():
    R = build_ring("F5[e1]/(e1^2)[e2]/(e2^2)")
    assert R.cardinality == 625 > KERNEL_BOUND
    T = ring_table(R)
    assert ring_table(R) is T
    ref = weakref.ref(T)
    del T
    gc.collect()
    assert ref() is None
    assert R.descriptor not in tables._table_cache


@pytest.mark.parametrize("desc", ["F5", "F25", "Z/5^3", "F5[e]/(e^3)"])
def test_small_ring_tables_stay_for_the_process(desc):
    R = build_ring(desc)
    assert R.cardinality <= KERNEL_BOUND
    ref = weakref.ref(ring_table(R))
    gc.collect()
    assert ref() is not None and ring_table(R) is ref()


def test_verify_all_full_builds_each_table_once(builds, capsys):
    assert cli.main(["verify-all", "--profile", "full"]) == 0
    capsys.readouterr()
    assert set(builds.values()) <= {1}, builds
