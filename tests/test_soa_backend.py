"""SoA index backend vs the object backend: same answers, same bytes.

The SoA store (``repro.indexes.soa``) exists so a paper-scale tree fits
in RAM; it earns that only if it is *observationally identical* to the
object-graph B+tree — same node geometry, same addresses, same walk
paths, and, end to end, byte-identical ``RunResult.to_dict()`` payloads
under every memory system. Node and index ids come from module-level
counters in ``repro.indexes.base``, so every equivalence pair resets
them: ids feed the X-cache port hash, and a stale counter would change
port assignments rather than reveal a real divergence.
"""

import itertools

import numpy as np
import pytest

import repro.indexes.base as base
from repro.bench.runner import build_memsys
from repro.indexes import BPlusTree, SoABPlusTree, SoARecordTable
from repro.indexes.table import RecordTable
from repro.sim.metrics import simulate
from repro.workloads.suite import SOA_WORKLOADS, build_workload

SYSTEMS = ("stream", "address", "fa_opt", "xcache", "metal_ix", "metal")


def _reset_ids():
    """Fresh id counters so both variants see identical id sequences."""
    base._node_ids = itertools.count()
    base._index_ids = itertools.count()


def _build_pair(keys, fanout):
    from repro.mem.layout import Allocator

    _reset_ids()
    obj = BPlusTree.bulk_load(
        [(k, k) for k in keys], fanout=fanout, allocator=Allocator()
    )
    _reset_ids()
    soa = SoABPlusTree(
        np.asarray(keys, dtype=np.int64), fanout=fanout,
        allocator=Allocator(), values=lambda i: keys[i],
    )
    return obj, soa


@pytest.mark.parametrize("n,fanout", [(1, 9), (5, 2), (37, 3), (2000, 5)])
def test_layout_parity(n, fanout):
    keys = list(range(0, 2 * n, 2))[:n]
    obj, soa = _build_pair(keys, fanout)
    assert soa.height == obj.height
    obj_nodes = list(obj.nodes())
    soa_nodes = list(soa.nodes())
    assert len(soa_nodes) == len(obj_nodes)
    for a, b in zip(obj_nodes, soa_nodes):
        assert (a.level, a.lo, a.hi, a.address, a.byte_size()) == \
               (b.level, b.lo, b.hi, b.address, b.byte_size())
        assert a.is_leaf == b.is_leaf
        if a.is_leaf:
            assert list(a.keys) == list(b.keys)
    assert soa.total_blocks_fast() == base.count_blocks(obj.nodes())
    assert soa.total_blocks_fast() == base.count_blocks(soa.nodes())


@pytest.mark.parametrize("n,fanout", [(5, 2), (37, 3), (2000, 5)])
def test_walk_and_query_parity(n, fanout):
    keys = list(range(0, 2 * n, 2))[:n]
    obj, soa = _build_pair(keys, fanout)
    probe_keys = list(keys[:50]) + [k + 1 for k in keys[:20]] + [-5, 10**9]
    for key in probe_keys:
        obj_path = [(x.level, x.lo, x.hi) for x in obj.walk(key)]
        soa_path = [(x.level, x.lo, x.hi) for x in soa.walk(key)]
        assert obj_path == soa_path
        assert obj.get(key) == soa.get(key)
        assert (key in obj) == (key in soa)
    assert list(obj.range_scan(keys[0], keys[-1])) == \
           list(soa.range_scan(keys[0], keys[-1]))


def test_soa_node_views_are_identity_stable():
    """Descriptors and caches compare nodes by ``is``; the SoA view for a
    (level, pos) must be the same object every time."""
    _, soa = _build_pair(list(range(100)), 4)
    a = soa.root
    b = soa.root
    assert a is b
    for node in soa.walk(42):
        again = soa.walk(42)
        assert node in list(again)
    leaf = next(iter(soa.level_nodes(soa.height - 1)))
    assert leaf.next_leaf is not None
    assert soa.walk(int(leaf.lo))[-1] is leaf


def test_soa_is_static():
    _, soa = _build_pair(list(range(32)), 4)
    with pytest.raises(NotImplementedError):
        soa.insert(99, 99)
    with pytest.raises(NotImplementedError):
        soa.delete(4)


def test_record_table_parity():
    n = 500
    arrays = {
        "id": np.arange(n, dtype=np.int64),
        "value": (np.arange(n, dtype=np.int64) * 7) % 101,
    }
    _reset_ids()
    obj = RecordTable.from_records(
        ("id", "value"), "id",
        ({"id": int(i), "value": int((i * 7) % 101)} for i in range(n)),
        fanout=9,
    )
    _reset_ids()
    soa = SoARecordTable(
        columns=("id", "value"), key_column="id", arrays=arrays, fanout=9
    )
    for key in (0, 1, 250, n - 1, n + 5):
        assert obj.get(key) == soa.get(key)
        assert obj.record_address(key) == soa.record_address(key)
    assert list(obj.select_range(10, 40)) == list(soa.select_range(10, 40))
    wanted = lambda r: r["value"] == 3
    assert list(obj.where(wanted)) == list(soa.where(wanted))
    assert list(obj.scan()) == list(soa.scan())
    assert obj.height == soa.height


@pytest.mark.parametrize("workload_name", sorted(SOA_WORKLOADS))
def test_run_results_byte_identical_across_backends(workload_name):
    """The acceptance gate: every counter any system reports is identical
    whether the workload's indexes are object graphs or SoA arrays."""
    results = {}
    for backend in ("object", "soa"):
        _reset_ids()
        workload = build_workload(workload_name, scale=0.1, backend=backend)
        per_system = {}
        for kind in SYSTEMS:
            sim = workload.config.sim_params()
            memsys = build_memsys(
                kind, workload, workload.default_cache_bytes, sim
            )
            run = simulate(
                memsys, workload.requests, sim, workload.total_index_blocks
            )
            per_system[kind] = run.to_dict()
        results[backend] = per_system
    for kind in SYSTEMS:
        assert results["object"][kind] == results["soa"][kind], \
            f"{workload_name}/{kind}: backends disagree"


def test_metal_tuning_feedback_identical_across_backends():
    """Batch tuning reads up-to-date cache statistics on both backends.

    The batch boundary (300 walks) falls inside a walk-generation chunk,
    and a descriptor whose tuning reacts to the hit rate turns any stale
    per-batch feedback into different decisions downstream.
    """
    from repro.core.descriptors import BranchDescriptor
    from repro.sim.memsys import make_memsys

    runs = {}
    for backend in ("object", "soa"):
        _reset_ids()
        workload = build_workload("scan", scale=0.3, backend=backend)
        sim = workload.config.sim_params()
        memsys = make_memsys(
            "metal", sim, batch_walks=300,
            descriptors=BranchDescriptor(depth=2, grow_hit_rate=0.5),
        )
        run = simulate(
            memsys, workload.requests, sim, workload.total_index_blocks
        )
        runs[backend] = (run.to_dict(), memsys.policy.controller.history)
    assert runs["object"][1] == runs["soa"][1], "tuning histories disagree"
    assert runs["object"][0] == runs["soa"][0], "backends disagree"


def test_soa_rejects_bad_keys():
    with pytest.raises(ValueError):
        SoABPlusTree(np.asarray([], dtype=np.int64))
    with pytest.raises(ValueError):
        SoABPlusTree(np.asarray([3, 1, 2], dtype=np.int64))
    with pytest.raises(ValueError):
        SoABPlusTree(np.asarray([1, 1, 2], dtype=np.int64))
