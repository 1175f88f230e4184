"""The array-backed index store: SoA B+tree and record table.

The SoA store (``repro.indexes.soa``) exists so a paper-scale tree fits
in RAM. ``BPlusTree`` stays the layout reference for its tree: same node
geometry, same addresses, same walk paths. The record table built on it
is checked against a plain-Python reference
(:mod:`tests.reference.record_table`), and one batch-tuned METAL run is
pinned to a recorded digest. Node and index ids come from module-level
counters in ``repro.indexes.base``, so every layout pair resets them:
ids feed the X-cache port hash, and a stale counter would change port
assignments rather than reveal a real divergence.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.indexes.base as base
from repro.indexes import BPlusTree, SoABPlusTree, SoARecordTable
from repro.mem.layout import Allocator
from repro.sim.metrics import simulate
from repro.workloads.suite import build_workload
from tests.reference.record_table import ReferenceTable

def _reset_ids():
    """Fresh id counters so both variants see identical id sequences."""
    base._node_ids = itertools.count()
    base._index_ids = itertools.count()


def _build_pair(keys, fanout):
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
    with pytest.raises(NotImplementedError, match="BPlusTree"):
        soa.insert(99, 99)
    with pytest.raises(NotImplementedError, match="BPlusTree"):
        soa.delete(4)


KEY = st.integers(min_value=-10**6, max_value=10**6)


@st.composite
def record_tables(draw, fk_keys=None):
    """(columns, rows) of a random table keyed by ``id``, rows in key
    order. With ``fk_keys``, column ``c0`` mixes those keys with others."""
    keys = sorted(draw(st.lists(KEY, min_size=1, max_size=200, unique=True)))
    width = draw(st.integers(min_value=1, max_value=5))
    columns = ("id",) + tuple(f"c{i}" for i in range(width))
    value = st.integers(min_value=-50, max_value=50)
    fk = value if fk_keys is None else st.one_of(st.sampled_from(fk_keys), KEY)
    rows = [
        [key, draw(fk)] + draw(st.lists(value, min_size=width - 1,
                                        max_size=width - 1))
        for key in keys
    ]
    return columns, rows


def _table_pair(columns, rows, fanout):
    arrays = {name: np.asarray([row[i] for row in rows], dtype=np.int64)
              for i, name in enumerate(columns)}
    table = SoARecordTable(columns, "id", arrays, fanout=fanout,
                           allocator=Allocator())
    records = [dict(zip(columns, row)) for row in rows]
    return table, ReferenceTable(columns, "id", records, Allocator.DATA_BASE)


@settings(max_examples=60, deadline=None)
@given(inner=record_tables(), data=st.data(),
       fanout=st.integers(min_value=2, max_value=12))
def test_record_table_matches_reference(inner, data, fanout):
    """Every relational operator, and every record address, equals the
    plain-Python reference over random tables and probes."""
    inner_table, inner_ref = _table_pair(*inner, fanout)
    outer = data.draw(record_tables(fk_keys=[row[0] for row in inner[1]]))
    table, ref = _table_pair(*outer, fanout)
    keys = list(ref.rows)
    probes = keys + data.draw(st.lists(KEY, max_size=20)) + [
        min(keys) - 1, max(keys) + 1]
    for key in probes:
        assert table.get(key) == ref.get(key)
        assert table.record_address(key) == ref.record_address(key)
    for _ in range(3):
        lo, hi = data.draw(KEY), data.draw(KEY)
        assert list(table.select_range(lo, hi)) == ref.select_range(lo, hi)
    modulus = data.draw(st.integers(min_value=1, max_value=7))
    wanted = lambda r: r["c0"] % modulus == 0
    assert list(table.where(wanted)) == ref.where(wanted)
    assert list(table.scan()) == ref.scan()
    assert len(table) == len(keys)
    assert list(table.join(inner_table, "c0")) == ref.join(inner_ref, "c0")


#: ``RunResult.to_dict()`` SHA-256 and batch-tuning history of the run in
#: :func:`test_metal_tuning_feedback_matches_pinned_digest`, recorded
#: while the object-graph and array-backed tables still both existed and
#: agreed on both.
TUNING_RESULT_SHA256 = (
    "289d613ead143d840d9198d5930a7376b8cec13fdb10256077381ad914573e20"
)
#: (hit_rate, occupancy, pivot) per 300-walk batch.
TUNING_HISTORY = [
    (0.21333333333333335, 0.5693359375, 6345),
    (0.38, 0.830078125, 6218),
    (0.44333333333333336, 0.873046875, 5834),
    (0.4166666666666667, 0.875, 6332),
    (0.44, 0.875, 6321),
    (0.4266666666666667, 0.875, 5822),
    (0.48333333333333334, 0.875, 6239),
    (0.4666666666666667, 0.875, 6392),
]


def test_metal_tuning_feedback_matches_pinned_digest():
    """Batch tuning reads up-to-date cache statistics.

    The batch boundary (300 walks) falls inside a walk-generation chunk,
    and a descriptor whose tuning reacts to the hit rate turns any stale
    per-batch feedback into different decisions downstream.
    """
    from repro.core.descriptors import BranchDescriptor
    from repro.sim.memsys import make_memsys

    _reset_ids()
    workload = build_workload("scan", scale=0.3)
    sim = workload.config.sim_params()
    memsys = make_memsys(
        "metal", sim, batch_walks=300,
        descriptors=BranchDescriptor(depth=2, grow_hit_rate=0.5),
    )
    run = simulate(memsys, workload.requests, sim, workload.total_index_blocks)
    assert memsys.policy.controller.history == [
        {"walks": 300, "hit_rate": hit_rate, "occupancy": occupancy,
         "descriptors": [{"pattern": "branch", "depth": 2, "pivot": pivot,
                          "halfwidth": None}]}
        for hit_rate, occupancy, pivot in TUNING_HISTORY
    ], "tuning history diverged"
    canon = json.dumps(run.to_dict(), sort_keys=True)
    assert hashlib.sha256(canon.encode()).hexdigest() == TUNING_RESULT_SHA256


def test_soa_rejects_bad_keys():
    with pytest.raises(ValueError):
        SoABPlusTree(np.asarray([], dtype=np.int64))
    with pytest.raises(ValueError):
        SoABPlusTree(np.asarray([3, 1, 2], dtype=np.int64))
    with pytest.raises(ValueError):
        SoABPlusTree(np.asarray([1, 1, 2], dtype=np.int64))
