"""The streaming memory system against its reference walk model.

``StreamingMemSys.process_chunk`` emits walks from the emission
records of resolved paths (object walks and SoA planner paths alike);
``tests.reference.stream_walk`` re-derives every walk from the node
definitions. On random object and SoA B+trees, over point lookups and
``scan_hi`` range scans, the two must agree exactly on the access
columns, on the nodes each walk visits, and on the index DRAM count.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.indexes.bplustree import BPlusTree
from repro.indexes.soa import SoABPlusTree
from repro.params import SimParams
from repro.sim.batch import _plan_chunk
from repro.sim.engine import K_DRAM, TraceBatch
from repro.sim.memsys import StreamingMemSys
from repro.sim.metrics import WalkRequest

from tests.reference.stream_walk import stream_walks

KEYS = st.lists(st.integers(min_value=0, max_value=5_000), min_size=1,
                max_size=400, unique=True)


@st.composite
def probes(draw, keys: list[int], fanout: int) -> list[tuple[int, int | None]]:
    """(key, scan_hi) pairs: point lookups and range scans, with bounds
    often on a stored key or exactly on a leaf's low key."""
    leaf_lows = sorted(keys)[::fanout]
    bound = st.one_of(st.integers(min_value=-10, max_value=5_010),
                      st.sampled_from(keys), st.sampled_from(leaf_lows))
    return draw(st.lists(st.tuples(bound, st.one_of(st.none(), bound)),
                         min_size=1, max_size=30))


def build(keys: list[int], fanout: int, soa: bool):
    if soa:
        return SoABPlusTree(np.asarray(sorted(keys), dtype=np.int64), fanout=fanout)
    return BPlusTree.bulk_load([(k, k) for k in keys], fanout=fanout)


def check(requests, t_search: int = 4) -> list[int]:
    """Assert production equals the reference; return nodes visited per walk."""
    batch = TraceBatch()
    prepared, _ = _plan_chunk(requests, {}, {})
    StreamingMemSys(SimParams(t_search=t_search)).process_chunk(
        batch, requests, prepared)
    walks, visits = stream_walks(requests, t_search)
    columns = list(zip(batch.kinds, batch.a1, batch.a2))
    assert [columns[batch.offsets[i]:batch.offsets[i + 1]]
            for i in range(batch.num_walks)] == walks
    assert batch.visits == visits
    assert batch.nodes_visited == sum(visits)
    assert batch.index_dram == sum(
        kind == K_DRAM for walk in walks for kind, _, _ in walk)
    return visits


@pytest.mark.parametrize("soa", [False, True], ids=["object", "soa"])
def test_scan_bounds_on_leaf_edges(soa):
    # Leaves of 4 keys over 0, 2, ..., 98: leaf i starts at key 8 * i.
    index = build(list(range(0, 100, 2)), 4, soa)
    requests = [
        WalkRequest(index, 2, scan_hi=16),    # hi is leaf 2's low key
        WalkRequest(index, 2, scan_hi=15),    # hi just below it
        WalkRequest(index, 9, scan_hi=9),     # one-key range inside leaf 1
        WalkRequest(index, 40, scan_hi=8),    # empty range (hi < key)
        WalkRequest(index, -5, scan_hi=-1),   # range below every key
        WalkRequest(index, 90, scan_hi=500),  # runs off the last leaf
    ]
    assert check(requests) == [5, 4, 3, 3, 3, 4]


@settings(max_examples=150, deadline=None)
@given(keys=KEYS, fanout=st.integers(min_value=2, max_value=48),
       soa=st.booleans(), data=st.data(),
       t_search=st.integers(min_value=0, max_value=9))
def test_process_chunk_matches_reference(keys, fanout, soa, data, t_search):
    index = build(keys, fanout, soa)
    check([WalkRequest(index, key, scan_hi=hi)
           for key, hi in data.draw(probes(keys, fanout))], t_search)
