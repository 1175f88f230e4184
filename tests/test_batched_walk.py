"""Batched numpy walk generation vs the scalar SoA tree walk.

``SoABPlusTree.batch_positions`` resolves a whole chunk of probe keys
through the level arrays with ``searchsorted``; the scalar reference is
``tree.walk(key)``, one ``child_for`` chain per key. Every row of the
batched result must name exactly the per-level node positions the
scalar walk visits — including duplicate keys in one chunk and keys
outside the keyspace (clamped to the edge leaves, as ``child_for``
does).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.indexes.soa import SoABPlusTree
from repro.sim.batch import BatchWalkPlanner
from repro.sim.memsys import _node_blocks


def _tree(num_keys, fanout):
    return SoABPlusTree(np.arange(num_keys, dtype=np.int64) * 3,
                        fanout=fanout)


def _scalar_positions(tree, key):
    """Per-level node positions of the scalar root-to-leaf walk."""
    return [node._pos for node in tree.walk(key)]


@settings(max_examples=40, deadline=None)
@given(
    num_keys=st.integers(2, 600),
    fanout=st.integers(3, 16),
    data=st.data(),
)
def test_property_batched_rows_match_scalar_walks(num_keys, fanout, data):
    tree = _tree(num_keys, fanout)
    hi = (num_keys - 1) * 3
    keys = data.draw(st.lists(
        st.integers(-2 * hi - 7, 2 * hi + 7), min_size=1, max_size=64,
    ))
    rows = tree.batch_positions(np.asarray(keys, dtype=np.int64))
    assert rows.shape == (len(keys), tree.height)
    for row, key in zip(rows.tolist(), keys):
        assert row == _scalar_positions(tree, key)


@settings(max_examples=25, deadline=None)
@given(num_keys=st.integers(2, 300), fanout=st.integers(3, 12))
def test_property_duplicate_keys_share_rows(num_keys, fanout):
    """A chunk of one repeated key resolves to one repeated row."""
    tree = _tree(num_keys, fanout)
    key = (num_keys // 2) * 3
    rows = tree.batch_positions(np.full(17, key, dtype=np.int64))
    assert (rows == rows[0]).all()
    assert rows[0].tolist() == _scalar_positions(tree, key)


@settings(max_examples=25, deadline=None)
@given(num_keys=st.integers(2, 300), fanout=st.integers(3, 12))
def test_property_out_of_range_keys_clamp_to_edge_leaves(num_keys, fanout):
    tree = _tree(num_keys, fanout)
    hi = (num_keys - 1) * 3
    rows = tree.batch_positions(
        np.asarray([-10**9, -1, hi + 1, 10**9], dtype=np.int64)
    )
    for row, key in zip(rows.tolist(), (-10**9, -1, hi + 1, 10**9)):
        assert row == _scalar_positions(tree, key)
    # Leftmost / rightmost leaves exactly.
    assert rows[0][-1] == 0
    assert rows[-1][-1] == len(tree._levels[-1]) - 1


@settings(max_examples=20, deadline=None)
@given(num_keys=st.integers(2, 400), fanout=st.integers(3, 12))
def test_property_planner_counts_match_level_sizes(num_keys, fanout):
    """The planner's cached per-level block counts describe real nodes."""
    tree = _tree(num_keys, fanout)
    planner = BatchWalkPlanner(tree)
    for level in range(tree.height):
        counts = planner._counts(level)
        nodes = tree.level_nodes(level)
        assert len(counts) == len(nodes)
        for pos, node in enumerate(nodes):
            assert counts[pos] == len(_node_blocks(node))
