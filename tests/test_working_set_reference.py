"""The Fig. 16 working-set metric against its plain-Python reference.

``repro.sim.batch._windowed_working_set`` counts distinct (window,
block) pairs over a sorted array of encoded codes;
``tests.reference.working_set`` keeps one ``set`` per window. On random
``TraceBatch`` streams (index- and data-region DRAM entries, prefetches
and SRAM probes, multi-block accesses whose later blocks carry ``CONT``,
repeated blocks and partial last windows) the two must return the very
same float.
"""

from hypothesis import given, settings, strategies as st

from repro.params import BLOCK_SIZE
from repro.sim.batch import _windowed_working_set
from repro.sim.engine import CONT, K_DRAM, K_PREFETCH, K_SRAM, TraceBatch

from tests.reference.working_set import windowed_working_set

#: One access: (kind, in the data region, block number, byte offset, bytes).
ACCESSES = st.tuples(
    st.sampled_from((K_DRAM, K_DRAM, K_DRAM, K_PREFETCH, K_SRAM)),
    st.booleans(),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=BLOCK_SIZE - 1),
    st.sampled_from((BLOCK_SIZE, BLOCK_SIZE, 2 * BLOCK_SIZE, 200)),
)
WALKS = st.lists(st.lists(ACCESSES, max_size=8), max_size=30)


def make_batch(walks: list[list[tuple]]) -> TraceBatch:
    batch = TraceBatch()
    for accesses in walks:
        for kind, data, block, offset, nbytes in accesses:
            if kind == K_SRAM:
                batch.kinds.append(K_SRAM)
                batch.a1.append(block)
                batch.a2.append(6)
                continue
            base = batch.data_base if data else 0
            batch.add_blocks(kind, base + block * BLOCK_SIZE + offset, nbytes)
        batch.end_walk()
    return batch


class TestWindowedWorkingSet:
    @settings(max_examples=200, deadline=None)
    @given(
        walks=WALKS,
        total=st.integers(min_value=-1, max_value=60),
        window=st.integers(min_value=1, max_value=7),
    )
    def test_matches_reference(self, walks, total, window):
        batch = make_batch(walks)
        assert _windowed_working_set(batch, total, window) == (
            windowed_working_set(batch, total, window)
        )

    def test_no_walks(self):
        assert _windowed_working_set(TraceBatch(), 10, 4) == 0.0
        assert windowed_working_set(TraceBatch(), 10, 4) == 0.0

    def test_no_index_blocks(self):
        batch = make_batch([[(K_DRAM, False, 3, 0, BLOCK_SIZE)]])
        assert _windowed_working_set(batch, 0, 4) == 0.0

    def test_walks_without_index_dram(self):
        # Only data-region traffic and probes: every window is empty.
        batch = make_batch([[(K_DRAM, True, 1, 0, BLOCK_SIZE)],
                            [(K_SRAM, False, 2, 0, BLOCK_SIZE)]])
        assert _windowed_working_set(batch, 8, 1) == 0.0

    def test_partial_last_window_and_cont_blocks(self):
        # Window 0 (walks 0-1): blocks 0, 1 (one two-block access; the
        # second entry carries CONT) and 5; a repeat of block 0 and a data
        # block do not count. Window 1 (walk 2, partial): block 0 again.
        batch = make_batch([
            [(K_DRAM, False, 0, 0, 2 * BLOCK_SIZE), (K_DRAM, True, 0, 0, BLOCK_SIZE)],
            [(K_DRAM, False, 5, 7, BLOCK_SIZE), (K_DRAM, False, 0, 3, BLOCK_SIZE)],
            [(K_DRAM, False, 0, 0, BLOCK_SIZE)],
        ])
        assert batch.a2[1] == CONT
        assert _windowed_working_set(batch, 10, 2) == (0.3 + 0.1) / 2
        assert windowed_working_set(batch, 10, 2) == (0.3 + 0.1) / 2

    def test_fraction_caps_at_one(self):
        batch = make_batch([[(K_DRAM, False, b, 0, BLOCK_SIZE) for b in range(4)]])
        assert _windowed_working_set(batch, 2, 1) == 1.0
