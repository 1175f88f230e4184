"""Reference Fig. 16 working-set metric: one plain ``set`` per window.

Walks are grouped into consecutive windows of ``window`` walks (the last
may be partial). A window's working set is the set of distinct 64B
blocks its index-region DRAM entries touch: ``K_DRAM`` entries below
the batch's data base, one block per entry (every block of a multi-block
access is its own entry). The metric is the mean over windows of
``min(1, |set| / total_index_blocks)``, and 0.0 when there are no walks
or no index blocks.
"""

from __future__ import annotations

from repro.params import BLOCK_SIZE
from repro.sim.engine import K_DRAM, TraceBatch


def windowed_working_set(
    batch: TraceBatch, total_index_blocks: int, window: int
) -> float:
    num_walks = batch.num_walks
    if total_index_blocks <= 0 or num_walks == 0:
        return 0.0
    fractions = []
    for first in range(0, num_walks, window):
        blocks = set()
        for walk in range(first, min(first + window, num_walks)):
            for i in range(batch.offsets[walk], batch.offsets[walk + 1]):
                address = batch.a1[i]
                if batch.kinds[i] == K_DRAM and address < batch.data_base:
                    blocks.add(address // BLOCK_SIZE)
        fractions.append(min(1.0, len(blocks) / total_index_blocks))
    return sum(fractions) / len(fractions)
