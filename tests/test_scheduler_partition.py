"""Tests for walk scheduling policies."""

import pytest

from repro.bench.runner import build_memsys
from repro.sim.metrics import simulate
from repro.sim.scheduler import schedule
from repro.workloads.suite import build_workload


def reorder_distance(original, scheduled) -> float:
    """Mean displacement of requests: how aggressive the reorder was."""
    assert len(original) == len(scheduled)
    position: dict[int, list[int]] = {}
    for i, request in enumerate(original):
        position.setdefault(id(request), []).append(i)
    total = sum(abs(position[id(request)].pop() - j)
                for j, request in enumerate(scheduled))
    return total / max(1, len(original))


class TestScheduler:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_workload("scan", scale=0.06)

    def test_fifo_is_identity(self, workload):
        assert schedule(workload.requests, "fifo") == list(workload.requests)

    def test_key_sorted_orders_globally(self, workload):
        ordered = schedule(workload.requests, "key_sorted")
        keys = [r.key for r in ordered]
        assert keys == sorted(keys)

    def test_batched_is_permutation(self, workload):
        out = schedule(workload.requests, "batched", batch=32)
        assert sorted(r.key for r in out) == sorted(r.key for r in workload.requests)
        # Within each batch, keys are sorted.
        for start in range(0, len(out), 32):
            chunk = [r.key for r in out[start : start + 32]]
            assert chunk == sorted(chunk)

    def test_unknown_policy(self, workload):
        with pytest.raises(ValueError):
            schedule(workload.requests, "random")

    def test_invalid_batch(self, workload):
        with pytest.raises(ValueError):
            schedule(workload.requests, "batched", batch=0)

    def test_reorder_distance(self, workload):
        fifo = schedule(workload.requests, "fifo")
        assert reorder_distance(workload.requests, fifo) == 0.0
        batched = schedule(workload.requests, "batched", batch=16)
        global_sort = schedule(workload.requests, "key_sorted")
        assert (reorder_distance(workload.requests, batched)
                <= reorder_distance(workload.requests, global_sort) + 1e-9)

    def test_key_sorting_improves_locality(self, workload):
        """Adjacent keys share paths: sorted issue raises reuse."""
        fifo_ms = build_memsys("metal_ix", workload)
        fifo = simulate(fifo_ms, schedule(workload.requests, "fifo"),
                        fifo_ms.sim, workload.total_index_blocks)
        sorted_ms = build_memsys("metal_ix", workload)
        batched = simulate(sorted_ms, schedule(workload.requests, "key_sorted"),
                           sorted_ms.sim, workload.total_index_blocks)
        assert batched.index_dram_accesses <= fifo.index_dram_accesses
