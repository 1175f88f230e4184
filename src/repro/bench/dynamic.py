"""Extension experiment: METAL on a *mutating* index (YCSB-style mix).

The paper's workloads query built indexes; dynamic tensors are the one
mutating substrate it names. This experiment stresses the invalidation
path end-to-end: a B+tree serving a read/insert mix while every memory
system keeps answering point lookups. Correctness (walks always land on
the right leaf) is asserted by the tests; the bench reports how much of
METAL's advantage survives the churn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.bench.format import render_table
from repro.exec import Executor, RunSpec, default_executor
from repro.indexes.bplustree import BPlusTree
from repro.params import CacheParams, SimParams
from repro.sim.engine import Engine, TraceBatch
from repro.sim.memsys import make_memsys
from repro.sim.metrics import WalkRequest
from repro.mem.dram import DRAM
from repro.workloads.keygen import zipf_stream


@dataclass
class DynamicMixResult:
    system: str
    makespan: int
    avg_walk_latency: float
    dram_accesses: int
    invalidations_survived: bool


def mix_cell(
    kind: str,
    num_records: int,
    num_ops: int,
    read_fraction: float,
    cache_bytes: int,
    seed: int,
) -> dict[str, Any]:
    """One (system, mix) cell: build a live B+tree, interleave, measure.

    Runs worker-side (``repro.exec.worker`` dispatches ``op="dynamic_mix"``
    here); returns a JSON-safe dict so the payload can be cached.
    """
    rng = random.Random(seed)
    tree = BPlusTree.bulk_load(
        [(k, k) for k in range(0, num_records * 2, 2)],
        fanout=BPlusTree.fanout_for_depth(num_records, 9),
    )
    present = list(range(0, num_records * 2, 2))
    pending = list(range(1, num_records * 2, 2))
    rng.shuffle(pending)
    lookup_keys = zipf_stream(len(present), num_ops, skew=0.8, seed=seed)

    memsys = make_memsys(kind, cache_params=CacheParams(capacity_bytes=cache_bytes))
    # Walks stream into one columnar batch as they are generated.
    batch = TraceBatch()
    ok = True
    for i in range(num_ops):
        if pending and rng.random() > read_fraction:
            key = pending.pop()
            tree.insert(key, key)
            present.append(key)
        key = present[lookup_keys[i % len(lookup_keys)] % len(present)]
        # The path is resolved right before the walk: inserts reshape it.
        memsys.process_chunk(batch, [WalkRequest(tree, key)], [tree.walk(key)])
        if tree.get(key) != key:
            ok = False
    sim = SimParams()
    engine = Engine(sim, DRAM(sim.dram))
    timing = engine.run_batch(batch)
    return {
        "makespan": timing.makespan,
        "avg_walk_latency": timing.avg_walk_latency,
        "dram_accesses": engine.dram.stats.accesses,
        "invalidations_survived": ok,
    }


def run_dynamic_mix(
    num_records: int = 8_000,
    num_ops: int = 6_000,
    read_fraction: float = 0.8,
    cache_bytes: int = 8 * 1024,
    seed: int = 0,
    kinds: tuple[str, ...] = ("stream", "address", "metal_ix"),
    executor: Executor | None = None,
) -> list[DynamicMixResult]:
    """Interleave zipf lookups with inserts on a live B+tree."""
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    executor = executor or default_executor()
    specs = [
        RunSpec.make(
            "bptree_rw_mix", kind, scale=1.0, seed=seed, op="dynamic_mix",
            cache_bytes=cache_bytes,
            workload_kwargs={
                "num_records": num_records,
                "num_ops": num_ops,
                "read_fraction": read_fraction,
            },
        )
        for kind in kinds
    ]
    results = []
    for kind, outcome in zip(kinds, executor.run(specs)):
        data = outcome.check().data
        results.append(
            DynamicMixResult(
                system=kind,
                makespan=data["makespan"],
                avg_walk_latency=data["avg_walk_latency"],
                dram_accesses=data["dram_accesses"],
                invalidations_survived=data["invalidations_survived"],
            )
        )
    return results


def format_dynamic_mix(results: list[DynamicMixResult]) -> str:
    base = results[0].makespan if results else 1
    headers = ["system", "speedup", "avg walk latency", "DRAM", "coherent"]
    rows = [
        [r.system, base / max(1, r.makespan), r.avg_walk_latency,
         r.dram_accesses, r.invalidations_survived]
        for r in results
    ]
    return render_table(
        headers, rows,
        "Extension — read/insert mix on a live B+tree (base: first row)",
    )
