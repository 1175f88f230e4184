"""Timed kernels over the simulator's measured hot paths.

Each kernel is a ``(setup, run)`` pair: ``setup(scale)`` builds the
inputs once (index structures, synthetic traces, workloads) outside the
timed region; ``run(state)`` executes the hot path and returns a
deterministic checksum of its functional output. The checksum is part of
the recorded baseline: a behaviour change shows up as a digest mismatch
even when the timing looks plausible.

The profiled hot paths these kernels pin down (see docs/performance.md):

* ``engine_loop``   — :meth:`Engine.run` over mixed DRAM/SRAM/compute
  access traces: columnarization plus the calendar-queue event loop.
* ``dram_access``   — :meth:`DRAM.access` bank/row timing arithmetic.
* ``ix_probe_fill`` — :class:`IXCache` insert + probe (set placement and
  range-tag match).
* ``walk_gen``      — B+tree ``walk()`` plus the per-node
  :func:`_node_blocks` footprint used by every memory system.
* ``simulate_e2e``  — the full ``build_memsys`` + :func:`simulate` cell
  the bench matrix is made of (scan workload, METAL system, SoA
  storage). Its checksum is the ``RunResult`` digest: drift means the
  simulated result changed.
* ``batched_walk_gen``  — ``searchsorted`` chunk resolution through the
  SoA level arrays plus the vectorized block-count baseline.
* ``vector_dram_decomp`` — array block->(bank,row) decomposition.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable

from repro.indexes.bplustree import BPlusTree
from repro.params import BLOCK_SIZE

SetupFn = Callable[[float], Any]
RunFn = Callable[[Any], int | str]


def _checksum_json(data: Any) -> str:
    """SHA-256 over canonical JSON — the ResultStore digest convention."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------- #
# engine_loop
# --------------------------------------------------------------------- #


def _setup_engine(scale: float) -> Any:
    from repro.sim.engine import Access, WalkTrace

    rng = random.Random(1234)
    num_walks = max(64, int(6_000 * scale * 20))
    traces = []
    for walk in range(num_walks):
        accesses = []
        for _ in range(6):
            roll = rng.random()
            if roll < 0.5:
                accesses.append(
                    Access("dram", rng.randrange(0, 1 << 24) * BLOCK_SIZE,
                           BLOCK_SIZE)
                )
            elif roll < 0.8:
                accesses.append(
                    Access("sram", cycles=4, port=rng.randrange(0, 1 << 12))
                )
            else:
                accesses.append(Access("compute", cycles=rng.randrange(1, 8)))
        traces.append(WalkTrace(walk, accesses))
    return traces


def _run_engine(traces: Any) -> int:
    from repro.sim.engine import Engine

    engine = Engine()
    result = engine.run(traces, record_latencies=True)
    return (result.makespan * 1_000_003
            + result.total_walk_cycles
            + sum(result.walk_latencies)) % (1 << 61)


# --------------------------------------------------------------------- #
# dram_access
# --------------------------------------------------------------------- #


def _setup_dram(scale: float) -> Any:
    rng = random.Random(99)
    n = max(1_000, int(120_000 * scale * 20))
    addresses = []
    base = 0
    for _ in range(n):
        if rng.random() < 0.6:
            base += BLOCK_SIZE  # row-hit-friendly stride
        else:
            base = rng.randrange(0, 1 << 26) * BLOCK_SIZE
        addresses.append(base)
    return addresses


def _run_dram(addresses: Any) -> int:
    from repro.mem.dram import DRAM

    dram = DRAM()
    access = dram.access
    now = 0
    acc = 0
    for i, address in enumerate(addresses):
        done = access(address, now, write=(i & 7) == 0)
        acc += done
        if (i & 3) == 0:
            now = done
    stats = dram.stats
    return (acc + stats.row_hits * 7 + stats.row_misses * 13
            + len(stats.touched_blocks)) % (1 << 61)


# --------------------------------------------------------------------- #
# ix_probe_fill
# --------------------------------------------------------------------- #


def _setup_ix(scale: float) -> Any:
    num_keys = max(512, int(4_000 * scale * 20))
    tree = BPlusTree.bulk_load([(k, k) for k in range(num_keys)], fanout=16)
    nodes = list(tree.nodes())
    rng = random.Random(7)
    probes = [rng.randrange(0, num_keys) for _ in range(num_keys * 2)]
    return nodes, probes


def _run_ix(state: Any) -> int:
    from repro.core.ix_cache import IXCache

    nodes, probes = state
    cache = IXCache(key_block_bits=6)
    insert = cache.insert
    probe = cache.probe
    for node in nodes:
        insert(node)
    hits = 0
    level_acc = 0
    for key in probes:
        node = probe(key)
        if node is not None:
            hits += 1
            level_acc += node.level
    stats = cache.stats
    return (hits * 31 + level_acc * 17 + stats.evictions * 7
            + stats.insertions * 3 + len(cache)) % (1 << 61)


# --------------------------------------------------------------------- #
# walk_gen
# --------------------------------------------------------------------- #


def _setup_walks(scale: float) -> Any:
    num_keys = max(2_048, int(20_000 * scale * 20))
    tree = BPlusTree.bulk_load(
        [(k, k * 3) for k in range(num_keys)], fanout=12
    )
    rng = random.Random(42)
    keys = [rng.randrange(0, num_keys) for _ in range(num_keys)]
    return tree, keys


def _run_walks(state: Any) -> int:
    from repro.sim.memsys import _node_blocks

    tree, keys = state
    walk = tree.walk
    acc = 0
    for key in keys:
        for node in walk(key):
            blocks = _node_blocks(node)
            acc += len(blocks) + blocks[0]
    return acc % (1 << 61)


# --------------------------------------------------------------------- #
# batched_walk_gen
# --------------------------------------------------------------------- #


def _setup_batched_walks(scale: float) -> Any:
    import numpy as np

    from repro.indexes.soa import SoABPlusTree

    num_keys = max(2_048, int(20_000 * scale * 20))
    tree = SoABPlusTree(np.arange(num_keys, dtype=np.int64), fanout=12)
    rng = random.Random(42)
    keys = [rng.randrange(0, num_keys) for _ in range(num_keys)]
    return tree, keys


def _run_batched_walks(state: Any) -> int:
    import numpy as np

    from repro.sim.batch import BatchWalkPlanner
    from repro.workloads.stream import chunked

    tree, keys = state
    planner = BatchWalkPlanner(tree)
    acc = 0
    for part in chunked(keys, 512):
        rows = planner.positions(np.asarray(part, dtype=np.int64))
        acc += int(rows.sum()) * 3 + planner.baseline(rows)
    return acc % (1 << 61)


# --------------------------------------------------------------------- #
# vector_dram_decomp
# --------------------------------------------------------------------- #


def _setup_vector_dram(scale: float) -> Any:
    import numpy as np

    return np.asarray(_setup_dram(scale), dtype=np.int64)


def _run_vector_dram(addresses: Any) -> int:
    from repro.mem.dram import DRAM

    dram = DRAM()
    banks, rows = dram.decompose(addresses)
    return int(int(banks.sum()) * 7 + int(rows.sum()) * 13
               + int(banks[-1]) + int(rows[-1])) % (1 << 61)


# --------------------------------------------------------------------- #
# simulate_e2e
# --------------------------------------------------------------------- #


def _setup_simulate(scale: float) -> Any:
    from repro.workloads.suite import build_workload

    return build_workload("scan", scale=scale, backend="soa")


def _run_simulate(workload: Any) -> str:
    from repro.bench.runner import run_workload

    result = run_workload(workload, "metal")
    return _checksum_json(result.to_dict())


#: name -> (setup, run, description)
KERNELS: dict[str, tuple[SetupFn, RunFn, str]] = {
    "engine_loop": (_setup_engine, _run_engine,
                    "Engine.run event loop over synthetic mixed traces"),
    "dram_access": (_setup_dram, _run_dram,
                    "DRAM.access bank/row timing arithmetic"),
    "ix_probe_fill": (_setup_ix, _run_ix,
                      "IXCache insert + probe (placement and range match)"),
    "walk_gen": (_setup_walks, _run_walks,
                 "B+tree walk() + per-node _node_blocks footprint"),
    "batched_walk_gen": (_setup_batched_walks, _run_batched_walks,
                         "searchsorted chunk walks + vectorized baseline"),
    "vector_dram_decomp": (_setup_vector_dram, _run_vector_dram,
                           "array block->(bank,row) DRAM decomposition"),
    "simulate_e2e": (_setup_simulate, _run_simulate,
                     "build_memsys + simulate for scan/metal on the "
                     "SoA backend (to_dict digest)"),
}


def kernel_names() -> tuple[str, ...]:
    return tuple(KERNELS)
