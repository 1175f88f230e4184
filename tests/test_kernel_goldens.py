"""Exact functional checksums of seven hot paths at scale 0.05.

Each test drives one hot path over fixed, seeded inputs and folds its
functional output into one number (or, for ``simulate_e2e``, the
``RunResult`` digest). The expected values are goldens: a hot-path
rewrite must leave every one of them unchanged. Nothing here is timed;
host time is measured end to end by ``benchmark/``.

* ``engine_loop``        — ``Engine.run`` over mixed DRAM/SRAM/compute traces.
* ``dram_access``        — ``DRAM.access`` bank/row timing arithmetic.
* ``ix_probe_fill``      — ``IXCache`` insert + probe.
* ``walk_gen``           — B+tree ``walk()`` plus ``_node_blocks``.
* ``batched_walk_gen``   — SoA ``searchsorted`` chunk walks + baseline.
* ``vector_dram_decomp`` — array block -> (bank, row) decomposition.
* ``simulate_e2e``       — ``build_memsys`` + ``simulate``, scan/metal, SoA.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

from repro.bench.runner import run_workload
from repro.core.ix_cache import IXCache
from repro.indexes.bplustree import BPlusTree
from repro.indexes.soa import SoABPlusTree
from repro.mem.dram import DRAM
from repro.params import BLOCK_SIZE
from repro.sim.batch import BatchWalkPlanner
from repro.sim.engine import Access, Engine, WalkTrace
from repro.sim.memsys import _node_blocks
from repro.workloads.stream import chunked
from repro.workloads.suite import build_workload

SCALE = 0.05
MOD = 1 << 61


def test_engine_loop():
    rng = random.Random(1234)
    traces = []
    for walk in range(max(64, int(6_000 * SCALE * 20))):
        accesses = []
        for _ in range(6):
            roll = rng.random()
            if roll < 0.5:
                accesses.append(Access(
                    "dram", rng.randrange(0, 1 << 24) * BLOCK_SIZE, BLOCK_SIZE))
            elif roll < 0.8:
                accesses.append(Access(
                    "sram", cycles=4, port=rng.randrange(0, 1 << 12)))
            else:
                accesses.append(Access("compute", cycles=rng.randrange(1, 8)))
        traces.append(WalkTrace(walk, accesses))
    result = Engine().run(traces, record_latencies=True)
    checksum = (result.makespan * 1_000_003 + result.total_walk_cycles
                + sum(result.walk_latencies)) % MOD
    assert checksum == 36699482991


def dram_addresses() -> list[int]:
    """Row-hit-friendly strides mixed with random jumps."""
    rng = random.Random(99)
    addresses = []
    base = 0
    for _ in range(max(1_000, int(120_000 * SCALE * 20))):
        if rng.random() < 0.6:
            base += BLOCK_SIZE
        else:
            base = rng.randrange(0, 1 << 26) * BLOCK_SIZE
        addresses.append(base)
    return addresses


def test_dram_access():
    dram = DRAM()
    now = 0
    acc = 0
    for i, address in enumerate(dram_addresses()):
        done = dram.access(address, now, write=(i & 7) == 0)
        acc += done
        if (i & 3) == 0:
            now = done
    stats = dram.stats
    checksum = (acc + stats.row_hits * 7 + stats.row_misses * 13
                + len(stats.touched_blocks)) % MOD
    assert checksum == 184140392153


def test_ix_probe_fill():
    num_keys = max(512, int(4_000 * SCALE * 20))
    tree = BPlusTree.bulk_load([(k, k) for k in range(num_keys)], fanout=16)
    rng = random.Random(7)
    probes = [rng.randrange(0, num_keys) for _ in range(num_keys * 2)]
    cache = IXCache(key_block_bits=6)
    for node in tree.nodes():
        cache.insert(node)
    hits = 0
    level_acc = 0
    for key in probes:
        node = cache.probe(key)
        if node is not None:
            hits += 1
            level_acc += node.level
    stats = cache.stats
    checksum = (hits * 31 + level_acc * 17 + stats.evictions * 7
                + stats.insertions * 3 + len(cache)) % MOD
    assert checksum == 495418


def test_walk_gen():
    num_keys = max(2_048, int(20_000 * SCALE * 20))
    tree = BPlusTree.bulk_load([(k, k * 3) for k in range(num_keys)], fanout=12)
    rng = random.Random(42)
    acc = 0
    for key in [rng.randrange(0, num_keys) for _ in range(num_keys)]:
        for node in tree.walk(key):
            blocks = _node_blocks(node)
            acc += len(blocks) + blocks[0]
    assert acc % MOD == 21478967095066


def test_batched_walk_gen():
    num_keys = max(2_048, int(20_000 * SCALE * 20))
    tree = SoABPlusTree(np.arange(num_keys, dtype=np.int64), fanout=12)
    rng = random.Random(42)
    keys = [rng.randrange(0, num_keys) for _ in range(num_keys)]
    planner = BatchWalkPlanner(tree)
    acc = 0
    for part in chunked(keys, 512):
        rows = planner.positions(np.asarray(part, dtype=np.int64))
        acc += int(rows.sum()) * 3 + planner.baseline(rows)
    assert acc % MOD == 54776128


def test_vector_dram_decomp():
    banks, rows = DRAM().decompose(np.asarray(dram_addresses(), dtype=np.int64))
    checksum = int(int(banks.sum()) * 7 + int(rows.sum()) * 13
                   + int(banks[-1]) + int(rows[-1])) % MOD
    assert checksum == 1634681733163


def test_simulate_e2e():
    workload = build_workload("scan", scale=SCALE, backend="soa")
    text = json.dumps(run_workload(workload, "metal").to_dict(),
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4d827fe53aac0c56473c0667658095d1aae63ea411a29681344fc83d2e516b0d")
