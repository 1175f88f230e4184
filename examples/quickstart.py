"""Quickstart: put an IX-cache in front of an index and measure it.

Builds a deep B+tree, runs Zipfian point lookups through every memory
organization the paper compares, and prints speedups, miss rates, and the
working-set reduction. Runs in a few seconds.

    python examples/quickstart.py
"""

from repro import (
    BPlusTree,
    CacheParams,
    IXCache,
    LevelDescriptor,
    build_workload,
    compare_systems,
)
from repro.core import PatternController


def direct_cache_usage() -> None:
    """The low-level API: probe and fill an IX-cache by hand."""
    print("=== Direct IX-cache usage ===")
    tree = BPlusTree.bulk_load([(k, k * 10) for k in range(10_000)], fanout=4)
    print(f"B+tree: {len(tree)} keys, {tree.height} levels")

    cache = IXCache(CacheParams(capacity_bytes=8 * 1024))
    key = 4_242

    # Cold probe: nothing cached yet.
    assert cache.probe(key) is None

    # Walk the index root-to-leaf; insert the mid-level nodes.
    path = tree.walk(key)
    for node in path[2:6]:
        cache.insert(node)

    # A second probe short-circuits to the deepest cached covering node.
    start = cache.probe(key)
    assert start is not None
    remaining = tree.walk_from(start, key)
    print(
        f"probe({key}) -> level {start.level} node [{start.lo}..{start.hi}]; "
        f"walk shortened from {len(path)} to {len(remaining)} nodes"
    )

    # A cache managed by a reuse pattern instead (METAL): the pattern
    # controller brackets each walk, and the walk's fetched nodes are
    # offered to it; only those its descriptor admits reach the cache.
    managed = IXCache(CacheParams(capacity_bytes=8 * 1024))
    controller = PatternController(LevelDescriptor(1, tree.height - 1), managed)
    descriptor = controller.begin_walk(0, key)
    controller.offer(descriptor, tree.walk(key), tree.height, False,
                     lambda node, life: managed.insert(node, life=life))
    controller.end_walk()
    print(f"pattern-managed cache now holds {len(managed)} entries\n")


def system_comparison() -> None:
    """The high-level API: a Table-2 workload across every organization."""
    print("=== Scan workload, all memory systems (scaled down) ===")
    workload = build_workload("scan", scale=0.15)
    print(f"workload: {workload.notes}")
    results = compare_systems(workload)

    base = results["stream"].makespan
    header = f"{'system':10s} {'speedup':>8s} {'miss':>6s} {'working set':>12s} {'DRAM nJ':>9s}"
    print(header)
    print("-" * len(header))
    for name, run in results.items():
        print(
            f"{name:10s} {base / run.makespan:7.2f}x {run.miss_rate:6.2f} "
            f"{run.working_set_fraction:12.2f} {run.dram_energy_fj / 1e6:9.1f}"
        )
    metal, xcache = results["metal"], results["xcache"]
    print(
        f"\nMETAL vs X-cache: {xcache.makespan / metal.makespan:.2f}x faster, "
        f"working set {metal.working_set_fraction:.2f} vs "
        f"{xcache.working_set_fraction:.2f}"
    )


if __name__ == "__main__":
    direct_cache_usage()
    system_comparison()
