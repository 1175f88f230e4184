"""Writing a custom reuse descriptor.

METAL's descriptors are an open interface: anything that can decide
insert-or-bypass from affine index features (level, range) and tune itself
from batch feedback can manage the IX-cache. This example builds a
*hot-range* descriptor that caches only nodes inside an application-known
hot key range — a pattern a database could derive from its query planner —
and compares it against the built-ins on a skewed scan.

    python examples/custom_pattern.py
"""

from repro import CacheParams, IXCache, LevelDescriptor, build_workload
from repro.bench.runner import run_workload
from repro.core import PatternController
from repro.core.descriptors import (
    BYPASS,
    BatchFeedback,
    INSERT_ALL,
    InsertDecision,
    ReuseDescriptor,
    WalkContext,
)
from repro.indexes.base import IndexNode


class HotRangeDescriptor(ReuseDescriptor):
    """Cache any node whose range intersects a known-hot key interval.

    Tuning widens the interval while hits hold and shrinks it back when
    the hit rate decays (the cluster drifted).
    """

    def __init__(self, lo: int, hi: int, grow: float = 1.25) -> None:
        if lo > hi:
            raise ValueError("lo must be <= hi")
        self.lo = lo
        self.hi = hi
        self.grow = grow

    def decide(
        self, node: IndexNode, height: int, ctx: WalkContext | None = None
    ) -> InsertDecision:
        if node.lo is None or node.hi is None:
            return BYPASS
        if node.hi < self.lo or node.lo > self.hi:
            return BYPASS
        return INSERT_ALL

    def tune(self, feedback: BatchFeedback) -> None:
        width = self.hi - self.lo
        center = (self.hi + self.lo) // 2
        if feedback.hit_rate > 0.6 and feedback.occupancy < 0.9:
            width = int(width * self.grow)
        elif feedback.hit_rate < 0.2:
            width = max(16, int(width / self.grow))
        self.lo = center - width // 2
        self.hi = center + width // 2

    def describe(self) -> dict:
        return {"pattern": "hot-range", "lo": self.lo, "hi": self.hi}


def main() -> None:
    workload = build_workload("scan", scale=0.15)
    num_records = int(workload.notes.split()[0])
    height = workload.indexes[0].height

    print(f"scan over {num_records} records, {height} levels\n")

    # By hand: the descriptor governs a pattern controller over an
    # IX-cache; offered a walk's nodes, it admits only the hot ones.
    index = workload.indexes[0]
    cache = IXCache(CacheParams(capacity_bytes=8 * 1024))
    controller = PatternController(HotRangeDescriptor(0, 1_000), cache)
    for key in (10, num_records - 10):
        descriptor = controller.begin_walk(index.index_id, key)
        controller.offer(descriptor, index.walk(key), height, False,
                         lambda node, life: cache.insert(node, life=life))
        controller.end_walk()
    print(f"one hot and one cold walk: {cache.stats.insertions} inserted, "
          f"{cache.stats.bypasses} bypassed\n")

    contenders = {
        "hot-range (custom)": HotRangeDescriptor(0, num_records // 4),
        "level band (built-in)": LevelDescriptor(
            0, height - 1, min_level=0, low_utility=0.5
        ),
    }
    baseline = run_workload(workload, "stream")
    print(f"{'descriptor':24s} {'speedup':>8s} {'hit rate':>9s}")
    for name, descriptor in contenders.items():
        run = run_workload(workload, "metal", descriptors=descriptor)
        hit_rate = run.cache_stats.hit_rate if run.cache_stats else 0.0
        print(f"{name:24s} {baseline.makespan / run.makespan:7.2f}x "
              f"{hit_rate:9.2f}")
    print("\nAny ReuseDescriptor subclass plugs into the PatternController")
    print("and the whole bench harness unchanged.")


if __name__ == "__main__":
    main()
