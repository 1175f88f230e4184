"""Reuse patterns and their cache descriptors (Section 4).

A *reuse pattern* is the minimal set of index nodes an ideal walker would
touch to capture a group of application keys; a *cache descriptor* is the
pragma that expresses it to the IX-cache. Descriptors decide, per node
visited during a walk, whether to insert or bypass — on affine index
features (level, range), never on addresses.

Three generalized patterns (Table 2):

* :class:`NodeDescriptor` — target one level (usually leaves) and pin
  entries for an expected number of accesses (SpMM, Sorted Sets).
* :class:`LevelDescriptor` — cache a [start, end] band of levels common
  across walks; dynamic tuning redraws the band from per-level utility
  (Scan, Analytics).
* :class:`BranchDescriptor` — cache sub-branches around the moving median
  of recent keys, adjusting width and depth (R-tree, PageRank).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, insort
from collections import deque
from typing import Any, Callable, NamedTuple

from repro.indexes.base import IndexNode


class InsertDecision(NamedTuple):
    """Outcome of a descriptor consult for one visited node."""

    insert: bool
    life: int = 0


class WalkContext(NamedTuple):
    """Where in the walk pipeline a visited node sits.

    ``short_circuited`` — the walk started from an IX-cache hit;
    ``position`` — 0 for the first node fetched below the walk's start
    (its parent is on-chip), increasing toward the leaf.
    """

    short_circuited: bool
    position: int


#: Decision used when no descriptor governs an index: greedy insert-all
#: (this is the hardwired METAL-IX behaviour).
INSERT_ALL = InsertDecision(True, 0)
BYPASS = InsertDecision(False, 0)


class BatchFeedback(NamedTuple):
    """Per-batch statistics the controller feeds back for tuning."""

    hits_by_level: dict[int, int]
    insertions_by_level: dict[int, int]
    hit_rate: float
    occupancy: float  # cached entries / capacity


class TouchFilter:
    """Recency-bounded touch counter used to bypass one-shot nodes.

    "Patterns explicitly set margins below which nodes that are not
    frequently used will be bypassed and not cached" (Section 5.4). A node
    qualifies for insertion only once it has been touched ``min_touches``
    times within the recent window, which keeps streaming cold nodes from
    churning the band's hot entries.
    """

    def __init__(self, capacity: int = 4096, min_touches: int = 2) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if min_touches < 1:
            raise ValueError("min_touches must be >= 1")
        self.capacity = capacity
        self.min_touches = min_touches
        # Plain dict as an LRU: insertion order is recency order (pop +
        # reinsert moves a key to the end; the first key is the oldest).
        self._counts: dict[int, int] = {}

    def admit(self, node_id: int) -> bool:
        """Count a touch; True once the node is frequent enough to cache."""
        counts = self._counts
        count = counts.pop(node_id, 0) + 1
        counts[node_id] = count
        if len(counts) > self.capacity:
            del counts[next(iter(counts))]
        return count >= self.min_touches


class ReuseDescriptor(ABC):
    """Base class: decide insert/bypass, observe keys, tune per batch."""

    @abstractmethod
    def decide(
        self, node: IndexNode, height: int, ctx: WalkContext | None = None
    ) -> InsertDecision:
        """Insert-or-bypass for a node visited during a walk."""

    def observe_key(self, key: int) -> None:
        """Called once per walk with the probe key (for moving statistics)."""

    def tune(self, feedback: BatchFeedback) -> None:
        """Dynamic parameter update after a batch of walks (Section 5.4)."""

    def describe(self) -> dict[str, Any]:
        """Current parameter values (recorded per batch for Fig. 22)."""
        return {}

    def admission_threshold(self) -> int:
        """Current admission strictness (1 = admit everything eligible).

        The online :class:`~repro.core.policy.ThresholdTuner` drives this
        knob from batch churn; each pattern maps it onto its own selectivity
        parameter (touch-filter min_touches, branch depth).
        """
        return 1

    def set_admission_threshold(self, n: int) -> None:
        """Apply a tuner-proposed strictness; no-op for fixed patterns."""


class NodeDescriptor(ReuseDescriptor):
    """Target a single level, bypass everything else, pin by lifetime.

    ``target`` is a level from the root (0-based) or the string "leaf".
    ``life_fn`` computes the entry lifetime from the node — for SpMM the
    paper sets "life ... to the number of non-zeros in each column", which
    is the default (the leaf's value count).
    """

    def __init__(
        self,
        target: int | str = "leaf",
        life_fn: Callable[[IndexNode], int] | None = None,
        life: int = 0,
        min_touches: int = 1,
        filter_capacity: int = 4096,
    ) -> None:
        if isinstance(target, str) and target != "leaf":
            raise ValueError(f"target must be a level or 'leaf', got {target!r}")
        self.target = target
        if life_fn is not None and life:
            raise ValueError("give either life_fn or a fixed life, not both")
        if life_fn is None and not life:
            life_fn = _default_life
        self._life_fn = life_fn
        self._life = life
        self._filter = (
            TouchFilter(filter_capacity, min_touches) if min_touches > 1 else None
        )

    def _target_level(self, height: int) -> int:
        if self.target == "leaf":
            return height - 1
        return int(self.target)

    def decide(
        self, node: IndexNode, height: int, ctx: WalkContext | None = None
    ) -> InsertDecision:
        if node.level != self._target_level(height):
            return BYPASS
        if self._filter is not None and not self._filter.admit(node.node_id):
            return BYPASS
        life = self._life if self._life_fn is None else self._life_fn(node)
        return InsertDecision(True, max(0, life))

    def describe(self) -> dict[str, Any]:
        return {"pattern": "node", "target": self.target}

    def admission_threshold(self) -> int:
        return self._filter.min_touches if self._filter is not None else 1

    def set_admission_threshold(self, n: int) -> None:
        n = max(1, n)
        if self._filter is not None:
            self._filter.min_touches = n
        elif n > 1:
            self._filter = TouchFilter(min_touches=n)


def _default_life(node: IndexNode) -> int:
    """Expected accesses: the number of payload entries behind the node."""
    if node.values is not None:
        total = 0
        for v in node.values:
            entries = getattr(v, "entries", None)
            total += len(entries) if entries is not None else 1
        return total
    return len(node.keys) + 1


class LevelDescriptor(ReuseDescriptor):
    """Cache the [start, end] band of levels; tune the band from utility.

    Utility per the paper is #accesses / #nodes-touched at a level. After
    each batch: low band utility widens reach ([start-delta, end]); high
    utility extends short-circuiting ([start, end+delta]).
    """

    def __init__(
        self,
        start: int,
        end: int,
        delta: int = 1,
        low_utility: float = 1.0,
        high_utility: float = 4.0,
        min_level: int = 1,
        max_level: int | None = None,
        min_touches: int = 2,
        filter_capacity: int = 4096,
        frontier: bool = True,
    ) -> None:
        if start > end:
            raise ValueError(f"start {start} > end {end}")
        if low_utility > high_utility:
            raise ValueError("low_utility must be <= high_utility")
        #: With frontier=True (point-query workloads), short-circuited
        #: walks only extend the cached region one level below the hit —
        #: curating a popularity-weighted frontier. With frontier=False
        #: (bursty sweeps like SpMM), every in-band touched node is a
        #: candidate, since reuse follows immediately after first touch.
        self.frontier = frontier
        self.start = start
        self.end = end
        self.delta = delta
        self.low_utility = low_utility
        self.high_utility = high_utility
        self.min_level = min_level
        self.max_level = max_level
        self._filter = TouchFilter(filter_capacity, min_touches)
        self._low_streak = 0

    def decide(
        self, node: IndexNode, height: int, ctx: WalkContext | None = None
    ) -> InsertDecision:
        # level <= min(end, height-1)  ==  level <= end and level < height
        level = node.level
        if level < self.start or level > self.end or level >= height:
            return BYPASS
        if self.frontier and ctx is not None and ctx.short_circuited:
            # Frontier growth: the walk already starts from a cached node;
            # only its immediate child (position 0) extends the cached
            # region connectedly — anything deeper would churn as islands.
            if ctx.position > 0:
                return BYPASS
            if not self._filter.admit(node.node_id):
                return BYPASS
            return INSERT_ALL
        # The upper half of the band holds few, heavily-shared nodes, always
        # worth caching; the lower half, where streaming cold nodes live,
        # must be touched repeatedly before it is cached.
        if (level >= (self.start + self.end + 1) // 2 + 1
                and not self._filter.admit(node.node_id)):
            return BYPASS
        return INSERT_ALL

    def tune(self, feedback: BatchFeedback) -> None:
        """Redraw the band from per-level utility (= hits / insertions).

        Low utility means the band holds more nodes than the cache sustains
        (deep levels churn before they are re-hit): shift the band *up*
        toward the root, where fewer nodes cover more walks — "the band is
        adjusted to maximize reach". High utility means the band's nodes
        stick and are re-hit: extend toward the leaves to improve
        short-circuiting ("[start, end+delta]"), trimming upper levels that
        no longer carry hits.
        """
        hits = sum(
            count for level, count in feedback.hits_by_level.items()
            if self.start <= level <= self.end
        )
        inserted = sum(
            count for level, count in feedback.insertions_by_level.items()
            if self.start <= level <= self.end
        )
        if inserted == 0 and hits == 0:
            return  # no evidence either way this batch
        utility = hits / inserted if inserted else float("inf")
        if utility < self.low_utility:
            # Hysteresis: one noisy batch must not collapse the band.
            self._low_streak += 1
            if self._low_streak >= 2:
                self.start = max(self.min_level, self.start - self.delta)
                self.end = max(self.start, self.end - self.delta)
                self._low_streak = 0
        else:
            self._low_streak = 0
            if utility > self.high_utility:
                new_end = self.end + self.delta
                if self.max_level is not None:
                    new_end = min(new_end, self.max_level)
                self.end = new_end

    def describe(self) -> dict[str, Any]:
        return {"pattern": "level", "start": self.start, "end": self.end}

    def admission_threshold(self) -> int:
        return self._filter.min_touches

    def set_admission_threshold(self, n: int) -> None:
        self._filter.min_touches = max(1, n)


class BranchDescriptor(ReuseDescriptor):
    """Cache sub-branches around the moving median of recent keys.

    Maintains a window of observed keys; the median is the pivot, and nodes
    within ``halfwidth`` of the pivot and within ``depth`` levels of the
    leaves are cached. Tuning grows depth while hits hold and the cache has
    room, and re-centers/re-widens as the key cluster drifts.
    """

    def __init__(
        self,
        depth: int = 3,
        halfwidth: int | None = None,
        window: int = 256,
        grow_hit_rate: float = 0.5,
        max_depth: int = 12,
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self.halfwidth = halfwidth
        self.window = window
        self.grow_hit_rate = grow_hit_rate
        self.max_depth = max_depth
        self._keys: deque[int] = deque(maxlen=window)
        #: The window's keys in ascending order, kept beside the deque.
        self._sorted: list[int] = []
        self.pivot: int | None = None

    def observe_key(self, key: int) -> None:
        keys = self._keys
        ordered = self._sorted
        if len(keys) == keys.maxlen:
            if not keys:
                return  # a zero-length window keeps nothing
            del ordered[bisect_left(ordered, keys[0])]
        keys.append(key)
        insort(ordered, key)
        n = len(ordered)
        if n >= max(8, self.window // 8):
            # statistics.median's value: the middle key, or the mean of
            # the two middle keys.
            half = n // 2
            median = (
                ordered[half] if n % 2
                else (ordered[half - 1] + ordered[half]) / 2
            )
            self.pivot = int(median)

    def _width(self) -> int:
        if self.halfwidth is not None:
            return self.halfwidth
        ordered = self._sorted
        if len(ordered) < 2:
            return 1 << 30
        return max(1, (ordered[-1] - ordered[0]) // 2)

    def decide(
        self, node: IndexNode, height: int, ctx: WalkContext | None = None
    ) -> InsertDecision:
        if node.level < height - self.depth:
            return BYPASS
        if self.pivot is None:
            return INSERT_ALL
        width = self._width()
        if node.lo is None or node.hi is None:
            return BYPASS
        if node.hi < self.pivot - width or node.lo > self.pivot + width:
            return BYPASS
        return INSERT_ALL

    def tune(self, feedback: BatchFeedback) -> None:
        room = feedback.occupancy < 0.95
        if feedback.hit_rate >= self.grow_hit_rate and room:
            self.depth = min(self.max_depth, self.depth + 1)
        elif feedback.hit_rate < self.grow_hit_rate / 2:
            if self.halfwidth is not None:
                self.halfwidth = self.halfwidth * 2
            elif self.depth > 1 and not room:
                self.depth -= 1

    def describe(self) -> dict[str, Any]:
        return {
            "pattern": "branch",
            "depth": self.depth,
            "pivot": self.pivot,
            "halfwidth": self.halfwidth,
        }

    def admission_threshold(self) -> int:
        # Strictness is inverse depth: the strictest setting caches only
        # the leaf fringe (depth 1), the laxest the whole branch.
        return max(1, self.max_depth + 1 - self.depth)

    def set_admission_threshold(self, n: int) -> None:
        self.depth = min(self.max_depth, max(1, self.max_depth + 1 - max(1, n)))


class CompositeDescriptor(ReuseDescriptor):
    """Combine descriptors (Level+Branch, Node+Branch in Table 2).

    ``mode='any'`` inserts when any member would (union of patterns);
    ``mode='all'`` requires consensus. Life is the max across members that
    voted to insert.
    """

    def __init__(self, members: list[ReuseDescriptor], mode: str = "any") -> None:
        if not members:
            raise ValueError("CompositeDescriptor needs at least one member")
        if mode not in ("any", "all"):
            raise ValueError(f"mode must be 'any' or 'all', got {mode!r}")
        self.members = list(members)
        self.mode = mode

    def decide(
        self, node: IndexNode, height: int, ctx: WalkContext | None = None
    ) -> InsertDecision:
        votes = [m.decide(node, height, ctx) for m in self.members]
        inserting = [v for v in votes if v.insert]
        if self.mode == "any" and inserting:
            return InsertDecision(True, max(v.life for v in inserting))
        if self.mode == "all" and len(inserting) == len(votes):
            return InsertDecision(True, max(v.life for v in inserting))
        return BYPASS

    def observe_key(self, key: int) -> None:
        for member in self.members:
            member.observe_key(key)

    def tune(self, feedback: BatchFeedback) -> None:
        for member in self.members:
            member.tune(feedback)

    def describe(self) -> dict[str, Any]:
        return {"pattern": "composite", "members": [m.describe() for m in self.members]}

    def admission_threshold(self) -> int:
        return max(m.admission_threshold() for m in self.members)

    def set_admission_threshold(self, n: int) -> None:
        for member in self.members:
            member.set_admission_threshold(n)


__all__ = [
    "BatchFeedback",
    "BranchDescriptor",
    "BYPASS",
    "CompositeDescriptor",
    "INSERT_ALL",
    "InsertDecision",
    "LevelDescriptor",
    "NodeDescriptor",
    "ReuseDescriptor",
]
