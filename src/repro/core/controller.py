"""Pattern controller — directs IX-cache insert/bypass during walks (§3.2).

"As the walker traverses the index, the pattern controller directs the
insertion policy for the IX-cache ... For any node during a walk, the
descriptor determines whether a specific node should be inserted into the
IX-cache or bypassed entirely."

The controller is a state machine holding the active descriptor per index,
batching walks (the paper updates parameters "after a batch of 1 million
walks"; the batch size scales with our reduced workloads), computing
:class:`BatchFeedback` from cache statistics, and recording descriptor
parameters per batch so Fig. 22's adaptivity plot can be regenerated.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from typing import Any

from repro.core.descriptors import BatchFeedback, ReuseDescriptor, WalkContext
from repro.core.ix_cache import IXCache
from repro.core.policy import ThresholdTuner
from repro.indexes.base import IndexNode
from repro.obs.tracer import NULL_TRACER

#: Preallocated WalkContext rows: a context is a pure (short_circuited,
#: position) value, so walks at the same position share one instance
#: instead of allocating a NamedTuple per node.
_CTX_MAX = 64
_CTX_FULL = tuple(WalkContext(False, p) for p in range(_CTX_MAX))
_CTX_SHORT = tuple(WalkContext(True, p) for p in range(_CTX_MAX))


class PatternController:
    """Applies reuse descriptors to the walk pipeline.

    ``descriptors`` maps ``index_id`` to a descriptor; a single descriptor
    applies to every index. Indexes with no descriptor fall back to greedy
    insert-all (METAL-IX behaviour).
    """

    def __init__(
        self,
        descriptors: ReuseDescriptor | dict[int, ReuseDescriptor],
        cache: IXCache,
        batch_walks: int = 1_000,
        tune: bool = True,
        tuner: ThresholdTuner | None = None,
    ) -> None:
        if batch_walks <= 0:
            raise ValueError("batch_walks must be positive")
        self._default: ReuseDescriptor | None
        if isinstance(descriptors, ReuseDescriptor):
            self._default = descriptors
            self._by_index: dict[int, ReuseDescriptor] = {}
        else:
            self._default = None
            self._by_index = dict(descriptors)
        self.cache = cache
        self.batch_walks = batch_walks
        self.tune = tune
        self.tuner = tuner
        self.tracer = NULL_TRACER
        self._walks_in_batch = 0
        self._insertions_by_level: Counter[int] = Counter()
        self._batch_start_stats = (0, 0)  # (accesses, hits)
        self._batch_start_hit_levels: Counter[int] = Counter()
        self._batch_start_churn = (0, 0)  # (evictions, insertions)
        #: One entry per completed batch: descriptor params + batch stats.
        self.history: list[dict[str, Any]] = []

    # ------------------------------------------------------------------ #
    # Walk pipeline hooks
    # ------------------------------------------------------------------ #

    def begin_walk(self, index_id: int, key: int) -> ReuseDescriptor | None:
        """Start a walk: the descriptor governing ``index_id`` observes
        ``key`` and is returned (None: greedy insert-all)."""
        descriptor = self._by_index.get(index_id, self._default)
        if descriptor is not None:
            descriptor.observe_key(key)
        return descriptor

    def offer(
        self,
        descriptor: ReuseDescriptor,
        nodes: Iterable[IndexNode],
        height: int,
        short: bool,
        insert: Callable[[IndexNode, int], Any],
    ) -> None:
        """Insert or bypass each node a walk fetched, as ``descriptor`` decides.

        ``nodes`` are fetched top-down; the first sits at position 0 of
        a walk that started from an IX-cache hit when ``short`` is set.
        An inserted node is counted at its level for the batch feedback
        and handed to ``insert(node, life)``; a bypassed one is counted
        as the cache's pattern bypass.
        """
        decide = descriptor.decide
        row = _CTX_SHORT if short else _CTX_FULL
        insertions = self._insertions_by_level
        tracer = self.tracer
        tracing = tracer.enabled
        note_bypass = self.cache.note_bypass
        for position, node in enumerate(nodes):
            ctx = (row[position] if position < _CTX_MAX
                   else WalkContext(short, position))
            decision = decide(node, height, ctx)
            if tracing:
                tracer.emit("desc_decision", level=node.level,
                            insert=decision.insert, life=decision.life)
            if decision.insert:
                insertions[node.level] += 1
                insert(node, decision.life)
            else:
                note_bypass()

    def end_walk(self) -> None:
        self._walks_in_batch += 1
        if self._walks_in_batch >= self.batch_walks:
            self._finish_batch()

    # ------------------------------------------------------------------ #
    # Batch tuning
    # ------------------------------------------------------------------ #

    def _finish_batch(self) -> None:
        stats = self.cache.stats
        accesses0, hits0 = self._batch_start_stats
        batch_accesses = stats.accesses - accesses0
        batch_hits = stats.hits - hits0
        hits_by_level = {
            level: count - self._batch_start_hit_levels.get(level, 0)
            for level, count in self.cache.hit_levels.items()
        }
        feedback = BatchFeedback(
            hits_by_level=hits_by_level,
            insertions_by_level=dict(self._insertions_by_level),
            hit_rate=(batch_hits / batch_accesses) if batch_accesses else 0.0,
            occupancy=len(self.cache) / max(1, self.cache.params.entries),
        )
        described: list[dict[str, Any]] = []
        for descriptor in self._all_descriptors():
            if self.tune:
                descriptor.tune(feedback)
            described.append(descriptor.describe())
        entry: dict[str, Any] = {
            "walks": self._walks_in_batch,
            "hit_rate": feedback.hit_rate,
            "occupancy": feedback.occupancy,
            "descriptors": described,
        }
        if self.tuner is not None:
            # Churn = fraction of this batch's insertions that forced an
            # eviction. High churn means admission is too permissive for
            # the working set; low churn means we can afford to admit more.
            evictions0, insertions0 = self._batch_start_churn
            batch_evictions = stats.evictions - evictions0
            batch_insertions = stats.insertions - insertions0
            churn = (
                (batch_evictions / batch_insertions) if batch_insertions else 0.0
            )
            thresholds: list[int] = []
            for descriptor in self._all_descriptors():
                current = descriptor.admission_threshold()
                proposed = self.tuner.propose(churn, current)
                if proposed != current:
                    descriptor.set_admission_threshold(proposed)
                thresholds.append(descriptor.admission_threshold())
            entry["tuner"] = {"churn": churn, "thresholds": thresholds}
        self.history.append(entry)
        self._walks_in_batch = 0
        self._insertions_by_level.clear()
        self._batch_start_stats = (stats.accesses, stats.hits)
        self._batch_start_hit_levels = Counter(self.cache.hit_levels)
        self._batch_start_churn = (stats.evictions, stats.insertions)
        if self.tracer.enabled:
            self.tracer.emit("batch_tuned", batch=len(self.history),
                             hit_rate=feedback.hit_rate,
                             occupancy=feedback.occupancy)

    def _all_descriptors(self) -> list[ReuseDescriptor]:
        seen: list[ReuseDescriptor] = []
        if self._default is not None:
            seen.append(self._default)
        for descriptor in self._by_index.values():
            if all(descriptor is not s for s in seen):
                seen.append(descriptor)
        return seen
