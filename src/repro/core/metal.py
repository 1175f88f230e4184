"""METAL facade: the two evaluated configurations.

* :class:`MetalIX` — the stand-alone IX-cache with the hardwired utility
  policy (4-bit saturating counters, greedy insert-all). Section 5's
  "METAL-IX" showcases the cache organization without patterns.
* :class:`Metal` — IX-cache + pattern controller with descriptors and
  (optionally) dynamic parameter tuning. Section 5's "METAL".

Each holds an :class:`IXCache` (``cache``) and, for METAL, a
:class:`PatternController` (``controller``); the memory system drives both
directly. ``consider`` is the one walk-pipeline step kept here: offer a
fetched node to the controller (or insert it greedily) and then the cache.
"""

from __future__ import annotations

from typing import Callable

from repro.core.controller import PatternController
from repro.core.descriptors import ReuseDescriptor, WalkContext
from repro.core.ix_cache import IXCache
from repro.core.policy import ThresholdTuner
from repro.indexes.base import IndexNode
from repro.params import CacheParams, IXCACHE_ENERGY_FJ


class MetalIX:
    """IX-cache with the hardwired insert-all + utility-eviction policy."""

    name = "metal_ix"

    def __init__(self, params: CacheParams | None = None, **cache_kwargs) -> None:
        if params is None:
            params = CacheParams(e_access=IXCACHE_ENERGY_FJ)
        self.cache = IXCache(params, **cache_kwargs)
        self.controller: PatternController | None = None

    def attach_obs(self, tracer, registry=None, prefix: str = "ix") -> None:
        """Wire tracing through the IX-cache and pattern controller."""
        self.cache.attach_obs(tracer, registry, prefix)
        if self.controller is not None:
            self.controller.tracer = tracer

    def consider(
        self,
        index_id: int,
        node: IndexNode,
        height: int,
        ns: Callable[[int], int],
        ctx: "WalkContext | None" = None,
        key: int | None = None,
    ) -> bool:
        """Insert-or-bypass a node fetched during the miss-path walk."""
        if self.controller is None:
            return self.cache.insert(node, ns, key=key)
        decision = self.controller.decide(index_id, node, height, ctx)
        if not decision.insert:
            self.cache.note_bypass()
            return False
        return self.cache.insert(node, ns, life=decision.life, key=key)

    @property
    def stats(self):
        return self.cache.stats


class Metal(MetalIX):
    """IX-cache managed by reuse patterns (+ optional dynamic tuning)."""

    name = "metal"

    def __init__(
        self,
        descriptors: ReuseDescriptor | dict[int, ReuseDescriptor],
        params: CacheParams | None = None,
        batch_walks: int = 1_000,
        tune: bool = True,
        tuner: ThresholdTuner | dict | None = None,
        **cache_kwargs,
    ) -> None:
        super().__init__(params, **cache_kwargs)
        if isinstance(tuner, dict):
            tuner = ThresholdTuner(**tuner)
        self.controller = PatternController(
            descriptors, self.cache, batch_walks=batch_walks, tune=tune, tuner=tuner
        )
