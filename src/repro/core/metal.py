"""METAL facade: the two evaluated configurations.

* :class:`MetalIX` — the stand-alone IX-cache with the hardwired utility
  policy (4-bit saturating counters, greedy insert-all). Section 5's
  "METAL-IX" showcases the cache organization without patterns.
* :class:`Metal` — IX-cache + pattern controller with descriptors and
  (optionally) dynamic parameter tuning. Section 5's "METAL".

Each holds an :class:`IXCache` (``cache``) and, for METAL, a
:class:`PatternController` (``controller``); the memory system drives both
directly, offering each fetched node through
:meth:`PatternController.offer` (METAL) or inserting it greedily
(METAL-IX).
"""

from __future__ import annotations

from repro.core.controller import PatternController
from repro.core.descriptors import ReuseDescriptor
from repro.core.ix_cache import IXCache
from repro.core.policy import ThresholdTuner
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
