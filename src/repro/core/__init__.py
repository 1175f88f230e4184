"""METAL's core contribution: the IX-cache and reuse patterns.

* :class:`IXCache` — range-tagged, set-associative-on-key-blocks cache that
  short-circuits index walks (Section 3.1).
* Reuse descriptors (:class:`NodeDescriptor`, :class:`LevelDescriptor`,
  :class:`BranchDescriptor`) and the :class:`PatternController` that applies
  them on the walk pipeline (Section 4).

Section 5's METAL-IX is an :class:`IXCache` alone and METAL is one with a
:class:`PatternController` over it; ``repro.sim.memsys.make_memsys``
builds both.
"""

from repro.core.controller import PatternController
from repro.core.descriptors import (
    BranchDescriptor,
    CompositeDescriptor,
    InsertDecision,
    LevelDescriptor,
    NodeDescriptor,
    ReuseDescriptor,
)
from repro.core.energy_model import CacheEnergyModel, TAG_MATCH_TABLE
from repro.core.ix_cache import IXCache, IXEntry
from repro.core.packing import pack_node
from repro.core.range_tag import RangeTag

__all__ = [
    "BranchDescriptor",
    "CacheEnergyModel",
    "CompositeDescriptor",
    "InsertDecision",
    "IXCache",
    "IXEntry",
    "LevelDescriptor",
    "NodeDescriptor",
    "PatternController",
    "RangeTag",
    "ReuseDescriptor",
    "TAG_MATCH_TABLE",
    "pack_node",
]
