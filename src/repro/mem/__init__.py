"""Memory-system substrates: DRAM model, allocator, and baseline caches.

These are the pieces METAL is evaluated against (Section 5): an HBM-like
DRAM, a set-associative address cache (Widx-style), a fully-associative
Belady-OPT address cache, and the X-cache leaf cache [50]. The streaming
baseline needs no substrate of its own: every node it visits is a DRAM
fetch (``repro.sim.memsys.StreamingMemSys``).
"""

from repro.mem.address_cache import AddressCache
from repro.mem.dram import DRAM
from repro.mem.layout import Allocator, Region
from repro.mem.opt_cache import BeladyCache, belady_hit_flags
from repro.mem.stats import CacheStats, DRAMStats
from repro.mem.xcache import XCache

__all__ = [
    "AddressCache",
    "Allocator",
    "BeladyCache",
    "CacheStats",
    "DRAM",
    "DRAMStats",
    "Region",
    "XCache",
    "belady_hit_flags",
]
