"""The IX-cache as a page-walk cache (the paper's future-work extension).

"IX-cache generalizes the classical concept of guarded page tables and
translation caches. This paper targets DSAs, while CPU/GPU extensions are
future work." Here is that extension: an x86-style radix page table whose
table nodes carry virtual-address ranges as their [Lo, Hi] tags, so the
unmodified IX-cache short-circuits page walks — including skip-level
behaviour and TLB-shootdown-style invalidation.

    python examples/pagetable_walk.py
"""

from repro.indexes.pagetable import RadixPageTable
from repro.params import BLOCK_SIZE, CacheParams
from repro.sim.engine import TraceBatch
from repro.sim.memsys import make_memsys
from repro.sim.metrics import WalkRequest, simulate
from repro.workloads.keygen import clustered_stream


def build_address_space() -> RadixPageTable:
    pt = RadixPageTable(levels=4, bits_per_level=7, page_bits=12)
    # A few mapped segments: code, heap, and a large mmap region.
    for page in range(0, 64):
        pt.map_page(page << 12)                      # code
    for page in range(1_000, 1_256):
        pt.map_page(page << 12)                      # heap
    for page in range(50_000, 52_048):
        pt.map_page(page << 12)                      # mmap
    return pt


def main() -> None:
    pt = build_address_space()
    print(f"{pt.levels}-level page table, {pt.va_bits}-bit VA space, "
          f"{pt.mapped_pages} pages mapped")
    pa = pt.translate((1_100 << 12) | 0x123)
    print(f"translate(heap+0x123) -> {pa:#x}\n")

    # Memory accesses cluster in the heap, drifting across the mmap region.
    pages = [1_000 + p for p in clustered_stream(256, 2_000, seed=3)] + [
        50_000 + p for p in clustered_stream(2_048, 2_000, seed=4)
    ]
    requests = [WalkRequest(pt, page << 12) for page in pages]

    print("Page-walk traffic by memory system:")
    results = {}
    for kind in ("stream", "address", "metal_ix"):
        ms = make_memsys(
            kind, cache_params=CacheParams(capacity_bytes=64 * BLOCK_SIZE)
        )
        results[kind] = simulate(ms, requests, ms.sim)
    base = results["stream"].makespan
    for name, run in results.items():
        label = {"stream": "no walk cache", "address": "page-walk $ (addr)",
                 "metal_ix": "IX-cache"}[name]
        print(f"  {label:20s} {base / run.makespan:5.2f}x  "
              f"avg walk {run.avg_walk_latency:6.1f} cycles  "
              f"DRAM {run.dram.accesses}")

    # Shootdown: unmapping invalidates the cached translation path.
    ms = make_memsys("metal_ix", cache_params=CacheParams(capacity_bytes=64 * BLOCK_SIZE))
    vaddr = 1_100 << 12
    batch = TraceBatch()

    def walk() -> int:
        """Generate one walk to ``vaddr``; return the nodes it fetched."""
        ms.process_chunk(batch, [WalkRequest(pt, vaddr)], [pt.walk(vaddr)])
        return batch.visits[-1]

    walk()
    warm = walk()
    pt.unmap_page(vaddr)
    after = walk()
    print(f"\nshootdown: warm walk visited {warm} nodes, "
          f"post-unmap walk re-fetched {after} "
          f"(translation gone: {pt.translate(vaddr)})")


if __name__ == "__main__":
    main()
