"""Reference walk streams of the two address-tagged baselines, block by block.

``address_chunk`` probes an :class:`~repro.mem.address_cache.AddressCache`
one access at a time through ``lookup``/``insert``/``contains``:

* per node of the walk, per touched block: an SRAM probe (port = block
  id, ``t_addr_probe`` cycles); on a miss a DRAM fetch and a fill, and
  with ``prefetch`` a next-line prefetch and fill of the following block
  when it is not resident; then one ``t_search`` step per node;
* per leaf of a range scan, the same probes and fills without prefetch
  or search step;
* then the request's data/compute tail (``TraceBatch.finish_walk``).

``faopt_chunk`` replays precomputed OPT flags the same way: per block a
probe (``t_fa_probe``), a DRAM fetch on a miss, and a search step; then
the scanned leaves straight from DRAM, then the tail.
"""

from __future__ import annotations

from repro.params import BLOCK_SIZE
from repro.sim.engine import K_COMPUTE, K_DRAM, K_PREFETCH, K_SRAM
from repro.sim.memsys import _blocks_for, _scanned_leaves


def _blocks(node):
    return _blocks_for(node.address, node.nbytes)


def address_chunk(cache, batch, requests, prepared, sim, prefetch=False) -> None:
    kinds, a1, a2 = batch.kinds, batch.a1, batch.a2

    def probe(addr: int, may_prefetch: bool) -> None:
        kinds.append(K_SRAM)
        a1.append(addr // BLOCK_SIZE)
        a2.append(sim.t_addr_probe)
        if cache.lookup(addr):
            return
        kinds.append(K_DRAM)
        a1.append(addr)
        a2.append(0)
        batch.index_dram += 1
        cache.insert(addr)
        if may_prefetch and not cache.contains(addr + BLOCK_SIZE):
            kinds.append(K_PREFETCH)
            a1.append(addr + BLOCK_SIZE)
            a2.append(0)
            cache.insert(addr + BLOCK_SIZE)

    for request, path in zip(requests, prepared):
        if cache.tracer.enabled:
            cache.tracer.walk = batch.num_walks
        for node in path:
            for addr in _blocks(node):
                probe(addr, prefetch)
            kinds.append(K_COMPUTE)
            a1.append(sim.t_search)
            a2.append(0)
        visited = len(path)
        if request.scan_hi is not None:
            for leaf in _scanned_leaves(path, request.scan_hi):
                visited += 1
                for addr in _blocks(leaf):
                    probe(addr, False)
        batch.finish_walk(request, 0, visited, False, False)


def faopt_chunk(stats, flags, batch, requests, prepared, sim) -> None:
    """``flags`` is an iterator over the hit flag of every walk block."""
    kinds, a1, a2 = batch.kinds, batch.a1, batch.a2
    for request, path in zip(requests, prepared):
        blocks = [addr // BLOCK_SIZE for node in path for addr in _blocks(node)]
        for block in blocks:
            kinds.append(K_SRAM)
            a1.append(block)
            a2.append(sim.t_fa_probe)
            hit = next(flags)
            stats.record(hit)
            if not hit:
                stats.insertions += 1
                kinds.append(K_DRAM)
                a1.append(block * BLOCK_SIZE)
                a2.append(0)
                batch.index_dram += 1
            kinds.append(K_COMPUTE)
            a1.append(sim.t_search)
            a2.append(0)
        visited = len(blocks)
        if request.scan_hi is not None:
            for leaf in _scanned_leaves(path, request.scan_hi):
                visited += 1
                for addr in _blocks(leaf):
                    kinds.append(K_DRAM)
                    a1.append(addr)
                    a2.append(0)
                    batch.index_dram += 1
        batch.finish_walk(request, 0, visited, False, False)
