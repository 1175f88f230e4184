"""The address-tagged baselines against their block-by-block references.

``AddressCacheMemSys`` (``address`` and ``address_pf``) runs its LRU
steps as one plain loop over the cache's sets, with counters added once
per chunk; ``FAOPTMemSys`` replays its precomputed OPT flags as numpy
columns. Hypothesis drives both, and :mod:`tests.reference.address_walk`
(one ``lookup``/``insert`` per access, one flag per block), over random
B+trees, cache shapes (cache blocks of one or two 64 B blocks), request
chunks, range scans and data/compute tails. Every stream column, walk
offset and visit count, the cache's sets way by way, every
``CacheStats`` field and, when traced, every probe event must agree.
"""

from hypothesis import given, settings, strategies as st

from repro.indexes.bplustree import BPlusTree
from repro.mem.address_cache import AddressCache
from repro.mem.layout import Allocator
from repro.mem.stats import CacheStats
from repro.obs.tracer import Tracer
from repro.params import BLOCK_SIZE, CacheParams, SimParams
from repro.sim.engine import TraceBatch
from repro.sim.memsys import AddressCacheMemSys, FAOPTMemSys, WalkPath
from repro.sim.metrics import WalkRequest

from tests.reference import address_walk
from tests.reference.opt_cache import belady_hit_flags

MAX_KEY = 600
SIM = SimParams()

#: Sorted key sets of 20-300 keys: trees two to six levels deep at the
#: fanouts below, with leaves to scan and more blocks than the caches hold.
keys_st = st.tuples(st.integers(20, 300), st.integers(1, 2)).map(
    lambda n_stride: list(range(0, n_stride[0] * n_stride[1], n_stride[1]))
)
requests_st = st.lists(
    st.tuples(
        st.integers(0, MAX_KEY),  # key
        st.one_of(st.none(), st.integers(0, 60)),  # scan length
        st.one_of(st.none(), st.integers(0, 4 * BLOCK_SIZE)),  # data bytes
        st.integers(0, 3),  # compute cycles
        st.booleans(),  # memoized path
    ),
    min_size=1,
    max_size=40,
)


def _build(keys, fanout, requests, chunk):
    tree = BPlusTree.bulk_load([(k, k) for k in keys], fanout=fanout)
    reqs, paths = [], []
    for key, span, data, compute, memo in requests:
        reqs.append(WalkRequest(
            tree, key, compute,
            None if data is None else Allocator.DATA_BASE + 7 * key * BLOCK_SIZE,
            data or 0, None if span is None else key + span,
        ))
        path = tree.walk(key)
        paths.append(WalkPath(path) if memo else path)
    chunks = [
        (reqs[lo:lo + chunk], paths[lo:lo + chunk])
        for lo in range(0, len(reqs), chunk)
    ]
    return chunks


def _columns(batch):
    return (
        batch.kinds.tolist(), batch.a1.tolist(), batch.a2.tolist(),
        batch.offsets, batch.start_levels, batch.visits, batch.index_dram,
        batch.nodes_visited, batch.short_circuited, batch.full_hits,
    )


def _events(tracer):
    return [(e.kind, e.ts, e.phase, e.walk, e.args) for e in tracer]


@settings(max_examples=60, deadline=None)
@given(
    keys=keys_st,
    fanout=st.sampled_from([3, 4, 16, 64]),
    entries=st.sampled_from([4, 8, 16, 64]),
    ways=st.sampled_from([1, 2, 4]),
    block_bytes=st.sampled_from([BLOCK_SIZE, 2 * BLOCK_SIZE]),
    requests=requests_st,
    chunk=st.integers(1, 16),
    prefetch=st.booleans(),
    traced=st.booleans(),
)
def test_address_matches_per_access_reference(
    keys, fanout, entries, ways, block_bytes, requests, chunk, prefetch, traced
):
    params = CacheParams(
        capacity_bytes=entries * block_bytes, block_bytes=block_bytes, ways=ways
    )
    chunks = _build(keys, fanout, requests, chunk)
    memsys = AddressCacheMemSys(SIM, params, prefetch=prefetch)
    reference = AddressCache(params)
    if traced:
        memsys.attach_obs(Tracer())
        reference.attach_obs(Tracer())
    batch, ref_batch = TraceBatch(), TraceBatch()
    for reqs, paths in chunks:
        memsys.process_chunk(batch, reqs, paths)
        address_walk.address_chunk(
            reference, ref_batch, reqs, paths, SIM, prefetch
        )
    assert _columns(batch) == _columns(ref_batch)
    assert memsys.cache.stats == reference.stats
    assert [list(ways.items()) for ways in memsys.cache.sets] == [
        list(ways.items()) for ways in reference.sets
    ]
    if traced:
        assert _events(memsys.tracer) == _events(reference.tracer)
        assert memsys.tracer.walk == reference.tracer.walk


@settings(max_examples=60, deadline=None)
@given(
    keys=keys_st,
    fanout=st.sampled_from([3, 4, 16, 64]),
    entries=st.sampled_from([1, 2, 4, 16]),
    requests=requests_st,
    chunk=st.integers(1, 16),
    traced=st.booleans(),
)
def test_faopt_matches_per_block_reference(
    keys, fanout, entries, requests, chunk, traced
):
    params = CacheParams(capacity_bytes=entries * BLOCK_SIZE, ways=1)
    chunks = _build(keys, fanout, requests, chunk)
    pairs = [(r.index, r.key) for reqs, _ in chunks for r in reqs]
    memsys = FAOPTMemSys.prepare(pairs, params, SIM)
    trace = [
        addr // BLOCK_SIZE
        for _, paths in chunks for path in paths for node in path
        for addr in address_walk._blocks(node)
    ]
    assert memsys._blocks.tolist() == trace
    flags = belady_hit_flags(trace, params.entries)
    assert memsys._flags.tolist() == flags
    if traced:
        memsys.attach_obs(Tracer())
    stats = CacheStats()
    batch, ref_batch = TraceBatch(), TraceBatch()
    flag_iter = iter(flags)
    for reqs, paths in chunks:
        memsys.process_chunk(batch, reqs, paths)
        address_walk.faopt_chunk(stats, flag_iter, ref_batch, reqs, paths, SIM)
    assert _columns(batch) == _columns(ref_batch)
    assert memsys.stats == stats
    if traced:
        walks = [
            w for w, path in enumerate(p for _, paths in chunks for p in paths)
            for node in path for _ in address_walk._blocks(node)
        ]
        assert _events(memsys.tracer) == [
            ("opt_probe", 0, "gen", walk, {"block": block, "hit": hit})
            for walk, block, hit in zip(walks, trace, flags)
        ]
