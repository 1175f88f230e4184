"""KeyStream vs eager keygen: byte-identity is a hard contract.

The committed baselines (BENCH_baseline.json, the hot-path checksums in
test_kernel_goldens.py) were produced by the eager generators in
``repro.workloads.keygen``; the streamed twins in
``repro.workloads.stream`` must replicate them bit for bit — across
seeds, skews, universes, and *any* chunk size, since the
chunking is exactly what changes between a laptop run and a paper-scale
run. Hypothesis owns that surface; a few example tests pin the structural
properties (prefix heads, restartability, sizing helpers).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import keygen
from repro.workloads.stream import KeyStream, range_spans
from repro.workloads.suite import scaled, workload_stats

universes = st.integers(min_value=1, max_value=500)
counts = st.integers(min_value=0, max_value=600)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
chunk_sizes = st.integers(min_value=1, max_value=700)
skews = st.sampled_from([0.0, 0.3, 0.8, 0.9, 1.2])


@given(universe=universes, count=counts, seed=seeds, chunk=chunk_sizes)
@settings(max_examples=60, deadline=None)
def test_uniform_stream_matches_eager(universe, count, seed, chunk):
    stream = KeyStream.uniform(universe, count, seed=seed, chunk_size=chunk)
    assert stream.materialize() == keygen.uniform_stream(universe, count, seed=seed)


@given(universe=universes, count=counts, seed=seeds, chunk=chunk_sizes,
       skew=skews, shuffle=st.booleans())
@settings(max_examples=60, deadline=None)
def test_zipf_stream_matches_eager(universe, count, seed, chunk, skew, shuffle):
    stream = KeyStream.zipf(
        universe, count, skew=skew, seed=seed, shuffle_ranks=shuffle,
        chunk_size=chunk,
    )
    eager = keygen.zipf_stream(
        universe, count, skew=skew, seed=seed, shuffle_ranks=shuffle
    )
    assert stream.materialize() == eager


@given(universe=st.integers(min_value=1, max_value=300), count=counts,
       seed=seeds, chunk=chunk_sizes,
       num_clusters=st.integers(min_value=1, max_value=12),
       drift=st.sampled_from([0, 7, 64, 512]))
@settings(max_examples=60, deadline=None)
def test_clustered_stream_matches_eager(universe, count, seed, chunk,
                                        num_clusters, drift):
    stream = KeyStream.clustered(
        universe, count, num_clusters=num_clusters, drift_every=drift,
        seed=seed, chunk_size=chunk,
    )
    eager = keygen.clustered_stream(
        universe, count, num_clusters=num_clusters, drift_every=drift,
        seed=seed,
    )
    assert stream.materialize() == eager


@given(universe=universes, count=counts, seed=seeds, chunk=chunk_sizes,
       head=st.integers(min_value=0, max_value=700))
@settings(max_examples=60, deadline=None)
def test_head_is_exact_prefix(universe, count, seed, chunk, head):
    """head(k) must equal the first k keys of the full stream — the
    shuffled-Zipf permutation burn depends on full_count, so this is the
    property the scale sweep's walk cap stands on."""
    stream = KeyStream.zipf(universe, count, seed=seed, chunk_size=chunk)
    full = stream.materialize()
    prefix = stream.head(head)
    assert prefix.materialize() == full[: min(head, count)]
    assert prefix.full_count == stream.full_count


def test_streams_are_restartable():
    stream = KeyStream.zipf(100, 50, seed=3, chunk_size=7)
    assert stream.materialize() == stream.materialize()
    assert list(stream) == stream.materialize()
    assert stream.first() == stream.materialize()[0]
    assert len(stream) == 50


def test_chunks_are_bounded_and_concatenate():
    stream = KeyStream.uniform(1000, 250, seed=1, chunk_size=64)
    blocks = list(stream.chunks())
    assert all(len(b) <= 64 for b in blocks)
    assert sum(len(b) for b in blocks) == 250
    assert np.concatenate(blocks).tolist() == stream.materialize()


def test_empty_stream_edge_cases():
    stream = KeyStream.uniform(10, 0, seed=0)
    assert stream.materialize() == []
    with pytest.raises(ValueError):
        stream.first()
    with pytest.raises(ValueError):
        KeyStream.uniform(0, 5)
    with pytest.raises(ValueError):
        KeyStream.zipf(10, 5, skew=-1.0)


def test_range_spans_matches_eager_range_queries():
    universe, count, span = 300, 120, 16
    starts = KeyStream.zipf(universe, count, skew=0.8, seed=4)
    got = list(range_spans(starts, span, universe))
    assert got == keygen.range_queries(universe, count, span, seed=4)


def test_scaled_helper():
    """One sizing rule everywhere: max(floor, int(count * scale))."""
    assert scaled(40_000, 1.0, 2_000) == 40_000
    assert scaled(40_000, 0.25, 2_000) == 10_000
    assert scaled(40_000, 0.001, 2_000) == 2_000  # floor wins
    assert scaled(40_000, 250.0, 2_000) == 10_000_000  # paper scale
    assert scaled(8_000, 0.0301, 500) == 500


def test_suite_requests_match_eager_generation_at_default_scale():
    """The streamed builders emit the exact walk keys the eager
    generators produced — the request-level face of the byte-identity
    gate (the committed RunResult baselines pin the run level)."""
    from repro.workloads.suite import build_workload

    workload = build_workload("scan", scale=0.1)
    num_records = scaled(40_000, 0.1, 2_000)
    num_walks = scaled(8_000, 0.1, 500)
    expect = keygen.zipf_stream(num_records, num_walks, skew=0.8, seed=0)
    assert [r.key for r in workload.requests] == expect


def test_workload_stats_counts_match_scaled_sizing():
    stats = workload_stats("scan", scale=0.25)
    assert stats["records"] == scaled(40_000, 0.25, 2_000)
    assert stats["walks"] == scaled(8_000, 0.25, 500)
    # Array-backed tables cost far less per record than object graphs.
    rtree = workload_stats("rtree", scale=0.25)
    assert stats["est_bytes"] / stats["records"] < (
        rtree["est_bytes"] / rtree["records"])
    join = workload_stats("join", scale=1.0)
    assert join["records"] == 40_000 + 6_000  # inner + outer tables
    assert join["walks"] == 2 * 6_000  # probe + chase per outer row
    with pytest.raises(ValueError):
        workload_stats("nope")


_BUILT = {
    # dimension -> what the built workload exposes of it
    "walks": lambda w: len(w.requests),
    "outer": lambda w: len(w.requests) // 2,  # probe + chase per outer row
    "dim": lambda w: w.key_universe,
    "records": lambda w: len(w.indexes[0]),
}


@pytest.mark.parametrize("name, dim", [
    ("scan", "walks"), ("sets", "walks"), ("sets_s", "walks"),
    ("spmm", "dim"), ("spmm_s", "dim"), ("select", "walks"),
    ("where", "walks"), ("join", "outer"), ("rtree", "records"),
    ("pagerank", "walks"),
])
def test_builders_size_from_the_table(monkeypatch, name, dim):
    """Each builder reads WORKLOAD_SIZINGS: moving a floor in the table
    moves the built workload, with no literal left behind."""
    from repro.workloads import suite

    count, floor = suite.WORKLOAD_SIZINGS[name][dim]
    sizing = dict(suite.WORKLOAD_SIZINGS[name], **{dim: (count, floor + 7)})
    monkeypatch.setitem(suite.WORKLOAD_SIZINGS, name, sizing)
    workload = suite.build_workload(name, scale=0.001)
    assert _BUILT[dim](workload) == floor + 7


def test_scale_sweep_sizes_the_named_workload():
    """run_point reports the records of the workload it builds, not
    scan's: select's floor is 1,000 records, scan's 2,000."""
    from repro.bench.scale_sweep import run_point
    from repro.workloads.suite import sized

    point = run_point(0.0001, "select", max_walks=50)
    assert point.num_records == sized("select", "records", point.scale) == 1_000


def test_scale_sweep_probe_builds_fresh_every_call():
    """run_point donates its build to the worker memo for the grid; a
    second call in the same process must still build (and measure) the
    workload, not read the memo. The first call of a process also pays
    for lazy imports, and tracemalloc's peak moves by a few hundred
    bytes between identical builds, so a warm-up call comes first and the
    two measured peaks agree to 1%."""
    from repro.bench.scale_sweep import run_point
    from repro.exec.worker import _WORKLOAD_MEMO

    run_point(0.0001, "scan", max_walks=50)
    first = run_point(0.0001, "scan", max_walks=50)
    second = run_point(0.0001, "scan", max_walks=50)
    assert first.build_peak_bytes > 100_000
    assert second.build_peak_bytes == pytest.approx(first.build_peak_bytes,
                                                    rel=0.01)
    assert second.metrics == first.metrics
    # The donated workload is dropped once the point is measured.
    assert not any(key[:2] == ("scan", first.scale) for key in _WORKLOAD_MEMO)
