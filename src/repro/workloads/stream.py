"""KeyStream — chunked, deterministic key generation for paper-scale runs.

The eager generators in :mod:`repro.workloads.keygen` materialize one
Python ``list`` per workload, which caps the suite ~100x below the
paper's 10M-400M-key indexes: at scale the list of boxed ints (and the
intermediate numpy buffers ``rng.choice`` holds) dominate RSS before a
single walk runs. A :class:`KeyStream` produces the *identical* key
sequence in bounded numpy blocks instead, so builders consume keys
chunk-by-chunk and peak memory is O(chunk + universe), not O(count).

Byte-identity is a hard contract, not a goal: the committed baselines
(BENCH_baseline.json, the hot-path checksum goldens) were produced by the eager
generators, so every stream here replicates its eager twin bit for bit.
The mechanics rely on two numpy PCG64 facts, pinned by the hypothesis
suite in ``tests/test_workload_stream.py``:

* split stability — ``rng.random(a)`` then ``rng.random(b)`` consumes
  the generator exactly like ``rng.random(a + b)`` (one 64-bit draw per
  double; same for ``integers``), so any chunking concatenates to the
  same array;
* ``Generator.choice(n, size=N, p=w)`` draws ``N`` uniforms and maps
  them through the normalized weight CDF with a right-bisect — which we
  replay per chunk against a CDF computed once.

For the shuffled Zipf stream the eager code draws the rank permutation
*after* the ``N`` choice uniforms; the stream reproduces that state by
burning a shadow generator through ``N`` doubles up front. Because the
burn length is the stream's *full* count, ``head(k)`` is a true prefix
of the full sequence — the property the scale sweep's walk cap rides on.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

#: Default generation block: big enough to amortize numpy dispatch,
#: small enough that a chunk is cache- and RSS-trivial (~512 KiB int64).
DEFAULT_CHUNK = 1 << 16


def _zipf_cdf(universe: int, skew: float) -> np.ndarray:
    """Normalized CDF over ranks 1..universe with P(r) ~ 1/r^skew.

    Mirrors both the eager generator's weight construction *and* the
    renormalization ``Generator.choice`` applies internally (cumsum then
    divide by the final partial sum), so per-chunk right-bisects land on
    the same ranks the eager ``choice`` call produced.
    """
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, skew)
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


class KeyStream:
    """A deterministic, restartable sequence of integer keys.

    Every iteration restarts generation from the seed, so a stream can
    be consumed multiple times (builders iterate once for the index and
    once for the requests) and always yields the same sequence. ``count``
    may be smaller than ``full_count`` (see :meth:`head`): generation
    parameters that depend on the sequence length — the shuffled-Zipf
    permutation burn — always use ``full_count`` so a shortened stream
    is an exact prefix of the full one.
    """

    def __init__(
        self,
        count: int,
        make_chunks: Callable[[int], Iterator[np.ndarray]],
        full_count: int | None = None,
    ) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        self.count = count
        self.full_count = full_count if full_count is not None else count
        if self.count > self.full_count:
            raise ValueError("count cannot exceed full_count")
        self._make_chunks = make_chunks

    # ------------------------------------------------------------------ #
    # Consumption
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.count

    def chunks(self) -> Iterator[np.ndarray]:
        """Yield the sequence as numpy blocks (concatenation == eager)."""
        remaining = self.count
        for block in self._make_chunks(self.count):
            if remaining <= 0:
                return
            if len(block) > remaining:
                block = block[:remaining]
            remaining -= len(block)
            yield block

    def __iter__(self) -> Iterator[int]:
        for block in self.chunks():
            yield from block.tolist()

    def materialize(self) -> list[int]:
        """The full eager list (tests and small call sites only)."""
        out: list[int] = []
        for block in self.chunks():
            out.extend(block.tolist())
        return out

    def first(self) -> int:
        """The first key without consuming the stream."""
        for block in self.chunks():
            if len(block):
                return int(block[0])
        raise ValueError("empty stream has no first key")

    def head(self, count: int) -> "KeyStream":
        """A stream over the first ``count`` keys (exact prefix)."""
        return KeyStream(
            min(count, self.count), self._make_chunks, full_count=self.full_count
        )

    # ------------------------------------------------------------------ #
    # Generators (each mirrors its repro.workloads.keygen twin)
    # ------------------------------------------------------------------ #

    @classmethod
    def uniform(
        cls, universe: int, count: int, seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> "KeyStream":
        """Chunked twin of :func:`~repro.workloads.keygen.uniform_stream`."""
        if universe <= 0:
            raise ValueError("universe must be positive")

        def make(n: int) -> Iterator[np.ndarray]:
            rng = np.random.default_rng(seed)
            done = 0
            while done < n:
                m = min(chunk_size, n - done)
                yield rng.integers(0, universe, size=m)
                done += m

        return cls(count, make)

    @classmethod
    def zipf(
        cls, universe: int, count: int, skew: float = 0.8, seed: int = 0,
        shuffle_ranks: bool = True, chunk_size: int = DEFAULT_CHUNK,
    ) -> "KeyStream":
        """Chunked twin of :func:`~repro.workloads.keygen.zipf_stream`."""
        if universe <= 0:
            raise ValueError("universe must be positive")
        if skew < 0:
            raise ValueError("skew must be non-negative")
        full = count

        def make(n: int) -> Iterator[np.ndarray]:
            cdf = _zipf_cdf(universe, skew)
            rng = np.random.default_rng(seed)
            perm = None
            if shuffle_ranks:
                # The eager path draws the permutation after `full` choice
                # uniforms; reach the same generator state via a shadow
                # burn (chunked, so the burn itself stays bounded).
                burn = np.random.default_rng(seed)
                burned = 0
                while burned < full:
                    m = min(chunk_size, full - burned)
                    burn.random(m)
                    burned += m
                perm = burn.permutation(universe)
            done = 0
            while done < n:
                m = min(chunk_size, n - done)
                drawn = cdf.searchsorted(rng.random(m), side="right")
                yield perm[drawn] if perm is not None else drawn
                done += m

        return cls(count, make, full_count=full)

    @classmethod
    def clustered(
        cls, universe: int, count: int, num_clusters: int = 8,
        cluster_width: int | None = None, drift_every: int = 512,
        seed: int = 0, chunk_size: int = DEFAULT_CHUNK,
    ) -> "KeyStream":
        """Chunked twin of :func:`~repro.workloads.keygen.clustered_stream`.

        The eager generator is a stateful per-element loop (one normal
        draw per key, a drift redraw every ``drift_every``), so chunking
        just carries the loop state across block boundaries.
        """
        if universe <= 0:
            raise ValueError("universe must be positive")
        if num_clusters <= 0:
            raise ValueError("num_clusters must be positive")

        def make(n: int) -> Iterator[np.ndarray]:
            rng = np.random.default_rng(seed)
            width = (
                cluster_width if cluster_width is not None
                else max(1, universe // (num_clusters * 4))
            )
            centers = rng.integers(
                width, max(width + 1, universe - width), size=num_clusters
            )
            center = int(centers[0])
            keys: list[int] = []
            for i in range(n):
                if drift_every and i and i % drift_every == 0:
                    center = int(centers[rng.integers(0, num_clusters)])
                offset = int(rng.normal(0, width / 3))
                keys.append(int(np.clip(center + offset, 0, universe - 1)))
                if len(keys) >= chunk_size:
                    yield np.asarray(keys, dtype=np.int64)
                    keys = []
            if keys:
                yield np.asarray(keys, dtype=np.int64)

        return cls(count, make)


def chunked(seq: list, size: int) -> Iterator[list]:
    """Yield ``seq`` in contiguous slices of at most ``size`` items.

    The request-side twin of :meth:`KeyStream.chunks`: the batch
    pipeline (``repro.sim.batch``) walks request lists chunk-at-a-time
    so its numpy intermediates stay O(chunk), not O(run).
    """
    if size <= 0:
        raise ValueError("chunk size must be positive")
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


def range_spans(
    starts: KeyStream, span: int, universe: int
) -> Iterator[tuple[int, int]]:
    """[R1, R2] BETWEEN windows from a stream of start keys.

    Chunked twin of :func:`~repro.workloads.keygen.range_queries` given
    the same Zipf start stream.
    """
    hi_cap = universe - 1
    for block in starts.chunks():
        for s in block.tolist():
            yield s, min(hi_cap, s + span)


__all__ = ["DEFAULT_CHUNK", "KeyStream", "chunked", "range_spans"]
