"""Run orchestration and result metrics.

:func:`simulate` drives a memory system over a workload's walk requests,
times the traces on the event engine, and bundles the metrics every
experiment consumes: makespan, average walk latency, miss rate, DRAM
energy/traffic, and the working-set fraction of Fig. 16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.mem.stats import CacheStats, DRAMStats
from repro.obs.histogram import Histogram
from repro.obs.registry import Registry
from repro.obs.tracer import Tracer
from repro.params import SimParams
from repro.sim.memsys import MemorySystem


class WalkRequest(NamedTuple):
    """One unit of DSA work: walk ``index`` for ``key``, then compute.

    ``data_address``/``data_bytes`` describe the leaf data-object fetch
    (identical across cache designs — the caches only target the index).
    ``compute_cycles`` is the application compute per walk (Table 2's
    Ops/Compute divided by tile issue width).
    """

    index: Any
    key: int
    compute_cycles: int = 0
    data_address: int | None = None
    data_bytes: int = 64
    #: When set, the request is a range scan [key, scan_hi]: the walk to
    #: ``key`` is followed by a leaf stream through ``scan_hi``.
    scan_hi: int | None = None


@dataclass
class RunResult:
    """Everything the benchmarks report about one (memsys, workload) run."""

    name: str
    makespan: int
    num_walks: int
    total_walk_cycles: int
    dram: DRAMStats
    cache_stats: CacheStats | None
    total_index_blocks: int
    short_circuited: int = 0
    full_hits: int = 0
    nodes_visited: int = 0
    start_levels: list[int] = field(default_factory=list)
    walk_latencies: list[int] = field(default_factory=list)
    bandwidth_utilization: float = 0.0
    #: Distinct index blocks fetched from DRAM per window of walks,
    #: averaged, over the total index blocks (secondary locality metric).
    windowed_working_set: float = 0.0
    #: Index-region DRAM block fetches this run actually performed.
    index_dram_accesses: int = 0
    #: Index-region DRAM block fetches a streaming (cache-less) DSA would
    #: perform on the same requests — the Fig. 16 denominator.
    baseline_index_accesses: int = 0
    #: Observability: counter-registry snapshot (None when tracing off).
    counters: dict[str, int | float] | None = None
    #: Observability: the tracer holding buffered events (None when off).
    tracer: Tracer | None = None
    #: Walk-latency distribution (populated when latencies were recorded:
    #: ``record_latencies=True`` or tracing enabled).
    latency_hist: Histogram | None = None
    #: Probe-depth distribution: nodes visited per walk (always populated;
    #: identical with tracing on or off).
    depth_hist: Histogram | None = None
    #: Fault-injection & resilience ledger (repro.faults.FaultStats
    #: as a dict); None on fault-free runs, keeping to_dict byte-identical
    #: to the pre-fault-layer serialization.
    faults: dict[str, int] | None = None

    @property
    def avg_walk_latency(self) -> float:
        if self.num_walks == 0:
            return 0.0
        return self.total_walk_cycles / self.num_walks

    @property
    def miss_rate(self) -> float:
        return self.cache_stats.miss_rate if self.cache_stats else 1.0

    @property
    def working_set_fraction(self) -> float:
        """Fig. 16: fraction of the index's walk traffic served by DRAM.

        1.0 for a streaming DSA (every node touch is a DRAM fetch); caches
        shrink it by serving touches on-chip, and METAL shrinks it further
        by eliminating touches outright (short-circuits).
        """
        if self.baseline_index_accesses == 0:
            return 0.0
        return min(1.0, self.index_dram_accesses / self.baseline_index_accesses)

    @property
    def dram_energy_fj(self) -> float:
        return self.dram.energy_fj

    def speedup_vs(self, baseline: "RunResult") -> float:
        if self.makespan == 0:
            return float("inf")
        return baseline.makespan / self.makespan

    def latency_percentiles(self) -> dict[str, int] | None:
        """p50/p90/p99/max walk latency, or None when not recorded."""
        if self.latency_hist is None or self.latency_hist.count == 0:
            return None
        hist = self.latency_hist
        return {
            "p50": hist.percentile(50),
            "p90": hist.percentile(90),
            "p99": hist.percentile(99),
            "max": hist.max,
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable summary (for machine-readable reports)."""
        return {
            "system": self.name,
            "makespan": self.makespan,
            "num_walks": self.num_walks,
            "avg_walk_latency": self.avg_walk_latency,
            "miss_rate": self.miss_rate,
            "working_set_fraction": self.working_set_fraction,
            "short_circuited": self.short_circuited,
            "full_hits": self.full_hits,
            "nodes_visited": self.nodes_visited,
            "dram": {
                "accesses": self.dram.accesses,
                "reads": self.dram.reads,
                "writes": self.dram.writes,
                "energy_fj": self.dram.energy_fj,
                "bytes_moved": self.dram.bytes_moved,
                "row_hits": self.dram.row_hits,
                "row_misses": self.dram.row_misses,
            },
            "cache": (
                {
                    "accesses": self.cache_stats.accesses,
                    "hits": self.cache_stats.hits,
                    "misses": self.cache_stats.misses,
                    "insertions": self.cache_stats.insertions,
                    "evictions": self.cache_stats.evictions,
                    "bypasses": self.cache_stats.bypasses,
                }
                if self.cache_stats is not None
                else None
            ),
            "index_dram_accesses": self.index_dram_accesses,
            "bandwidth_utilization": self.bandwidth_utilization,
            "total_walk_cycles": self.total_walk_cycles,
            "total_index_blocks": self.total_index_blocks,
            "baseline_index_accesses": self.baseline_index_accesses,
            "windowed_working_set": self.windowed_working_set,
            **(
                {"latency": {**self.latency_hist.to_dict(),
                             "state": self.latency_hist.state()}}
                if self.latency_hist is not None and self.latency_hist.count
                else {}
            ),
            **(
                {"probe_depth": {**self.depth_hist.to_dict(),
                                 "state": self.depth_hist.state()}}
                if self.depth_hist is not None and self.depth_hist.count
                else {}
            ),
            **({"counters": self.counters} if self.counters is not None else {}),
            **({"faults": self.faults} if self.faults is not None else {}),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict` (JSON round-trip safe).

        Derived quantities (``avg_walk_latency``, ``miss_rate``,
        ``working_set_fraction``, histogram percentiles) are recomputed
        from the restored state, so ``from_dict(d).to_dict() == d`` holds
        byte-for-byte. Raw per-walk lists (``walk_latencies``,
        ``start_levels``) and the live tracer do not survive serialization;
        the latency distribution survives via the histogram state.
        """
        dram_d = data["dram"]
        dram = DRAMStats(
            reads=dram_d["reads"],
            writes=dram_d["writes"],
            row_hits=dram_d["row_hits"],
            row_misses=dram_d["row_misses"],
            energy_fj=dram_d["energy_fj"],
            bytes_moved=dram_d["bytes_moved"],
        )
        cache_d = data.get("cache")
        cache = (
            CacheStats(
                accesses=cache_d["accesses"],
                hits=cache_d["hits"],
                misses=cache_d["misses"],
                insertions=cache_d["insertions"],
                evictions=cache_d["evictions"],
                bypasses=cache_d["bypasses"],
            )
            if cache_d is not None
            else None
        )
        latency_d = data.get("latency")
        depth_d = data.get("probe_depth")
        counters = data.get("counters")
        faults = data.get("faults")
        return cls(
            name=data["system"],
            makespan=data["makespan"],
            num_walks=data["num_walks"],
            total_walk_cycles=data["total_walk_cycles"],
            dram=dram,
            cache_stats=cache,
            total_index_blocks=data["total_index_blocks"],
            short_circuited=data["short_circuited"],
            full_hits=data["full_hits"],
            nodes_visited=data["nodes_visited"],
            bandwidth_utilization=data["bandwidth_utilization"],
            windowed_working_set=data["windowed_working_set"],
            index_dram_accesses=data["index_dram_accesses"],
            baseline_index_accesses=data["baseline_index_accesses"],
            counters=dict(counters) if counters is not None else None,
            faults=dict(faults) if faults is not None else None,
            latency_hist=(
                Histogram.from_state(latency_d["state"]) if latency_d else None
            ),
            depth_hist=(
                Histogram.from_state(depth_d["state"]) if depth_d else None
            ),
        )


def simulate(
    memsys: MemorySystem,
    requests: list[WalkRequest],
    sim: SimParams | None = None,
    total_index_blocks: int = 0,
    timed: bool = True,
    record_latencies: bool = False,
    tracer: Tracer | None = None,
    registry: Registry | None = None,
    walks: dict | None = None,
) -> RunResult:
    """Run a workload through a memory system and time it.

    The functional pass (trace generation + cache state) happens in request
    order into one columnar access stream; the engine then times it with
    walker-context overlap and bank contention (``Engine.run_batch``).
    ``timed=False`` uses the cheap functional timing. The pipeline itself
    is :func:`repro.sim.batch.simulate_batched`.

    Observability: when ``sim.trace`` is set (or a ``tracer`` is passed), a
    :class:`Tracer` and :class:`Registry` are wired through the memory
    system, engine, DRAM, and crossbar; the result carries the tracer plus
    a counter snapshot. With tracing off (the default) the engine binds no
    hooks and the hot paths see only a ``NULL_TRACER.enabled`` check.

    ``walks`` is the workload's walk memo (``Workload.walks``): pass it
    when ``requests`` walk that workload's own indexes, and every run
    over the workload resolves each (index, key) walk once. It never
    changes a result; without it the memo lasts one run.
    """
    from repro.sim.batch import simulate_batched  # avoid an import cycle

    sim = sim or memsys.sim
    if tracer is None and sim.trace:
        tracer = Tracer(capacity=sim.trace_buffer)
    if tracer is not None:
        registry = registry or Registry()
        memsys.attach_obs(tracer, registry)
    # Fault injection: an injector exists only for a non-empty plan, so
    # ``faults=None`` and an all-zero-rate plan take identical code paths
    # (and produce byte-identical results) by construction.
    injector = None
    if sim.faults is not None and not sim.faults.is_empty:
        from repro.faults import FaultInjector

        injector = FaultInjector(sim.faults)
        memsys.attach_faults(injector)
        if tracer is not None:
            injector.attach_obs(registry)
    return simulate_batched(
        memsys,
        requests,
        sim,
        total_index_blocks=total_index_blocks,
        timed=timed,
        record_latencies=record_latencies,
        tracer=tracer,
        registry=registry,
        injector=injector,
        walks=walks,
    )
