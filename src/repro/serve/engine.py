"""Open-loop serving simulation: client -> load balancer -> N tiles.

The topology is feed-forward with FIFO stations, so the simulation is an
exact sequential sweep over the merged arrival stream (no event heap
needed): requests reach the balancer in arrival order, the balancer is a
single FIFO server with deterministic dispatch cost, and each tile is a
single FIFO server whose per-request service time comes from the tile
backend (:mod:`repro.sim.tile_backend`) or, for the analytical oracle
configuration, a fixed constant. Dispatch times are nondecreasing, so
per-tile ``busy_until`` bookkeeping reproduces the event-driven schedule
exactly.

Balancer policies:

* ``round_robin``  — tiles in dispatch order, blind to backlog.
* ``least_loaded`` — the tile with the least outstanding work (in time
  units, so a slow tile's queue weighs more), ties to the lowest id.

Every request accrues generation time, client->balancer latency,
balancer queueing + dispatch, balancer->tile latency, tile queueing, the
tile's simulated walk service time, and the response latency; the
end-to-end latency histograms (p50/p90/p99) come from the existing
:class:`repro.obs.histogram.Histogram` machinery, and the optional
completion time series from :func:`repro.obs.series.request_series`.

With ``ServeSpec.trace`` set, every request additionally records its
span tree (:class:`repro.obs.spans.RequestSpan`): the seven hops listed
above as contiguous child spans whose durations sum exactly to the
recorded end-to-end latency, with ``service`` spans carrying the
backend walk ordinal they replay (the link into the sim-side walk-span
profiler). Tracing off is the default and leaves the result payload
byte-identical to pre-span builds — ``repro report
--verify-trace-overhead`` holds the layer to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.histogram import Histogram
from repro.obs.series import Series, request_series
from repro.obs.spans import RequestSpan, SpanLog
from repro.serve.arrivals import merged_arrivals, population_size
from repro.serve.spec import ServeSpec

#: Percentile precision: 2^-7 < 0.8% relative error, tight enough for
#: the 5% oracle tolerances.
_SIGNIFICANT_BITS = 7


@dataclass
class TileLoad:
    """One tile's accounting over the run."""

    tile: int
    requests: int = 0
    busy_ns: int = 0
    #: Completion time of the tile's last service (0 if never used).
    last_done_ns: int = 0

    def utilization(self, horizon_ns: int) -> float:
        if horizon_ns <= 0:
            return 0.0
        return self.busy_ns / horizon_ns


@dataclass
class ServeResult:
    """Everything the serving layer reports about one :class:`ServeSpec` run.

    All fields are stored explicitly (no recomputation on restore), so
    ``from_dict(to_dict(r)).to_dict() == to_dict(r)`` holds byte for byte
    across the serial, pooled, and cached exec paths.
    """

    workload: str
    system: str
    balancer: str
    load: float
    #: Realized active-user count (Poisson draw or the fixed mean).
    users: int
    offered: int
    completed: int
    duration_ms: int
    #: Last tile service completion — the service's busy horizon.
    makespan_ns: int
    #: Completions per second over the busy horizon.
    throughput_rps: float
    #: Mean tile utilization (busy time / busy horizon).
    utilization: float
    latency: Histogram
    lb_wait: Histogram
    tile_wait: Histogram
    service: Histogram
    tiles: list[TileLoad] = field(default_factory=list)
    timeline: Series | None = None
    #: Request span trees (ServeSpec.trace); absent keys keep untraced
    #: payloads byte-identical to pre-span builds.
    spans: SpanLog | None = None

    @staticmethod
    def _hist_dict(hist: Histogram) -> dict[str, Any]:
        return {**hist.to_dict(), "state": hist.state()}

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable summary; the exec-layer payload body."""
        return {
            "workload": self.workload,
            "system": self.system,
            "balancer": self.balancer,
            "load": self.load,
            "users": self.users,
            "offered": self.offered,
            "completed": self.completed,
            "duration_ms": self.duration_ms,
            "makespan_ns": self.makespan_ns,
            "throughput_rps": self.throughput_rps,
            "utilization": self.utilization,
            "latency_ns": self._hist_dict(self.latency),
            "lb_wait_ns": self._hist_dict(self.lb_wait),
            "tile_wait_ns": self._hist_dict(self.tile_wait),
            "service_ns": self._hist_dict(self.service),
            "tiles": [
                {
                    "tile": t.tile,
                    "requests": t.requests,
                    "busy_ns": t.busy_ns,
                    "last_done_ns": t.last_done_ns,
                    "utilization": t.utilization(self.makespan_ns),
                }
                for t in self.tiles
            ],
            **(
                {"timeline": {"columns": self.timeline.columns,
                              "rows": self.timeline.rows}}
                if self.timeline is not None
                else {}
            ),
            **(
                {"spans": self.spans.to_dict()}
                if self.spans is not None
                else {}
            ),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServeResult":
        """Inverse of :meth:`to_dict` (JSON round-trip safe)."""
        timeline_d = data.get("timeline")
        return cls(
            workload=data["workload"],
            system=data["system"],
            balancer=data["balancer"],
            load=data["load"],
            users=data["users"],
            offered=data["offered"],
            completed=data["completed"],
            duration_ms=data["duration_ms"],
            makespan_ns=data["makespan_ns"],
            throughput_rps=data["throughput_rps"],
            utilization=data["utilization"],
            latency=Histogram.from_state(data["latency_ns"]["state"]),
            lb_wait=Histogram.from_state(data["lb_wait_ns"]["state"]),
            tile_wait=Histogram.from_state(data["tile_wait_ns"]["state"]),
            service=Histogram.from_state(data["service_ns"]["state"]),
            tiles=[
                TileLoad(tile=t["tile"], requests=t["requests"],
                         busy_ns=t["busy_ns"], last_done_ns=t["last_done_ns"])
                for t in data["tiles"]
            ],
            timeline=(
                Series("serve_timeline", list(timeline_d["columns"]),
                       [list(row) for row in timeline_d["rows"]])
                if timeline_d is not None
                else None
            ),
            spans=(
                SpanLog.from_dict(data["spans"])
                if data.get("spans") is not None
                else None
            ),
        )

    def percentiles(self) -> dict[str, int]:
        """p50/p90/p99 end-to-end latency in nanoseconds."""
        return {
            "p50": self.latency.percentile(50),
            "p90": self.latency.percentile(90),
            "p99": self.latency.percentile(99),
        }


def _service_source(spec: ServeSpec):
    """(service_ns, walk_index, mean_ns) for the spec's backend.

    ``walk_index(tile, k)`` names the backend walk ordinal a service
    span replays (the span <-> walk-profiler link); the fixed backend
    has no backing walks, so it always answers -1.
    """
    if spec.backend == "fixed":
        fixed = spec.service_ns
        no_walk = lambda tile, k: -1
        speedups = spec.tile_speedups
        if speedups:
            scaled = [max(1, round(fixed / s)) for s in speedups]
            return (lambda tile, k: scaled[tile]), no_walk, float(fixed)
        return (lambda tile, k: fixed), no_walk, float(fixed)

    from repro.sim.tile_backend import build_service_model

    model = build_service_model(
        spec.workload, spec.system, spec.scale, spec.seed, spec.tiles
    )
    speedups = spec.tile_speedups or (1.0,) * spec.tiles
    return (lambda tile, k: model.service_ns(tile, k, speedups[tile])), \
        model.walk_index, model.mean_ns


def simulate_serve(spec: ServeSpec) -> ServeResult:
    """Run one open-loop serving simulation to drain."""
    users = population_size(spec.users, spec.seed, spec.population)
    arrivals = merged_arrivals(
        spec.seed, users, spec.rate_per_user_ns(), spec.duration_ns()
    )
    service_of, walk_of, _ = _service_source(spec)

    latency = Histogram(_SIGNIFICANT_BITS)
    lb_wait_h = Histogram(_SIGNIFICANT_BITS)
    tile_wait_h = Histogram(_SIGNIFICANT_BITS)
    service_h = Histogram(_SIGNIFICANT_BITS)
    tiles = [TileLoad(tile=i) for i in range(spec.tiles)]
    busy_until = [0] * spec.tiles
    served = [0] * spec.tiles

    round_robin = spec.balancer == "round_robin"
    n_tiles = spec.tiles
    lb_free = 0
    dispatched = 0
    completions: list[tuple[int, int]] = []
    #: Span recording is opt-in; the untraced loop touches nothing here,
    #: keeping spans-off results byte-identical to pre-span builds.
    span_rows: list[RequestSpan] | None = [] if spec.trace else None

    for t_gen, _user in arrivals:
        t_lb_in = t_gen + spec.client_lb_ns
        t_lb_start = t_lb_in if t_lb_in >= lb_free else lb_free
        lb_wait_h.record(t_lb_start - t_lb_in)
        lb_free = t_lb_start + spec.lb_service_ns
        t_tile_in = lb_free + spec.lb_tile_ns

        if round_robin:
            tile = dispatched % n_tiles
        else:
            # Least outstanding work in time units at dispatch.
            tile = 0
            best = busy_until[0] - t_tile_in
            if best < 0:
                best = 0
            for i in range(1, n_tiles):
                backlog = busy_until[i] - t_tile_in
                if backlog < 0:
                    backlog = 0
                if backlog < best:
                    best = backlog
                    tile = i
        dispatched += 1

        k = served[tile]
        svc = service_of(tile, k)
        served[tile] += 1
        t_svc_start = t_tile_in if t_tile_in >= busy_until[tile] \
            else busy_until[tile]
        tile_wait_h.record(t_svc_start - t_tile_in)
        service_h.record(svc)
        t_done = t_svc_start + svc
        busy_until[tile] = t_done

        stats = tiles[tile]
        stats.requests += 1
        stats.busy_ns += svc
        stats.last_done_ns = t_done

        e2e = t_done + spec.tile_client_ns - t_gen
        latency.record(e2e)
        completions.append((t_done + spec.tile_client_ns, e2e))

        if span_rows is not None:
            span_rows.append(RequestSpan(
                rid=dispatched - 1, user=_user, tile=tile,
                walk=walk_of(tile, k), start=t_gen, latency=e2e,
                hops=(spec.client_lb_ns, t_lb_start - t_lb_in,
                      spec.lb_service_ns, spec.lb_tile_ns,
                      t_svc_start - t_tile_in, svc, spec.tile_client_ns),
            ))

    makespan = max((t.last_done_ns for t in tiles), default=0)
    offered = len(arrivals)
    throughput = offered / (makespan / 1e9) if makespan else 0.0
    utilization = (
        sum(t.utilization(makespan) for t in tiles) / n_tiles if makespan
        else 0.0
    )
    timeline = None
    if spec.timeline_windows > 0 and completions:
        timeline = request_series(completions, windows=spec.timeline_windows)

    return ServeResult(
        workload=spec.workload,
        system=spec.system,
        balancer=spec.balancer,
        load=spec.load,
        users=users,
        offered=offered,
        completed=offered,
        duration_ms=spec.duration_ms,
        makespan_ns=makespan,
        throughput_rps=throughput,
        utilization=utilization,
        latency=latency,
        lb_wait=lb_wait_h,
        tile_wait=tile_wait_h,
        service=service_h,
        tiles=tiles,
        timeline=timeline,
        spans=SpanLog(requests=span_rows) if span_rows is not None else None,
    )


def execute_serve(spec: ServeSpec) -> dict[str, Any]:
    """Exec-worker entry point: the payload beside ``op: "serve"``."""
    return {"op": "serve", "data": simulate_serve(spec).to_dict(),
            "extras": {}}
