"""ServeSpec — a frozen, canonically-hashed description of one serving run.

The serving layer models the DSA + IX-cache simulator as the per-tile
backend of an online service: a seeded Poisson user population feeds a
client -> load balancer -> N-tile topology, and every request accrues
generation time, queueing delay at the balancer and its tile, and the
tile's simulated walk latency.

A :class:`ServeSpec` is pure data (JSON scalars plus one tuple of
floats), serialized to the same canonical JSON form that
:class:`repro.exec.spec.RunSpec` uses, so serving runs flow through the
exec layer's dedup, process pool, and content-addressed
:class:`~repro.exec.store.ResultStore` unchanged: the executor and store
only ever call ``digest()``/``canonical_dict()``/``label()`` and hash the
frozen dataclass, and the worker dispatches on ``op == "serve"``. Two
specs that mean the same serving run always hash the same; a serve spec
can never collide with a plain simulation spec because its canonical
form carries different field names and ``"op": "serve"``.

All serving-layer times are integer **nanoseconds** (the tile backend
converts DSA cycles at :data:`repro.sim.tile_backend.CLOCK_MHZ`), except
``duration_ms`` and the per-user request rate, which stay in human units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.frozen import FrozenSpec

#: Load-balancer policies (see repro.serve.engine).
BALANCERS: tuple[str, ...] = ("round_robin", "least_loaded")
#: User-population modes: "poisson" draws the active-user count from a
#: Poisson(users) distribution; "fixed" uses exactly ``users`` users.
POPULATIONS: tuple[str, ...] = ("poisson", "fixed")
#: Tile service-time backends: "sim" replays walk latencies from one
#: simulator run; "fixed" serves every request in ``service_ns`` exactly
#: (the M/D/1 oracle configuration).
BACKENDS: tuple[str, ...] = ("sim", "fixed")


@dataclass(frozen=True)
class ServeSpec(FrozenSpec):
    """One open-loop serving simulation, ready to hash, ship, and cache."""

    #: Registry workload backing the tiles (also used by backend="fixed"
    #: purely as a label).
    workload: str
    #: Memory system each tile runs (one METAL instance per tile).
    system: str = "metal"
    #: Workload scale of the per-tile backend simulation.
    scale: float = 0.05
    #: Master seed: population draw, per-user arrival streams.
    seed: int = 0
    #: Worker dispatch key; fixed for this spec type.
    op: str = "serve"
    #: Mean number of active users.
    users: int = 32
    #: Mean requests per minute per active user.
    requests_per_min: float = 60.0
    #: Offered-load multiplier on the aggregate arrival rate — the knob
    #: the saturation sweep turns.
    load: float = 1.0
    #: Arrival-generation horizon; the simulation runs to drain.
    duration_ms: int = 1_000
    population: str = "poisson"
    #: Number of tiles behind the balancer.
    tiles: int = 4
    balancer: str = "round_robin"
    #: Per-tile service-speed multipliers (skewed tiles); () = all 1.0.
    tile_speedups: tuple[float, ...] = ()
    backend: str = "sim"
    #: Deterministic per-request service time for backend="fixed".
    service_ns: int = 0
    #: One-way client -> balancer network latency.
    client_lb_ns: int = 40_000
    #: Balancer dispatch cost per request (its own FIFO service time).
    #: Small by default so the tiles, not the balancer, saturate first;
    #: raise it to study a dispatch-bound service.
    lb_service_ns: int = 10
    #: One-way balancer -> tile network latency.
    lb_tile_ns: int = 10_000
    #: One-way tile -> client response latency.
    tile_client_ns: int = 40_000
    #: When > 0, the result carries a completion time series with this
    #: many windows (repro.obs.series.request_series).
    timeline_windows: int = 0
    #: Record a per-request span tree (repro.obs.spans.SpanLog) on the
    #: result. Off by default; with tracing off the ServeResult payload
    #: is byte-identical to an untraced run (``repro report
    #: --verify-trace-overhead`` pins this).
    trace: bool = False

    def __post_init__(self) -> None:
        if self.op != "serve":
            raise ValueError(f"ServeSpec.op must be 'serve', got {self.op!r}")
        if self.balancer not in BALANCERS:
            raise ValueError(
                f"balancer must be one of {BALANCERS}, got {self.balancer!r}")
        if self.population not in POPULATIONS:
            raise ValueError(
                f"population must be one of {POPULATIONS}, "
                f"got {self.population!r}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.tiles < 1:
            raise ValueError("tiles must be >= 1")
        if self.users < 1:
            raise ValueError("users must be >= 1")
        if not self.requests_per_min > 0:
            raise ValueError("requests_per_min must be > 0")
        if not self.load > 0:
            raise ValueError("load must be > 0")
        if self.duration_ms < 1:
            raise ValueError("duration_ms must be >= 1")
        if self.backend == "fixed" and self.service_ns < 1:
            raise ValueError("backend='fixed' needs service_ns >= 1")
        if self.tile_speedups:
            if len(self.tile_speedups) != self.tiles:
                raise ValueError(
                    f"tile_speedups needs {self.tiles} entries, "
                    f"got {len(self.tile_speedups)}")
            if any(not s > 0 for s in self.tile_speedups):
                raise ValueError("tile_speedups must all be > 0")
        for name in ("client_lb_ns", "lb_service_ns", "lb_tile_ns",
                     "tile_client_ns", "service_ns", "timeline_windows"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def make(cls, workload: str, **kwargs: Any) -> "ServeSpec":
        """Build a spec, normalizing sequence arguments to canonical tuples."""
        speedups: Sequence[float] | None = kwargs.get("tile_speedups")
        if speedups is not None:
            kwargs["tile_speedups"] = tuple(float(s) for s in speedups)
        return cls(workload=workload, **kwargs)

    def duration_ns(self) -> int:
        return self.duration_ms * 1_000_000

    def rate_per_user_ns(self) -> float:
        """Per-user arrival rate in requests per nanosecond."""
        return self.requests_per_min * self.load / 60e9

    def label(self) -> str:
        """Short human-readable tag for failure reports and logs."""
        return (f"serve:{self.workload}/{self.system}@{self.scale:g}"
                f"x{self.load:g}s{self.seed}")
