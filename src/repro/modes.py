"""dbworkload-style run modes over the exec + serve layers.

Three drivers, mirroring the run modes of cockroachdb/dbworkload (the
exemplar CLI for paper-style load studies):

* :func:`find_max_rate` (``--max-rate``) — binary-search the offered-load
  multiplier for the highest rate the fleet sustains (utilization and
  optional p99-SLO bounds), one :class:`~repro.serve.spec.ServeSpec`
  probe per step.
* :func:`run_schedule` (``--schedule``) — ramp/step offered-load
  profiles, one serve cell per phase.
* :func:`replay_trace` (``pipe``) — replay a captured walk trace
  (``trace_io`` JSONL, gzip ok) through any memory system via a
  :class:`~repro.exec.spec.RunSpec`.

Every probe/phase is an ordinary frozen spec submitted through the
:class:`~repro.exec.executor.Executor`, so results dedup, parallelize,
and land in the content-addressed store like any bench cell. The drivers
themselves are deterministic arithmetic over spec payloads — re-running
a mode with the same arguments emits the same spec digests and is served
entirely from the warm cache (``tests/test_modes.py`` pins this).

Probe loads are quantized to 6 significant digits before entering a
spec: the digest must not depend on float noise in the bisection.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import gate
from repro.bench.format import render_table
from repro.bench.runner import reject_unknown_systems
from repro.bench.serve import add_serving_arguments, calibrated_rpm
from repro.exec import Executor, default_executor
from repro.exec.spec import RunSpec, trace_digest
from repro.serve.spec import ServeSpec

#: Bisection steps after the initial bracket probes; 7 steps resolve the
#: load multiplier to under 1% of the bracket width.
DEFAULT_ITERS = 7
#: A probe is "sustainable" when mean tile utilization stays below this.
DEFAULT_MAX_UTIL = 0.9


def _q6(value: float) -> float:
    """Quantize to 6 significant digits (stable spec-digest floats)."""
    return float(f"{value:.6g}")


@dataclass
class ProbePoint:
    """One evaluated offered-load multiplier."""

    load: float
    offered: int
    throughput_rps: float
    p99_ns: int
    utilization: float
    sustainable: bool

    @classmethod
    def from_payload(
        cls, load: float, data: dict[str, Any],
        max_util: float, slo_p99_ns: int | None,
    ) -> "ProbePoint":
        p99 = int(data["latency_ns"]["p99"])
        util = float(data["utilization"])
        ok = util <= max_util and (slo_p99_ns is None or p99 <= slo_p99_ns)
        return cls(
            load=load,
            offered=int(data["offered"]),
            throughput_rps=float(data["throughput_rps"]),
            p99_ns=p99,
            utilization=util,
            sustainable=ok,
        )

    def to_dict(self) -> dict[str, Any]:
        return dict(vars(self))


@dataclass
class MaxRateResult:
    """Outcome of a ``--max-rate`` search."""

    workload: str
    system: str
    scale: float
    seed: int
    users: int
    tiles: int
    requests_per_min: float
    max_util: float
    slo_p99_ns: int | None
    #: Highest sustainable load multiplier found (None: even the lower
    #: bracket violated the bounds).
    max_load: float | None
    #: Aggregate sustained request rate at ``max_load`` (requests/sec,
    #: offered: users x rpm x load / 60).
    max_rate_rps: float | None
    #: Measured throughput at ``max_load``.
    throughput_rps: float | None
    probes: list[ProbePoint] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        data = {k: v for k, v in vars(self).items() if k != "probes"}
        data["probes"] = [p.to_dict() for p in self.probes]
        return data


def find_max_rate(
    workload: str = "scan",
    system: str = "metal",
    scale: float = 0.05,
    seed: int = 0,
    users: int = 32,
    tiles: int = 4,
    requests_per_min: float | None = None,
    duration_ms: int = 5,
    balancer: str = "round_robin",
    lo: float = 0.1,
    hi: float = 2.0,
    iters: int = DEFAULT_ITERS,
    max_util: float = DEFAULT_MAX_UTIL,
    slo_p99_ns: int | None = None,
    executor: Executor | None = None,
) -> MaxRateResult:
    """Binary-search the throughput ceiling of a serving topology.

    Brackets ``[lo, hi]`` in offered-load multipliers, probes both ends,
    then bisects ``iters`` times toward the highest load whose mean tile
    utilization stays within ``max_util`` (and p99 within ``slo_p99_ns``
    when given). With the default calibrated rate, ``load=1.0`` is the
    queueing-theory capacity, so the ceiling lands just below it.
    """
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
    executor = executor or default_executor()
    if requests_per_min is None:
        requests_per_min = calibrated_rpm(
            workload, system, scale, seed, users, tiles)

    probes: list[ProbePoint] = []

    def probe(load: float) -> ProbePoint:
        load = _q6(load)
        spec = ServeSpec.make(
            workload, system=system, scale=scale, seed=seed, users=users,
            requests_per_min=requests_per_min, load=load,
            duration_ms=duration_ms, tiles=tiles, balancer=balancer,
        )
        data = executor.run([spec])[0].check().data
        point = ProbePoint.from_payload(load, data, max_util, slo_p99_ns)
        probes.append(point)
        return point

    lo_point = probe(lo)
    hi_point = probe(hi)
    if not lo_point.sustainable:
        best = None
    elif hi_point.sustainable:
        best = hi_point
    else:
        best = lo_point
        left, right = lo_point.load, hi_point.load
        for _ in range(iters):
            mid = _q6((left + right) / 2)
            if mid in (left, right):
                break
            point = probe(mid)
            if point.sustainable:
                best, left = point, mid
            else:
                right = mid
    return MaxRateResult(
        workload=workload, system=system, scale=scale, seed=seed,
        users=users, tiles=tiles, requests_per_min=requests_per_min,
        max_util=max_util, slo_p99_ns=slo_p99_ns,
        max_load=best.load if best else None,
        max_rate_rps=(
            _q6(users * requests_per_min * best.load / 60.0) if best else None
        ),
        throughput_rps=best.throughput_rps if best else None,
        probes=probes,
    )


# --------------------------------------------------------------------- #
# Schedules
# --------------------------------------------------------------------- #

def parse_schedule(profile: str) -> tuple[float, ...]:
    """Offered-load phases from a profile string.

    ``ramp:<lo>:<hi>:<n>`` — n loads evenly spaced from lo to hi;
    ``step:<l1>,<l2>,...`` — the listed loads in order.
    """
    kind, _, rest = profile.partition(":")
    try:
        if kind == "ramp":
            lo_s, hi_s, n_s = rest.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
            if n < 2:
                raise ValueError("ramp needs n >= 2")
            return tuple(
                _q6(lo + (hi - lo) * i / (n - 1)) for i in range(n)
            )
        if kind == "step":
            loads = tuple(_q6(float(x)) for x in rest.split(","))
            if not loads:
                raise ValueError("step needs at least one load")
            return loads
    except ValueError as err:
        raise ValueError(f"bad schedule profile {profile!r}: {err}") from None
    raise ValueError(
        f"bad schedule profile {profile!r}: expected 'ramp:lo:hi:n' or "
        "'step:l1,l2,...'"
    )


@dataclass
class SchedulePhase:
    """One phase of an offered-load schedule."""

    phase: int
    load: float
    offered: int
    completed: int
    throughput_rps: float
    p50_ns: int
    p99_ns: int
    utilization: float

    @classmethod
    def from_payload(cls, phase: int, load: float, data: dict[str, Any]) -> "SchedulePhase":
        lat = data["latency_ns"]
        return cls(
            phase=phase, load=load,
            offered=int(data["offered"]), completed=int(data["completed"]),
            throughput_rps=float(data["throughput_rps"]),
            p50_ns=int(lat["p50"]), p99_ns=int(lat["p99"]),
            utilization=float(data["utilization"]),
        )

    def to_dict(self) -> dict[str, Any]:
        return dict(vars(self))


@dataclass
class ScheduleResult:
    """Phase-by-phase outcome of a ``--schedule`` run."""

    workload: str
    system: str
    scale: float
    seed: int
    users: int
    tiles: int
    requests_per_min: float
    profile: str
    phases: list[SchedulePhase] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        data = {k: v for k, v in vars(self).items() if k != "phases"}
        data["phases"] = [p.to_dict() for p in self.phases]
        return data


def run_schedule(
    workload: str = "scan",
    system: str = "metal",
    profile: str = "ramp:0.2:1.2:6",
    scale: float = 0.05,
    seed: int = 0,
    users: int = 32,
    tiles: int = 4,
    requests_per_min: float | None = None,
    duration_ms: int = 5,
    balancer: str = "round_robin",
    executor: Executor | None = None,
) -> ScheduleResult:
    """Run an offered-load profile phase by phase.

    Each phase draws fresh arrivals (``seed + phase``), so a step profile
    that revisits a load still models a distinct interval of traffic;
    identical (load, phase) pairs across reruns hit the warm cache.
    """
    executor = executor or default_executor()
    if requests_per_min is None:
        requests_per_min = calibrated_rpm(
            workload, system, scale, seed, users, tiles)
    loads = parse_schedule(profile)
    specs = [
        ServeSpec.make(
            workload, system=system, scale=scale, seed=seed + phase,
            users=users, requests_per_min=requests_per_min, load=load,
            duration_ms=duration_ms, tiles=tiles, balancer=balancer,
        )
        for phase, load in enumerate(loads)
    ]
    outcomes = executor.run(specs)
    result = ScheduleResult(
        workload=workload, system=system, scale=scale, seed=seed,
        users=users, tiles=tiles, requests_per_min=requests_per_min,
        profile=profile,
    )
    result.phases = [
        SchedulePhase.from_payload(phase, load, outcome.check().data)
        for phase, (load, outcome) in enumerate(zip(loads, outcomes))
    ]
    return result


# --------------------------------------------------------------------- #
# Trace pipe replay
# --------------------------------------------------------------------- #

def replay_trace(
    workload: str,
    trace_path: str | Path,
    system: str = "metal",
    scale: float = 0.25,
    seed: int = 0,
    executor: Executor | None = None,
    **spec_kwargs: Any,
) -> dict[str, Any]:
    """Replay a captured walk trace through one memory system.

    Builds the named workload for its index substrate, re-binds the
    trace's ``index0, index1, ...`` names to it, and simulates the
    trace's request sequence instead of the workload's own. Returns the
    run payload (``{"op": "run", "result": ..., "extras": ...}``). The
    spec carries the trace's content hash, so cached results are keyed
    by trace bytes.
    """
    executor = executor or default_executor()
    spec = RunSpec.make(
        workload, system, scale=scale, seed=seed,
        trace_path=str(trace_path), trace_sha256=trace_digest(trace_path),
        **spec_kwargs,
    )
    return executor.run([spec])[0].check().payload


# --------------------------------------------------------------------- #
# Formatting
# --------------------------------------------------------------------- #

def format_max_rate(result: MaxRateResult) -> str:
    """Probe table + verdict, ready to print."""
    rows = [
        [
            f"{p.load:g}", p.offered, f"{p.throughput_rps / 1e6:.3f}M",
            round(p.p99_ns / 1e3, 1), f"{p.utilization * 100:.1f}%",
            "yes" if p.sustainable else "no",
        ]
        for p in sorted(result.probes, key=lambda p: p.load)
    ]
    table = render_table(
        ["load", "offered", "thr rps", "p99 us", "util", "sustainable"], rows
    )
    if result.max_load is None:
        verdict = (
            f"no sustainable load in bracket (util bound "
            f"{result.max_util:.0%} violated at the lower edge)"
        )
    else:
        verdict = (
            f"max sustainable load {result.max_load:g} "
            f"(~{result.max_rate_rps:,.0f} req/s offered, "
            f"{result.throughput_rps / 1e6:.3f}M rps completed)"
        )
    return f"{table}\n{verdict}"


def format_schedule(result: ScheduleResult) -> str:
    """Phase table for a schedule run, ready to print."""
    rows = [
        [
            p.phase, f"{p.load:g}", p.offered, p.completed,
            f"{p.throughput_rps / 1e6:.3f}M",
            round(p.p50_ns / 1e3, 1), round(p.p99_ns / 1e3, 1),
            f"{p.utilization * 100:.1f}%",
        ]
        for p in result.phases
    ]
    return render_table(
        ["phase", "load", "offered", "done", "thr rps", "p50 us", "p99 us", "util"],
        rows,
    )


# --------------------------------------------------------------------- #
# python -m repro run
# --------------------------------------------------------------------- #

def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_serving_arguments(parser)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--max-rate", action="store_true",
                      help="binary-search the highest sustainable "
                           "offered load of the serving topology")
    mode.add_argument("--schedule", type=str, default=None,
                      metavar="PROFILE",
                      help="offered-load profile: 'ramp:lo:hi:n' or "
                           "'step:l1,l2,...' (one serve phase per load)")
    mode.add_argument("--pipe", type=str, default=None, metavar="TRACE",
                      help="replay a captured walk trace (trace_io JSONL, "
                           ".gz ok) through --system at the --scale it was "
                           "captured at")
    parser.add_argument("--lo", type=float, default=0.1,
                        help="--max-rate bracket lower bound (load "
                             "multiplier)")
    parser.add_argument("--hi", type=float, default=2.0,
                        help="--max-rate bracket upper bound")
    parser.add_argument("--iters", type=int, default=DEFAULT_ITERS,
                        help="--max-rate bisection steps after the bracket")
    parser.add_argument("--max-util", type=float, default=DEFAULT_MAX_UTIL,
                        help="sustainable-utilization bound for --max-rate")
    parser.add_argument("--slo-p99-ns", type=int, default=None,
                        help="optional p99 latency bound for --max-rate")


def run(args: argparse.Namespace) -> int:
    from repro.exec.executor import ExecError
    from repro.sim.metrics import RunResult
    from repro.workloads.trace_io import TraceTruncated

    if reject_unknown_systems((args.system,)):
        return 2
    if args.schedule:
        try:
            parse_schedule(args.schedule)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    serving = dict(
        workload=args.workload, system=args.system, scale=args.scale,
        seed=args.seed, users=args.users, tiles=args.tiles,
        requests_per_min=args.rpm, duration_ms=args.duration_ms,
        balancer=args.balancer,
    )
    with Executor(jobs=args.jobs) as executor:
        if args.max_rate:
            result = find_max_rate(
                lo=args.lo, hi=args.hi, iters=args.iters,
                max_util=args.max_util, slo_p99_ns=args.slo_p99_ns,
                executor=executor, **serving,
            )
            print(format_max_rate(result))
            payload = result.to_dict()
        elif args.schedule:
            result = run_schedule(profile=args.schedule, executor=executor,
                                  **serving)
            print(format_schedule(result))
            payload = result.to_dict()
        else:
            try:
                payload = replay_trace(
                    args.workload, args.pipe, system=args.system,
                    scale=args.scale, seed=args.seed, executor=executor,
                )
            except ExecError as exc:
                # Worker-side failure: the original error is the last
                # line of the captured traceback.
                reason = str(exc).strip().splitlines()[-1]
                print(f"trace replay failed: {reason}", file=sys.stderr)
                return 1
            except (TraceTruncated, ValueError, KeyError, OSError) as exc:
                print(f"trace replay failed: {exc}", file=sys.stderr)
                return 1
            replay = RunResult.from_dict(payload["result"])
            pct = replay.latency_percentiles() or {}
            print(render_table(
                ["walks", "makespan", "avg walk lat", "p99", "miss",
                 "working set"],
                [[replay.num_walks, replay.makespan, replay.avg_walk_latency,
                  pct.get("p99", "-"), replay.miss_rate,
                  replay.working_set_fraction]],
                f"trace replay: {args.pipe} -> {args.workload}/"
                f"{args.system}@{args.scale:g}",
            ))
    if args.json:
        gate.write(args.json, payload)
        print(f"run data written to {args.json}")
    return 0


__all__ = [
    "DEFAULT_ITERS",
    "DEFAULT_MAX_UTIL",
    "MaxRateResult",
    "ProbePoint",
    "SchedulePhase",
    "ScheduleResult",
    "find_max_rate",
    "format_max_rate",
    "format_schedule",
    "parse_schedule",
    "replay_trace",
    "run_schedule",
]
