"""Walk-span reconstruction and cycle attribution over the event stream.

The tracer gives raw events; this module turns them into *answers*: for
every walk, where did its cycles go? The engine's timing is a serial
chain per walk, so the walk's measured latency decomposes exactly into
six components:

* ``probe``      — SRAM probe service cycles (IX-cache tag match,
  address-cache probes, FA CAM match).
* ``xbar_stall`` — cycles queued on a crossbar port before the probe
  was serviced.
* ``dram_queue`` — cycles queued on a busy DRAM bank before the access
  started (bank occupancy is the bandwidth ceiling).
* ``dram_hit``   — row-buffer-hit service cycles.
* ``dram_miss``  — row-buffer-miss service cycles (activate + read).
* ``compute``    — in-node search plus application compute.

Reconstruction folds ``walk_start``/``walk_end`` pairs into
:class:`WalkSpan` records; the probe/compute components ride on
``walk_end`` (accumulated by the engine as it advances the walk), while
the DRAM and crossbar components come from the walk-attributed
``dram_access``/``xbar_stall`` events. :func:`reconcile` checks the
exact-reconciliation invariant — per-walk attribution sums equal the
walk's measured latency, and summed spans equal the ``RunResult``
aggregates, cycle for cycle — so the profiler can be trusted as a
measurement instrument, not an estimate.

Span reconstruction needs the *complete* event stream: a ring buffer
that dropped events cannot reconcile (``strict=True`` raises; the CLI
suggests a bigger ``--buffer``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.histogram import Histogram
from repro.obs.tracer import Tracer

#: Attribution categories, in display order. Sums to walk latency.
ATTRIBUTION_CATEGORIES = (
    "probe", "xbar_stall", "dram_queue", "dram_hit", "dram_miss", "compute",
)

#: Human labels for the report tables.
CATEGORY_LABELS = {
    "probe": "cache probe / tag match",
    "xbar_stall": "crossbar stall",
    "dram_queue": "DRAM bank queueing",
    "dram_hit": "DRAM row-buffer hit",
    "dram_miss": "DRAM row-buffer miss",
    "compute": "search + compute",
    # Extra category present only on fault-injected runs (repro.faults):
    # walker retry backoff cycles. Fault-free profiles never carry it, so
    # their attribution tables stay byte-identical.
    "fault_retry": "fault retry backoff",
}


@dataclass(slots=True)
class WalkSpan:
    """One walk's reconstructed lifetime on the engine timeline."""

    walk: int
    ctx: int
    start: int
    end: int
    latency: int
    attribution: dict[str, int] = field(default_factory=dict)

    @property
    def attributed(self) -> int:
        return sum(self.attribution.values())

    @property
    def unattributed(self) -> int:
        """Cycles the components do not explain (must be 0)."""
        return self.latency - self.attributed


@dataclass
class Profile:
    """Aggregated view of one traced run's walk spans."""

    spans: list[WalkSpan]
    totals: dict[str, int]
    makespan: int
    dropped: int = 0

    @property
    def num_walks(self) -> int:
        return len(self.spans)

    @property
    def total_walk_cycles(self) -> int:
        return sum(span.latency for span in self.spans)

    @property
    def total_attributed(self) -> int:
        return sum(self.totals.values())

    def categories(self) -> tuple[str, ...]:
        """The six fixed categories plus any extras this run carries.

        Extras (``fault_retry`` on fault-injected runs) are appended in
        sorted order; fault-free runs report exactly the fixed tuple.
        """
        extras = sorted(set(self.totals) - set(ATTRIBUTION_CATEGORIES))
        return ATTRIBUTION_CATEGORIES + tuple(extras)

    def fractions(self) -> dict[str, float]:
        """Per-category share of total walk cycles."""
        categories = self.categories()
        denom = self.total_walk_cycles
        if denom == 0:
            return {category: 0.0 for category in categories}
        return {
            category: self.totals.get(category, 0) / denom
            for category in categories
        }

    def latency_histogram(self, significant_bits: int = 5) -> Histogram:
        return Histogram.from_values(
            (span.latency for span in self.spans), significant_bits
        )

    def to_dict(self) -> dict:
        hist = self.latency_histogram()
        return {
            "num_walks": self.num_walks,
            "makespan": self.makespan,
            "total_walk_cycles": self.total_walk_cycles,
            "attribution": {c: self.totals.get(c, 0)
                            for c in self.categories()},
            "fractions": self.fractions(),
            "latency": hist.to_dict(),
        }


def build_profile(tracer: Tracer, strict: bool = True) -> Profile:
    """Fold the event stream into per-walk spans with attribution.

    ``strict`` refuses a tracer whose ring buffer dropped events — the
    spans would silently miss components and fail reconciliation.
    """
    if strict and tracer.dropped:
        raise ValueError(
            f"trace buffer dropped {tracer.dropped} events; profile needs "
            f"the complete stream (raise the tracer capacity)"
        )
    starts: dict[int, tuple[int, int]] = {}
    spans: dict[int, WalkSpan] = {}
    dram: dict[int, dict[str, int]] = {}
    for event in tracer:
        if event.phase != "engine":
            continue
        kind = event.kind
        if kind == "walk_start":
            starts[event.walk] = (event.ts, event.args.get("ctx", 0))
        elif kind == "walk_end":
            ts, ctx = starts.get(event.walk, (None, event.args.get("ctx", 0)))
            latency = event.args.get("latency", 0)
            span = WalkSpan(
                walk=event.walk,
                ctx=event.args.get("ctx", ctx),
                start=event.ts - latency if ts is None else ts,
                end=event.ts,
                latency=latency,
            )
            span.attribution = {
                "probe": event.args.get("probe", 0),
                "xbar_stall": 0,
                "dram_queue": 0,
                "dram_hit": 0,
                "dram_miss": 0,
                "compute": event.args.get("compute", 0),
            }
            if "retry" in event.args:
                # Fault-injected runs only: walker retry backoff cycles
                # (the re-fetch DRAM cycles ride on dram_access events).
                span.attribution["fault_retry"] = event.args["retry"]
            spans[event.walk] = span
        elif kind == "dram_access" and event.walk >= 0:
            # Demand access issued by a walk (prefetches carry walk=-1:
            # they consume bandwidth but never stall the walker).
            bucket = dram.setdefault(
                event.walk, {"dram_queue": 0, "dram_hit": 0, "dram_miss": 0}
            )
            bucket["dram_queue"] += event.args.get("wait", 0)
            if event.args.get("row_hit"):
                bucket["dram_hit"] += event.args.get("latency", 0)
            else:
                bucket["dram_miss"] += event.args.get("latency", 0)
        elif kind == "xbar_stall" and event.walk >= 0:
            bucket = dram.setdefault(
                event.walk, {"dram_queue": 0, "dram_hit": 0, "dram_miss": 0}
            )
            bucket["xbar_stall"] = (
                bucket.get("xbar_stall", 0) + event.args.get("wait", 0)
            )
    for walk, components in dram.items():
        span = spans.get(walk)
        if span is None:
            continue
        for category, cycles in components.items():
            span.attribution[category] += cycles
    ordered = [spans[walk] for walk in sorted(spans)]
    totals = {category: 0 for category in ATTRIBUTION_CATEGORIES}
    makespan = 0
    for span in ordered:
        makespan = max(makespan, span.end)
        for category, cycles in span.attribution.items():
            totals[category] = totals.get(category, 0) + cycles
    return Profile(spans=ordered, totals=totals, makespan=makespan,
                   dropped=tracer.dropped)


def reconcile(profile: Profile, result) -> list[str]:
    """Exact-reconciliation check against ``RunResult`` aggregates.

    Returns a list of human-readable discrepancies; empty means the
    profile accounts for every cycle the simulator measured.
    """
    problems: list[str] = []
    if profile.num_walks != result.num_walks:
        problems.append(
            f"span count {profile.num_walks} != num_walks {result.num_walks}"
        )
    total = profile.total_walk_cycles
    if total != result.total_walk_cycles:
        problems.append(
            f"summed span latencies {total} != total_walk_cycles "
            f"{result.total_walk_cycles}"
        )
    if profile.makespan != result.makespan:
        problems.append(
            f"last span end {profile.makespan} != makespan {result.makespan}"
        )
    if profile.total_attributed != total:
        problems.append(
            f"attributed cycles {profile.total_attributed} != summed span "
            f"latencies {total}"
        )
    bad = [span for span in profile.spans if span.unattributed != 0]
    if bad:
        worst = max(bad, key=lambda s: abs(s.unattributed))
        problems.append(
            f"{len(bad)} walks with unattributed cycles (worst: walk "
            f"{worst.walk} off by {worst.unattributed})"
        )
    return problems


def format_profile(profile: Profile, title: str | None = None) -> str:
    """Attribution table + latency percentiles, ready to print."""
    from repro.bench.format import render_table

    fractions = profile.fractions()
    rows = [
        [CATEGORY_LABELS.get(c, c), profile.totals.get(c, 0),
         f"{fractions[c] * 100:.1f}%"]
        for c in profile.categories()
    ]
    rows.append(["total", profile.total_walk_cycles, "100.0%"])
    lines = [render_table(
        ["component", "cycles", "share"],
        rows,
        title or "Cycle attribution (per-walk critical path)",
    )]
    hist = profile.latency_histogram()
    if hist.count:
        lines.append("")
        lines.append(render_table(
            ["metric", "cycles"],
            [["p50", hist.percentile(50)], ["p90", hist.percentile(90)],
             ["p99", hist.percentile(99)], ["max", hist.max],
             ["mean", round(hist.mean, 1)]],
            "Walk latency distribution",
        ))
    return "\n".join(lines)
