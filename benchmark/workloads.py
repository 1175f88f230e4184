"""The benchmark's four workloads, each measured in its own process.

``benchmark/run.py`` starts this file once per workload::

    python3 benchmark/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--tiny] [--write-expected]

and reads the one JSON line it prints. With ``--trace 0`` the process
times set-up several times, then runs the workload's cells round-robin
for ``--seconds`` (always at least one full pass) with tracing off, and
reports host times scaled to a reference host speed (``HostSpeed``).
With ``--trace 1`` it runs set-up and each cell of a sequence twice in
a row, untraced and then under the span recorder (``spans.py``), and
reports per-layer self times, unscaled, and the modeled counters.

Every cell's payload is hashed. A cell must hash the same on every
repetition, and at seed 0 (full size) it must match
``benchmark/expected.json``; workload invariants hold for every seed.
A cell run that breaks any of these counts as failed. The printed JSON
carries every cell's digest, so two commits can be compared output for
output at any seed.
"""

from __future__ import annotations

import argparse
import array
import collections
import dataclasses
import gc
import hashlib
import itertools
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# Workloads call repro through module attributes (``suite.build_workload``,
# not a name imported here) so the span recorder's patches reach them.
from repro.bench import dynamic, format as bench_format, runner  # noqa: E402
from repro.bench import serve as serve_bench  # noqa: E402
from repro.exec import Executor, ResultStore, RunSpec  # noqa: E402
from repro.exec import worker  # noqa: E402
from repro.sim import metrics as sim_metrics  # noqa: E402
from repro.sim import tile_backend  # noqa: E402
from repro.workloads import suite  # noqa: E402

from spans import LAYER_METRICS, SpanRecorder  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
SCALE_BASELINE_PATH = ROOT / "BENCH_scale.json"

#: Fig. 18 geomeans the paper reports for METAL (printed beside the
#: simulated speedups, not gated).
PAPER_SPEEDUP = {"stream": 7.8, "xcache": 2.4}

#: Modeled counters and simulated results reported by the traced run.
#: A workload that does not produce one reports 0.
MODELED = (
    "sim_speedup_vs_stream",
    "sim_speedup_vs_xcache",
    "sim_miss_rate_metal",
    "sim_p99_us_load0.8",
    "sim_max_load",
    "ix_cache.hit_rate",
    "ix_cache.evictions",
    "ix_cache.bypasses",
    "metal.nodes_per_walk",
    "dram.accesses",
    "dram.row_hit_rate",
    "dram.bandwidth_utilization",
    "engine.makespan_cycles",
    "engine.avg_walk_cycles",
    "serve.utilization_load0.8",
    "serve.tile_wait_p99_us_load0.8",
)


class CellOutput(NamedTuple):
    #: Simulated operations the cell performed (walks, requests, mix ops).
    ops: int
    #: JSON payload: hashed for the output check, read for counters.
    payload: dict[str, Any]


def digest(payload: dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #

class Workload:
    """Set-up state plus a fixed list of independently timed cells."""

    name = ""
    #: Set-up runs per measured process; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch

    def release(self) -> None:
        """Drop set-up state so the next set-up starts cold."""

    def setup(self) -> None:
        raise NotImplementedError

    def cells(self) -> list[str]:
        raise NotImplementedError

    def run_cell(self, label: str) -> CellOutput:
        raise NotImplementedError

    def invariants(self, payloads: dict[str, dict]) -> list[tuple[str, str]]:
        """Checks that hold for every seed: ``(cell, problem)`` pairs."""
        return []

    def modeled(self, payloads: dict[str, dict]) -> dict[str, float]:
        """Simulated results and modeled counters (names in MODELED)."""
        return {}

    def notes(self, modeled: dict[str, float]) -> list[str]:
        """Unchecked annotations printed beside the metrics."""
        return []


def run_counters(runs: list[dict], metal: list[dict]) -> dict[str, float]:
    """Modeled counters from RunResult dicts: METAL-only cache counters
    over ``metal``, DRAM and engine counters over every run."""
    caches = [r["cache"] for r in metal if r["cache"] is not None]
    metal_walks = sum(r["num_walks"] for r in metal)
    walks = sum(r["num_walks"] for r in runs)
    row_hits = sum(r["dram"]["row_hits"] for r in runs)
    row_total = row_hits + sum(r["dram"]["row_misses"] for r in runs)
    makespan = sum(r["makespan"] for r in runs)
    return {
        "sim_miss_rate_metal": _ratio(sum(c["misses"] for c in caches),
                                      sum(c["accesses"] for c in caches)),
        "ix_cache.hit_rate": _ratio(sum(c["hits"] for c in caches),
                                    sum(c["accesses"] for c in caches)),
        "ix_cache.evictions": sum(c["evictions"] for c in caches),
        "ix_cache.bypasses": sum(c["bypasses"] for c in caches),
        "metal.nodes_per_walk": _ratio(
            sum(r["nodes_visited"] for r in metal), metal_walks),
        "dram.accesses": sum(r["dram"]["accesses"] for r in runs),
        "dram.row_hit_rate": _ratio(row_hits, row_total),
        "dram.bandwidth_utilization": _ratio(
            sum(r["bandwidth_utilization"] * r["makespan"] for r in runs),
            makespan),
        "engine.makespan_cycles": makespan,
        "engine.avg_walk_cycles": _ratio(
            sum(r["total_walk_cycles"] for r in runs), walks),
    }


class Fig18Matrix(Workload):
    """All Table-2 workloads x every memory system, as ``report`` runs
    them: one RunSpec per cell through a serial Executor with a fresh
    ResultStore, after the workloads are prebuilt and donated."""

    name = "fig18_matrix"
    # The first set-ups in a process run up to twice as long as later
    # ones, so three would let one slow start set the median.
    setup_repeats = 9

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        super().__init__(seed, tiny, scratch)
        self.scale = 0.01 if tiny else 0.1
        self._stores = itertools.count()

    def release(self) -> None:
        worker.clear_workload_memo()

    def setup(self) -> None:
        prebuilt = {
            name: suite.build_workload(name, scale=self.scale, seed=self.seed)
            for name in suite.WORKLOAD_BUILDERS
        }
        Executor(jobs=1).seed_workloads(prebuilt)

    def cells(self) -> list[str]:
        return [f"{name}/{system}" for name in suite.WORKLOAD_BUILDERS
                for system in runner.SYSTEMS]

    def run_cell(self, label: str) -> CellOutput:
        name, system = label.split("/")
        # A fresh store per cell keeps every repetition a cold-cache run.
        store = ResultStore(self.scratch / f"store{next(self._stores)}")
        [outcome] = Executor(jobs=1, store=store).run(
            [RunSpec(workload=name, system=system, scale=self.scale,
                     seed=self.seed)])
        run = outcome.require()
        return CellOutput(run.num_walks, outcome.payload["result"])

    def invariants(self, payloads: dict[str, dict]) -> list[tuple[str, str]]:
        return [(label, "no walks") for label, run in payloads.items()
                if run["num_walks"] < 1 or run["makespan"] < 1]

    def modeled(self, payloads: dict[str, dict]) -> dict[str, float]:
        names = suite.WORKLOAD_BUILDERS
        metal = [payloads[f"{name}/metal"] for name in names]
        counters = run_counters(list(payloads.values()), metal)
        for base in PAPER_SPEEDUP:
            counters[f"sim_speedup_vs_{base}"] = bench_format.geomean([
                payloads[f"{name}/{base}"]["makespan"] / max(1, m["makespan"])
                for name, m in zip(names, metal)
            ])
        return counters

    def notes(self, modeled: dict[str, float]) -> list[str]:
        notes = []
        for base, paper in PAPER_SPEEDUP.items():
            value = modeled[f"sim_speedup_vs_{base}"]
            notes.append(
                f"sim_speedup_vs_{base} {value:.3f}x at scale {self.scale:g}; "
                f"paper Fig. 18 {paper}x; relative error "
                f"{(value - paper) / paper:+.1%}")
        return notes


class PaperScan(Workload):
    """The scale sweep's 1x point: the 10M-key SoA scan index, 20 000
    walks, streaming DSA against METAL, without tracemalloc."""

    name = "paper_scan"
    systems = ("stream", "metal")

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        super().__init__(seed, tiny, scratch)
        self.frac = 0.001 if tiny else 1.0
        self.max_walks = 1_000 if tiny else 20_000
        self.workload = None

    def release(self) -> None:
        self.workload = None

    def setup(self) -> None:
        self.workload = suite.build_workload(
            "scan", scale=self.frac * suite.PAPER_SCALE, seed=self.seed,
            backend="soa", max_walks=self.max_walks)
        self.workload.total_index_blocks  # counted once, as the sweep does

    def cells(self) -> list[str]:
        return list(self.systems)

    def run_cell(self, label: str) -> CellOutput:
        workload = self.workload
        sim = workload.config.sim_params()
        memsys = runner.build_memsys(
            label, workload, workload.default_cache_bytes, sim)
        run = sim_metrics.simulate(
            memsys, workload.requests, sim, workload.total_index_blocks)
        return CellOutput(run.num_walks, run.to_dict())

    def invariants(self, payloads: dict[str, dict]) -> list[tuple[str, str]]:
        problems = [(label, f"{run['num_walks']} walks, want {self.max_walks}")
                    for label, run in payloads.items()
                    if run["num_walks"] != self.max_walks]
        if payloads["stream"]["miss_rate"] != 1.0:
            problems.append(("stream", "miss rate is not 1.0"))
        if not payloads["metal"]["miss_rate"] < 1.0:
            problems.append(("metal", "miss rate not below the stream baseline"))
        if self.seed == 0 and not self.tiny:
            problems.extend(self._match_scale_baseline(payloads))
        return problems

    def _match_scale_baseline(
            self, payloads: dict[str, dict]) -> list[tuple[str, str]]:
        baseline = json.loads(SCALE_BASELINE_PATH.read_text())
        point = next(p for p in baseline["points"] if p["frac"] == self.frac)
        return [
            (kind, f"{key} {payloads[kind][key]!r} != "
                   f"{SCALE_BASELINE_PATH.name} {want!r}")
            for kind, values in point["metrics"].items()
            for key, want in values.items()
            if payloads[kind][key] != want
        ]

    def modeled(self, payloads: dict[str, dict]) -> dict[str, float]:
        counters = run_counters(list(payloads.values()), [payloads["metal"]])
        counters["sim_speedup_vs_stream"] = (
            payloads["stream"]["makespan"]
            / max(1, payloads["metal"]["makespan"]))
        return counters


class ServeSweep(Workload):
    """The serving layer's saturation sweep: scan/METAL tiles at scale
    0.05, 512 users, 4 round-robin tiles. Set-up simulates the tile
    backend once (``calibrated_rpm``); each cell is one swept load."""

    name = "serve_sweep"
    setup_repeats = 15
    # The realized population is Poisson around this mean and sets the
    # request count: 512 users vary it by ~5% across seeds, 32 by ~25%.
    # The calibrated rate keeps the offered load, and so the request
    # volume, independent of the mean.
    users = 512
    tiles = 4
    scale = 0.05

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        super().__init__(seed, tiny, scratch)
        self.duration_ms = 1 if tiny else 10
        self.rpm = 0.0

    def release(self) -> None:
        tile_backend.clear_model_memo()
        worker.clear_workload_memo()

    def setup(self) -> None:
        self.rpm = serve_bench.calibrated_rpm(
            "scan", "metal", self.scale, self.seed, self.users, self.tiles)

    def cells(self) -> list[str]:
        return [f"load{load:g}" for load in serve_bench.DEFAULT_LOADS]

    def run_cell(self, label: str) -> CellOutput:
        curve = serve_bench.run_serve_sweep(
            "scan", "metal", loads=(float(label[4:]),), scale=self.scale,
            seed=self.seed, users=self.users, tiles=self.tiles,
            balancer="round_robin", duration_ms=self.duration_ms,
            requests_per_min=self.rpm, executor=Executor(jobs=1),
            keep_results=True)
        [data] = curve.results
        return CellOutput(data["completed"], data)

    def invariants(self, payloads: dict[str, dict]) -> list[tuple[str, str]]:
        return [
            (label, f"completed {data['completed']} of {data['offered']}")
            for label, data in payloads.items()
            if data["offered"] < 1 or data["completed"] != data["offered"]
        ]

    def modeled(self, payloads: dict[str, dict]) -> dict[str, float]:
        points = [serve_bench.ServePoint.from_payload(float(label[4:]), data)
                  for label, data in payloads.items()]
        points.sort(key=lambda p: p.load)
        limit = serve_bench.KNEE_FACTOR * max(1, points[0].p99)
        at = {p.load: p for p in points}[0.8]
        return {
            "sim_p99_us_load0.8": at.p99 / 1e3,
            "sim_max_load": max(p.load for p in points if p.p99 <= limit),
            "serve.utilization_load0.8": at.utilization,
            "serve.tile_wait_p99_us_load0.8": at.tile_wait_p99 / 1e3,
        }


class RwMix(Workload):
    """Inserts interleaved with lookups on a live B+tree: every walk is
    generated against a mutating index, one request at a time."""

    name = "rw_mix"
    setup_repeats = 15
    systems = ("stream", "address", "xcache", "metal_ix")
    read_fraction = 0.8
    cache_bytes = 8 * 1024

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        super().__init__(seed, tiny, scratch)
        self.records = 2_000 if tiny else 32_000
        self.ops = 500 if tiny else 8_000

    def setup(self) -> None:
        # The mix mutates its tree, so every cell builds its own and the
        # workload keeps no shared state. Set-up is that per-cell build:
        # the real mix cell (tree, key streams, memory system, engine)
        # with no operations.
        dynamic.mix_cell("metal_ix", self.records, 0, self.read_fraction,
                         self.cache_bytes, self.seed)

    def cells(self) -> list[str]:
        return list(self.systems)

    def run_cell(self, label: str) -> CellOutput:
        [result] = dynamic.run_dynamic_mix(
            num_records=self.records, num_ops=self.ops,
            read_fraction=self.read_fraction, cache_bytes=self.cache_bytes,
            seed=self.seed, kinds=(label,), executor=Executor(jobs=1))
        return CellOutput(self.ops, dataclasses.asdict(result))

    def invariants(self, payloads: dict[str, dict]) -> list[tuple[str, str]]:
        return [(label, "a lookup missed its key after an insert")
                for label, data in payloads.items()
                if not data["invalidations_survived"]]

    def modeled(self, payloads: dict[str, dict]) -> dict[str, float]:
        metal = payloads["metal_ix"]["makespan"]
        runs = payloads.values()
        return {
            "sim_speedup_vs_stream": payloads["stream"]["makespan"] / metal,
            "sim_speedup_vs_xcache": payloads["xcache"]["makespan"] / metal,
            "dram.accesses": sum(d["dram_accesses"] for d in runs),
            "engine.makespan_cycles": sum(d["makespan"] for d in runs),
            "engine.avg_walk_cycles": statistics.fmean(
                d["avg_walk_latency"] for d in runs),
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fig18Matrix, PaperScan, ServeSweep, RwMix)
}


# --------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------- #

#: Time of :func:`reference_loop` on the 2-vCPU host the bounds in
#: BENCHMARK.json were set on, when its neighbours were quiet.
REFERENCE_S = 0.012
#: Entries of the reference loop's table: 32 MiB of int64, far larger
#: than the 2 MiB per-core L2.
REFERENCE_TABLE_LEN = 1 << 22
#: Interval of the reference timer.
REFERENCE_EVERY_S = 0.25
#: A timed call is scaled by the reference samples taken from this long
#: before it starts until it ends.
REFERENCE_WINDOW_S = 0.5


def reference_loop(table: array.array, n: int = 32_000) -> int:
    """Fixed pure-Python work: interpreter arithmetic plus pseudo-random
    reads and writes of a table larger than the per-core caches, so, like
    the workloads' walks over their indexes, it feels contention for the
    shared cache and memory as well as for the core. Under a 2x slowdown
    a 32 MiB table tracked the workloads closer than a 2 MiB one. It
    keeps no object past one iteration: a loop that builds containers
    runs up to 45% slower once a simulation has fragmented the heap,
    which would let the program's own state move the reference."""
    mask = len(table) - 1
    acc = 0
    x = 12345
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i = (x >> 4) & mask
        acc ^= table[i]
        table[i] = x
    return acc


def wall_timed(fn: Callable[..., Any], *args: Any) -> tuple[float, Any]:
    """Host seconds of ``fn(*args)``, and its result."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


class HostSpeed:
    """Times the reference loop on a timer, also in the middle of a cell.

    The host the bounds were set on is shared. Its neighbours slow it by
    up to 2.5x, for seconds to minutes, and unevenly within one run.
    While the context is entered, a SIGALRM timer runs the loop every
    ``REFERENCE_EVERY_S``. :meth:`timed` subtracts the loop's own time
    from a call and scales what is left by ``REFERENCE_S`` over the
    median sample taken during the call (and ``REFERENCE_WINDOW_S``
    before it), which reports it in seconds of that host at its usual
    speed. The loop touches no ``repro`` code.
    """

    def __init__(self) -> None:
        #: (start, seconds) of each reference loop.
        self.samples: list[tuple[float, float]] = []
        self._table = array.array("q", range(REFERENCE_TABLE_LEN))
        self._busy = False
        self._previous: Any = signal.SIG_DFL

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S,
                         REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_: object) -> None:
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop(self._table)
            self.samples.append((start, time.perf_counter() - start))
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def timed(self, fn: Callable[..., Any], *args: Any) -> tuple[float, Any]:
        """Scaled host seconds of ``fn(*args)``, and its result."""
        if (not self.samples or time.perf_counter() - self.samples[-1][0]
                > REFERENCE_EVERY_S):
            self._sample()
        first = len(self.samples)
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        elapsed -= sum(s for _, s in self.samples[first:])
        window = [s for t, s in self.samples if t >= start - REFERENCE_WINDOW_S]
        return elapsed * REFERENCE_S / statistics.median(window), result

    def reference_ms(self) -> float:
        return statistics.median(s for _, s in self.samples) * 1e3

    def table_mb(self) -> float:
        """Memory the reference table holds, resident throughout."""
        return len(self._table) * self._table.itemsize / 2**20


# --------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------- #

class Checker:
    """Runs cells, times them, and checks every payload.

    ``attempted`` counts cell runs and ``failed`` the runs that broke a
    check. A run fails when it raises or hashes wrong; a broken workload
    invariant fails every run of its cell, since every run of a cell has
    the same payload.
    """

    def __init__(self, workload: Workload,
                 expected: dict[str, str] | None) -> None:
        self.workload = workload
        self.expected = expected
        #: Times one call: :func:`wall_timed` or :meth:`HostSpeed.timed`.
        self.timer: Callable[..., tuple[float, Any]] = wall_timed
        self.digests: dict[str, str] = {}
        self.payloads: dict[str, dict] = {}
        self.ops: dict[str, int] = {}
        self.runs: collections.Counter[str] = collections.Counter()
        self.bad: collections.Counter[str] = collections.Counter()
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        return sum(self.bad.values())

    def run(self, label: str) -> float | None:
        """Host seconds of one cell, or None when it failed."""
        self.runs[label] += 1
        try:
            elapsed, out = self.timer(self.workload.run_cell, label)
        except Exception:
            self._fail(label, f"raised\n{traceback.format_exc()}")
            return None
        got = digest(out.payload)
        first = self.digests.setdefault(label, got)
        if got != first:
            self._fail(label, "payload changed between repetitions")
        elif self.expected is not None and self.expected.get(label) != got:
            self._fail(label, "payload digest differs from expected.json")
        self.payloads[label] = out.payload
        self.ops[label] = out.ops
        return elapsed

    def _fail(self, label: str, problem: str) -> None:
        self.bad[label] += 1
        self.problems.append(f"{label}: {problem}")

    def fail_cell(self, label: str, problem: str) -> None:
        """Count every run of ``label`` as failed."""
        self.bad[label] = self.runs[label]
        self.problems.append(f"{label}: {problem}")

    def finish(self) -> dict[str, float]:
        """Apply the workload invariants; the modeled counters, or {}
        when some cell never produced a payload (its runs raised, and
        are already counted as failed)."""
        if len(self.payloads) < len(self.workload.cells()):
            return {}
        for label, problem in self.workload.invariants(self.payloads):
            self.fail_cell(label, problem)
        return self.workload.modeled(self.payloads)


def run_cells(checker: Checker, seconds: float) -> tuple[dict, list[str]]:
    """Run cells round-robin: one full pass, then more while the next
    cell's median wall time still fits in ``seconds``. Returns the times
    ``checker.timer`` measured, per cell, and the cells run in order."""
    labels = checker.workload.cells()
    times: dict[str, list[float]] = {label: [] for label in labels}
    walls: dict[str, list[float]] = {label: [] for label in labels}
    sequence: list[str] = []
    start = time.perf_counter()
    for i in itertools.count():
        label = labels[i % len(labels)]
        if i >= len(labels):
            estimate = statistics.median(walls[label])
            if time.perf_counter() - start + estimate > seconds:
                break
        began = time.perf_counter()
        elapsed = checker.run(label)
        walls[label].append(time.perf_counter() - began)
        sequence.append(label)
        if elapsed is not None:
            times[label].append(elapsed)
    return times, sequence


def release_cold(workload: Workload) -> None:
    """Drop set-up state so the next set-up starts cold."""
    workload.release()
    gc.collect()


def measure(workload: Workload, checker: Checker,
            seconds: float) -> tuple[dict, dict, HostSpeed]:
    """The untraced run: end-to-end metrics and their sample counts.
    Host times are scaled to the reference host speed (HostSpeed)."""
    with HostSpeed() as speed:
        checker.timer = speed.timed
        setups = []
        for _ in range(workload.setup_repeats):
            release_cold(workload)
            setups.append(speed.timed(workload.setup)[0])
        times, sequence = run_cells(checker, seconds)
    # Per-cell medians drop the slower first pass (cold caches and page
    # faults) once a cell has run three times.
    medians = {label: statistics.median(ts)
               for label, ts in times.items() if ts}
    metrics = {
        "ops_per_s": _ratio(sum(checker.ops[label] for label in medians),
                            sum(medians.values())),
        "setup_s": statistics.median(setups),
        # The reference table is the benchmark's, not the workload's.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                       - speed.table_mb(),
    }
    samples = {"ops_per_s": len(sequence), "setup_s": len(setups),
               "peak_rss_mb": 1}
    return metrics, samples, speed


def trace(workload: Workload, checker: Checker, seconds: float,
          out: Path) -> tuple[dict, dict, HostSpeed]:
    """The traced run: per-layer self times and modeled counters.

    A warm-up phase, with the reference timer on, picks the cell sequence
    (a third of ``seconds``, at least one pass). With the timer off, so
    that no reference loop lands in a span, one cold set-up and then each
    cell of the sequence run twice in a row: untraced, then as a root
    span with the recorder installed. ``trace_overhead`` so compares the
    same work at nearly the same moment, which a host whose speed drifts
    needs.
    """
    with HostSpeed() as speed:
        checker.timer = speed.timed
        release_cold(workload)
        workload.setup()
        _, sequence = run_cells(checker, seconds / 3)
    checker.timer = wall_timed
    recorder = SpanRecorder()

    def traced(name: str, fn: Callable[..., Any], *args: Any) -> None:
        recorder.install()
        try:
            recorder.span(name, fn, *args)
        finally:
            recorder.uninstall()

    release_cold(workload)
    untraced_s = wall_timed(workload.setup)[0]
    release_cold(workload)
    recorder.cell = "setup"
    traced("bench.setup", workload.setup)
    for n, label in enumerate(sequence):
        untraced_s += wall_timed(checker.run, label)[0]
        recorder.cell = f"{n}:{label}"
        traced("bench.cell", checker.run, label)
    recorder.write_chrome(out / f"{workload.name}.trace.json")

    wall_ns = sum(end - start for _, _, start, end, parent, _, _
                  in recorder.finished() if parent < 0)
    layer_ns = recorder.layer_self_ns()
    if abs(sum(layer_ns.values()) - wall_ns) > 1_000_000:
        for label in dict.fromkeys(sequence):
            checker.fail_cell(label, "per-layer self times do not sum to wall")
    metrics = {LAYER_METRICS[layer]: ns / 1e9 for layer, ns in layer_ns.items()}
    walks = recorder.outer_count("memsys.tracegen")
    requests = (sum(checker.ops[label] for label in sequence)
                if isinstance(workload, ServeSweep) else 0)
    metrics.update({
        "traced_wall_s": wall_ns / 1e9,
        "trace_overhead": wall_ns / 1e9 / untraced_s - 1,
        "memsys.walks": walks,
        "memsys.us_per_walk": _ratio(layer_ns["memsys.tracegen"] / 1e3, walks),
        "serve.requests": requests,
        "serve.ns_per_request": _ratio(layer_ns["serve.sweep"], requests),
    })
    metrics.update(dict.fromkeys(MODELED, 0))
    samples = dict.fromkeys(metrics, 1)
    samples.update(dict.fromkeys(LAYER_METRICS.values(), 0))
    for span in recorder.spans:
        samples[LAYER_METRICS[span[1]]] += 1
    return metrics, samples, speed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    compare = args.seed == 0 and not args.tiny
    if args.write_expected and not compare:
        parser.error("--write-expected needs seed 0 at full size")
    all_expected = json.loads(EXPECTED_PATH.read_text())
    expected = None
    if compare and not args.write_expected:
        expected = all_expected.get(args.workload, {})

    args.out.mkdir(parents=True, exist_ok=True)
    # A fresh directory: a leftover result store would turn cells into
    # cache hits.
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=args.out))
    workload = WORKLOADS[args.workload](args.seed, args.tiny, scratch)
    checker = Checker(workload, expected)
    try:
        if args.trace:
            metrics, samples, speed = trace(
                workload, checker, args.seconds, args.out)
        else:
            metrics, samples, speed = measure(workload, checker, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    modeled = checker.finish()
    reference_ms = speed.reference_ms()
    if args.trace:
        metrics.update(modeled)
        metrics["host.reference_ms"] = reference_ms
        samples["host.reference_ms"] = len(speed.samples)
    notes = [f"host reference loop {reference_ms:.2f} ms over "
             f"{len(speed.samples)} samples (calibration "
             f"{REFERENCE_S * 1e3:.2f} ms)"]
    if modeled:
        notes.extend(workload.notes(modeled))

    if args.write_expected:
        all_expected[args.workload] = dict(sorted(checker.digests.items()))
        EXPECTED_PATH.write_text(json.dumps(all_expected, indent=2) + "\n")

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems[:20],
        "notes": notes,
        "digests": dict(sorted(checker.digests.items())),
        "metrics": metrics,
        "samples": samples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
