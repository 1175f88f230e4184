"""Discrete-event engine multiplexing walker contexts over banked DRAM.

Each compute tile multiplexes several walker contexts (Section 3.2: "we
multiplex multiple walks on a single thread", yielding at long-latency
states). The engine models exactly that: walks are assigned round-robin to
``tiles x walker_contexts`` contexts; contexts advance one access at a time
in global ``(cycle, context)`` order, so independent walks overlap their
DRAM latencies (memory-level parallelism) while bank occupancy provides the
bandwidth ceiling.

The engine has one timed event loop, :meth:`Engine.run_batch`, over a
columnar access stream (:class:`TraceBatch`). Tracing and fault injection
are hooks in that loop (:class:`_Hooks`); on untraced, fault-free runs no
hook is bound and DRAM/crossbar timing runs inline.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.mem.dram import DRAM
from repro.mem.layout import Allocator
from repro.obs.tracer import NULL_TRACER
from repro.params import BLOCK_SIZE, SimParams
from repro.sim.noc import Crossbar


#: Kind codes of the columnar access stream: one small int per timed step
#: instead of an Access object.
K_DRAM = 0
K_PREFETCH = 1
K_SRAM = 2  # probe through a crossbar port
K_COMPUTE = 3
K_LOCAL = 4  # port-less SRAM probe: latency only, like compute
#: ``a2`` flag of a DRAM/prefetch block that continues the access of the
#: entry before it (accesses wider than one block are stored per block).
CONT = 2

# Event codes the loop uses on top of the stream's: a DRAM block with
# more blocks of the same access after it, and a step run by the hooks.
_E_MORE = 5
_E_HOOK = 6

#: Walks per vectorized event-preparation chunk, and blocks per
#: touched-block set update: both bound temporaries by a constant.
_PREP_WALKS = 2_048
_TOUCH_CHUNK = 1 << 16


@dataclass(slots=True)
class Access:
    """One timed step of a walk: a DRAM touch, an SRAM probe, or compute.

    ``port`` >= 0 routes an SRAM probe through the shared crossbar (port
    arbitration + occupancy); -1 means an uncontended local access.
    """

    kind: str  # 'dram' | 'dram_prefetch' | 'sram' | 'compute'
    address: int = 0
    nbytes: int = BLOCK_SIZE
    cycles: int = 0  # latency for 'sram' / 'compute'
    write: bool = False
    port: int = -1


@dataclass(slots=True)
class WalkTrace:
    """The access trace of one walk plus hit-path metadata."""

    key: int
    accesses: list[Access]
    start_level: int = 0
    nodes_visited: int = 0
    short_circuited: bool = False
    full_hit: bool = False


@dataclass(slots=True)
class EngineResult:
    """Aggregate timing of one engine run."""

    makespan: int = 0
    num_walks: int = 0
    total_walk_cycles: int = 0
    walk_latencies: list[int] = field(default_factory=list)

    @property
    def avg_walk_latency(self) -> float:
        if self.num_walks == 0:
            return 0.0
        return self.total_walk_cycles / self.num_walks


class TraceBatch:
    """Columnar access stream for one run, plus per-walk metadata.

    Parallel int arrays hold one entry per timed step: ``kinds`` is the
    K_* code, ``a1``/``a2`` the operands (address + write flag for DRAM,
    port + service cycles for SRAM, cycles for latency-only steps).
    ``offsets[i]:offsets[i+1]`` delimits walk ``i``. An access wider
    than one 64B block is stored as one entry per block; every block
    after the first carries the ``CONT`` flag, so the engine still
    issues the whole access as one event.
    """

    __slots__ = (
        "kinds", "a1", "a2", "offsets", "start_levels", "visits",
        "index_dram", "short_circuited", "full_hits", "nodes_visited",
        "data_base",
    )

    def __init__(self) -> None:
        self.kinds = array("b")
        self.a1 = array("q")
        self.a2 = array("q")
        self.offsets: list[int] = [0]
        self.start_levels: list[int] = []
        self.visits: list[int] = []
        self.index_dram = 0
        self.short_circuited = 0
        self.full_hits = 0
        self.nodes_visited = 0
        self.data_base = Allocator.DATA_BASE

    @classmethod
    def from_traces(cls, traces: list[WalkTrace]) -> "TraceBatch":
        """Columnarize WalkTraces, one walk each."""
        batch = cls()
        for trace in traces:
            batch.add_accesses(trace.accesses)
            batch.end_walk(
                trace.start_level, trace.nodes_visited,
                bool(trace.short_circuited), bool(trace.full_hit),
            )
        return batch

    @property
    def num_walks(self) -> int:
        return len(self.offsets) - 1

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only numpy views of the three columns (no copy).

        The batch cannot grow while a view is alive.
        """
        return (
            np.frombuffer(self.kinds, dtype=np.int8),
            np.frombuffer(self.a1, dtype=np.int64),
            np.frombuffer(self.a2, dtype=np.int64),
        )

    def add_blocks(self, kind: int, address: int, nbytes: int, write: int = 0) -> None:
        """Append one DRAM/prefetch access, one entry per 64B block."""
        self.kinds.append(kind)
        self.a1.append(address)
        self.a2.append(write)
        for offset in range(BLOCK_SIZE, nbytes, BLOCK_SIZE):
            self.kinds.append(kind)
            self.a1.append(address + offset)
            self.a2.append(write | CONT)

    def add_accesses(self, accesses: list[Access]) -> None:
        """Append one walk's accesses; counts its index-region DRAM ones."""
        kinds = self.kinds
        a1 = self.a1
        a2 = self.a2
        data_base = self.data_base
        index_dram = 0
        for access in accesses:
            kind = access.kind
            if kind == "dram":
                if access.address < data_base:
                    index_dram += 1
                self.add_blocks(
                    K_DRAM, access.address, access.nbytes,
                    1 if access.write else 0,
                )
            elif kind == "sram":
                if access.port >= 0:
                    kinds.append(K_SRAM)
                    a1.append(access.port)
                    a2.append(access.cycles)
                else:
                    kinds.append(K_LOCAL)
                    a1.append(access.cycles)
                    a2.append(0)
            elif kind == "dram_prefetch":
                self.add_blocks(K_PREFETCH, access.address, access.nbytes)
            else:  # compute
                kinds.append(K_COMPUTE)
                a1.append(access.cycles)
                a2.append(0)
        self.index_dram += index_dram

    def end_walk(
        self, start_level: int = 0, visited: int = 0,
        short: bool = False, full: bool = False,
    ) -> None:
        """Close the current walk and record its hit-path metadata."""
        self.offsets.append(len(self.kinds))
        self.start_levels.append(start_level)
        self.visits.append(visited)
        self.nodes_visited += visited
        if short:
            self.short_circuited += 1
        if full:
            self.full_hits += 1

    def finish_walk(
        self, request: Any, start_level: int, visited: int,
        short: bool, full: bool,
    ) -> None:
        """Close one walk: append its data/compute tail and metadata.

        The data-object fetch and compute step land after the index trace
        and are never counted as index DRAM traffic.
        """
        if request.data_address is not None:
            self.add_blocks(K_DRAM, request.data_address, request.data_bytes)
        if request.compute_cycles:
            self.kinds.append(K_COMPUTE)
            self.a1.append(request.compute_cycles)
            self.a2.append(0)
        self.end_walk(start_level, visited, short, full)


def _walk_sums(batch: TraceBatch, values: np.ndarray) -> list[int]:
    """Per-walk sums of one value per stream entry."""
    cum = np.concatenate(([0], np.cumsum(values)))
    offsets = np.asarray(batch.offsets, dtype=np.int64)
    return (cum[offsets[1:]] - cum[offsets[:-1]]).tolist()


class _Hooks:
    """Tracing and fault injection for one :meth:`Engine.run_batch` drain.

    Hooked runs route every DRAM, prefetch and crossbar step through
    ``DRAM.access``/``Crossbar.access``, where the trace and fault sites
    live, one call per access in global event order: the fault schedule
    cannot depend on whether tracing is on.
    """

    def __init__(self, engine: "Engine", batch: TraceBatch) -> None:
        self.tracer = engine.tracer
        self.tracing = self.tracer.enabled
        self.faults = engine.faults
        self.dram_access = engine.dram.access
        self.xbar_access = engine.xbar.access
        self.contexts = engine.contexts
        self.kinds = batch.kinds
        self.a1 = batch.a1
        self.a2 = batch.a2
        nw = batch.num_walks
        self.num_walks = nw
        self.retry = [0] * nw
        self.degraded = [False] * nw
        if self.tracing:
            # Walk attribution: SRAM probe service and compute cycles.
            # DRAM and crossbar components are carried by their own events.
            kinds, a1, a2 = batch.arrays()
            self.probe = _walk_sums(batch, np.where(
                kinds == K_SRAM, a2, np.where(kinds == K_LOCAL, a1, 0)
            ))
            self.compute = _walk_sums(batch, np.where(kinds == K_COMPUTE, a1, 0))
            for c in range(min(self.contexts, nw)):
                self.tracer.emit("walk_start", ts=0, phase="engine",
                                 walk=c, ctx=c)

    def step(self, i: int, now: int, walk: int) -> int:
        """Run the access whose first entry is ``i``; return its end."""
        kind = self.kinds[i]
        if self.tracing:
            # Prefetches never stall the walker, so they stay out of
            # per-walk attribution (walk = -1).
            self.tracer.walk = -1 if kind == K_PREFETCH else walk
        if kind == K_SRAM:
            return self.xbar_access(self.a1[i], now, self.a2[i])
        a1 = self.a1
        a2 = self.a2
        end = i + 1
        while end < len(a2) and self.kinds[end] == kind and a2[end] & CONT:
            end += 1
        blocks = a1[i:end]
        if kind == K_PREFETCH:
            # Bandwidth and bank occupancy only; never stalls the walker.
            for address in blocks:
                self.dram_access(address, now)
            return now
        write = bool(a2[i] & 1)
        for address in blocks:
            now = self.dram_access(address, now, write=write)
        faults = self.faults
        if faults is not None:
            fails = faults.walker_failures()
            if fails:
                now = self._retry(faults, blocks, write, now, fails, walk)
        return now

    def _retry(
        self, faults, blocks: list[int], write: bool, now: int,
        fails: int, walk: int,
    ) -> int:
        """Bounded retry-with-backoff for a transiently failed refill step.

        The walker context's fetch returned garbage ``fails`` times in a
        row: before re-fetch attempt ``i`` the context backs off
        ``walker_backoff_cycles << i`` cycles, then re-issues the access's
        DRAM blocks. Attempts within ``walker_retry_limit`` are clean
        retries; a step that exhausts the budget completes through one
        final degraded refetch and marks the walk degraded — the request
        always finishes, it is never dropped.
        """
        stats = faults.stats
        plan = faults.plan
        backoff = plan.walker_backoff_cycles
        for attempt in range(fails):
            pause = backoff << attempt
            now += pause
            stats.retry_backoff_cycles += pause
            self.retry[walk] += pause
            for address in blocks:
                now = self.dram_access(address, now, write=write)
        limit = plan.walker_retry_limit
        if fails > limit:
            stats.retries += limit
            stats.retries_exhausted += 1
            self.degraded[walk] = True
        else:
            stats.retries += fails
        return now

    def end_walk(self, ctx: int, walk: int, now: int, latency: int) -> None:
        faults = self.faults
        if faults is not None and self.degraded[walk]:
            faults.stats.walks_degraded += 1
        if not self.tracing:
            return
        # The ``retry`` component exists only on faulted runs so
        # fault-free traced output keeps its shape.
        extra = (
            {"retry": self.retry[walk], "degraded": self.degraded[walk]}
            if faults is not None else {}
        )
        self.tracer.emit("walk_end", ts=now, phase="engine", walk=walk,
                         ctx=ctx, latency=latency, probe=self.probe[walk],
                         compute=self.compute[walk], **extra)
        nxt = walk + self.contexts
        if nxt < self.num_walks:
            self.tracer.emit("walk_start", ts=now, phase="engine",
                             walk=nxt, ctx=ctx)


class Engine:
    """Times a batch of walk traces over one DRAM instance."""

    def __init__(self, params: SimParams | None = None, dram: DRAM | None = None) -> None:
        self.params = params or SimParams()
        self.dram = dram or DRAM(self.params.dram)
        self.xbar = Crossbar(self.params.xbar)
        self.tracer = NULL_TRACER
        #: Optional FaultInjector (repro.faults). None on fault-free runs.
        self.faults = None

    def attach_obs(self, tracer, registry=None) -> None:
        """Wire tracing through the engine, its DRAM, and its crossbar."""
        self.tracer = tracer
        self.dram.attach_obs(tracer, registry)
        self.xbar.attach_obs(tracer, registry)

    def attach_faults(self, injector) -> None:
        """Wire one FaultInjector through the engine, DRAM, and crossbar."""
        self.faults = injector
        self.dram.faults = injector
        self.xbar.faults = injector

    @property
    def contexts(self) -> int:
        return self.params.tiles * self.params.tile.walker_contexts

    def run(self, traces: list[WalkTrace], record_latencies: bool = False) -> EngineResult:
        """Timed run over WalkTraces: columnarize, then :meth:`run_batch`."""
        return self.run_batch(TraceBatch.from_traces(traces), record_latencies)

    def _events(
        self, batch: TraceBatch, hooked: bool
    ) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
        """Flatten the stream into the loop's per-event field lists.

        Returns ``(kind, x, y, pre, offsets)``. Latency-only entries
        touch no shared state (no bank, no port), so any that are not
        the last entry of their walk fold into ``pre``, a delay applied
        before the following event: that event still executes at its
        original cycle, in its original calendar bucket, so every
        DRAM/crossbar access keeps its exact global order. Unhooked, a
        DRAM event's ``x``/``y`` are its bank and row, a crossbar
        event's its port and service cycles. Hooked, every DRAM,
        prefetch and crossbar access is one ``_E_HOOK`` event whose
        ``x`` is its first stream entry. Folding never crosses a walk
        boundary, so the stream is prepared in walk-aligned chunks.
        """
        kinds_all, a1_all, a2_all = batch.arrays()
        walk_offsets = batch.offsets
        ports = self.xbar.params.ports
        ek: list[int] = []
        ex: list[int] = []
        ey: list[int] = []
        pre: list[int] = []
        offsets = [0]
        for w0 in range(0, batch.num_walks, _PREP_WALKS):
            w1 = min(w0 + _PREP_WALKS, batch.num_walks)
            lo = walk_offsets[w0]
            hi = walk_offsets[w1]
            off = np.asarray(walk_offsets[w0:w1 + 1], dtype=np.int64) - lo
            kinds = kinds_all[lo:hi]
            a1 = a1_all[lo:hi]
            is_last = np.zeros(hi - lo, dtype=bool)
            ends = off[1:]
            is_last[ends[ends > off[:-1]] - 1] = True
            cont = (kinds <= K_PREFETCH) & ((a2_all[lo:hi] & CONT) != 0)
            movable = (kinds >= K_COMPUTE) & ~is_last
            drop = movable | cont if hooked else movable
            keep = np.flatnonzero(~drop)
            pre_sum = np.cumsum(np.where(movable, a1, 0))
            pre_sum = np.concatenate(([0], pre_sum))[keep]
            pre += np.diff(pre_sum, prepend=0).tolist()
            kept = np.concatenate(([0], np.cumsum(~drop)))
            offsets += (kept[off[1:]] + offsets[-1]).tolist()
            k = kinds[keep]
            x = a1[keep]
            if hooked:
                hook = k <= K_SRAM
                ek += np.where(hook, _E_HOOK, K_COMPUTE).tolist()
                xs = np.where(hook, keep + lo, x).tolist()
                ex += xs
                ey += xs
                continue
            is_mem = k <= K_PREFETCH
            banks, rows = self.dram.decompose(x)
            ex += np.where(
                is_mem, banks, np.where(k == K_SRAM, x % ports, x)
            ).tolist()
            # Rows repeat across a row's 32 blocks: share one int object
            # per distinct value instead of one per event.
            values, index = np.unique(
                np.where(is_mem, rows, a2_all[lo:hi][keep]),
                return_inverse=True,
            )
            ey += map(values.tolist().__getitem__, index.tolist())
            more = np.zeros(hi - lo, dtype=bool)
            more[:-1] = cont[1:]
            event_kinds = np.where(k == K_LOCAL, K_COMPUTE, k)
            event_kinds[more[keep] & (k == K_DRAM)] = _E_MORE
            ek += event_kinds.tolist()
        return ek, ex, ey, pre, offsets

    def run_batch(self, batch: TraceBatch, record_latencies: bool = False) -> EngineResult:
        """Time a columnar access stream: the engine's one event loop.

        Contexts run in global ``(cycle, ctx)`` order off one heap of
        ints ``(cycle << bits) | ctx``. A context keeps running while its
        next event is due at the cycle it was popped at (no other context
        can be due before it); otherwise it goes back on the heap with
        ``heappushpop``, which hands it straight back when it is still
        first. One access is one event: the blocks of a multi-block
        access issue back to back.

        On untraced, fault-free runs DRAM and crossbar timing run inline
        on pre-decomposed (bank, row) / port operands and the DRAM and
        crossbar statistics are filled in vectorized at the end; with a
        tracer or fault injector attached, :class:`_Hooks` runs those
        steps through ``DRAM.access``/``Crossbar.access`` instead.
        """
        nw = batch.num_walks
        result = EngineResult(num_walks=nw)
        if nw == 0:
            return result
        hooks = (
            _Hooks(self, batch)
            if self.tracer.enabled or self.faults is not None else None
        )
        ek, ex, ey, pre, offsets = self._events(batch, hooks is not None)
        step = hooks.step if hooks is not None else None
        end_walk = hooks.end_walk if hooks is not None else None

        dram = self.dram
        t_access = dram._t_access
        t_row_hit = dram._t_row_hit
        t_occupancy = dram._t_occupancy
        e_access = dram._e_access
        e_row_hit = dram._e_row_hit
        bank_free = dram._bank_free
        open_row = dram._open_row
        port_free = self.xbar._port_free
        x_occupancy = self.xbar.params.t_occupancy
        heappushpop = heapq.heappushpop
        heappop = heapq.heappop
        latencies = result.walk_latencies

        contexts = self.contexts
        bits = contexts.bit_length()
        mask = (1 << bits) - 1
        walk_id = list(range(contexts))
        ai_l = [0] * contexts
        end_l = [0] * contexts
        start_l = [0] * contexts
        queue: list[int] = []
        for c in range(min(contexts, nw)):
            ai = offsets[c]
            end = offsets[c + 1]
            ai_l[c] = ai
            end_l[c] = end
            # A folded leading latency schedules the context's first real
            # event at its original cycle (walk start time stays 0).
            queue.append(((pre[ai] if ai < end else 0) << bits) | c)
        heapq.heapify(queue)
        energy = 0.0
        row_hits = 0
        row_misses = 0
        xbar_wait = 0
        total_cycles = 0
        makespan = 0
        while queue:
            # ``item`` is the next context to run: popped here, or handed
            # back by heappushpop below; -1 once a context has no walk left.
            item = heappop(queue)
            while item >= 0:
                t = item >> bits
                ctx = item & mask
                now = t
                ai = ai_l[ctx]
                end = end_l[ctx]
                while True:
                    if ai < end:
                        k = ek[ai]
                        if k == 0:  # dram (stalls the walker)
                            x = ex[ai]
                            s = bank_free[x]
                            if s < now:
                                s = now
                            y = ey[ai]
                            if open_row[x] == y:
                                now = s + t_row_hit
                                energy += e_row_hit
                                row_hits += 1
                            else:
                                now = s + t_access
                                energy += e_access
                                row_misses += 1
                                open_row[x] = y
                            bank_free[x] = s + t_occupancy
                        elif k == 3:  # latency only (compute / local sram)
                            now += ex[ai]
                        elif k == 2:  # sram via crossbar
                            x = ex[ai]
                            s = port_free[x]
                            if s < now:
                                s = now
                            else:
                                xbar_wait += s - now
                            port_free[x] = s + x_occupancy
                            now = s + ey[ai]
                        elif k == 1:  # dram prefetch: occupancy, no stall
                            x = ex[ai]
                            s = bank_free[x]
                            if s < now:
                                s = now
                            y = ey[ai]
                            if open_row[x] == y:
                                energy += e_row_hit
                                row_hits += 1
                            else:
                                energy += e_access
                                row_misses += 1
                                open_row[x] = y
                            bank_free[x] = s + t_occupancy
                        elif k == _E_MORE:
                            # A dram block with more of its access to come:
                            # the next block issues back to back, with no
                            # other context in between.
                            x = ex[ai]
                            s = bank_free[x]
                            if s < now:
                                s = now
                            y = ey[ai]
                            if open_row[x] == y:
                                now = s + t_row_hit
                                energy += e_row_hit
                                row_hits += 1
                            else:
                                now = s + t_access
                                energy += e_access
                                row_misses += 1
                                open_row[x] = y
                            bank_free[x] = s + t_occupancy
                            ai += 1
                            continue
                        else:
                            now = step(ex[ai], now, walk_id[ctx])
                        ai += 1
                        if ai < end:
                            now += pre[ai]
                        if now != t:
                            ai_l[ctx] = ai
                            item = heappushpop(queue, (now << bits) | ctx)
                            break
                    else:
                        latency = now - start_l[ctx]
                        total_cycles += latency
                        if record_latencies:
                            latencies.append(latency)
                        if now > makespan:
                            makespan = now
                        w = walk_id[ctx]
                        if end_walk is not None:
                            end_walk(ctx, w, now, latency)
                        w += contexts
                        if w < nw:
                            walk_id[ctx] = w
                            start_l[ctx] = now
                            ai = offsets[w]
                            end = offsets[w + 1]
                            end_l[ctx] = end
                            if ai < end:
                                now += pre[ai]
                                if now != t:
                                    ai_l[ctx] = ai
                                    item = heappushpop(queue, (now << bits) | ctx)
                                    break
                        else:
                            item = -1
                            break

        if hooks is None:
            self._account(batch, energy, row_hits, row_misses, xbar_wait)
        result.total_walk_cycles = total_cycles
        result.makespan = makespan
        return result

    def _account(
        self, batch: TraceBatch, energy: float, row_hits: int,
        row_misses: int, xbar_wait: int,
    ) -> None:
        """Fill DRAM and crossbar statistics after an unhooked drain."""
        kinds, a1, a2 = batch.arrays()
        is_mem = kinds <= K_PREFETCH
        mem_count = int(np.count_nonzero(is_mem))
        writes = int(np.count_nonzero((kinds == K_DRAM) & ((a2 & 1) != 0)))
        dram = self.dram
        stats = dram.stats
        stats.reads += mem_count - writes
        stats.writes += writes
        stats.bytes_moved += BLOCK_SIZE * mem_count
        stats.energy_fj += energy
        stats.row_hits += row_hits
        stats.row_misses += row_misses
        blocks = a1[is_mem] // BLOCK_SIZE
        touch = stats.touched_blocks.update
        for lo in range(0, len(blocks), _TOUCH_CHUNK):
            touch(blocks[lo:lo + _TOUCH_CHUNK].tolist())
        self.xbar.requests += int(np.count_nonzero(kinds == K_SRAM))
        self.xbar.total_wait += xbar_wait

    def run_functional(
        self, traces: list[WalkTrace] | TraceBatch, record_latencies: bool = False
    ) -> EngineResult:
        """Untimed pass: nominal latencies, full traffic/energy accounting.

        Cheap mode for miss-rate / working-set experiments that do not need
        bank contention. Each walk's latency is the serial sum of nominal
        access latencies; the makespan assumes perfect context overlap.
        """
        batch = (
            traces if isinstance(traces, TraceBatch)
            else TraceBatch.from_traces(traces)
        )
        result = EngineResult(num_walks=batch.num_walks)
        t_access = self.params.dram.t_access
        dram_access = self.dram.access
        kinds = batch.kinds
        a1 = batch.a1
        a2 = batch.a2
        offsets = batch.offsets
        busy = 0
        for w in range(batch.num_walks):
            latency = 0
            for i in range(offsets[w], offsets[w + 1]):
                kind = kinds[i]
                if kind == K_DRAM:
                    dram_access(a1[i], 0, write=bool(a2[i] & 1))
                    latency += t_access
                elif kind == K_PREFETCH:
                    dram_access(a1[i], 0)
                elif kind == K_SRAM:
                    latency += a2[i]
                else:
                    latency += a1[i]
            result.total_walk_cycles += latency
            if record_latencies:
                result.walk_latencies.append(latency)
            busy += latency
        result.makespan = max(1, busy // self.contexts)
        return result
