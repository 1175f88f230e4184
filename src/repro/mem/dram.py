"""Banked, row-buffer-aware HBM-like DRAM model.

The model is deliberately first-order: per-bank busy-until times give
throughput limits, open-row tracking gives the hit/miss latency and energy
split, and a set of distinct touched blocks gives the working-set metric of
Fig. 16. This substitutes for the paper's Gem5 + HBM setup (see DESIGN.md).
"""

from __future__ import annotations

from repro.mem.stats import DRAMStats
from repro.obs.tracer import NULL_TRACER
from repro.params import BLOCK_SIZE, DRAMParams


def _shift_for(value: int) -> int | None:
    """log2(value) when value is a positive power of two, else None."""
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


class DRAM:
    """Timing + energy model for the DRAM behind the DSA.

    ``access`` is the only timed entry point: it returns the completion
    cycle of a 64B read/write issued at ``now`` and advances bank state.
    """

    def __init__(self, params: DRAMParams | None = None) -> None:
        self.params = params or DRAMParams()
        self.stats = DRAMStats()
        self.tracer = NULL_TRACER
        #: Optional FaultInjector (repro.faults). None on every fault-free
        #: run: the timed path then pays exactly one predictable branch.
        self.faults = None
        self._bank_free = [0] * self.params.banks
        self._open_row: list[int | None] = [None] * self.params.banks
        p = self.params
        # Power-of-two geometry (the default: 64B blocks, 16 banks, 2KiB
        # rows) decomposes addresses with shifts and masks instead of
        # divmod. Non-power-of-two parameters keep the exact arithmetic.
        self._block_shift = _shift_for(BLOCK_SIZE)
        self._bank_mask = p.banks - 1 if _shift_for(p.banks) is not None else None
        self._row_shift = _shift_for(p.row_bytes)
        self._fast_decomp = (
            self._block_shift is not None
            and self._bank_mask is not None
            and self._row_shift is not None
        )
        # Hot per-access constants, hoisted out of the frozen params.
        self._t_access = p.t_access
        self._t_row_hit = p.t_row_hit
        self._t_occupancy = p.t_occupancy
        self._e_access = p.e_access
        self._e_row_hit = p.e_row_hit

    def attach_obs(self, tracer, registry=None, prefix: str = "dram") -> None:
        """Wire tracing and bind DRAM statistics into a registry."""
        self.tracer = tracer
        if registry is not None:
            registry.bind_stats(prefix, self.stats, (
                "reads", "writes", "row_hits", "row_misses",
                "energy_fj", "bytes_moved",
            ))
            registry.bind(f"{prefix}.accesses", lambda: self.stats.accesses)
            registry.bind(
                f"{prefix}.touched_blocks",
                lambda: len(self.stats.touched_blocks),
            )

    def bank_of(self, address: int) -> int:
        """Banks are interleaved at block granularity (common for HBM)."""
        if self._fast_decomp:
            return (address >> self._block_shift) & self._bank_mask
        return (address // BLOCK_SIZE) % self.params.banks

    def row_of(self, address: int) -> int:
        if self._row_shift is not None:
            return address >> self._row_shift
        return address // self.params.row_bytes

    def decompose(self, addresses):
        """Vectorized block -> (bank, row) decomposition.

        ``addresses`` is a numpy int64 array; returns ``(banks, rows)``
        arrays with exactly the per-address arithmetic of :meth:`access`
        (shift/mask for power-of-two geometry, divmod otherwise). The
        batch engine precomputes these per trace instead of re-deriving
        bank and row inside the event loop.
        """
        if self._fast_decomp:
            banks = (addresses >> self._block_shift) & self._bank_mask
            rows = addresses >> self._row_shift
        else:
            banks = (addresses // BLOCK_SIZE) % self.params.banks
            rows = addresses // self.params.row_bytes
        return banks, rows

    def access(self, address: int, now: int, *, write: bool = False, nbytes: int = BLOCK_SIZE) -> int:
        """Issue an access at cycle ``now``; return its completion cycle."""
        if self._fast_decomp:
            first_block = address >> self._block_shift
            bank = first_block & self._bank_mask
            row = address >> self._row_shift
        else:
            first_block = address // BLOCK_SIZE
            bank = first_block % self.params.banks
            row = address // self.params.row_bytes
        bank_free = self._bank_free
        start = bank_free[bank]
        if start < now:
            start = now
        stats = self.stats
        open_row = self._open_row
        if open_row[bank] == row:
            latency = self._t_row_hit
            stats.energy_fj += self._e_row_hit
            stats.row_hits += 1
            row_hit = True
        else:
            latency = self._t_access
            stats.energy_fj += self._e_access
            stats.row_misses += 1
            open_row[bank] = row
            row_hit = False
        occupancy = self._t_occupancy
        if self.faults is not None:
            # Latency spikes lengthen this access's service time (and are
            # attributed as dram_hit/dram_miss service cycles); bank stalls
            # keep the bank busy longer, surfacing as dram_queue wait in
            # whichever accesses pile up behind it.
            latency += self.faults.dram_spike()
            occupancy += self.faults.bank_stall()
        bank_free[bank] = start + occupancy
        if self.tracer.enabled:
            # ``wait`` is the bank-queueing delay (cycles the request sat
            # behind a busy bank before starting) — the profiler's
            # ``dram_queue`` attribution component.
            self.tracer.emit(
                "dram_access", ts=start, phase="engine", bank=bank,
                address=address, row_hit=row_hit, write=write,
                latency=latency, wait=start - now,
            )
        if write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.bytes_moved += nbytes
        if nbytes <= BLOCK_SIZE:
            stats.touched_blocks.add(first_block)
        else:
            last_block = (address + nbytes - 1) // BLOCK_SIZE
            stats.touched_blocks.update(range(first_block, last_block + 1))
        return start + latency

    def bandwidth_utilization(self, total_cycles: int) -> float:
        """Fraction of peak bandwidth consumed over ``total_cycles``."""
        if total_cycles <= 0:
            return 0.0
        peak = self.params.peak_bytes_per_cycle * total_cycles
        return self.stats.bytes_moved / peak

    def reset_timing(self) -> None:
        """Clear bank state but keep cumulative statistics."""
        self._bank_free = [0] * self.params.banks
        self._open_row = [None] * self.params.banks
