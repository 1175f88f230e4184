"""Global simulation parameters.

All timing is in DSA clock cycles and all energy in femtojoules (fJ) so the
numbers compose with the paper's published per-access figures (Fig. 7 and
Section 5.7: 9000 fJ per IX-cache access vs. 7000 fJ per address/X-cache
access).

The defaults model the paper's setup (Fig. 14): a grid of compute tiles over
2.5D HBM, 64-byte cache blocks everywhere, a 64 kB 16-way cache as the
baseline geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> params)
    from repro.faults.plan import FaultPlan

#: Cache block size used by every cache organization (paper: "All cache
#: blocks are set to 64 bytes to ensure a fair comparison").
BLOCK_SIZE = 64

#: Bytes per key and per pointer inside an index node.
KEY_BYTES = 8
PTR_BYTES = 8

#: Stride separating per-index key namespaces in shared caches (wide
#: enough for 48-bit virtual-address key spaces).
NS_STRIDE = 1 << 52


def _check(params: object, counts: tuple[str, ...]) -> None:
    """Reject a count below 1, or a negative ``t_*`` latency, by name."""
    for name in counts:
        value = getattr(params, name)
        if value < 1:
            raise ValueError(
                f"{type(params).__name__}.{name} must be >= 1, got {value!r}"
            )
    for name, value in vars(params).items():
        if name.startswith("t_") and value < 0:
            raise ValueError(
                f"{type(params).__name__}.{name} must be >= 0, got {value!r}"
            )


@dataclass(frozen=True)
class DRAMParams:
    """HBM-like DRAM timing and energy.

    Energy constants are in the ballpark of HBM2 (~4 pJ/bit moved); what
    matters for the reproduction is the ratio between a DRAM access and an
    on-chip SRAM access (~100-300x), which these defaults preserve.
    """

    banks: int = 16
    #: Cycles for a row-buffer miss (activate + read + transfer).
    t_access: int = 100
    #: Cycles for a row-buffer hit.
    t_row_hit: int = 40
    #: Cycles a bank stays busy per request (occupancy, limits throughput).
    t_occupancy: int = 20
    #: Bytes in an open row.
    row_bytes: int = 2048
    #: Dynamic energy per 64B access, row miss (fJ).
    e_access: float = 2_000_000.0
    #: Dynamic energy per 64B access, row hit (fJ).
    e_row_hit: float = 1_200_000.0
    #: Peak bandwidth in bytes per DSA cycle (HBM-class; used to classify
    #: bandwidth-limited regions in the Fig. 24 sweep).
    peak_bytes_per_cycle: int = 256

    def __post_init__(self) -> None:
        _check(self, ("banks",))


@dataclass(frozen=True)
class CacheParams:
    """Geometry + lookup latency of an on-chip cache.

    Sizes and counts must be at least 1, ``t_hit`` at least 0; a bad
    value raises ``ValueError`` naming the field. Per-access energy is
    per organization (:class:`repro.core.energy_model.CacheEnergyModel`).
    """

    capacity_bytes: int = 64 * 1024
    block_bytes: int = BLOCK_SIZE
    ways: int = 16
    #: Lookup latency in cycles.
    t_hit: int = 2

    def __post_init__(self) -> None:
        _check(self, ("capacity_bytes", "block_bytes", "ways"))

    @property
    def entries(self) -> int:
        return self.capacity_bytes // self.block_bytes

    @property
    def sets(self) -> int:
        return max(1, self.entries // self.ways)


#: Paper Section 5.7 per-access energies.
ADDRESS_CACHE_ENERGY_FJ = 7_000.0
XCACHE_ENERGY_FJ = 7_000.0
IXCACHE_ENERGY_FJ = 9_000.0


@dataclass(frozen=True)
class CrossbarParams:
    """Non-coherent crossbar between tiles and the shared cache (Fig. 4).

    Each SRAM probe occupies one crossbar port for ``t_occupancy`` cycles;
    organizations that probe per level (the address cache) load the ports
    ``height``x more than METAL's one probe per walk.
    """

    ports: int = 16
    t_occupancy: int = 2

    def __post_init__(self) -> None:
        _check(self, ("ports",))


@dataclass(frozen=True)
class TileParams:
    """A compute tile's walker multiplexing.

    The paper's walkers "multiplex multiple walks on a single thread" and
    yield at long-latency states to harvest memory-level parallelism; the
    walker_contexts knob is that multiplexing degree. Compute cycles per
    walk come from :attr:`repro.dsa.config.DSAConfig.compute_cycles_per_walk`.
    """

    walker_contexts: int = 4

    def __post_init__(self) -> None:
        _check(self, ("walker_contexts",))


@dataclass(frozen=True)
class SimParams:
    """Top-level bundle handed to the simulation engine.

    Every run takes the same timed pipeline (``repro.sim.batch``); only
    ``trace`` and ``faults`` change what it does, by binding the event
    loop's hooks. Counts must be at least 1 and ``t_*`` latencies at
    least 0 here and in the nested params; a bad value raises
    ``ValueError`` naming the field.
    """

    dram: DRAMParams = field(default_factory=DRAMParams)
    tile: TileParams = field(default_factory=TileParams)
    xbar: CrossbarParams = field(default_factory=CrossbarParams)
    tiles: int = 16
    #: Cycles for the in-node binary search per visited node.
    t_search: int = 4
    #: Cycles for one IX-cache probe (range-tag match over the shared,
    #: banked SRAM via the crossbar; Fig. 7 reports ~1 ns for the match
    #: logic itself). Probed once per walk.
    t_ix_probe: int = 6
    #: Cycles for one address/X-cache probe through the shared cache +
    #: crossbar. The address cache pays this per *level* of the walk (each
    #: node's address is only available from its parent — Challenge 1), so
    #: even a fully-hit walk serializes height x t_addr_probe cycles.
    t_addr_probe: int = 12
    #: Cycles for a fully-associative probe (CAM match across every entry;
    #: costs roughly double a set-indexed lookup at these entry counts).
    t_fa_probe: int = 24
    #: Enable the observability layer (repro.obs): structured event tracing
    #: plus counter snapshots in RunResult. Off by default; the engine
    #: then binds no trace hooks.
    trace: bool = False
    #: Ring-buffer capacity of the tracer (events beyond this are dropped
    #: oldest-first; per-kind counts stay exact).
    trace_buffer: int = 1 << 20
    #: Deterministic fault-injection schedule (repro.faults.FaultPlan).
    #: None — and, contractually, any plan whose rates are all zero —
    #: leaves every hot path byte-identical to the fault-free simulator.
    faults: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        _check(self, ("tiles", "trace_buffer"))


DEFAULT_SIM = SimParams()
