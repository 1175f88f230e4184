"""DSA configuration: tile grid geometry and Table-2 intensities."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.params import SimParams, TileParams

#: A tile's issue width: operations per cycle, the same on every Table-2 DSA.
OPS_PER_CYCLE = 4


@dataclass(frozen=True)
class DSAConfig:
    """Static description of one DSA (Table 1 / Table 2 attributes).

    ``ops_per_walk`` is the walker's per-walk operation count and
    ``ops_per_compute`` the application compute per walk; both come from
    Table 2 and convert to cycles via the tile's issue width,
    :data:`OPS_PER_CYCLE`.
    """

    name: str
    tiles: int = 16
    walker_contexts: int = 4
    ops_per_walk: int = 64
    ops_per_compute: int = 32

    @property
    def compute_cycles_per_walk(self) -> int:
        return max(1, self.ops_per_compute // OPS_PER_CYCLE)

    def sim_params(self, base: SimParams | None = None) -> SimParams:
        """Engine parameters matching this DSA's geometry."""
        base = base or SimParams()
        tile = TileParams(walker_contexts=self.walker_contexts)
        return replace(base, tiles=self.tiles, tile=tile)

    def scaled(self, tiles: int) -> "DSAConfig":
        """The same DSA with a different tile count (Fig. 24 sweep)."""
        return replace(self, tiles=tiles)
