"""Generate one request at a time, for tests that inspect single walks.

Every walk goes through the memory system's one generator,
``process_chunk``. The request's path is resolved against the index as
it is at the call, so a test may mutate the index between walks.
"""

from dataclasses import dataclass

from repro.sim.engine import K_LOCAL, K_SRAM, TraceBatch
from repro.sim.metrics import WalkRequest


@dataclass
class Walk:
    """One generated walk: its stream entries and hit-path metadata."""

    kinds: list[int]
    a1: list[int]
    a2: list[int]
    start_level: int
    nodes_visited: int
    short_circuited: bool
    full_hit: bool

    def count(self, kind: int) -> int:
        """Stream entries of one K_* kind."""
        return self.kinds.count(kind)

    def probes(self) -> list[tuple[int, int]]:
        """``(port, cycles)`` of every SRAM probe; port -1 when local."""
        probes = []
        for kind, a1, a2 in zip(self.kinds, self.a1, self.a2):
            if kind == K_SRAM:
                probes.append((a1, a2))
            elif kind == K_LOCAL:
                probes.append((-1, a1))
        return probes


def walk(memsys, index, key, scan_hi=None) -> Walk:
    """Generate the walk for ``key`` (a range scan through ``scan_hi``)."""
    batch = TraceBatch()
    request = WalkRequest(index, key, scan_hi=scan_hi)
    memsys.process_chunk(batch, [request], [index.walk(key)])
    return Walk(
        kinds=batch.kinds.tolist(),
        a1=batch.a1.tolist(),
        a2=batch.a2.tolist(),
        start_level=batch.start_levels[0],
        nodes_visited=batch.visits[0],
        short_circuited=batch.short_circuited == 1,
        full_hit=batch.full_hits == 1,
    )
