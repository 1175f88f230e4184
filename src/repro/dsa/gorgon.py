"""Gorgon — ML-from-relational-data DSA (Vilim et al., ISCA'20).

"Gorgon supports declarative patterns (e.g., map, filter) on relational
data that scan through ranges of records. The index is a table of records,
and the primary reuse is the mid-level roots." Gorgon runs the Scan, Sets,
and Analytics (SEL/WHERE/JOIN) workloads of Table 2 with vector-parallel
tiles. Its declarative operators lower to the walk requests built here;
their functional answers come from :class:`RecordTable` itself.
"""

from __future__ import annotations

from repro.dsa.config import DSAConfig
from repro.indexes.table import RecordTable
from repro.sim.metrics import WalkRequest

#: Table 2 intensities for the Gorgon workloads.
SCAN_CONFIG = DSAConfig("gorgon", ops_per_walk=56, ops_per_compute=6)
SETS_CONFIG = DSAConfig("gorgon", ops_per_walk=128, ops_per_compute=48)
ANALYTICS_CONFIG = DSAConfig("gorgon", ops_per_walk=74, ops_per_compute=232)


def scan_requests(
    config: DSAConfig, table: RecordTable, keys: list[int]
) -> list[WalkRequest]:
    """Point lookups (the paper's Scan uses random search keys)."""
    compute = config.compute_cycles_per_walk
    return [
        WalkRequest(
            table,
            key,
            compute_cycles=compute,
            data_address=table.record_address(key),
            data_bytes=table.record_bytes,
        )
        for key in keys
    ]


def select_requests(
    config: DSAConfig, table: RecordTable, ranges: list[tuple[int, int]]
) -> list[WalkRequest]:
    """SELECT ... WHERE key BETWEEN r1 AND r2: walk + leaf stream.

    The walk to the low edge is the cacheable portion; the leaf stream
    through the high edge is modeled by the memory system's range-scan
    path (``scan_hi``). Compute pipelines with the stream, so its cost
    grows sub-linearly with span (bounded at 8 records' worth).
    """
    compute = config.compute_cycles_per_walk
    return [
        WalkRequest(
            table,
            lo,
            compute_cycles=compute * min(8, max(1, hi - lo + 1)),
            scan_hi=hi,
        )
        for lo, hi in ranges
    ]


def join_requests(
    config: DSAConfig, outer: RecordTable, inner: RecordTable, column: str
) -> list[WalkRequest]:
    """Index nested-loop join: probe inner's index per outer record."""
    compute = config.compute_cycles_per_walk
    requests = []
    for record in outer.scan():
        probe_key = record[column]
        requests.append(
            WalkRequest(
                inner,
                probe_key,
                compute_cycles=compute,
                data_address=inner.record_address(probe_key),
                data_bytes=inner.record_bytes,
            )
        )
    return requests
