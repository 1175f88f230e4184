"""Walk-request scheduling policies.

The walker pipeline multiplexes walks to harvest memory-level parallelism
(Section 3.2); *which* walks run adjacently also matters: key-adjacent
walks share index paths (better cache reuse) and DRAM rows (better
row-buffer hit rates). This module provides reorder policies applied
before simulation:

* ``fifo``      — issue order (the default everywhere else).
* ``key_sorted``— globally sort by (index, key): maximal path sharing, at
  the cost of any original ordering semantics.
* ``batched``   — sort within fixed-size batches: bounded reordering, the
  realistic hardware option (a small reorder window).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.sim.metrics import WalkRequest

POLICIES = ("fifo", "key_sorted", "batched")


def _sort_key(request: WalkRequest) -> tuple[int, int]:
    return (getattr(request.index, "index_id", 0), request.key)


def schedule(
    requests: Sequence[WalkRequest],
    policy: str = "fifo",
    batch: int = 64,
) -> list[WalkRequest]:
    """Return the request stream reordered per ``policy``.

    ``batch`` is the reorder-window size for the ``batched`` policy
    (hardware reorder buffers are small; 64 walks is generous).
    """
    if policy == "fifo":
        return list(requests)
    if policy == "key_sorted":
        return sorted(requests, key=_sort_key)
    if policy == "batched":
        if batch <= 0:
            raise ValueError("batch must be positive")
        out: list[WalkRequest] = []
        for start in range(0, len(requests), batch):
            out.extend(sorted(requests[start : start + batch], key=_sort_key))
        return out
    raise ValueError(f"unknown scheduling policy {policy!r}; choose from {POLICIES}")
