"""Simulation parameters fail loudly at construction, naming the field.

Counts (tiles, walker contexts, DRAM banks, crossbar ports, the trace
buffer, and a cache's capacity, block size and ways) must be at least 1,
and every ``t_*`` latency at least 0.
A spec's ``sim_kwargs`` reach the same checks through
``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.exec import RunSpec
from repro.exec.worker import execute_spec
from repro.params import (
    CacheParams,
    CrossbarParams,
    DRAMParams,
    SimParams,
    TileParams,
)

COUNTS = [
    (SimParams, "tiles"),
    (SimParams, "trace_buffer"),
    (TileParams, "walker_contexts"),
    (DRAMParams, "banks"),
    (CrossbarParams, "ports"),
    (CacheParams, "capacity_bytes"),
    (CacheParams, "block_bytes"),
    (CacheParams, "ways"),
]
LATENCIES = [
    (cls, f.name)
    for cls in (SimParams, TileParams, DRAMParams, CrossbarParams, CacheParams)
    for f in fields(cls)
    if f.name.startswith("t_")
]


def _ids(cases):
    return [f"{cls.__name__}.{name}" for cls, name in cases]


def test_every_latency_is_covered():
    assert len(LATENCIES) == 8


@pytest.mark.parametrize("cls,name", COUNTS, ids=_ids(COUNTS))
@pytest.mark.parametrize("value", [0, -1])
def test_count_below_one_raises(cls, name, value):
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{name} must be >= 1"):
        cls(**{name: value})


@pytest.mark.parametrize("cls,name", COUNTS, ids=_ids(COUNTS))
def test_count_of_one_is_accepted(cls, name):
    assert getattr(cls(**{name: 1}), name) == 1


@pytest.mark.parametrize("cls,name", LATENCIES, ids=_ids(LATENCIES))
def test_negative_latency_raises(cls, name):
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{name} must be >= 0"):
        cls(**{name: -1})


@pytest.mark.parametrize("cls,name", LATENCIES, ids=_ids(LATENCIES))
def test_zero_latency_is_accepted(cls, name):
    assert getattr(cls(**{name: 0}), name) == 0


def test_replace_is_checked():
    with pytest.raises(ValueError, match="SimParams.tiles"):
        replace(SimParams(), tiles=0)


def test_spec_sim_kwargs_are_checked():
    spec = RunSpec.make("scan", "stream", scale=0.01,
                        sim_kwargs={"t_search": -4})
    with pytest.raises(ValueError, match="SimParams.t_search must be >= 0"):
        execute_spec(spec)
