"""Byte-identity of the one timed pipeline across its generation paths.

Every run generates walks through each memory system's one generator,
``process_chunk``. Untraced, fault-free runs time them with the
engine's inline DRAM/crossbar code; traced and faulted runs fire the
generators' trace and fault sites and time the stream through the
engine's hooks. These tests hold both sides to committed goldens and to
each other:

* the traced run of every scan cell (six systems, scale 0.01) matches a digest of every tracer event, in order, plus
  its ``RunResult.to_dict()`` — fault-free and under ``TRACED_PLAN``;
* the faulted runs match ``to_dict`` digests under two
  ``FaultPlan.uniform`` plans;
* off that matrix, the ``address_pf`` scan and range scans (``select``)
  on every system match untraced (scan only), traced and faulted
  digests;
* the traced run's ``to_dict`` minus its counter snapshot equals the
  untraced run's, so the two generation paths agree on every cell;
* walk-generation chunk boundaries never reach results.

The digests live in ``tests/golden_policy_baseline.json``, keyed
``scale/workload/system``. Trace args
carry absolute namespaced keys, and index ids come from a process-global
counter, so each workload is built with that counter reset: the digests
do not depend on what the process built before.
"""

import hashlib
import itertools
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.runner import SYSTEMS, run_workload
from repro.faults import FaultPlan
from repro.indexes import base as index_base
from repro.sim import batch as batch_mod
from repro.workloads.suite import build_workload

GOLDEN_PATH = Path(__file__).parent / "golden_policy_baseline.json"
SCALE = 0.01
WORKLOAD = "scan"
#: Label -> plan of the faulted golden cells.
FAULT_PLANS = {
    "uniform0.05": FaultPlan.uniform(0.05, seed=1),
    "uniform0.2": FaultPlan.uniform(0.2, seed=7),
}
#: The plan of the traced faulted cells (walk_end retry/degraded args).
TRACED_PLAN = "uniform0.2"
#: (workload, system) cells pinned outside the six-system scan matrix:
#: the prefetching address cache, and range scans on every system.
EXTRA_CELLS = [("scan", "address_pf")] + [("select", system) for system in SYSTEMS]


def pinned_workload(name: str = WORKLOAD):
    """Build a workload with index ids numbered from zero."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(index_base, "_index_ids", itertools.count())
        return build_workload(name, scale=SCALE)


def cell_key(system: str, name: str = WORKLOAD) -> str:
    return f"{SCALE}/{name}/{system}"


def _canon(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


def traced_digest(workload, system: str, plan: FaultPlan | None = None) -> str:
    sim = replace(workload.config.sim_params(), trace=True, faults=plan)
    result = run_workload(workload, system, sim=sim)
    assert result.tracer.dropped == 0
    h = hashlib.sha256()
    for event in result.tracer:
        h.update(json.dumps(
            [event.kind, event.ts, event.phase, event.walk, event.args],
            sort_keys=True,
        ).encode())
        h.update(b"\n")
    h.update(_canon(result.to_dict()).encode())
    return h.hexdigest()


def faulted_digest(workload, system: str, plan: FaultPlan) -> str:
    sim = replace(workload.config.sim_params(), faults=plan)
    result = run_workload(workload, system, sim=sim)
    return hashlib.sha256(_canon(result.to_dict()).encode()).hexdigest()


def assert_paths_agree(workload, system: str) -> None:
    """Traced (hooked) == untraced (inline) on every RunResult field."""
    sim = workload.config.sim_params()
    untraced = run_workload(workload, system, sim=sim, record_latencies=True)
    traced = run_workload(workload, system, sim=replace(sim, trace=True))
    traced_dict = traced.to_dict()
    assert traced_dict.pop("counters")
    assert _canon(traced_dict) == _canon(untraced.to_dict()), (
        f"{workload.name}/{system}: traced run diverged from untraced"
    )


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def test_golden_covers_traced_and_faulted_matrix(golden):
    cells = len(SYSTEMS)
    extra = len(EXTRA_CELLS)
    assert len(golden["traced"]) == cells * 2 + extra * 2
    assert len(golden["faulted"]) == cells * len(FAULT_PLANS) + extra


@pytest.mark.parametrize("system", SYSTEMS)
def test_vectorized_byte_identical_scan(golden, system):
    workload = pinned_workload()
    key = cell_key(system)
    assert traced_digest(workload, system) == golden["traced"][key], (
        f"{key}: traced event stream diverged from the golden"
    )
    traced_key = f"{key}/{TRACED_PLAN}"
    assert traced_digest(
        workload, system, FAULT_PLANS[TRACED_PLAN]
    ) == golden["traced"][traced_key], (
        f"{traced_key}: traced faulted event stream diverged from the golden"
    )
    for label, plan in FAULT_PLANS.items():
        faulted_key = f"{key}/{label}"
        assert faulted_digest(workload, system, plan) == (
            golden["faulted"][faulted_key]
        ), f"{faulted_key}: faulted RunResult diverged from the golden"
    assert_paths_agree(workload, system)


@pytest.mark.parametrize(("name", "system"), EXTRA_CELLS)
def test_extra_cells_byte_identical(golden, name, system):
    """Untraced (scan only), traced, and faulted runs off the scan matrix."""
    workload = pinned_workload(name)
    key = cell_key(system, name)
    if name == "scan":
        untraced = run_workload(workload, system)
        digest = hashlib.sha256(_canon(untraced.to_dict()).encode()).hexdigest()
        assert digest == golden["digests"][key], (
            f"{key}: untraced RunResult diverged from the golden"
        )
    assert traced_digest(workload, system) == golden["traced"][key], (
        f"{key}: traced event stream diverged from the golden"
    )
    faulted_key = f"{key}/{TRACED_PLAN}"
    plan = FAULT_PLANS[TRACED_PLAN]
    assert traced_digest(workload, system, plan) == (
        golden["traced"][faulted_key]
    ), f"{faulted_key}: traced faulted event stream diverged from the golden"
    assert faulted_digest(workload, system, plan) == (
        golden["faulted"][faulted_key]
    ), f"{faulted_key}: faulted RunResult diverged from the golden"
    assert_paths_agree(workload, system)


def test_odd_chunk_sizes_byte_identical(golden, monkeypatch):
    """Chunk boundaries must not leak into results (last partial chunk)."""
    workload = build_workload("scan", scale=SCALE)
    want = golden["digests"][f"{SCALE}/scan/metal"]
    for chunk in (1, 7, 64):
        monkeypatch.setattr(batch_mod, "WALK_CHUNK", chunk)
        result = run_workload(workload, "metal")
        digest = hashlib.sha256(_canon(result.to_dict()).encode()).hexdigest()
        assert digest == want, f"WALK_CHUNK={chunk} diverged"
