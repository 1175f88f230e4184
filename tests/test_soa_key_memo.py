"""The SoA planner's per-key memo never changes a result.

:class:`~repro.sim.batch.BatchWalkPlanner` is cached on its read-only
SoA tree and memoizes every key it plans as ``(path, streaming-baseline
blocks)``, for every run over the tree; only keys it has not seen go to
its vectorised ``positions``. These tests run scan, select, where and
join (all over SoA record tables) with 7-request chunks, so repeated keys span
chunk boundaries and a chunk mixes hits and misses:

* cold and warm passes hand out the paths and per-chunk baselines a
  fresh planner computes;
* every memo value is the planner's one path for its leaf;
* a ``stream`` run followed by a ``metal`` run over one workload equals
  each run on a freshly built workload (same index ids);
* ``resolve_walks``, FA-OPT's first pass, reads through the memo.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.bench.runner import build_memsys
from repro.indexes import base
from repro.sim import batch
from repro.sim.batch import BatchWalkPlanner, _planned, _planner_for, resolve_walks
from repro.sim.metrics import simulate
from repro.workloads.suite import build_workload

SCALE = 0.01
NAMES = ("scan", "select", "where", "join")


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(batch, "WALK_CHUNK", 7)


def _build(name: str, monkeypatch, first_id: int = 10_000):
    # A fixed index-id base: two builds namespace their keys alike.
    monkeypatch.setattr(base, "_index_ids", itertools.count(first_id))
    return build_workload(name, scale=SCALE)


def _pairs(workload) -> list:
    return [(r.index, r.key) for r in workload.requests]


def _planners(workload) -> list[BatchWalkPlanner]:
    planners = {}
    for index, _ in _pairs(workload):
        planner = _planner_for(index, {})
        assert planner is not None, "SoA workloads plan every request"
        planners[id(planner)] = planner
    return list(planners.values())


def _fresh(pairs) -> tuple[list, int]:
    """Nodes of each pair's walk and their baseline, from new planners."""
    planners: dict[int, BatchWalkPlanner] = {}
    nodes, baseline = [], 0
    for index, key in pairs:
        tree = getattr(index, "_tree", index)
        planner = planners.setdefault(id(tree), BatchWalkPlanner(tree))
        rows = planner.positions(np.asarray([key], dtype=np.int64))
        nodes.append(list(planner.path(rows[0].tolist())))
        baseline += planner.baseline(rows)
    return nodes, baseline


@pytest.mark.parametrize("name", NAMES)
def test_memoized_paths_and_baselines_equal_a_fresh_planner(name, monkeypatch):
    workload = _build(name, monkeypatch)
    pairs = _pairs(workload)
    assert len({key for _, key in pairs}) < len(pairs), "keys must repeat"
    for _ in ("cold", "warm"):
        for part, prepared, baseline in _planned(pairs, None):
            nodes, expected = _fresh(part)
            assert baseline == expected
            assert len(prepared) == len(part)
            for path, fresh in zip(prepared, nodes):
                assert len(path) == len(fresh)
                assert all(a is b for a, b in zip(path, fresh))
    keys = {key for _, key in pairs}
    assert sum(len(p.walks) for p in _planners(workload)) >= len(keys)


@pytest.mark.parametrize("name", NAMES)
def test_memo_values_are_the_planners_leaf_paths(name, monkeypatch):
    workload = _build(name, monkeypatch)
    list(_planned(_pairs(workload), None))
    for planner in _planners(workload):
        assert planner.walks
        for key, (path, blocks) in planner.walks.items():
            rows = planner.positions(np.asarray([key], dtype=np.int64))
            assert path is planner.path(rows[0].tolist())
            assert blocks == planner.baseline(rows)


def _run(workload, kind: str) -> str:
    sim = workload.config.sim_params()
    memsys = build_memsys(kind, workload, sim=sim)
    result = simulate(memsys, workload.requests, sim,
                      workload.total_index_blocks, record_latencies=True)
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("name", NAMES)
def test_stream_then_metal_equals_fresh_workloads(name, monkeypatch):
    shared = _build(name, monkeypatch)
    runs = [_run(shared, "stream"), _run(shared, "metal")]
    assert all(p.walks for p in _planners(shared)), "the memo was used"
    fresh = [_run(_build(name, monkeypatch), kind)
             for kind in ("stream", "metal")]
    assert runs == fresh


@pytest.mark.parametrize("name", NAMES)
def test_resolve_walks_reads_through_the_memo(name, monkeypatch):
    workload = _build(name, monkeypatch)
    pairs = _pairs(workload)
    _run(workload, "stream")
    planners = _planners(workload)

    def unplanned(keys):
        raise AssertionError(f"{len(keys)} keys planned again")

    for planner in planners:
        monkeypatch.setattr(planner.tree, "batch_positions", unplanned)
    memo = {}
    for planner in planners:
        memo.update({(id(planner.tree), key): path
                     for key, (path, _) in planner.walks.items()})
    paths = resolve_walks(pairs)
    assert len(paths) == len(pairs)
    for (index, key), path in zip(pairs, paths):
        assert path is memo[(id(getattr(index, "_tree", index)), key)]
    # FA-OPT's prepare resolves the same way.
    build_memsys("fa_opt", workload)
