"""A memoized walk's emission record emits exactly what node-by-node does.

Every object-index walk in the walk memo is a ``WalkPath`` whose record
(its ``a1`` column and node offsets), built by its first full emission,
serves stream, X-cache and METAL. For every distinct walk of the six
Table-2 workloads over object-graph indexes, the record's emission must
equal ``_emit_nodes`` over the path, and for every node on the path taken as a short-circuit start,
METAL's emission must equal ``_emit_nodes`` over what
``index.walk_from`` returned from it. A plain node list (a mutating
index's walk) never gets a record and never enters METAL's pack memo.

On every Table-2 workload, ``walk_from`` from any node of ``walk(key)``
that covers the key must return that walk's own suffix.

Over the record tables' SoA indexes (scan, select, where, join) the
planner's per-leaf paths are ``WalkPath``s too.
METAL slices them by level after a short-circuit, so for every node on
every distinct planned path, ``path[level + 1:]`` must be exactly what
``index.walk_from`` returns below that node.
"""

from __future__ import annotations

import pytest

from repro.bench import dynamic
from repro.sim.batch import resolve_walks
from repro.sim.engine import TraceBatch
from repro.sim.memsys import WalkPath, _emit_nodes, _emit_walk
from repro.workloads.suite import WORKLOAD_BUILDERS, build_workload

SCALE = 0.01
T_SEARCH = 3
#: The Table-2 workloads over array-backed record tables: their walks
#: come from the SoA planner, not the object walk memo.
TABLE_WORKLOADS = ("scan", "select", "where", "join")
#: The workloads whose walks fill the object walk memo.
MEMO_WORKLOADS = [name for name in WORKLOAD_BUILDERS
                  if name not in TABLE_WORKLOADS]


def _columns(emit) -> tuple:
    batch = TraceBatch()
    count = emit(batch)
    return count, batch.kinds.tolist(), batch.a1.tolist(), batch.a2.tolist()


@pytest.mark.parametrize("name", MEMO_WORKLOADS)
def test_record_emission_equals_node_by_node(name):
    workload = build_workload(name, scale=SCALE)
    pairs = [(r.index, r.key) for r in workload.requests]
    paths = resolve_walks(pairs, workload.walks)
    walks = {id(path): (index, key, path)
             for (index, key), path in zip(pairs, paths)
             if type(path) is WalkPath}
    assert len(walks) == len(workload.walks)
    served = fallbacks = 0
    for index, key, path in walks.values():
        for t_search in (T_SEARCH, T_SEARCH + 1, T_SEARCH):
            want = _columns(lambda b: _emit_nodes(b, list(path), t_search))
            assert _columns(lambda b: path.emit(b, t_search)) == want
            assert _columns(lambda b: _emit_walk(b, path, path, t_search)) == want
        for start in path:
            try:
                nodes = index.walk_from(start, key)[1:]
            except (KeyError, ValueError):
                continue
            want = _columns(lambda b: _emit_nodes(b, nodes, T_SEARCH))
            assert _columns(
                lambda b: _emit_walk(b, path, nodes, T_SEARCH)) == want
            if path.suffix_start(nodes) >= 0:
                served += 1
            else:
                fallbacks += 1
    # The record serves nearly every short-circuit; the rest fall back.
    assert served > 10 * fallbacks


def _planned_paths(name: str) -> list[tuple]:
    """``(index, key, path)`` per distinct planned path of a SoA workload."""
    workload = build_workload(name, scale=SCALE)
    pairs = [(r.index, r.key) for r in workload.requests]
    paths = resolve_walks(pairs, workload.walks)
    planned = {id(path): (index, key, path)
               for (index, key), path in zip(pairs, paths)
               if type(path) is WalkPath and path.by_level}
    assert planned
    return list(planned.values())


@pytest.mark.parametrize("name", TABLE_WORKLOADS)
def test_planned_record_emission_equals_node_by_node(name):
    for _, _, path in _planned_paths(name):
        for t_search in (T_SEARCH, T_SEARCH + 1, T_SEARCH):
            want = _columns(lambda b: _emit_nodes(b, list(path), t_search))
            assert _columns(lambda b: path.emit(b, t_search)) == want
            assert _columns(lambda b: _emit_walk(b, path, path, t_search)) == want
        # METAL emits a by-level short-circuit from the record.
        for first in range(1, len(path) + 1):
            want = _columns(lambda b: _emit_nodes(b, path[first:], T_SEARCH))
            assert _columns(lambda b: path.emit(b, T_SEARCH, first)) == want


@pytest.mark.parametrize("name", TABLE_WORKLOADS)
def test_planned_suffix_by_level_is_walk_from(name):
    for index, key, path in _planned_paths(name):
        for level, node in enumerate(path):
            assert node.level == level
            below = index.walk_from(node, key)[1:]
            tail = path[level + 1:]
            assert len(tail) == len(below)
            assert all(a is b for a, b in zip(tail, below))


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: FiberMatrix.walk_from finds no column leaf "
               "below the directory, so a directory hit fetches nothing"))
    if name == "spmm_s" else name
    for name in WORKLOAD_BUILDERS
])
def test_walk_from_is_the_walks_own_suffix(name):
    """From every node on ``walk(key)`` that covers the key,
    ``walk_from`` resumes the same walk, node for node."""
    workload = build_workload(name, scale=SCALE)
    wrong = []
    for request in workload.requests:
        index, key = request.index, request.key
        path = index.walk(key)
        for i, node in enumerate(path):
            if not node.covers(key):
                continue
            resumed = index.walk_from(node, key)
            if len(resumed) != len(path) - i or any(
                    a is not b for a, b in zip(resumed, path[i:])):
                wrong.append((node.level, key))
    assert not wrong, f"{len(wrong)} (node, key) pairs resume another walk"


def test_first_full_emission_builds_the_record():
    workload = build_workload("scan", scale=SCALE)
    request = workload.requests[0]
    [path] = resolve_walks([(request.index, request.key)], workload.walks)
    suffix = path[1:]
    _columns(lambda b: _emit_walk(b, path, suffix, T_SEARCH))
    assert path.t_search is None  # a cold suffix is emitted node by node
    _columns(lambda b: _emit_walk(b, path, path, T_SEARCH))
    assert path.t_search == T_SEARCH


def test_suffix_is_matched_by_identity_not_position():
    workload = build_workload("scan", scale=SCALE)
    request = workload.requests[0]
    [path] = resolve_walks([(request.index, request.key)], workload.walks)
    assert path.suffix_start(path[1:]) == 1
    assert path.suffix_start([]) == len(path)
    assert path.suffix_start(list(path) + [path[0]]) == -1
    # Same length, different nodes: not the walk's suffix.
    assert path.suffix_start([path[0]] * (len(path) - 1)) == -1


def test_plain_lists_get_no_record_and_no_pack_memo(monkeypatch):
    built = []
    monkeypatch.setattr(WalkPath, "_build",
                        lambda self, t: built.append(self))
    systems = []
    make = dynamic.make_memsys

    def capture(*args, **kwargs):
        memsys = make(*args, **kwargs)
        systems.append(memsys)
        return memsys

    monkeypatch.setattr(dynamic, "make_memsys", capture)
    for kind in ("stream", "xcache", "metal_ix"):
        dynamic.mix_cell(kind, num_records=400, num_ops=300,
                         read_fraction=0.8, cache_bytes=2048, seed=0)
    assert built == []
    [metal] = [m for m in systems if m.name == "metal_ix"]
    assert metal.cache_stats.insertions > 0
    assert all(not packed for packed in metal._packed.values())
