"""The workload-owned walk memo (``Workload.walks``) never changes a result.

``simulate(..., walks=workload.walks)`` resolves each (index, key) walk
once for every memory system over a workload, and FA-OPT's first pass
reads the same memo. These tests pin that sharing to the per-run memo:
byte-identical ``RunResult``s in any system order, cold or warm; no
index walk at all once the memo is warm; memo entries that still equal
a fresh walk after every system has run (a system that mutated a shared
path, or a stale entry, fails here); sliced and scheduled request lists
over one workload; and FA-OPT's two-pass hit flags. The memo holds
object-index paths only: SoA keys are memoized on their tree's planner
for every run (``tests/test_soa_key_memo.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.bench.runner import SYSTEMS, build_memsys, cache_params_for
from repro.exec import RunSpec
from repro.exec.worker import (
    clear_workload_memo,
    execute_spec,
    get_workload,
    seed_workload,
)
from repro.mem.opt_cache import belady_hit_flags
from repro.params import BLOCK_SIZE
from repro.sim.batch import _planner_for
from repro.sim.memsys import FAOPTMemSys, _node_blocks, _path_blocks
from repro.sim.metrics import simulate
from repro.workloads.suite import WORKLOAD_BUILDERS, build_workload

SCALE = 0.01

#: Every Table-2 workload, plus scan built with ``backend="soa"`` as the
#: benchmark harness builds it (the one builder ``backend`` argument left;
#: it keys a separate exec-memo entry for the same workload).
CASES = [(name, {}) for name in WORKLOAD_BUILDERS] + [("scan", {"backend": "soa"})]
IDS = list(WORKLOAD_BUILDERS) + ["scan-soa"]


def _build(name: str, kwargs: dict):
    return build_workload(name, scale=SCALE, **kwargs)


def _run(workload, kind: str, walks) -> str:
    sim = workload.config.sim_params()
    memsys = build_memsys(kind, workload, sim=sim)
    result = simulate(memsys, workload.requests, sim,
                      workload.total_index_blocks, record_latencies=True,
                      walks=walks)
    return json.dumps(result.to_dict(), sort_keys=True)


def _runs(workload, kinds, walks) -> dict[str, str]:
    return {kind: _run(workload, kind, walks) for kind in kinds}


def _object_walks(workload) -> set:
    """Memo keys of the workload's requests over object indexes."""
    return {
        (id(r.index), r.key) for r in workload.requests
        if _planner_for(r.index, {}) is None
    }


@pytest.fixture(params=CASES, ids=IDS)
def workload(request):
    name, kwargs = request.param
    return _build(name, kwargs)


def test_order_and_warmth_never_change_a_result(workload):
    # Reference: every run resolves its walks into a per-run memo (FA-OPT
    # starts from an empty workload memo each time).
    reference = {}
    for kind in SYSTEMS:
        workload.walks.clear()
        reference[kind] = _run(workload, kind, None)
    workload.walks.clear()
    assert _runs(workload, SYSTEMS, workload.walks) == reference
    assert set(workload.walks) == _object_walks(workload)
    assert _runs(workload, SYSTEMS, workload.walks) == reference  # warm
    workload.walks.clear()
    assert _runs(workload, SYSTEMS[::-1], workload.walks) == reference


def test_warm_memo_walks_no_index(workload, monkeypatch):
    _runs(workload, SYSTEMS, workload.walks)
    calls = []
    for index in {id(r.index): r.index for r in workload.requests}.values():
        cls = type(index)
        original = cls.walk
        # Patch each class once, counting every call on any instance.
        if not getattr(original, "_counted", False):
            def counted(self, key, _original=original):
                calls.append(key)
                return _original(self, key)
            counted._counted = True
            monkeypatch.setattr(cls, "walk", counted)
    _runs(workload, SYSTEMS, workload.walks)  # FA-OPT's first pass included
    assert calls == []


def test_memo_entries_equal_fresh_walks_after_every_system(workload):
    _runs(workload, SYSTEMS, workload.walks)
    indexes = {id(r.index): r.index for r in workload.requests}
    assert set(workload.walks) == _object_walks(workload)  # no SoA keys
    for (index_id, key), (path, count) in workload.walks.items():
        fresh = indexes[index_id].walk(key)
        blocks = [_node_blocks(node) for node in fresh]
        assert _path_blocks(path) == blocks
        assert count == sum(len(b) for b in blocks)
        assert len(path) == len(fresh)
        assert all(a is b for a, b in zip(path, fresh))


@pytest.mark.parametrize("system", ["fa_opt", "metal", "address"])
def test_sliced_and_scheduled_specs_share_the_memo(system):
    spec = RunSpec.make("scan", system, scale=SCALE, requests_slice=(1, 3),
                        schedule="key_sorted")
    # Cold: a fresh workload whose memo only this spec fills.
    clear_workload_memo()
    cold = execute_spec(spec)
    # Warm: every request of the workload walked first, by another system.
    clear_workload_memo()
    workload = _build("scan", {})
    seed_workload(workload)
    _run(workload, "stream", workload.walks)
    size = len(workload.walks)
    try:
        assert get_workload("scan", SCALE) is workload
        warm = execute_spec(spec)
    finally:
        clear_workload_memo()
    assert len(workload.walks) == size  # every walk was already there
    assert warm["result"] == cold["result"]


def test_donation_is_keyed_by_builder_kwargs():
    """A donated non-default build is served only for its own kwargs; a
    default build keeps the ``(name, scale, seed, ())`` key. Scan's
    ``backend="soa"`` builds the same workload as the default, so only the
    kwargs key tells the two memo entries apart."""
    clear_workload_memo()
    try:
        soa = _build("scan", {"backend": "soa"})
        seed_workload(soa)
        assert get_workload("scan", SCALE, backend="soa") is soa
        default = get_workload("scan", SCALE)
        assert default is not soa
        assert default.builder_kwargs == ()
        plain = _build("scan", {})
        seed_workload(plain)
        assert get_workload("scan", SCALE) is plain
    finally:
        clear_workload_memo()


@pytest.mark.parametrize("name,kwargs", CASES, ids=IDS)
def test_faopt_flags_from_the_memo(name, kwargs):
    workload = _build(name, kwargs)
    pairs = workload.faopt_pairs()
    params = cache_params_for("fa_opt", workload.default_cache_bytes)
    # The first pass as a direct index walk per request.
    walk_blocks = [
        [addr // BLOCK_SIZE for node in index.walk(key)
         for addr in _node_blocks(node)]
        for index, key in pairs
    ]
    flat = [block for blocks in walk_blocks for block in blocks]
    flags = belady_hit_flags(flat, params.entries)
    cold = FAOPTMemSys.prepare(pairs, params)
    _run(workload, "stream", workload.walks)
    warm = FAOPTMemSys.prepare(pairs, params, walks=workload.walks)
    offsets = [0]
    for blocks in walk_blocks:
        offsets.append(offsets[-1] + len(blocks))
    for memsys in (cold, warm):
        assert memsys._blocks.tolist() == flat
        assert memsys._offsets.tolist() == offsets
        assert memsys._flags.tolist() == flags
