"""Run-pipeline tests: RunSpec hashing, executor semantics, result cache,
serialization round-trips, and serial/parallel/cached byte-identity.
"""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

from repro.bench.runner import SYSTEMS, build_memsys
from repro.exec import (
    ExecError,
    Executor,
    ResultStore,
    RunSpec,
    code_version,
    resolve_jobs,
)
from repro.exec.worker import clear_workload_memo, execute_spec
from repro.sim.batch import _generate
from repro.sim.engine import Engine, TraceBatch
from repro.sim.metrics import RunResult, simulate
from repro.workloads.suite import build_workload

SMALL = 0.02


# --------------------------------------------------------------------- #
# RunSpec
# --------------------------------------------------------------------- #

def test_spec_digest_stable_across_kwarg_order():
    a = RunSpec.make("scan", "metal", scale=SMALL,
                     memsys_kwargs={"tune": False, "batch_walks": 100})
    b = RunSpec.make("scan", "metal", scale=SMALL,
                     memsys_kwargs={"batch_walks": 100, "tune": False})
    assert a == b
    assert a.digest() == b.digest()
    assert a.canonical() == b.canonical()


def test_spec_digest_distinguishes_fields():
    base = RunSpec.make("scan", "metal", scale=SMALL)
    assert base.digest() != RunSpec.make("scan", "xcache", scale=SMALL).digest()
    assert base.digest() != RunSpec.make("scan", "metal", scale=SMALL,
                                         seed=1).digest()
    assert base.digest() != RunSpec.make("scan", "metal", scale=SMALL,
                                         cache_bytes=4096).digest()


def test_spec_digests_are_pinned():
    """Digests key the result store and seed per-spec randomness, so the
    canonical form must never move: these values are literal."""
    from repro.faults import FaultPlan
    from repro.serve.spec import ServeSpec

    plan = FaultPlan.uniform(0.2, seed=7)
    assert RunSpec.make("scan", "metal", scale=0.01).digest() == (
        "006453a2be974d6ed3836becaad0e1bfd390c186452945027e3d0ae72c153707")
    assert RunSpec.make("scan", "metal", scale=0.01, faults=plan).digest() == (
        "5963784ff8d4553f760a2d7bb81400d7e2d7d570c893376973f47f925712b44c")
    assert ServeSpec.make("scan").digest() == (
        "5ed06bdb4999ccc933ca27dc5238747d5817783fef387e026be01677237f52eb")
    assert plan.digest() == (
        "2317aa892fc4d06d14520b041786b6ca7fa196879cd657a5820e105d072fa742")


def test_spec_is_hashable_and_frozen():
    spec = RunSpec.make("scan", "metal", scale=SMALL)
    assert spec in {spec}
    with pytest.raises(AttributeError):
        spec.system = "stream"


def test_spec_rejects_non_scalar_kwargs():
    with pytest.raises(TypeError):
        RunSpec.make("scan", "metal", memsys_kwargs={"bad": [1, 2]})


@pytest.mark.parametrize("field,value,message", [
    ("scale", 0.0, "must be > 0"),
    ("scale", -1.0, "must be > 0"),
    ("tiles", 0, "must be >= 1"),
    ("cache_bytes", 0, "must be >= 1"),
    ("cache_bytes", -8192, "must be >= 1"),
    ("cache_factor", 0, "must be >= 1"),
    ("requests_slice", (-1, 2), "needs offset >= 0 and step >= 1"),
    ("requests_slice", (0, 0), "needs offset >= 0 and step >= 1"),
])
def test_spec_rejects_out_of_range_values(field, value, message):
    # Each used to run: zero tiles/cache_bytes silently became the
    # defaults while hashing as a different spec, and the rest simulated
    # nonsense or failed deep inside the worker.
    with pytest.raises(ValueError, match=rf"RunSpec\.{field} {message}"):
        RunSpec.make("scan", "metal", **{field: value})


def test_spec_accepts_the_smallest_valid_values():
    spec = RunSpec.make("scan", "metal", scale=SMALL, tiles=1, cache_bytes=1,
                        cache_factor=1, requests_slice=(0, 1))
    assert spec.requests_slice == (0, 1)


def test_code_version_is_hex_and_cached():
    version = code_version()
    assert len(version) == 64
    int(version, 16)
    assert code_version() == version


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs("3") == 3
    assert resolve_jobs("auto") >= 1
    with pytest.raises(ValueError):
        resolve_jobs(0)


# --------------------------------------------------------------------- #
# RunResult round-trip (satellite: from_dict inverse of to_dict)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("kind", SYSTEMS)
def test_runresult_roundtrip_byte_identical(kind):
    workload = build_workload("scan", scale=SMALL)
    memsys = build_memsys(kind, workload)
    result = simulate(
        memsys, workload.requests, memsys.sim, workload.total_index_blocks,
        record_latencies=True,
    )
    first = result.to_dict()
    wire = json.loads(json.dumps(first))
    second = RunResult.from_dict(wire).to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_runresult_roundtrip_preserves_histograms():
    workload = build_workload("scan", scale=SMALL)
    memsys = build_memsys("metal", workload)
    result = simulate(
        memsys, workload.requests, memsys.sim, workload.total_index_blocks,
        record_latencies=True,
    )
    restored = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert restored.latency_hist is not None
    assert restored.latency_hist.count == result.latency_hist.count
    assert restored.latency_hist.percentile(99) == result.latency_hist.percentile(99)
    assert restored.depth_hist is not None
    assert restored.depth_hist.max == result.depth_hist.max


# --------------------------------------------------------------------- #
# Engine functional path (record_latencies honored)
# --------------------------------------------------------------------- #

def _run_functional(**kwargs):
    """``Engine.run_functional`` over scan's generated access stream."""
    workload = build_workload("scan", scale=SMALL)
    memsys = build_memsys("stream", workload)
    batch = TraceBatch()
    _generate(memsys, workload.requests, batch)
    return workload, Engine(memsys.sim).run_functional(batch, **kwargs)


def test_run_functional_records_latencies():
    workload, result = _run_functional(record_latencies=True)
    assert len(result.walk_latencies) == len(workload.requests)
    assert sum(result.walk_latencies) == result.total_walk_cycles > 0


def test_run_functional_skips_latencies_by_default():
    _, result = _run_functional()
    assert result.walk_latencies == []


# --------------------------------------------------------------------- #
# Executor: dedup, failure capture, parallel equivalence
# --------------------------------------------------------------------- #

def test_executor_dedups_within_and_across_batches():
    spec = RunSpec.make("scan", "stream", scale=SMALL)
    with Executor(jobs=1) as ex:
        first = ex.run([spec, spec])
        assert ex.stats.requested == 2
        assert ex.stats.computed == 1
        assert ex.stats.deduped == 1
        second = ex.run([spec])
        assert ex.stats.computed == 1  # memo, not recomputed
    assert first[0].payload == second[0].payload


def test_executor_captures_failures_without_killing_batch():
    good = RunSpec.make("scan", "stream", scale=SMALL)
    bad = RunSpec.make("scan", "no_such_system", scale=SMALL)
    with Executor(jobs=1) as ex:
        ok, failed = ex.run([good, bad])
    assert ok.ok and ok.require().num_walks > 0
    assert not failed.ok
    assert "no_such_system" in failed.error
    with pytest.raises(ExecError) as err:
        failed.require()
    assert "no_such_system" in str(err.value)
    assert ex.stats.failed == 1


def test_parallel_jobs_byte_identical_to_serial():
    specs = [
        RunSpec.make("scan", kind, scale=SMALL)
        for kind in ("stream", "address", "xcache", "metal")
    ]
    with Executor(jobs=1) as serial:
        serial_payloads = [o.payload for o in serial.run(specs)]
    clear_workload_memo()
    with Executor(jobs=4) as parallel:
        parallel_payloads = [o.payload for o in parallel.run(specs)]
    assert json.dumps(serial_payloads, sort_keys=True) == \
        json.dumps(parallel_payloads, sort_keys=True)


def test_fresh_builds_are_deterministic_per_system():
    """Two from-scratch builds + serial runs are byte-identical."""
    for kind in SYSTEMS:
        spec = RunSpec.make("sets", kind, scale=SMALL)
        clear_workload_memo()
        first = execute_spec(spec)
        clear_workload_memo()
        second = execute_spec(spec)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True), kind


# --------------------------------------------------------------------- #
# ResultStore
# --------------------------------------------------------------------- #

def test_store_roundtrip_and_warm_hits(tmp_path):
    specs = [
        RunSpec.make("scan", kind, scale=SMALL)
        for kind in ("stream", "metal")
    ]
    store = ResultStore(root=tmp_path)
    with Executor(jobs=1, store=store) as cold:
        cold_payloads = [o.payload for o in cold.run(specs)]
        assert cold.stats.computed == 2
    with Executor(jobs=1, store=ResultStore(root=tmp_path)) as warm:
        outcomes = warm.run(specs)
        assert warm.stats.computed == 0
        assert warm.stats.cache_hits == 2
        assert all(o.cached for o in outcomes)
    assert json.dumps(cold_payloads, sort_keys=True) == \
        json.dumps([o.payload for o in outcomes], sort_keys=True)


def test_store_miss_on_corruption(tmp_path):
    spec = RunSpec.make("scan", "stream", scale=SMALL)
    store = ResultStore(root=tmp_path)
    with Executor(jobs=1, store=store) as ex:
        ex.run([spec])
    path = store.path_for(spec)
    path.write_text("{not json")
    assert ResultStore(root=tmp_path).get(spec) is None


@pytest.mark.parametrize("text", ["[1, 2]", "7", '"x"', "null", "true"],
                         ids=["list", "int", "string", "null", "bool"])
def test_store_miss_on_valid_json_that_is_not_an_object(tmp_path, text):
    spec = RunSpec.make("scan", "stream", scale=SMALL)
    store = ResultStore(root=tmp_path)
    path = store.path_for(spec)
    path.parent.mkdir(parents=True)
    path.write_text(text)
    assert store.get(spec) is None


def test_store_miss_on_a_payload_that_is_not_an_object(tmp_path):
    """A file whose spec matches but whose payload is not an object is a
    miss, not a cache hit handing the caller a bare number."""
    spec = RunSpec.make("scan", "stream", scale=SMALL)
    store = ResultStore(root=tmp_path)
    store.put(spec, 7)
    assert store.get(spec) is None
    with Executor(jobs=1, store=store) as ex:
        outcome = ex.run([spec])[0]
    assert not outcome.cached
    assert isinstance(outcome.check().payload, dict)


def test_store_invalidates_on_version_change(tmp_path):
    spec = RunSpec.make("scan", "stream", scale=SMALL)
    old = ResultStore(root=tmp_path, version="0" * 64)
    old.put(spec, {"op": "run", "result": {}, "extras": {}})
    current = ResultStore(root=tmp_path)
    assert current.get(spec) is None
    current.prune_stale()
    assert not old.path_for(spec).exists()


def _put_repeatedly(root: str, version: str, spec: RunSpec,
                    payload: dict, count: int) -> None:
    store = ResultStore(root=root, version=version)
    for _ in range(count):
        store.put(spec, payload)


def test_store_concurrent_same_digest_writes(tmp_path):
    """Two processes rewriting one digest never expose a torn file: every
    concurrent read is a miss or the exact payload, and no temp file is
    left behind."""
    spec = RunSpec.make("scan", "stream", scale=SMALL)
    payload = {"op": "run", "result": {"walks": list(range(2_000))},
               "extras": {}}
    store = ResultStore(root=tmp_path)
    ctx = multiprocessing.get_context("spawn")
    writers = [
        ctx.Process(target=_put_repeatedly,
                    args=(str(tmp_path), store.version, spec, payload, 200))
        for _ in range(2)
    ]
    for writer in writers:
        writer.start()
    deadline = time.monotonic() + 120
    reads = 0
    while time.monotonic() < deadline and (
            reads == 0 or any(writer.is_alive() for writer in writers)):
        got = store.get(spec)
        assert got is None or got == payload
        reads += 1
    for writer in writers:
        writer.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not writer.is_alive()
        assert writer.exitcode == 0
    assert store.get(spec) == payload
    assert not list(tmp_path.rglob("*.tmp"))


# --------------------------------------------------------------------- #
# FaultPlan digests & the exec store (satellite: faulted-spec caching)
# --------------------------------------------------------------------- #

def test_fault_plan_digest_stable():
    from repro.faults import FaultPlan

    plan = FaultPlan.uniform(0.05, seed=7)
    assert plan.digest() == FaultPlan.uniform(0.05, seed=7).digest()
    # A plan rebuilt from its own canonical items is the same plan.
    assert FaultPlan(**dict(plan.items())).digest() == plan.digest()
    assert plan.digest() != FaultPlan.uniform(0.05, seed=8).digest()
    assert plan.digest() != FaultPlan.uniform(0.06, seed=7).digest()


def test_faulted_and_unfaulted_specs_never_collide():
    from repro.faults import FaultPlan

    base = RunSpec.make("scan", "metal", scale=SMALL)
    faulted = RunSpec.make("scan", "metal", scale=SMALL,
                           faults=FaultPlan.uniform(0.05))
    assert base.digest() != faulted.digest()
    assert base.faults == ()
    assert faulted.faults != ()
    # Differing plans map to differing digests; identical plans collapse.
    other = RunSpec.make("scan", "metal", scale=SMALL,
                         faults=FaultPlan.uniform(0.1))
    assert other.digest() != faulted.digest()
    again = RunSpec.make("scan", "metal", scale=SMALL,
                         faults=FaultPlan.uniform(0.05))
    assert again == faulted and again.digest() == faulted.digest()
    # An empty plan *is* "no faults": it must share the unfaulted digest
    # so pre-fault-layer cache entries stay valid.
    empty = RunSpec.make("scan", "metal", scale=SMALL, faults=())
    assert empty == base and empty.digest() == base.digest()


def test_fault_plan_roundtrips_through_spec():
    from repro.faults import FaultPlan

    plan = FaultPlan.uniform(0.05, seed=3, walker_retry_limit=2)
    spec = RunSpec.make("scan", "metal", scale=SMALL, faults=plan)
    rebuilt = spec.fault_plan()
    assert rebuilt == plan
    assert RunSpec.make("scan", "metal", scale=SMALL).fault_plan() is None


def test_faulted_spec_roundtrips_store_byte_identically(tmp_path):
    from repro.faults import FaultPlan

    spec = RunSpec.make("scan", "metal", scale=SMALL,
                        faults=FaultPlan.uniform(0.05, seed=2))
    store = ResultStore(root=tmp_path)
    with Executor(jobs=1, store=store) as cold:
        (outcome,) = cold.run([spec])
        assert cold.stats.computed == 1
        cold_payload = outcome.payload
    assert cold_payload["result"]["faults"]["faults_injected"] > 0
    with Executor(jobs=1, store=ResultStore(root=tmp_path)) as warm:
        (cached,) = warm.run([spec])
        assert warm.stats.cache_hits == 1 and warm.stats.computed == 0
        assert cached.cached
    assert json.dumps(cold_payload, sort_keys=True) == \
        json.dumps(cached.payload, sort_keys=True)
    # The cached ledger revives into a RunResult with its faults intact.
    revived = RunResult.from_dict(cached.payload["result"])
    assert revived.faults == cold_payload["result"]["faults"]


# --------------------------------------------------------------------- #
# Report integration (satellite: cache summary line, --no-cache)
# --------------------------------------------------------------------- #

def test_report_prints_pipeline_summary(capsys, tmp_path):
    from repro.cli import main as cli_main

    out = tmp_path / "cache"
    assert cli_main(["report", "--scale", "0.01", "--fast",
                     "--cache-dir", str(out)]) == 0
    text = capsys.readouterr().out
    line = next(l for l in text.splitlines() if l.startswith("Run pipeline:"))
    assert "cells requested" in line and "served from cache" in line
    assert "0 served from cache" in line

    # Warm re-run: every cell comes from the store, zero simulations.
    assert cli_main(["report", "--scale", "0.01", "--fast",
                     "--cache-dir", str(out)]) == 0
    warm = capsys.readouterr().out
    line = next(l for l in warm.splitlines() if l.startswith("Run pipeline:"))
    assert "0 computed" in line

    # --no-cache forces recomputation even with a warm store present.
    assert cli_main(["report", "--scale", "0.01", "--fast", "--no-cache"]) == 0
    nocache = capsys.readouterr().out
    line = next(l for l in nocache.splitlines()
                if l.startswith("Run pipeline:"))
    assert "0 served from cache" in line
    assert "0 computed" not in line
