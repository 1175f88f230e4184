"""Worker-side execution of one RunSpec.

This module is the only code that turns a spec back into live objects —
workload, memory system, simulation — and it runs identically in-process
(``jobs=1``) and inside a ``ProcessPoolExecutor`` worker. The returned
payload is always round-tripped through JSON before anyone reads it, so
the serial path, the parallel path, and the warm-cache path hand the
caller byte-identical data: parallelism and caching cannot change a
single reported number.

Workloads are built worker-side from the spec (registry name + scale +
seed + builder kwargs) and memoized per process with a small LRU.
:func:`get_workload` is that memo's only entrance for code that needs a
built registry workload, in a worker or in the calling process (the
report's Table 2, ``compare``'s notes line, the ablation's
shared-vs-private sizing, the serving tile model), so
each (name, scale, seed, kwargs) key is built once per process. With a
forked pool the memo is inherited copy-on-write.

:func:`seed_workload` donates a workload built elsewhere; it is for the
benchmark harness, which times the build apart from the simulation, and
for tests.
"""

from __future__ import annotations

import json
import random
from collections import OrderedDict
from dataclasses import replace
from typing import Any

from repro.bench.runner import build_memsys
from repro.exec.spec import RunSpec
from repro.params import CacheParams
from repro.sim.metrics import RunResult, simulate
from repro.workloads.suite import Workload, build_workload

#: Per-process workload memo: big index structures dominate build time,
#: and a report's specs revisit the same few (name, scale, seed) keys.
_WORKLOAD_MEMO: OrderedDict[tuple, Workload] = OrderedDict()
_MEMO_LIMIT = 16


def _memo_key(name: str, scale: float, seed: int, kwargs: tuple) -> tuple:
    return (name, scale, seed, kwargs)


def seed_workload(workload: Workload) -> None:
    """Donate an already-built registry workload to the in-process memo.

    Keyed by the scale, seed and builder kwargs stamped by
    ``build_workload`` — only donate workloads built through the registry.
    """
    _remember(_memo_key(workload.name, workload.scale, workload.seed,
                        workload.builder_kwargs), workload)


def clear_workload_memo() -> None:
    """Forget memoized workloads (tests use this to force fresh builds)."""
    _WORKLOAD_MEMO.clear()


def _remember(key: tuple, workload: Workload) -> None:
    _WORKLOAD_MEMO[key] = workload
    _WORKLOAD_MEMO.move_to_end(key)
    while len(_WORKLOAD_MEMO) > _MEMO_LIMIT:
        _WORKLOAD_MEMO.popitem(last=False)


def get_workload(
    name: str, scale: float, seed: int = 0, **builder_kwargs: Any
) -> Workload:
    """The registry workload ``name`` at ``scale``/``seed``, built once
    per process and memoized by (name, scale, seed, builder kwargs)."""
    key = _memo_key(name, scale, seed, tuple(sorted(builder_kwargs.items())))
    workload = _WORKLOAD_MEMO.get(key)
    if workload is None:
        workload = build_workload(name, scale=scale, seed=seed, **builder_kwargs)
        _remember(key, workload)
    else:
        _WORKLOAD_MEMO.move_to_end(key)
    return workload


def _collect_extras(
    spec: RunSpec, workload: Workload, memsys: Any, result: RunResult
) -> dict[str, Any]:
    extras: dict[str, Any] = {}
    for key in spec.collect:
        if key == "occupancy_by_level":
            occupancy = memsys.cache.occupancy_by_level()
            extras[key] = {str(level): n for level, n in occupancy.items()}
        elif key == "controller_history":
            extras[key] = list(memsys.controller.history)
        elif key == "start_levels":
            extras[key] = list(result.start_levels)
        elif key == "index_heights":
            extras[key] = [index.height for index in workload.indexes]
        elif key == "attribution":
            from repro.obs.profile import build_profile

            assert result.tracer is not None, "attribution needs sim.trace"
            profile = build_profile(result.tracer, strict=False)
            extras[key] = {
                "totals": dict(profile.totals),
                "dropped": result.tracer.dropped,
            }
        else:
            raise ValueError(f"unknown collect key {key!r}")
    return extras


def _load_trace_requests(spec: RunSpec, workload: Workload) -> list:
    """Replay requests from the spec's walk trace (pipe run mode).

    The digest check runs before parsing: a cached result is keyed by
    the trace's content hash, so replaying a spec against a silently
    modified file must fail loudly, not return stale-keyed data.
    """
    from repro.exec.spec import trace_digest
    from repro.workloads.trace_io import load_trace

    actual = trace_digest(spec.trace_path)
    if actual != spec.trace_sha256:
        raise ValueError(
            f"trace {spec.trace_path} has sha256 {actual[:12]}..., spec "
            f"expects {spec.trace_sha256[:12]}... — file changed since "
            "the spec was built"
        )
    names = {f"index{i}": index for i, index in enumerate(workload.indexes)}
    return load_trace(spec.trace_path, names)


def _execute_run(spec: RunSpec) -> dict[str, Any]:
    workload = get_workload(
        spec.workload, spec.scale, spec.seed, **dict(spec.workload_kwargs))
    config = workload.config
    sim = (config.scaled(spec.tiles) if spec.tiles else config).sim_params()
    if spec.sim_kwargs:
        sim = replace(sim, **dict(spec.sim_kwargs))
    if spec.faults:
        sim = replace(sim, faults=spec.fault_plan())
    cache_bytes = spec.cache_bytes or workload.default_cache_bytes
    if spec.cache_factor:
        cache_bytes *= spec.cache_factor

    requests = workload.requests
    if spec.trace_path is not None:
        requests = _load_trace_requests(spec, workload)
    if spec.requests_slice is not None:
        offset, step = spec.requests_slice
        requests = requests[offset::step]
    if spec.schedule is not None:
        from repro.sim.scheduler import schedule

        requests = schedule(requests, spec.schedule)

    overrides = dict(spec.memsys_kwargs)
    if spec.policy != "utility_rrip" or spec.tuner:
        if spec.system not in ("metal", "metal_ix"):
            raise ValueError(
                f"policy/tuner overrides only apply to METAL systems, "
                f"got system {spec.system!r}"
            )
        if spec.policy != "utility_rrip":
            overrides["policy"] = spec.policy
        if spec.tuner:
            if spec.system != "metal":
                raise ValueError("tuner needs the pattern controller (metal)")
            overrides["tuner"] = dict(spec.tuner)
    if spec.cache_kwargs:
        overrides["cache_params"] = replace(
            CacheParams(capacity_bytes=cache_bytes), **dict(spec.cache_kwargs)
        )
    if spec.system == "fa_opt" and requests is not workload.requests:
        # FA-OPT's two-pass construction must see the effective sequence.
        overrides["requests"] = [(r.index, r.key) for r in requests]

    memsys = build_memsys(spec.system, workload, cache_bytes, sim, **overrides)
    result = simulate(
        memsys, requests, sim, workload.total_index_blocks,
        record_latencies=spec.record_latencies,
        walks=workload.walks,
    )
    return {
        "op": "run",
        "result": result.to_dict(),
        "extras": _collect_extras(spec, workload, memsys, result),
    }


def _execute_dynamic_mix(spec: RunSpec) -> dict[str, Any]:
    from repro.bench.dynamic import mix_cell

    kwargs = dict(spec.workload_kwargs)
    data = mix_cell(
        kind=spec.system,
        num_records=kwargs["num_records"],
        num_ops=kwargs["num_ops"],
        read_fraction=kwargs["read_fraction"],
        cache_bytes=spec.cache_bytes or 8 * 1024,
        seed=spec.seed,
    )
    return {"op": "dynamic_mix", "data": data, "extras": {}}


def _execute_serve(spec: Any) -> dict[str, Any]:
    # Lazy import: the serve layer (and its span/SLO observability
    # stack) loads only in workers that actually run serving cells.
    from repro.serve.engine import execute_serve

    return execute_serve(spec)


#: op -> executor. A third frozen canonically-hashed spec type plugs in
#: here; everything else (dedup, pool, store, JSON normalization) is
#: op-agnostic.
_DISPATCH = {
    "run": _execute_run,
    "dynamic_mix": _execute_dynamic_mix,
    "serve": _execute_serve,
}


def execute_spec(spec: RunSpec) -> dict[str, Any]:
    """Run one spec and return its JSON-normalized payload.

    Dispatches on ``spec.op`` via :data:`_DISPATCH`, so any frozen
    canonically-hashed spec type with the RunSpec duck interface
    (``digest``/``canonical_dict``/``label``/``op``) rides the same
    dedup/pool/store machinery — :class:`repro.serve.spec.ServeSpec`
    is the second such type.

    Seeds the module-level RNG from the spec digest first: any stray
    ``random`` use downstream is deterministic per spec, independent of
    which worker runs it or what ran before.
    """
    execute = _DISPATCH.get(spec.op)
    if execute is None:
        raise ValueError(f"unknown spec op {spec.op!r}")
    random.seed(int(spec.digest()[:16], 16))
    # The per-node block-footprint memo is unbounded; across a sweep of
    # many differently-sized workloads it would grow without limit (and
    # carry stale geometry between unrelated specs), so start each spec
    # with a cold memo.
    from repro.sim.memsys import _blocks_for

    _blocks_for.cache_clear()
    payload = execute(spec)
    # Normalize through JSON so live, pooled, and cached results are
    # byte-identical (tuples -> lists, int keys -> str keys, etc.).
    return json.loads(json.dumps(payload))
