"""RunSpec — a frozen, canonically-hashable description of one simulation.

Every bench cell — one (workload, memory system) simulation with its
overrides — is described declaratively instead of via ad-hoc kwargs
plumbing. The spec serializes to a canonical JSON form whose SHA-256
digest keys the on-disk result cache, so two specs that mean the same
run always hash the same (kwargs are stored as sorted tuples regardless
of construction order).

Only JSON scalars are allowed in override values: a spec must mean the
same bytes on every machine and Python version.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.policy import DEFAULT_POLICY
from repro.frozen import FrozenSpec
from repro.sim.memsys import check_memsys_args

Scalar = (type(None), bool, int, float, str)

KwargItems = tuple[tuple[str, Any], ...]


def _freeze_kwargs(value: Any, label: str) -> KwargItems:
    """Normalize a kwargs mapping (or item sequence) to sorted tuples."""
    if value is None:
        return ()
    items = value.items() if isinstance(value, dict) else value
    frozen = []
    for key, val in items:
        if not isinstance(key, str):
            raise TypeError(f"{label} keys must be strings, got {key!r}")
        if not isinstance(val, Scalar):
            raise TypeError(
                f"{label}[{key!r}] must be a JSON scalar, got {type(val).__name__}"
            )
        frozen.append((key, val))
    frozen.sort()
    return tuple(frozen)


@dataclass(frozen=True)
class RunSpec(FrozenSpec):
    """One simulation cell, ready to hash, ship to a worker, and cache.

    ``op`` selects the worker routine: ``"run"`` is the standard
    build-workload/build-memsys/simulate cell; ``"dynamic_mix"`` is the
    mutating-index extension (bench.dynamic), where ``workload_kwargs``
    carries the mix parameters instead of builder arguments.

    Bad specs raise at construction, in the calling process, never later
    inside a pool worker. Out-of-range values raise ``ValueError``:
    ``scale`` must be > 0, ``tiles``/``cache_bytes``/``cache_factor`` >= 1
    when set, and ``requests_slice`` needs offset >= 0 and step >= 1. An
    unknown ``system`` raises ``ValueError``, and ``memsys_kwargs``, a
    non-default ``policy`` or a ``tuner`` its kind does not take raise
    ``TypeError`` (:func:`repro.sim.memsys.check_memsys_args`).
    """

    workload: str
    system: str
    scale: float = 0.25
    seed: int = 0
    op: str = "run"
    #: Explicit cache capacity; None = the workload's default.
    cache_bytes: int | None = None
    #: Multiplier on the (default or explicit) capacity (Fig. 15's 16x FA).
    cache_factor: int | None = None
    record_latencies: bool = False
    #: Tile count override: SimParams come from config.scaled(tiles).
    tiles: int | None = None
    #: Walk-issue reorder policy (repro.sim.scheduler) applied to requests.
    schedule: str | None = None
    #: (offset, step): simulate requests[offset::step] (partition studies).
    requests_slice: tuple[int, int] | None = None
    #: Extra workload-builder kwargs (e.g. depth= for join).
    workload_kwargs: KwargItems = ()
    #: dataclasses.replace() overrides on the resolved SimParams.
    sim_kwargs: KwargItems = ()
    #: dataclasses.replace() overrides on the resolved CacheParams.
    cache_kwargs: KwargItems = ()
    #: build_memsys overrides (tune, batch_walks, coalesce, ...).
    memsys_kwargs: KwargItems = ()
    #: IX-cache replacement policy (repro.core.policy registry name). Only
    #: the METAL systems take non-default values; the default keeps every
    #: digest-relevant byte identical to specs that predate the field.
    policy: str = DEFAULT_POLICY
    #: Online admission-threshold tuner config (ThresholdTuner ctor kwargs
    #: as sorted items, same canonical form as the *_kwargs fields). ()
    #: means no tuner. Metal-only, like ``policy``.
    tuner: KwargItems = ()
    #: Replay an external walk trace (trace_io JSONL, ``.gz`` ok) instead
    #: of the workload's own request stream. The workload still builds —
    #: the trace re-binds to its indexes by name (index0, index1...).
    trace_path: str | None = None
    #: SHA-256 of the trace file. Required alongside ``trace_path``: the
    #: path alone can't key the result cache (same path, new bytes), so
    #: the digest pins the content and the worker verifies it at load.
    trace_sha256: str | None = None
    #: Fault-injection schedule: a repro.faults.FaultPlan stored as its
    #: sorted (field, value) items, the same canonical form as *_kwargs.
    #: () means fault-free; a faulted spec therefore hashes differently
    #: from its unfaulted twin by construction, while flowing through the
    #: dedup/cache machinery unchanged.
    faults: KwargItems = ()
    #: Worker-side artifacts to ship back beside the RunResult (e.g.
    #: "occupancy_by_level", "controller_history", "start_levels",
    #: "attribution", "index_heights"). Part of the hash: a cached payload
    #: must contain what the consumer asked for.
    collect: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError(f"RunSpec.scale must be > 0, got {self.scale!r}")
        for name in ("tiles", "cache_bytes", "cache_factor"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(
                    f"RunSpec.{name} must be >= 1 when set, got {value!r}")
        if self.requests_slice is not None:
            offset, step = self.requests_slice
            if offset < 0 or step < 1:
                raise ValueError(
                    "RunSpec.requests_slice needs offset >= 0 and step >= 1, "
                    f"got {tuple(self.requests_slice)!r}")
        names = list(dict(self.memsys_kwargs))
        if self.policy != DEFAULT_POLICY:
            names.append("policy")
        if self.tuner:
            names.append("tuner")
        check_memsys_args(self.system, names)

    @classmethod
    def make(cls, workload: str, system: str, **kwargs: Any) -> "RunSpec":
        """Build a spec, normalizing mapping/sequence arguments.

        Accepts dicts for the ``*_kwargs`` fields and any sequence for
        ``requests_slice``/``collect``, so call sites stay readable while
        the stored form is canonical.
        """
        faults = kwargs.get("faults")
        if faults is not None and hasattr(faults, "items") \
                and not isinstance(faults, (dict, tuple, list)):
            # A FaultPlan instance: take its canonical sorted items.
            kwargs["faults"] = faults.items()
        for name in ("workload_kwargs", "sim_kwargs", "cache_kwargs",
                     "memsys_kwargs", "faults", "tuner"):
            if name in kwargs:
                kwargs[name] = _freeze_kwargs(kwargs[name], name)
        if kwargs.get("requests_slice") is not None:
            offset, step = kwargs["requests_slice"]
            kwargs["requests_slice"] = (int(offset), int(step))
        if kwargs.get("trace_path") is not None:
            kwargs["trace_path"] = str(kwargs["trace_path"])
            if not kwargs.get("trace_sha256"):
                raise ValueError(
                    "trace_path requires trace_sha256 (the cache is keyed "
                    "by content, not path); use exec.spec.trace_digest()"
                )
        if "collect" in kwargs:
            kwargs["collect"] = tuple(kwargs["collect"])
        return cls(workload=workload, system=system, **kwargs)

    def fault_plan(self):
        """The spec's FaultPlan, rebuilt from its stored items (or None)."""
        if not self.faults:
            return None
        from repro.faults import FaultPlan

        return FaultPlan(**dict(self.faults))

    def label(self) -> str:
        """Short human-readable tag for failure reports and logs."""
        return f"{self.workload}/{self.system}@{self.scale:g}s{self.seed}"


def trace_digest(path: str | Path) -> str:
    """SHA-256 of a trace file's bytes, for ``RunSpec.trace_sha256``."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """SHA-256 over every .py source of the repro package.

    Cached results are only valid for the code that produced them; any
    source edit — not just to the touched modules, simulation behaviour
    is cross-cutting — moves the store to a fresh namespace.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
