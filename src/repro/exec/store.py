"""ResultStore — content-addressed on-disk cache of run payloads.

Layout::

    <root>/<code_version[:12]>/<digest[:2]>/<digest>.json

where ``digest`` is the RunSpec's canonical SHA-256. Each file stores the
spec's canonical form beside the payload, so a (vanishingly unlikely)
digest collision or a hand-edited file reads as a miss, never as wrong
data. Writes go through a temp file + :func:`os.replace`, so concurrent
report invocations sharing a store race benignly (last atomic write
wins; both wrote the same bytes).

Simulation results depend on the whole simulator, so the namespace is the
hash of every ``repro`` source file (:func:`repro.exec.spec.code_version`):
editing any module invalidates the store wholesale rather than guessing
at dependency structure. Stale version directories are garbage, reclaimed
by :meth:`ResultStore.prune_stale`.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any

from repro.exec.spec import RunSpec, code_version

#: Environment override for the default store root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default store root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


class ResultStore:
    """Content-addressed payload cache keyed by RunSpec digest + code hash."""

    def __init__(self, root: str | Path | None = None,
                 version: str | None = None) -> None:
        self.root = Path(root if root is not None else default_cache_dir())
        self.version = version or code_version()

    def path_for(self, spec: RunSpec) -> Path:
        digest = spec.digest()
        return self.root / self.version[:12] / digest[:2] / f"{digest}.json"

    def get(self, spec: RunSpec) -> dict[str, Any] | None:
        """The stored payload, or None on miss/corruption/spec mismatch."""
        path = self.path_for(spec)
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict) or data.get("spec") != spec.canonical_dict():
            return None
        payload = data.get("payload")
        return payload if isinstance(payload, dict) else None

    def put(self, spec: RunSpec, payload: dict[str, Any]) -> None:
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump({"spec": spec.canonical_dict(), "payload": payload}, f)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def prune_stale(self) -> int:
        """Delete result directories of other code versions; count removed."""
        if not self.root.is_dir():
            return 0
        keep = self.version[:12]
        removed = 0
        for entry in self.root.iterdir():
            if entry.is_dir() and entry.name != keep:
                shutil.rmtree(entry, ignore_errors=True)
                removed += 1
        return removed
