"""FrozenSpec — canonical JSON and SHA-256 for frozen spec dataclasses.

:class:`~repro.exec.spec.RunSpec`, :class:`~repro.serve.spec.ServeSpec`
and :class:`~repro.faults.plan.FaultPlan` are pure data whose digests key
the result store, so all three must turn into bytes the same way. This
module imports nothing from ``repro`` so any layer can use it without an
import cycle.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from typing import Any


class FrozenSpec:
    """Mixin for frozen dataclasses of JSON scalars and tuples."""

    def canonical(self) -> str:
        """Stable JSON text: same meaning => same bytes => same digest."""
        return json.dumps(
            {f.name: getattr(self, f.name) for f in fields(self)},
            sort_keys=True, separators=(",", ":"),
        )

    def canonical_dict(self) -> dict[str, Any]:
        """The canonical form as plain JSON data (tuples become lists)."""
        return json.loads(self.canonical())

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()
