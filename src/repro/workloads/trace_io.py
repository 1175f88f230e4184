"""Walk-trace import/export (JSON lines, optionally gzip).

Lets users capture a workload's request stream once and replay it against
different memory systems or geometries — or bring their own traces from a
real application. Index objects can't serialize, so requests are stored
against *index names* and re-bound at load time.

Format v2 adds two things paper-scale traces need:

* **Chunked iteration** — :func:`iter_trace` yields requests one at a
  time so a multi-million-walk replay never holds the whole list during
  parsing (the pipe run mode feeds the simulator straight from it).
* **Truncation detection** — v2 writers append a trailer record carrying
  the request count; a reader that reaches EOF without seeing it (a
  killed capture, a partial download) raises :class:`TraceTruncated`
  instead of silently replaying a short trace. v1 files (no trailer)
  still load.

Compression is by extension: a ``.gz`` path reads/writes through gzip
transparently (a 10M-walk JSONL trace shrinks ~20x).
"""

from __future__ import annotations

import gzip
import json
from collections.abc import Iterator
from pathlib import Path
from typing import Any, IO

from repro.sim.metrics import WalkRequest

FORMAT_VERSION = 2
#: Oldest version load/iter still accept (v1 has no trailer).
MIN_FORMAT_VERSION = 1


#: A record's optional integer fields, in WalkRequest order: (name,
#: default when absent, smallest legal value or None). None is legal
#: only where it is the default.
_OPTIONAL_FIELDS = (
    ("compute", 0, 0),
    ("data_address", None, 0),
    ("data_bytes", 64, 1),
    ("scan_hi", None, None),
)


class TraceTruncated(ValueError):
    """A v2 trace ended without its trailer — the file is incomplete."""


def _open(path: Path, mode: str) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return path.open(mode)


def save_trace(
    path: str | Path,
    requests: list[WalkRequest],
    index_names: dict[int, str],
) -> int:
    """Write requests as JSONL (gzipped for ``.gz`` paths); returns count.

    ``index_names`` maps ``id(index_object)`` to a stable name. Every
    request's index must be named. The final line is a trailer record
    with the request count, which readers use to detect truncation.
    """
    path = Path(path)
    count = 0
    with _open(path, "w") as f:
        header = {"version": FORMAT_VERSION, "kind": "repro-walk-trace"}
        f.write(json.dumps(header) + "\n")
        for request in requests:
            name = index_names.get(id(request.index))
            if name is None:
                raise KeyError(
                    f"no name registered for index {request.index!r}; "
                    "add it to index_names"
                )
            record = {
                "index": name,
                "key": request.key,
                "compute": request.compute_cycles,
                "data_address": request.data_address,
                "data_bytes": request.data_bytes,
                "scan_hi": request.scan_hi,
            }
            f.write(json.dumps(record) + "\n")
            count += 1
        f.write(json.dumps({"trailer": True, "count": count}) + "\n")
    return count


def _parse_line(path: Path, line_no: int, line: str) -> dict[str, Any]:
    """One JSON-object line of a trace, or ValueError naming ``path:line``."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{line_no}: invalid JSON ({exc})") from None
    if not isinstance(record, dict):
        raise ValueError(
            f"{path}:{line_no}: expected a JSON object, got "
            f"{type(record).__name__}"
        )
    return record


def iter_trace(
    path: str | Path,
    indexes: dict[str, Any],
) -> Iterator[WalkRequest]:
    """Stream a JSONL trace, re-binding index names to live objects.

    Yields one :class:`WalkRequest` per record without materializing the
    list. For v2 traces, raises :class:`TraceTruncated` if the file ends
    before the trailer or the trailer count disagrees with the records
    actually read; v1 traces (no trailer) end at EOF. A malformed line
    (bad JSON, not an object, no ``index``/``key``, a key or optional
    field that is not an integer in range) raises ValueError naming
    ``path:line``; an index name missing from ``indexes`` raises KeyError.
    """
    path = Path(path)
    with _open(path, "r") as f:
        header = _parse_line(path, 1, f.readline())
        if header.get("kind") != "repro-walk-trace":
            raise ValueError(f"{path} is not a repro walk trace")
        version = header.get("version")
        if (
            not isinstance(version, int)
            or not MIN_FORMAT_VERSION <= version <= FORMAT_VERSION
        ):
            raise ValueError(f"unsupported trace version {version!r}")
        expects_trailer = version >= 2
        count = 0
        saw_trailer = False
        for line_no, line in enumerate(f, start=2):
            if not line.strip():
                continue
            record = _parse_line(path, line_no, line)
            if record.get("trailer"):
                declared = record.get("count")
                if declared != count:
                    raise TraceTruncated(
                        f"{path}: trailer declares {declared} requests but "
                        f"{count} were read — file is corrupt"
                    )
                saw_trailer = True
                break
            for field in ("index", "key"):
                if field not in record:
                    raise ValueError(
                        f"{path}:{line_no}: record has no {field!r} field"
                    )
            key = record["key"]
            if not isinstance(key, int) or isinstance(key, bool):
                raise ValueError(
                    f"{path}:{line_no}: key must be an integer, got {key!r}"
                )
            fields = []
            for field, default, low in _OPTIONAL_FIELDS:
                value = record.get(field, default)
                if value is None and default is None:
                    fields.append(value)
                    continue
                if (not isinstance(value, int) or isinstance(value, bool)
                        or (low is not None and value < low)):
                    bound = "" if low is None else f" >= {low}"
                    raise ValueError(
                        f"{path}:{line_no}: {field} must be an integer"
                        f"{bound}, got {value!r}"
                    )
                fields.append(value)
            name = record["index"]
            index = indexes.get(name)
            if index is None:
                raise KeyError(
                    f"{path}:{line_no}: trace references unknown index "
                    f"{name!r}; provide it in `indexes`"
                )
            count += 1
            yield WalkRequest(index, key, *fields)
        if expects_trailer and not saw_trailer:
            raise TraceTruncated(
                f"{path}: reached end of file after {count} requests "
                "without the trailer record — the trace was truncated"
            )


def load_trace(
    path: str | Path,
    indexes: dict[str, Any],
) -> list[WalkRequest]:
    """Read a whole JSONL trace into a list (see :func:`iter_trace`)."""
    return list(iter_trace(path, indexes))


def workload_index_names(workload: Any) -> dict[int, str]:
    """Default naming for a suite workload's indexes (index0, index1...).

    Requests may reference sub-indexes of composite structures (the
    R-tree's x/y trees), so walk the request stream too.
    """
    names: dict[int, str] = {}
    for i, index in enumerate(workload.indexes):
        names[id(index)] = f"index{i}"
    for request in workload.requests:
        if id(request.index) not in names:
            names[id(request.index)] = f"index{len(names)}"
    return names
