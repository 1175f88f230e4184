"""Trace format v2: chunked iteration, gzip, and truncation detection.

``tests/test_extensions.py`` covers the v1-era basics (save/load, name
re-binding, unknown-index errors); this file pins what format v2 added
for paper-scale replay: streaming iteration that never materializes the
list, transparent gzip by extension, the trailer-based truncation check,
and the replay run mode that rides on all three (``RunSpec.trace_path``
+ content digest).
"""

import gzip
import json
import re

import pytest

from repro.exec import Executor, RunSpec
from repro.exec.spec import trace_digest
from repro.workloads.suite import build_workload
from repro.workloads.trace_io import (
    FORMAT_VERSION,
    TraceTruncated,
    iter_trace,
    load_trace,
    save_trace,
    workload_index_names,
)


@pytest.fixture(scope="module")
def workload():
    return build_workload("scan", scale=0.05)


def _roundtrip(workload, path):
    save_trace(path, workload.requests, workload_index_names(workload))
    loaded = load_trace(path, {"index0": workload.indexes[0]})
    assert len(loaded) == len(workload.requests)
    for got, want in zip(loaded, workload.requests):
        assert got.key == want.key
        assert got.index is want.index
        assert got.data_address == want.data_address
    return loaded


def test_roundtrip_plain_and_gzip(workload, tmp_path):
    _roundtrip(workload, tmp_path / "t.jsonl")
    _roundtrip(workload, tmp_path / "t.jsonl.gz")
    # The .gz file really is gzip (not accidentally plain text).
    with gzip.open(tmp_path / "t.jsonl.gz", "rt") as f:
        assert json.loads(f.readline())["kind"] == "repro-walk-trace"


def test_iter_trace_streams_without_materializing(workload, tmp_path):
    path = tmp_path / "t.jsonl"
    save_trace(path, workload.requests, workload_index_names(workload))
    it = iter_trace(path, {"index0": workload.indexes[0]})
    first = next(it)
    assert first.key == workload.requests[0].key
    assert sum(1 for _ in it) == len(workload.requests) - 1


@pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
def test_truncated_trace_raises_clear_error(workload, tmp_path, suffix):
    """A killed capture must fail loudly, not silently replay short."""
    path = tmp_path / ("t" + suffix)
    save_trace(path, workload.requests, workload_index_names(workload))
    opener = gzip.open if suffix.endswith(".gz") else open
    with opener(path, "rt") as f:
        lines = f.readlines()
    assert json.loads(lines[-1])["trailer"] is True
    with opener(path, "wt") as f:
        f.writelines(lines[:-5])  # drop the trailer and a few records
    with pytest.raises(TraceTruncated, match="without the trailer"):
        load_trace(path, {"index0": workload.indexes[0]})


def test_corrupt_trailer_count_raises(workload, tmp_path):
    path = tmp_path / "t.jsonl"
    save_trace(path, workload.requests, workload_index_names(workload))
    lines = path.read_text().splitlines(keepends=True)
    bad = json.dumps({"trailer": True, "count": 1}) + "\n"
    path.write_text("".join(lines[:-1]) + bad)
    with pytest.raises(TraceTruncated, match="corrupt"):
        load_trace(path, {"index0": workload.indexes[0]})


def test_v1_trace_without_trailer_still_loads(workload, tmp_path):
    """Old captures have no trailer; they end at EOF, no error."""
    path = tmp_path / "t.jsonl"
    save_trace(path, workload.requests, workload_index_names(workload))
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["version"] = 1
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:-1]))
    loaded = load_trace(path, {"index0": workload.indexes[0]})
    assert len(loaded) == len(workload.requests)


def test_unsupported_version_rejected(workload, tmp_path):
    path = tmp_path / "t.jsonl"
    save_trace(path, workload.requests, workload_index_names(workload))
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    with pytest.raises(ValueError, match="unsupported trace version"):
        load_trace(path, {"index0": workload.indexes[0]})


_HEADER = json.dumps({"version": FORMAT_VERSION, "kind": "repro-walk-trace"})
_RECORD = json.dumps({"index": "index0", "key": 5})


@pytest.mark.parametrize("lines, line_no", [
    (["[1]"], 1),
    (["{not json"], 1),
    ([_HEADER, _RECORD, '"x"'], 3),
    ([_HEADER, _RECORD, "[1, 2]"], 3),
    ([_HEADER, _RECORD, "7"], 3),
    ([_HEADER, _RECORD, '{"index": "index0", "key": '], 3),
    ([_HEADER, _RECORD, '{"index": "index0"}'], 3),
    ([_HEADER, _RECORD, '{"key": 5}'], 3),
    ([_HEADER, _RECORD, '{"index": "index0", "key": "abc"}'], 3),
    ([_HEADER, _RECORD, '{"index": "index0", "key": 1.5}'], 3),
    ([_HEADER, _RECORD, '{"index": "index0", "key": true}'], 3),
    ([_HEADER, _RECORD, '{"index": "index0", "key": 5, "scan_hi": "abc"}'], 3),
    ([_HEADER, _RECORD, '{"index": "index0", "key": 5, "compute": "x"}'], 3),
    ([_HEADER, _RECORD, '{"index": "index0", "key": 5, "compute": null}'], 3),
    ([_HEADER, _RECORD, '{"index": "index0", "key": 5, "data_bytes": -5}'], 3),
    ([_HEADER, _RECORD,
      '{"index": "index0", "key": 5, "data_address": 1.5}'], 3),
], ids=["header-not-object", "header-bad-json", "record-string",
        "record-list", "record-number", "record-bad-json", "missing-key",
        "missing-index", "string-key", "float-key", "bool-key",
        "string-scan-hi", "string-compute", "null-compute",
        "negative-data-bytes", "float-data-address"])
def test_malformed_line_names_path_and_line(workload, tmp_path, lines,
                                            line_no):
    """Bad input fails at the boundary with its location, not later in
    the simulator or as a bare KeyError/AttributeError."""
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line_no}:")):
        load_trace(path, {"index0": workload.indexes[0]})


class TestReplaySpec:
    def test_replayed_spec_matches_direct_run(self, workload, tmp_path):
        """Replaying a workload's own captured trace must reproduce the
        direct run byte for byte (the requests are identical)."""
        path = tmp_path / "t.jsonl.gz"
        save_trace(path, workload.requests, workload_index_names(workload))
        direct = RunSpec.make("scan", "metal", scale=0.05)
        replay = RunSpec.make(
            "scan", "metal", scale=0.05,
            trace_path=path, trace_sha256=trace_digest(path),
        )
        assert direct.digest() != replay.digest()
        with Executor(jobs=1, store=None) as executor:
            direct_out, replay_out = executor.run([direct, replay])
        assert direct_out.check().payload["result"] == \
               replay_out.check().payload["result"]

    def test_trace_path_requires_digest(self):
        with pytest.raises(ValueError, match="trace_sha256"):
            RunSpec.make("scan", "metal", trace_path="/tmp/x.jsonl")

    def test_digest_mismatch_fails_loudly(self, workload, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(path, workload.requests, workload_index_names(workload))
        spec = RunSpec.make(
            "scan", "metal", scale=0.05,
            trace_path=path, trace_sha256="0" * 64,
        )
        with Executor(jobs=1, store=None) as executor:
            outcome = executor.run([spec])[0]
        with pytest.raises(Exception, match="sha256|file changed"):
            outcome.check()


def test_cli_pipe_truncated_trace_exits_one(workload, tmp_path, capsys):
    """`repro compare --replay` on a truncated capture: exit 1 and the
    clear trace_io message, not a raw worker traceback."""
    from repro.cli import main

    path = tmp_path / "t.jsonl"
    save_trace(path, workload.requests, workload_index_names(workload))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-5]))  # kill the capture mid-write
    rc = main(["compare", "scan", "--replay", str(path), "--scale", "0.05",
               "--systems", "metal"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "trace replay failed" in err
    assert "without the trailer" in err
    assert "Traceback" not in err


def test_cli_replay_missing_trace_exits_one(tmp_path, capsys):
    from repro.cli import main

    rc = main(["compare", "scan", "--replay", str(tmp_path / "nope.jsonl"),
               "--scale", "0.05", "--systems", "metal"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "trace replay failed" in err and "nope.jsonl" in err
    assert "Traceback" not in err


def test_cli_replay_matches_direct_replay_spec(workload, tmp_path,
                                                monkeypatch):
    """`compare --replay` submits, per system, exactly the RunSpec a
    direct replay builds, and reports that spec's counters."""
    from repro.cli import main

    path = tmp_path / "t.jsonl.gz"
    save_trace(path, workload.requests, workload_index_names(workload))
    systems = ("stream", "metal")
    submitted, reported = [], []
    real = Executor.run_results

    def spy(self, specs):
        specs = list(specs)
        submitted.extend(specs)
        reported.extend(real(self, specs))
        return reported

    monkeypatch.setattr(Executor, "run_results", spy)
    assert main(["compare", "scan", "--replay", str(path), "--scale", "0.05",
                 "--systems", ",".join(systems)]) == 0
    monkeypatch.undo()
    direct = [
        RunSpec.make("scan", system, scale=0.05, record_latencies=True,
                     trace_path=path, trace_sha256=trace_digest(path))
        for system in systems
    ]
    assert submitted == direct
    with Executor(jobs=1, store=None) as executor:
        replayed = executor.run_results(direct)
    assert [r.to_dict() for r in reported] == [r.to_dict() for r in replayed]
