"""Zero-overhead contract for serve-side request tracing.

``ServeSpec.trace`` must be observationally free: the spans-off payload
is byte-identical to what the engine produced before spans existed (the
committed golden ``BENCH_serve_result.json`` pins its SHA-256), and a
traced run differs from an untraced one by exactly its ``spans`` key.
These tests mirror the sim engine's trace-overhead gate and back the CI
``trace-overhead`` job (``repro report --verify-trace-overhead``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.serve import (
    GOLDEN_PATH,
    _golden_spec,
    result_digest,
    trace_overhead_check,
    write_golden,
)
from repro.exec import Executor
from repro.serve import ServeResult, ServeSpec, simulate_serve

SMALL = 0.01

REPO_ROOT = Path(__file__).resolve().parent.parent


def _spec(**overrides) -> ServeSpec:
    kwargs = dict(scale=SMALL, users=4, tiles=2, duration_ms=1,
                  requests_per_min=6_000_000.0)
    kwargs.update(overrides)
    return ServeSpec.make("scan", **kwargs)


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


GRID = [
    dict(),
    dict(load=1.5),
    dict(balancer="least_loaded"),
    dict(backend="fixed", service_ns=500),
    dict(tiles=3, tile_speedups=(1.0, 0.5, 2.0), seed=7),
]


@pytest.mark.parametrize("overrides", GRID,
                         ids=["base", "hot", "least_loaded", "fixed",
                              "skewed"])
def test_traced_payload_is_untraced_plus_spans(overrides):
    off = simulate_serve(_spec(**overrides)).to_dict()
    on = simulate_serve(_spec(trace=True, **overrides)).to_dict()
    assert "spans" not in off
    spans = on.pop("spans")
    assert spans is not None and len(spans["requests"]) == on["offered"]
    assert _canon(on) == _canon(off)


def test_trace_overhead_check_passes_against_committed_golden():
    text, problems = trace_overhead_check(str(REPO_ROOT / GOLDEN_PATH))
    assert problems == []
    assert "byte-identical" in text


def test_trace_overhead_check_reports_unreadable_golden(tmp_path):
    _, problems = trace_overhead_check(str(tmp_path / "missing.json"))
    assert problems and "unreadable" in problems[0]


def test_trace_overhead_check_reports_golden_without_digest(tmp_path):
    golden = json.loads((REPO_ROOT / GOLDEN_PATH).read_text())
    del golden["result_sha256"]
    path = tmp_path / "no_digest.json"
    path.write_text(json.dumps(golden))
    _, problems = trace_overhead_check(str(path))
    assert problems and "unreadable" in problems[0]


def test_trace_overhead_check_detects_drift(tmp_path):
    golden = json.loads((REPO_ROOT / GOLDEN_PATH).read_text())
    # The digest of a payload with one more offered request.
    result = simulate_serve(_golden_spec(golden)).to_dict()
    result["offered"] += 1
    golden["result_sha256"] = result_digest(result)
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(golden))
    _, problems = trace_overhead_check(str(drifted))
    assert any("drifted" in p for p in problems)


def test_write_golden_reproduces_the_committed_golden(tmp_path):
    """The refresh path rewrites the same digest under the same spec. The
    committed spec predates ``ServeSpec.trace``, so the rewritten spec
    gains that one key and the files are not byte-identical."""
    path = tmp_path / "golden.json"
    write_golden(str(path))
    written = json.loads(path.read_text())
    committed = json.loads((REPO_ROOT / GOLDEN_PATH).read_text())
    assert sorted(written) == sorted(committed) == ["result_sha256", "spec"]
    assert written["result_sha256"] == committed["result_sha256"]
    assert _golden_spec(written) == _golden_spec(committed)


def test_serve_result_roundtrip_with_spans_byte_identical():
    result = simulate_serve(_spec(trace=True))
    first = result.to_dict()
    restored = ServeResult.from_dict(json.loads(json.dumps(first)))
    assert restored.spans is not None
    assert restored.spans.requests == result.spans.requests
    assert _canon(restored.to_dict()) == _canon(first)


def test_trace_knob_changes_digest_only():
    """Tracing is part of the spec identity (a traced cell is a
    different cache entry) but never part of the serving numbers."""
    off, on = _spec(), _spec(trace=True)
    assert off.digest() != on.digest()
    assert on.canonical_dict()["trace"] is True


def test_traced_spec_through_exec_pipeline():
    """Spans survive the exec layer's JSON normalization and store."""
    with Executor(jobs=1) as ex:
        outcome, = ex.run([_spec(trace=True)])
    data = outcome.check().data
    restored = ServeResult.from_dict(data)
    assert restored.spans is not None
    assert len(restored.spans) == restored.offered
    untraced = dict(data)
    untraced.pop("spans")
    assert _canon(untraced) == _canon(simulate_serve(_spec()).to_dict())
