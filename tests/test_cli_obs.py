"""CLI observability paths: profile subcommand, dropped-event warning,
shared system validation, and percentile columns in compare."""

import json

import pytest

from repro.bench.runner import unknown_systems
from repro.cli import main
from repro.obs.tracer import Tracer


class TestSystemValidation:
    def test_known_systems_accepted(self):
        assert unknown_systems(["stream", "metal"]) == []
        # The variant systems must be accepted everywhere (this used to
        # drift: compare accepted address_pf but rejected address_l2).
        assert unknown_systems(["address_pf", "address_l2"]) == []

    def test_unknown_systems_reported_sorted(self):
        assert unknown_systems(["zcache", "metal", "acache"]) == [
            "acache", "zcache"]

    @pytest.mark.parametrize("argv", [
        ["compare", "scan", "--scale", "0.02", "--systems", "bogus"],
        ["trace", "scan", "--system", "bogus", "--scale", "0.02"],
        ["profile", "scan", "--system", "bogus", "--scale", "0.02"],
    ])
    def test_subcommands_share_validation(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "choose from" in err

    def test_compare_accepts_address_l2(self, capsys):
        rc = main(["compare", "scan", "--scale", "0.02",
                   "--systems", "stream,address_l2"])
        assert rc == 0
        assert "address_l2" in capsys.readouterr().out


class TestDroppedWarning:
    def test_trace_warns_with_buffer_suggestion(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        rc = main(["trace", "scan", "--system", "metal", "--scale", "0.02",
                   "--buffer", "256", "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "dropped" in err
        # The suggested capacity is a power of two that would have held
        # every emitted event.
        match = [w for w in err.split() if w.isdigit()]
        suggested = int(match[-1])
        assert suggested & (suggested - 1) == 0
        tracer_events = json.loads(out.read_text())
        assert suggested >= 256
        assert tracer_events["otherData"]["dropped_events"] > 0

    def test_no_warning_when_nothing_dropped(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        rc = main(["trace", "scan", "--system", "metal", "--scale", "0.02",
                   "--out", str(out)])
        assert rc == 0
        assert "dropped 0" not in capsys.readouterr().err
        assert "warning" not in capsys.readouterr().err

    def test_warn_dropped_unit(self, capsys):
        from repro.obs.traced import _warn_dropped

        tracer = Tracer(capacity=4)
        for i in range(11):
            tracer.emit("x", ts=i)
        _warn_dropped(tracer)
        err = capsys.readouterr().err
        assert "dropped 7 of 11" in err
        assert "--buffer 16" in err  # next pow2 >= 11

    def test_warn_dropped_silent_when_complete(self, capsys):
        from repro.obs.traced import _warn_dropped

        tracer = Tracer(capacity=16)
        tracer.emit("x", ts=0)
        _warn_dropped(tracer)
        assert capsys.readouterr().err == ""


class TestProfileSubcommand:
    def test_profile_end_to_end(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["profile", "scan", "--system", "metal",
                   "--scale", "0.02"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Cycle attribution" in out
        assert "p99" in out
        assert "reconciliation: attribution sums match" in out
        gen = (tmp_path / "profile_scan_metal_gen.csv").read_text()
        assert gen.startswith("walk,ix_resident")
        engine = (tmp_path / "profile_scan_metal_engine.csv").read_text()
        assert engine.startswith("cycle,dram_accesses")
        om = (tmp_path / "profile_scan_metal.om").read_text()
        assert om.endswith("# EOF\n")
        assert "repro_walk_latency_cycles_count" in om

    def test_profile_out_prefix(self, capsys, tmp_path):
        prefix = str(tmp_path / "p")
        rc = main(["profile", "scan", "--system", "stream",
                   "--scale", "0.02", "--out-prefix", prefix])
        assert rc == 0
        assert (tmp_path / "p_gen.csv").exists()
        assert (tmp_path / "p_engine.csv").exists()
        assert (tmp_path / "p.om").exists()


class TestComparePercentiles:
    def test_compare_prints_percentile_columns(self, capsys):
        rc = main(["compare", "scan", "--scale", "0.02",
                   "--systems", "stream,metal"])
        assert rc == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines()
                      if line.startswith("system"))
        assert "p50" in header and "p99" in header
        # Percentiles are real numbers, not the '-' placeholder.
        metal_row = next(line for line in out.splitlines()
                         if line.startswith("metal"))
        assert "-" not in metal_row.split("|")[3].strip()


class TestReportDelegation:
    def test_report_forwards_baseline_flags(self, capsys, tmp_path):
        baseline = tmp_path / "b.json"
        rc = main(["report", "--scale", "0.02", "--fast",
                   "--baseline", str(baseline), "--write-baseline"])
        assert rc == 0
        stored = json.loads(baseline.read_text())
        assert stored["schema"] == 1
        assert stored["metrics"]
        rc = main(["report", "--scale", "0.02", "--fast",
                   "--baseline", str(baseline)])
        assert rc == 0
        assert "baseline check passed" in capsys.readouterr().out
