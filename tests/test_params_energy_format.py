"""Tests for params, the energy model, and report formatting."""

import pytest

from repro.bench.format import geomean, render_bars, render_table
from repro.core.energy_model import (
    CacheEnergyModel,
    TAG_MATCH_TABLE,
)
from repro.params import (
    ADDRESS_CACHE_ENERGY_FJ,
    BLOCK_SIZE,
    CacheParams,
    DRAMParams,
    IXCACHE_ENERGY_FJ,
    SimParams,
    XCACHE_ENERGY_FJ,
)


class TestParams:
    def test_cache_entries(self):
        assert CacheParams(capacity_bytes=64 * 1024).entries == 1024

    def test_cache_sets(self):
        params = CacheParams(capacity_bytes=64 * 1024, ways=16)
        assert params.sets == 64

    def test_block_size_is_64(self):
        # "All cache blocks are set to 64 bytes to ensure a fair comparison"
        assert BLOCK_SIZE == 64
        assert CacheParams().block_bytes == 64

    def test_paper_energy_constants(self):
        # Section 5.7: 9000 fJ vs 7000 fJ per access.
        assert IXCACHE_ENERGY_FJ == 9_000.0
        assert ADDRESS_CACHE_ENERGY_FJ == XCACHE_ENERGY_FJ == 7_000.0

    def test_dram_dominates_sram(self):
        dram = DRAMParams()
        assert dram.e_access > 50 * IXCACHE_ENERGY_FJ
        assert dram.t_access > SimParams().t_ix_probe

    def test_sim_defaults_consistent(self):
        sim = SimParams()
        # One IX probe per walk must cost less than one per-level address
        # probe chain of even a 1-level walk.
        assert sim.t_ix_probe < sim.t_addr_probe
        assert sim.t_fa_probe > sim.t_addr_probe


class TestEnergyModel:
    def test_known_organizations(self):
        model = CacheEnergyModel()
        assert model.cache_energy("metal", 10) == 90_000.0
        assert model.cache_energy("address", 10) == 70_000.0
        assert model.cache_energy("stream", 1_000) == 0.0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            CacheEnergyModel().cache_energy("l3", 1)

    def test_tag_match_table_shape(self):
        assert len(TAG_MATCH_TABLE) == 5
        metal = TAG_MATCH_TABLE[-1]
        assert metal.process_nm == 45
        assert metal.bits == "2x32"


class TestRenderTable:
    def test_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_title(self):
        out = render_table(["x"], [[1]], title="T")
        assert out.startswith("T\n")

    def test_float_formatting(self):
        out = render_table(["v"], [[0.123456], [123.456], [1.5]])
        assert "0.123" in out
        assert "123" in out
        assert "1.50" in out


class TestRenderBars:
    def test_peak_gets_full_width(self):
        out = render_bars(["a", "b"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0, 2.0])

    def test_zero_values(self):
        out = render_bars(["a"], [0.0])
        assert "#" not in out


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geomean([3.0]) == 3.0

    def test_rejects_nonpositive(self):
        # A zero ratio must not vanish from a headline geomean.
        for values in ([4.0, 0.0], [4.0, -1.0], [float("nan")]):
            with pytest.raises(ValueError, match="positive"):
                geomean(values)

    def test_empty(self):
        with pytest.raises(ValueError, match="no values"):
            geomean([])

    def test_positive_arithmetic_unchanged(self):
        # The left-to-right product, then one root: modeled benchmark
        # counters read these exact bits.
        values = [7.3, 0.41, 2.9, 11.0]
        product = ((7.3 * 0.41) * 2.9) * 11.0
        assert geomean(values) == product ** (1.0 / 4)
