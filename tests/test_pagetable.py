"""Tests for the radix page table and its IX-cache integration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.indexes.pagetable import RadixPageTable
from repro.params import BLOCK_SIZE, CacheParams
from repro.sim.memsys import make_memsys
from tests.walks import walk


def small_pt(**kw):
    defaults = dict(levels=3, bits_per_level=4, page_bits=12)
    defaults.update(kw)
    return RadixPageTable(**defaults)


class TestMapping:
    def test_map_and_translate(self):
        pt = small_pt()
        pfn = pt.map_page(0x1000)
        pa = pt.translate(0x1234)
        assert pa == (pfn << 12) | 0x234

    def test_unmapped_returns_none(self):
        assert small_pt().translate(0x5000) is None

    def test_explicit_pfn(self):
        pt = small_pt()
        pt.map_page(0x2000, pfn=42)
        assert pt.translate(0x2000) == 42 << 12

    def test_remap_overwrites(self):
        pt = small_pt()
        pt.map_page(0x1000, pfn=1)
        pt.map_page(0x1000, pfn=2)
        assert pt.translate(0x1000) == 2 << 12
        assert pt.mapped_pages == 1

    def test_unmap(self):
        pt = small_pt()
        pt.map_page(0x3000)
        assert pt.unmap_page(0x3000)
        assert pt.translate(0x3000) is None
        assert not pt.unmap_page(0x3000)

    def test_out_of_range_rejected(self):
        pt = small_pt()
        with pytest.raises(ValueError):
            pt.map_page(1 << pt.va_bits)

    def test_geometry(self):
        pt = RadixPageTable(levels=4, bits_per_level=9, page_bits=12)
        assert pt.va_bits == 48
        assert pt.height == 4


class TestWalks:
    def test_walk_depth_after_mapping(self):
        pt = small_pt()
        pt.map_page(0x4000)
        path = pt.walk(0x4000)
        assert len(path) == pt.levels
        assert path[0] is pt.root

    def test_walk_unmapped_stops_early(self):
        pt = small_pt()
        pt.map_page(0x0)
        far = 1 << (pt.va_bits - 1)
        assert len(pt.walk(far)) < pt.levels

    def test_node_ranges_nest(self):
        pt = small_pt()
        pt.map_page(0xABC000 % (1 << pt.va_bits))
        path = pt.walk(0xABC000 % (1 << pt.va_bits))
        for parent, child in zip(path, path[1:]):
            assert parent.lo <= child.lo and child.hi <= parent.hi

    def test_walk_from_skips_levels(self):
        pt = small_pt()
        pt.map_page(0x7000)
        full = pt.walk(0x7000)
        partial = pt.walk_from(full[1], 0x7000)
        assert partial == full[1:]

    def test_walk_from_noncovering_rejected(self):
        pt = small_pt()
        pt.map_page(0x0)
        leafish = pt.walk(0x0)[-1]
        far = 1 << (pt.va_bits - 1)
        pt.map_page(far)
        with pytest.raises(ValueError):
            pt.walk_from(leafish, far)


class TestIXCacheIntegration:
    def test_page_walk_short_circuits(self):
        """The IX-cache acts as a page-walk/translation cache."""
        pt = small_pt()
        for page in range(0, 64 * 4096, 4096):
            pt.map_page(page)
        ms = make_memsys(
            "metal_ix", cache_params=CacheParams(capacity_bytes=64 * BLOCK_SIZE)
        )
        cold = walk(ms, pt, 0x8000)
        warm = walk(ms, pt, 0x8000)
        assert not cold.short_circuited
        assert warm.short_circuited
        assert warm.nodes_visited < cold.nodes_visited

    def test_neighbor_pages_share_table_nodes(self):
        pt = small_pt()
        for page in range(0, 16 * 4096, 4096):
            pt.map_page(page)
        ms = make_memsys(
            "metal_ix", cache_params=CacheParams(capacity_bytes=64 * BLOCK_SIZE)
        )
        walk(ms, pt, 0x0)
        # A neighbouring page under the same table node short-circuits too.
        trace = walk(ms, pt, 0x1000)
        assert trace.short_circuited

    def test_unmap_invalidates_cached_walk(self):
        pt = small_pt()
        pt.map_page(0x5000)
        ms = make_memsys(
            "metal_ix", cache_params=CacheParams(capacity_bytes=64 * BLOCK_SIZE)
        )
        walk(ms, pt, 0x5000)
        pt.unmap_page(0x5000)  # fires the shootdown hook
        trace = walk(ms, pt, 0x5000)
        assert trace is not None
        assert pt.translate(0x5000) is None


@settings(max_examples=25, deadline=None)
@given(pages=st.sets(st.integers(0, 1 << 10), min_size=1, max_size=64))
def test_property_translate_roundtrip(pages):
    pt = RadixPageTable(levels=3, bits_per_level=5, page_bits=12)
    mapping = {}
    for vpn in pages:
        vaddr = vpn << 12
        mapping[vaddr] = pt.map_page(vaddr)
    for vaddr, pfn in mapping.items():
        assert pt.translate(vaddr + 7) == (pfn << 12) | 7
    assert pt.mapped_pages == len(pages)
