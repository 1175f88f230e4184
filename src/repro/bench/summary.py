"""Table 3 — evaluation summary: the paper's headline questions answered
from a full run of the harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.format import geomean, render_table
from repro.bench.speedup import SpeedupResult, headline_ratios, run_speedups
from repro.exec import Executor


@dataclass
class SummaryResult:
    speedups: list[SpeedupResult]
    ratios: dict[str, float]
    energy_ratios: dict[str, float]
    ix_only_ratios: dict[str, float]
    pattern_gain: tuple[float, float]


def run_summary(
    scale: float = 0.25, executor: Executor | None = None
) -> SummaryResult:
    speedups = run_speedups(scale=scale, executor=executor)
    ratios = headline_ratios(speedups)

    energy: dict[str, list[float]] = {"stream": [], "address": [], "xcache": []}
    ix_only: dict[str, list[float]] = {"stream": [], "address": [], "xcache": []}
    pattern_gains = []
    for result in speedups:
        metal_e = result.runs["metal"].dram_energy_fj or 1.0
        ix_span = result.runs["metal_ix"].makespan
        metal_span = result.runs["metal"].makespan
        pattern_gains.append(ix_span / max(1, metal_span))
        for base in energy:
            energy[base].append(result.runs[base].dram_energy_fj / metal_e)
            ix_only[base].append(
                result.runs[base].makespan / max(1, ix_span)
            )
    return SummaryResult(
        speedups=speedups,
        ratios=ratios,
        energy_ratios={k: geomean(v) for k, v in energy.items()},
        ix_only_ratios={k: geomean(v) for k, v in ix_only.items()},
        pattern_gain=(min(pattern_gains), max(pattern_gains)),
    )


def format_table3(summary: SummaryResult) -> str:
    r, e, ix = summary.ratios, summary.energy_ratios, summary.ix_only_ratios
    lo, hi = summary.pattern_gain
    rows = [
        ["How much can METAL improve performance?",
         f"{r['stream']:.1f}x vs stream, {r['address']:.1f}x vs addr, "
         f"{r['xcache']:.1f}x vs X-cache"],
        ["How much DRAM energy can METAL save?",
         f"{e['stream']:.1f}x vs stream, {e['address']:.1f}x vs addr, "
         f"{e['xcache']:.1f}x vs X-cache"],
        ["How much perf. attributed to IX-cache alone?",
         f"{ix['stream']:.1f}x vs stream, {ix['address']:.1f}x vs addr, "
         f"{ix['xcache']:.1f}x vs X-cache"],
        ["How much improvement due to patterns?",
         f"{lo:.2f}x - {hi:.2f}x over METAL-IX"],
    ]
    return render_table(["Question", "Answer"], rows, "Table 3 — Evaluation summary")
