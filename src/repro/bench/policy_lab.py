"""Policy lab — replacement policies x workloads, hit-rate vs tag-energy.

The IX-cache's utility-RRIP policy is one point in a design space; this
lab sweeps every registered :mod:`repro.core.policy` implementation (plus
an auto-tuned variant of the default) across METAL workloads and reports
the two axes the tag-store design trades off:

* **hit rate** — what the policy buys;
* **tag energy** — what its metadata costs. Each policy declares its
  per-entry tag width (4-bit utility counters vs 32-bit LRU timestamps
  vs 2-bit multi-step classes), and every probe reads ``ways`` tags
  while every hit/insert writes one back.

The sweep is one :func:`~repro.bench.grid.run_grid` whose cells set
``RunSpec.policy`` / ``RunSpec.tuner``, so they dedup, parallelize, and
cache exactly like report cells. The per-workload Pareto front answers
the design question directly: a policy off the front is dominated —
some other policy hits at least as often for no more tag energy.

``BENCH_policy.json`` stores the sweep's key metrics with a relative
tolerance; ``--baseline`` compares a run against it through
:mod:`repro.gate`, answering only for the cells a subset sweep ran.
"""

from __future__ import annotations

import argparse
import json
from typing import Any

from repro import gate
from repro.bench.format import render_table
from repro.bench.grid import run_grid
from repro.cmdline import add_jobs, name_list, positive_float
from repro.core.policy import POLICIES, make_policy, tag_energy_fj
from repro.exec.executor import Executor
from repro.params import CacheParams
from repro.sim.metrics import RunResult
from repro.workloads.suite import WORKLOAD_BUILDERS

BASELINE_SCHEMA = "policy-lab/1"

#: The tuned variant's cell label: default policy + online threshold tuner.
TUNED_LABEL = "utility_rrip+tuned"

#: Deterministic tuner config for the lab's tuned cells.
TUNER_CONFIG = {"low_churn": 0.25, "high_churn": 0.75, "step": 1}

DEFAULT_WORKLOADS = ("scan", "select", "sets_s", "rtree")
DEFAULT_SYSTEM = "metal"


def _cell_metrics(run: RunResult, tag_bits: int, ways: int) -> dict:
    cache = run.cache_stats
    return {
        "hit_rate": (cache.hits / cache.accesses) if cache.accesses else 0.0,
        "tag_energy_fj": tag_energy_fj(
            tag_bits, cache.accesses, cache.hits, cache.insertions, ways=ways
        ),
        "tag_bits": tag_bits,
        "evictions": cache.evictions,
        "insertions": cache.insertions,
        "miss_rate": run.miss_rate,
        "makespan": run.makespan,
    }


def pareto_front(cells: dict[str, dict]) -> list[str]:
    """Labels on the (hit_rate up, tag_energy_fj down) Pareto front.

    A cell is dominated when another hits at least as often for no more
    tag energy, strictly better on at least one axis.
    """
    front = []
    for label, cell in cells.items():
        dominated = any(
            other["hit_rate"] >= cell["hit_rate"]
            and other["tag_energy_fj"] <= cell["tag_energy_fj"]
            and (
                other["hit_rate"] > cell["hit_rate"]
                or other["tag_energy_fj"] < cell["tag_energy_fj"]
            )
            for other_label, other in cells.items()
            if other_label != label
        )
        if not dominated:
            front.append(label)
    return sorted(front)


def sweep(
    policies: tuple[str, ...] = (),
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    scale: float = 0.01,
    seed: int = 0,
    jobs: int | str = 1,
    system: str = DEFAULT_SYSTEM,
    tuned: bool = True,
) -> dict[str, Any]:
    """Run the policies x workloads grid; returns the payload dict."""
    policies = tuple(policies) or tuple(sorted(POLICIES))
    cells: dict[str, dict[str, Any]] = {
        name: {"system": system, "policy": name} for name in policies}
    tag_bits = {name: make_policy(name).tag_bits for name in policies}
    if tuned:
        cells[TUNED_LABEL] = {"system": system, "tuner": TUNER_CONFIG}
        tag_bits[TUNED_LABEL] = make_policy(None).tag_bits
    with Executor(jobs=jobs) as executor:
        rows = run_grid(workloads, cells, scale, executor, seed)
    ways = CacheParams().ways
    by_workload = {
        row.workload: {label: _cell_metrics(run, tag_bits[label], ways)
                       for label, run in row.runs.items()}
        for row in rows
    }

    pareto = {w: pareto_front(c) for w, c in by_workload.items()}
    default_dominated = sorted(
        w for w, front in pareto.items() if "utility_rrip" not in front
    )
    return {
        "schema": BASELINE_SCHEMA,
        "scale": scale,
        "seed": seed,
        "system": system,
        "policies": list(policies) + ([TUNED_LABEL] if tuned else []),
        "workloads": list(workloads),
        "cells": by_workload,
        "pareto": pareto,
        "default_dominated_on": default_dominated,
    }


def render(payload: dict[str, Any]) -> str:
    lines = []
    for workload in payload["workloads"]:
        cells = payload["cells"][workload]
        front = set(payload["pareto"][workload])
        rows = [
            [
                label,
                cell["tag_bits"],
                cell["hit_rate"],
                cell["tag_energy_fj"] / 1e6,  # -> nJ, readable magnitudes
                cell["evictions"],
                "*" if label in front else "",
            ]
            for label, cell in sorted(
                cells.items(), key=lambda kv: -kv[1]["hit_rate"]
            )
        ]
        lines.append(render_table(
            ["policy", "tag_bits", "hit_rate", "tag_energy_nJ",
             "evictions", "pareto"],
            rows,
            title=f"{workload} @ scale {payload['scale']:g} ({payload['system']})",
        ))
        lines.append("")
    if payload["default_dominated_on"]:
        lines.append(
            "utility_rrip off the Pareto front on: "
            + ", ".join(payload["default_dominated_on"])
        )
    else:
        lines.append("utility_rrip on the Pareto front for every workload")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Baseline gate (BENCH_policy.json)
# --------------------------------------------------------------------- #


def extract_key_metrics(payload: dict[str, Any]) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for workload, cells in sorted(payload["cells"].items()):
        for label, cell in sorted(cells.items()):
            prefix = f"policy.{workload}.{label}"
            metrics[f"{prefix}.hit_rate"] = cell["hit_rate"]
            metrics[f"{prefix}.tag_energy_fj"] = cell["tag_energy_fj"]
    return metrics


def baseline_document(payload: dict[str, Any]) -> dict[str, Any]:
    """The ``BENCH_policy.json`` document for one sweep payload."""
    return {
        "schema": BASELINE_SCHEMA,
        "scale": payload["scale"],
        "system": payload["system"],
        "rtol": gate.DEFAULT_RTOL,
        "metrics": extract_key_metrics(payload),
    }


GATE = gate.Rules(
    flatten=lambda doc: {"scale": doc.get("scale"),
                         "system": doc.get("system"),
                         **doc.get("metrics", {})},
    config=("scale", "system"),
)


def covered_by(payload: dict[str, Any]):
    """A subset sweep answers only for its own workload x policy cells."""
    workloads = set(payload["workloads"])
    policies = set(payload["policies"])

    def covered(key: str) -> bool:
        _, workload, label, _ = key.split(".", 3)
        return workload in workloads and label in policies

    return covered


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policies", type=name_list(sorted(POLICIES)),
                        default=(),
                        help="comma list; default = every registered policy")
    parser.add_argument("--workloads", type=name_list(WORKLOAD_BUILDERS),
                        default=DEFAULT_WORKLOADS)
    parser.add_argument("--scale", type=positive_float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    add_jobs(parser)
    parser.add_argument("--system", default=DEFAULT_SYSTEM,
                        choices=("metal", "metal_ix"))
    parser.add_argument("--no-tuned", action="store_true",
                        help="skip the auto-tuned default-policy cells")
    parser.add_argument("--json", action="store_true",
                        help="emit the payload as JSON instead of tables")
    gate.add_arguments(parser, "BENCH_policy.json")


def run(args: argparse.Namespace) -> int:
    gate.validate(args)
    payload = sweep(
        policies=args.policies,
        workloads=args.workloads,
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        system=args.system,
        tuned=not args.no_tuned,
    )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render(payload))
    return gate.finish(args, baseline_document(payload), GATE,
                       covered=covered_by(payload))
