"""FaultPlan — a frozen, canonically-hashed fault schedule description.

A plan is pure data: JSON scalars only, serialized to the same canonical
form :class:`repro.exec.spec.RunSpec` uses, so faulted runs flow through
the exec layer's dedup and content-addressed result cache unchanged — a
faulted spec and its unfaulted twin can never collide, and two plans that
mean the same schedule always hash the same.

Rates are per-opportunity probabilities (one draw per injection site
visit); cycle fields are the penalty magnitudes. A plan whose every rate
is zero is *empty*: the simulator treats it exactly like ``faults=None``
(no injector is built, no branch beyond the construction-time check), so
``FaultPlan()`` is byte-identical to no plan by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.frozen import FrozenSpec


@dataclass(frozen=True)
class FaultPlan(FrozenSpec):
    """Seeded schedule of injected adversity for one simulation.

    Fault taxonomy (see ``docs/robustness.md``):

    * **DRAM latency spikes** — a read/write completes ``dram_spike_cycles``
      late (thermal throttling, refresh collision).
    * **DRAM bank stalls** — a bank stays busy ``bank_stall_cycles`` extra
      after a request (rank-level refresh burst); queueing delay surfaces
      in later accesses' ``dram_queue`` attribution.
    * **NoC congestion bursts** — a crossbar port's service start slips by
      ``noc_burst_cycles`` (background traffic burst).
    * **Transient walker-context failures** — a walker's DRAM refill step
      returns garbage; the walker retries with exponential backoff
      (``walker_backoff_cycles << attempt``) up to ``walker_retry_limit``
      times, re-fetching the node each time. A step that exhausts its
      retries completes through a degraded full refetch and marks the walk
      degraded.
    * **IX-cache tag corruption** — a probe hit's range tag fails its
      integrity check; the entry is invalidated and the walk refetches via
      a full root-to-leaf walk (detect + invalidate-and-refetch fallback).
    * **Invalidation storms** — a span of ``storm_span_blocks`` key blocks
      around the probed key is invalidated wholesale (coherence storm /
      spurious structural-change signal), forcing re-misses.
    """

    seed: int = 0
    #: Per-access probability of a DRAM latency spike.
    dram_spike_rate: float = 0.0
    dram_spike_cycles: int = 400
    #: Per-access probability of an extended bank stall.
    bank_stall_rate: float = 0.0
    bank_stall_cycles: int = 200
    #: Per-probe probability of a crossbar congestion burst.
    noc_burst_rate: float = 0.0
    noc_burst_cycles: int = 32
    #: Per-refill probability that a walker step transiently fails.
    walker_fail_rate: float = 0.0
    walker_retry_limit: int = 3
    walker_backoff_cycles: int = 16
    #: Per-hit probability that the matched range tag reads corrupted.
    tag_corrupt_rate: float = 0.0
    #: Per-walk probability of an invalidation storm around the key.
    storm_rate: float = 0.0
    storm_span_blocks: int = 4

    _RATE_FIELDS = (
        "dram_spike_rate", "bank_stall_rate", "noc_burst_rate",
        "walker_fail_rate", "tag_corrupt_rate", "storm_rate",
    )

    def __post_init__(self) -> None:
        for name in self._RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        for name in ("dram_spike_cycles", "bank_stall_cycles",
                     "noc_burst_cycles", "walker_backoff_cycles",
                     "walker_retry_limit", "storm_span_blocks"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, **overrides) -> "FaultPlan":
        """Every fault class at probability ``rate`` (storms at rate/4).

        The resilience-curve convention (``bench.chaos`` / ``repro chaos``):
        one knob sweeps the whole taxonomy, with the heavyweight storms
        scaled down so a 10% sweep degrades rather than wipes the cache.
        """
        kwargs = dict(
            seed=seed,
            dram_spike_rate=rate,
            bank_stall_rate=rate,
            noc_burst_rate=rate,
            walker_fail_rate=rate,
            tag_corrupt_rate=rate,
            storm_rate=rate / 4,
        )
        kwargs.update(overrides)
        return cls(**kwargs)

    @property
    def is_empty(self) -> bool:
        """True when no fault can ever fire (every rate is zero).

        An empty plan is contractually identical to ``faults=None``: the
        orchestrator skips injector construction entirely, so a rate-0
        plan can never perturb a run.
        """
        return all(getattr(self, name) == 0.0 for name in self._RATE_FIELDS)

    def to_dict(self) -> dict:
        return asdict(self)

    def items(self) -> tuple[tuple[str, int | float], ...]:
        """Sorted (field, value) pairs — the RunSpec-embeddable form."""
        return tuple(sorted(asdict(self).items()))

    def label(self) -> str:
        """Short human-readable tag for tables and logs."""
        if self.is_empty:
            return "no-faults"
        peak = max(getattr(self, name) for name in self._RATE_FIELDS)
        return f"faults@{peak:g}s{self.seed}"
