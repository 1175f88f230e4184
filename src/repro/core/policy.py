"""Pluggable IX-cache replacement policies and the reuse-threshold tuner.

The paper evaluates one fixed replacement scheme: 4-bit saturating utility
counters with SRRIP-style insertion and survivor aging (Section 5). This
module makes that scheme one point in a pluggable axis so the policy lab
(:mod:`repro.bench.policy_lab`) can sweep alternatives against it:

* :class:`UtilityRRIPPolicy` — the paper's scheme, byte-identical to the
  previously hard-coded ``_evict_from``/``_place_in_set`` victim logic.
* :class:`TrueLRUPolicy` — exact per-set LRU over full access stamps.
* :class:`MultiStepLRUPolicy` — set-wide approximate LRU that only
  distinguishes ``steps`` recency classes (Multi-step LRU, arXiv
  2112.09981): victims come from the oldest class, tie-broken by
  insertion order, for a tag cost of ``ceil(log2(steps))`` bits instead
  of a full timestamp.
* :class:`FrequencyPolicy` — LFU-style hit counting with per-eviction
  aging; one-touch streaming entries churn out first.
* :class:`LevelCostPolicy` — cost-aware utility: refilling a deep entry
  (near the leaves) costs a longer walk from the last cached ancestor
  than refilling a shallow one, so depth is folded into the victim score
  and low-utility *shallow* entries go first.

Policies keep their per-entry state on ``IXEntry.utility`` (the paper's
counter) and ``IXEntry.stamp`` (a policy-defined scratch word: LRU tick,
hit count). The cache consults the policy through the protocol below:
``on_insert``, ``on_hit`` and, per eviction, ``evict``, which the base
class builds from ``select_victim`` and ``epoch_decay``. Everything else
(set geometry, coalescing, wide-entry spill) stays policy-independent.

The :class:`ThresholdTuner` is the other half of the lab: an online
controller that retunes the reuse patterns' admission thresholds
(Node/Level ``min_touches``, Branch depth) between batches from the
cache's own eviction/insertion counters, extending the paper's static
dynamic-tuning result (Section 5.4) to run time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ix_cache -> policy)
    from repro.core.ix_cache import IXEntry

#: 4-bit saturating utility counter ceiling ("we track utility by using
#: 4-bit saturating counters (one per entry)", Section 5).
UTILITY_MAX = 15
#: Utility a fresh entry starts with: high enough to survive a few
#: evictions until its first re-hit (SRRIP-style insertion position).
UTILITY_INSERT = 3

#: Tag-metadata energy model for the policy lab's Pareto axis. Every
#: probe's match stage reads the replacement metadata of each way it
#: compares; hits and insertions write one entry's metadata back. The
#: absolute figures are nominal — what the Pareto table measures is the
#: *ratio* between policies, which is set by their per-entry bit widths.
TAG_READ_FJ_PER_BIT = 2.0
TAG_WRITE_FJ_PER_BIT = 4.0


def tag_energy_fj(
    tag_bits: int, accesses: int, hits: int, insertions: int, ways: int = 16
) -> float:
    """Replacement-metadata energy of one run, in femtojoules.

    ``accesses`` probes each read ``ways`` entries' metadata; every hit
    and every insertion writes one entry's metadata back.
    """
    reads = accesses * ways * tag_bits * TAG_READ_FJ_PER_BIT
    writes = (hits + insertions) * tag_bits * TAG_WRITE_FJ_PER_BIT
    return reads + writes


class ReplacementPolicy(ABC):
    """Victim selection + per-entry metadata maintenance for the IX-cache.

    The cache calls three hooks:

    * :meth:`on_insert` — a new entry was placed (set its metadata).
    * :meth:`on_hit` — an entry matched a probe or absorbed a duplicate
      insertion (promote it).
    * :meth:`evict` — remove one entry from a full set and age the
      survivors. The base class builds it from two hooks a policy
      defines: :meth:`select_victim`, which chooses one entry from a
      non-empty candidate list (resident and, whenever any exist,
      unpinned; the choice must be deterministic given entry state),
      and :meth:`epoch_decay`, which ages the survivors of one eviction
      (the RRIP-style renormalization step; a no-op for recency
      policies). Every IX-cache eviction runs through :meth:`evict`.

    ``clear()`` must reset any cross-entry state (ticks, counters) so a
    cleared cache behaves like a fresh one.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"
    #: Replacement-metadata bits per entry (the Pareto energy axis).
    tag_bits: int = 0

    @abstractmethod
    def on_insert(self, entry: "IXEntry") -> None:
        """Initialize a newly placed entry's replacement metadata."""

    @abstractmethod
    def on_hit(self, entry: "IXEntry") -> None:
        """Promote an entry that matched a probe (or duplicate insert)."""

    @abstractmethod
    def select_victim(self, candidates: "list[IXEntry]") -> "IXEntry":
        """Pick the entry to evict. ``candidates`` is never empty."""

    def epoch_decay(self, survivors: "Iterable[IXEntry]", victim: "IXEntry") -> None:
        """Age the set's survivors after one eviction (default: no-op)."""

    def evict(self, entries: "list[IXEntry]") -> "IXEntry":
        """Remove and return one victim of the full list ``entries``.

        Unpinned entries are the candidate pool: :meth:`select_victim`
        picks the victim, every survivor's lease drops by one, and
        :meth:`epoch_decay` ages the survivors (RRIP-style
        renormalization for the default policy: entries that keep
        getting hit stay near the top of the counter range while
        streaming one-touch insertions churn at the bottom).
        """
        victims = [e for e in entries if e.life <= 0]
        if not victims:
            # Lifetime pins are advisory: rather than deadlocking a fully
            # pinned set, reclaim the pinned entry with the least remaining
            # life (its expected accesses are most nearly consumed).
            victim = min(entries, key=lambda e: (e.life, e.utility, e.seq))
            entries.remove(victim)
            # Survivors age on this path exactly as on the unpinned path:
            # a fully-pinned, saturated set (common in the wide array,
            # whose near-root entries carry long lifetimes) must not stay
            # permanently fresher than set entries under the same
            # eviction pressure.
            self.epoch_decay(entries, victim)
            return victim
        victim = self.select_victim(victims)
        entries.remove(victim)
        for entry in entries:
            if entry.life > 0:
                # Lifetime is a lease, not a grant in perpetuity: pins
                # decay under eviction pressure so entries whose expected
                # accesses never arrive become reclaimable.
                entry.life -= 1
        self.epoch_decay(entries, victim)
        return victim

    def clear(self) -> None:
        """Reset cross-entry policy state (default: none to reset)."""

    def describe(self) -> dict[str, Any]:
        return {"policy": self.name, "tag_bits": self.tag_bits}


class UtilityRRIPPolicy(ReplacementPolicy):
    """The paper's fixed scheme: 4-bit saturating utility + aging.

    Byte-identical to the pre-refactor hard-coded victim logic: insert at
    utility 3, saturating +1 per hit, evict the (utility, seq)-minimal
    candidate, and — when the victim had non-zero utility — age every
    survivor one notch so stale saturated entries eventually churn.
    """

    name = "utility_rrip"
    tag_bits = 4

    def on_insert(self, entry: "IXEntry") -> None:
        entry.utility = UTILITY_INSERT

    def on_hit(self, entry: "IXEntry") -> None:
        if entry.utility < UTILITY_MAX:
            entry.utility += 1

    def select_victim(self, candidates: "list[IXEntry]") -> "IXEntry":
        # The first (utility, seq)-minimal candidate, as
        # ``min(candidates, key=lambda e: (e.utility, e.seq))`` returns,
        # without a key tuple per candidate: this runs on every eviction.
        victim = candidates[0]
        best = victim.utility
        for entry in candidates:
            utility = entry.utility
            if utility < best or (utility == best and entry.seq < victim.seq):
                victim = entry
                best = utility
        return victim

    def epoch_decay(self, survivors: "Iterable[IXEntry]", victim: "IXEntry") -> None:
        # Saturating decrement: max(0, utility - 1) on 4-bit counters.
        if victim.utility > 0:
            for entry in survivors:
                if entry.utility > 0:
                    entry.utility -= 1

    def evict(self, entries: "list[IXEntry]") -> "IXEntry":
        # The base class's composition in two passes: one selection pass
        # and one pass that drops leases and ages utility together. The
        # cache keeps every set in ``seq`` order (entries are appended
        # when created and never reordered), so the first unpinned entry
        # of minimal utility is the (utility, seq) minimum.
        victim = None
        best = at = 0
        for i, entry in enumerate(entries):
            if entry.life <= 0 and (victim is None or entry.utility < best):
                victim = entry
                best = entry.utility
                at = i
        if victim is None:
            return ReplacementPolicy.evict(self, entries)
        del entries[at]
        decay = best > 0
        for entry in entries:
            if entry.life > 0:
                entry.life -= 1
            if decay and entry.utility > 0:
                entry.utility -= 1
        return victim


class TrueLRUPolicy(ReplacementPolicy):
    """Exact LRU: a global access tick stamped on every touch.

    The precision reference for :class:`MultiStepLRUPolicy`; its tag cost
    (a full timestamp per entry) is what the multi-step variant trades
    away.
    """

    name = "lru"
    tag_bits = 32

    def __init__(self) -> None:
        self._tick = 0

    def _touch(self, entry: "IXEntry") -> None:
        self._tick += 1
        entry.stamp = self._tick

    on_insert = _touch
    on_hit = _touch

    def select_victim(self, candidates: "list[IXEntry]") -> "IXEntry":
        return min(candidates, key=lambda e: (e.stamp, e.seq))

    def clear(self) -> None:
        self._tick = 0


class MultiStepLRUPolicy(TrueLRUPolicy):
    """Set-wide approximate LRU with ``steps`` distinguishable classes.

    Entries are stamped exactly like :class:`TrueLRUPolicy` (modelling the
    hardware's per-access promotion), but the victim selector only sees
    ``steps`` recency classes: candidates are ranked by stamp and the
    oldest ``ceil(n / steps)`` of them form the eviction class, inside
    which the hardware cannot distinguish order — the tie-break falls
    back to insertion order (``seq``), the approximation the reduced tag
    width buys. With ``steps >= len(candidates)`` every candidate is its
    own class and the choice degenerates to exact LRU.
    """

    name = "multistep_lru"

    def __init__(self, steps: int = 4) -> None:
        super().__init__()
        if steps < 1:
            raise ValueError("steps must be >= 1")
        self.steps = steps
        self.tag_bits = max(1, (steps - 1).bit_length())

    def select_victim(self, candidates: "list[IXEntry]") -> "IXEntry":
        n = len(candidates)
        if self.steps >= n:
            return min(candidates, key=lambda e: (e.stamp, e.seq))
        ranked = sorted(candidates, key=lambda e: (e.stamp, e.seq))
        # Oldest recency class: ranks whose bucket (rank * steps // n) is 0.
        oldest = [e for rank, e in enumerate(ranked) if rank * self.steps // n == 0]
        return min(oldest, key=lambda e: e.seq)

    def describe(self) -> dict[str, Any]:
        return {**super().describe(), "steps": self.steps}


class FrequencyPolicy(ReplacementPolicy):
    """LFU with per-eviction aging: hit counts decide, streams churn out.

    New entries start at count 0 (no SRRIP grace period), so one-touch
    streaming insertions are the first to go; each eviction ages every
    survivor one count so formerly-hot entries cannot squat forever.
    """

    name = "freq"
    tag_bits = 8
    _COUNT_MAX = 255

    def on_insert(self, entry: "IXEntry") -> None:
        entry.stamp = 0

    def on_hit(self, entry: "IXEntry") -> None:
        if entry.stamp < self._COUNT_MAX:
            entry.stamp += 1

    def select_victim(self, candidates: "list[IXEntry]") -> "IXEntry":
        return min(candidates, key=lambda e: (e.stamp, e.seq))

    def epoch_decay(self, survivors: "Iterable[IXEntry]", victim: "IXEntry") -> None:
        for entry in survivors:
            if entry.stamp > 0:
                entry.stamp -= 1


class LevelCostPolicy(UtilityRRIPPolicy):
    """Utility weighted by refill cost: deep entries are dearer to lose.

    Re-establishing an entry at level L costs a walk of L node fetches
    from the root (the refill asymmetry: a missing level-2 entry refills
    in 2 fetches, a level-5 one in 5), and a deep cached entry also
    short-circuits more of every walk it serves. The victim score folds
    the entry's level into the utility comparison — among similar
    utilities, shallow entries go first — while hit promotion and
    survivor aging stay the paper's.
    """

    name = "level_cost"
    tag_bits = 8  # 4-bit utility + a copy of the 4-bit level field
    #: How many utility notches one level of depth is worth.
    LEVEL_WEIGHT = 1
    #: The inherited ``evict`` fuses the paper's victim choice; this
    #: score needs the base composition around ``select_victim``.
    evict = ReplacementPolicy.evict

    def select_victim(self, candidates: "list[IXEntry]") -> "IXEntry":
        weight = self.LEVEL_WEIGHT
        return min(
            candidates,
            key=lambda e: (2 * e.utility + weight * e.level, e.utility, e.seq),
        )


#: Registry of constructible policies, in lab/report order.
POLICIES: dict[str, type[ReplacementPolicy]] = {}


def register_policy(cls: type[ReplacementPolicy]) -> type[ReplacementPolicy]:
    """Add a policy class to the registry (keyed by its ``name``)."""
    if not cls.name or cls.name == "abstract":
        raise ValueError("policy classes must define a concrete name")
    POLICIES[cls.name] = cls
    return cls


for _cls in (UtilityRRIPPolicy, TrueLRUPolicy, MultiStepLRUPolicy,
             FrequencyPolicy, LevelCostPolicy):
    register_policy(_cls)

DEFAULT_POLICY = UtilityRRIPPolicy.name


def make_policy(
    spec: "str | ReplacementPolicy | None", **kwargs: Any
) -> ReplacementPolicy:
    """Build a policy from a registry name (or pass an instance through)."""
    if spec is None:
        spec = DEFAULT_POLICY
    if isinstance(spec, ReplacementPolicy):
        return spec
    try:
        cls = POLICIES[spec]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {spec!r} "
            f"(choose from {', '.join(sorted(POLICIES))})"
        ) from None
    return cls(**kwargs)


class ThresholdTuner:
    """Online reuse-threshold controller driven by cache churn.

    After every controller batch the tuner reads one counter — *churn*,
    the batch's evictions over its insertions — and nudges each governed
    descriptor's admission threshold one notch: churn above
    ``high_churn`` means insertions are evicting each other before
    re-hits arrive, so admission tightens (streaming nodes must prove
    themselves with more touches); churn below ``low_churn`` means the
    cache digests its insertions, so admission relaxes to grow reach.
    Proposals are monotone in the driving counter and clamp to
    ``[min_threshold, max_threshold]`` — both properties are pinned by
    the tuner property suite.
    """

    def __init__(
        self,
        low_churn: float = 0.25,
        high_churn: float = 0.75,
        min_threshold: int = 1,
        max_threshold: int = 8,
        step: int = 1,
    ) -> None:
        if low_churn > high_churn:
            raise ValueError("low_churn must be <= high_churn")
        if min_threshold < 1 or min_threshold > max_threshold:
            raise ValueError("need 1 <= min_threshold <= max_threshold")
        if step < 1:
            raise ValueError("step must be >= 1")
        self.low_churn = low_churn
        self.high_churn = high_churn
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.step = step

    def propose(self, churn: float, current: int) -> int:
        """Next admission threshold. Monotone non-decreasing in ``churn``."""
        if churn > self.high_churn:
            proposed = current + self.step
        elif churn < self.low_churn:
            proposed = current - self.step
        else:
            proposed = current
        return max(self.min_threshold, min(self.max_threshold, proposed))

    def describe(self) -> dict[str, Any]:
        return {
            "low_churn": self.low_churn,
            "high_churn": self.high_churn,
            "min_threshold": self.min_threshold,
            "max_threshold": self.max_threshold,
            "step": self.step,
        }


__all__ = [
    "DEFAULT_POLICY",
    "FrequencyPolicy",
    "LevelCostPolicy",
    "MultiStepLRUPolicy",
    "POLICIES",
    "ReplacementPolicy",
    "TAG_READ_FJ_PER_BIT",
    "TAG_WRITE_FJ_PER_BIT",
    "ThresholdTuner",
    "TrueLRUPolicy",
    "UTILITY_INSERT",
    "UTILITY_MAX",
    "UtilityRRIPPolicy",
    "make_policy",
    "register_policy",
    "tag_energy_fj",
]
