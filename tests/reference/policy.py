"""Reference replacement policies for :mod:`tests.reference.ix_cache`.

Each policy is written from its definition, with no shared code with
:mod:`repro.core.policy`:

* ``RefUtilityRRIP`` (Section 5): a new entry starts at utility 3; a hit
  adds 1, saturating at 15. The victim is the candidate with the
  smallest ``(utility, seq)``. After an eviction whose victim's utility
  was above 0, every survivor's utility drops by 1, not below 0.
* ``RefLRU`` (exact LRU): the victim is the candidate touched least
  recently. Inserting an entry and hitting it (a probe, or an insert
  the entry absorbs as a duplicate) are touches. Recency is kept as one
  list of entries, least recent first, instead of timestamps.
* ``RefMultiStepLRU`` (Multi-step LRU, arXiv 2112.09981): the same
  recency list, but the victim selector only sees ``steps`` recency
  classes. Rank ``r`` (0 = least recent) of ``n`` candidates is in
  class ``floor(r * steps / n)``; the victim is the earliest-created
  entry (smallest ``seq``) of class 0. With ``steps >= n`` every
  candidate is its own class: exact LRU.

The eviction rules around the selector are the IX-cache's and are the
same for every policy: the candidates are the unpinned entries
(``life == 0``); after the victim leaves, every pinned survivor's lease
drops by 1. When every entry is pinned, the one with the smallest
``(life, utility, seq)`` is reclaimed and no lease drops. Either way the
policy then ages the survivors (only utility-RRIP does).
"""

from __future__ import annotations

from typing import Any

INSERT_UTILITY = 3
MAX_UTILITY = 15


class RefUtilityRRIP:
    def on_insert(self, entry: Any) -> None:
        entry.utility = INSERT_UTILITY

    def on_hit(self, entry: Any) -> None:
        entry.utility = min(MAX_UTILITY, entry.utility + 1)

    def choose(self, candidates: list) -> Any:
        return min(candidates, key=lambda e: (e.utility, e.seq))

    def age(self, survivors: list, victim: Any) -> None:
        if victim.utility > 0:
            for entry in survivors:
                entry.utility = max(0, entry.utility - 1)

    def clear(self) -> None:
        pass

    def evict(self, entries: list) -> Any:
        """Remove one victim from the full list ``entries``; return it."""
        unpinned = [e for e in entries if e.life == 0]
        if unpinned:
            victim = self.choose(unpinned)
            entries.remove(victim)
            for entry in entries:
                entry.life = max(0, entry.life - 1)
        else:
            victim = min(entries, key=lambda e: (e.life, e.utility, e.seq))
            entries.remove(victim)
        self.age(entries, victim)
        return victim


class RefLRU(RefUtilityRRIP):
    def __init__(self) -> None:
        #: Every entry ever touched, least recently touched first.
        self.recency: list = []

    def _touch(self, entry: Any) -> None:
        self.recency = [e for e in self.recency if e is not entry] + [entry]

    def on_insert(self, entry: Any) -> None:
        self._touch(entry)

    on_hit = on_insert

    def ranked(self, candidates: list) -> list:
        """``candidates``, least recently touched first."""
        return [e for e in self.recency if any(e is c for c in candidates)]

    def choose(self, candidates: list) -> Any:
        return self.ranked(candidates)[0]

    def age(self, survivors: list, victim: Any) -> None:
        pass

    def clear(self) -> None:
        self.recency = []


class RefMultiStepLRU(RefLRU):
    def __init__(self, steps: int) -> None:
        super().__init__()
        self.steps = steps

    def choose(self, candidates: list) -> Any:
        ranked = self.ranked(candidates)
        n = len(ranked)
        oldest = [e for r, e in enumerate(ranked) if r * self.steps // n == 0]
        return min(oldest, key=lambda e: e.seq)


def ref_policy(name: str, steps: int = 4) -> RefUtilityRRIP:
    """The reference for a :data:`repro.core.policy.POLICIES` name."""
    if name == "utility_rrip":
        return RefUtilityRRIP()
    if name == "lru":
        return RefLRU()
    if name == "multistep_lru":
        return RefMultiStepLRU(steps)
    raise ValueError(f"no reference for policy {name!r}")
