"""The default policy's victim loop and aging against their definitions.

``UtilityRRIPPolicy.select_victim`` and ``epoch_decay`` run on every
IX-cache eviction, so they are written as plain loops rather than as
``min`` over key tuples and ``max`` per survivor. These properties pin
the loops to the definitions they replace, on entry lists with random
counters and insertion stamps (ties included).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import (
    UTILITY_MAX,
    LevelCostPolicy,
    UtilityRRIPPolicy,
)


class Entry:
    __slots__ = ("utility", "seq")

    def __init__(self, utility: int, seq: int) -> None:
        self.utility = utility
        self.seq = seq


ENTRIES = st.lists(
    st.builds(Entry, st.integers(0, UTILITY_MAX), st.integers(0, 12)),
    min_size=1, max_size=24,
)


class TestSelectVictim:
    @settings(max_examples=300, deadline=None)
    @given(candidates=ENTRIES)
    def test_first_minimum_by_utility_then_seq(self, candidates):
        expected = min(candidates, key=lambda e: (e.utility, e.seq))
        assert UtilityRRIPPolicy().select_victim(candidates) is expected

    @settings(max_examples=100, deadline=None)
    @given(candidates=ENTRIES)
    def test_leaves_candidates_untouched(self, candidates):
        before = [(e.utility, e.seq) for e in candidates]
        order = list(candidates)
        UtilityRRIPPolicy().select_victim(candidates)
        assert candidates == order
        assert [(e.utility, e.seq) for e in candidates] == before


@pytest.mark.parametrize("policy", [UtilityRRIPPolicy(), LevelCostPolicy()],
                         ids=lambda p: p.name)
class TestEpochDecay:
    @settings(max_examples=200, deadline=None)
    @given(survivors=ENTRIES, victim_utility=st.integers(1, UTILITY_MAX))
    def test_saturating_decrement_after_a_live_victim(
        self, policy, survivors, victim_utility
    ):
        before = [e.utility for e in survivors]
        policy.epoch_decay(survivors, Entry(victim_utility, 0))
        assert [e.utility for e in survivors] == [max(0, u - 1) for u in before]

    @settings(max_examples=100, deadline=None)
    @given(survivors=ENTRIES)
    def test_no_aging_after_a_dead_victim(self, policy, survivors):
        before = [e.utility for e in survivors]
        policy.epoch_decay(survivors, Entry(0, 0))
        assert [e.utility for e in survivors] == before
