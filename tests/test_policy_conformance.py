"""Conformance suite for pluggable IX-cache replacement policies.

Every registered policy must honour the protocol contract the cache
relies on (victims come from the candidate list, choices are
deterministic, ``clear()`` resets cross-entry state), and the default
policy must reproduce the pre-refactor simulation byte-for-byte — the
committed golden digests pin that across all six systems for every
Table-2 workload.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.ix_cache import IXCache
from repro.core.policy import (
    POLICIES,
    UtilityRRIPPolicy,
    make_policy,
)
from repro.indexes.base import IndexNode
from repro.obs.tracer import Tracer
from repro.params import BLOCK_SIZE, CacheParams

GOLDEN_PATH = Path(__file__).parent / "golden_policy_baseline.json"

POLICY_NAMES = sorted(POLICIES)

#: Every Table-2 workload has a golden digest per system at scale 0.01.
GOLDEN_WORKLOADS = ("scan", "sets", "sets_s", "spmm", "spmm_s", "select",
                    "where", "join", "rtree", "pagerank")


def node(level, lo, hi, keys=None):
    keys = keys if keys is not None else [lo, hi]
    n = IndexNode(level, keys, values=[0] * len(keys), lo=lo, hi=hi)
    n.nbytes = n.byte_size()
    return n


def cache(entries=32, ways=4, **kw) -> IXCache:
    return IXCache(
        CacheParams(capacity_bytes=entries * BLOCK_SIZE, ways=ways), **kw
    )


def fill_one_set(c: IXCache, count: int, life: int = 0, width: int = 4):
    """Insert ``count`` disjoint same-set leaf nodes (no coalescing)."""
    for i in range(count):
        lo = i * (width + 1)
        c.insert(node(5, lo, lo + width), life=life)


def resident_tags(c: IXCache):
    return sorted((e.tag.lo, e.tag.hi, e.tag.level) for e in c.entries())


@pytest.fixture(params=POLICY_NAMES)
def policy_name(request):
    return request.param


class TestVictimContract:
    def test_victim_always_from_candidates_and_unpinned(self, policy_name):
        c = cache(key_block_bits=30, coalesce=False, policy=policy_name)
        chosen = []
        orig = c.policy.evict

        def spy(entries):
            resident = list(entries)
            victim = orig(entries)
            chosen.append((resident, victim))
            return victim

        c.policy.evict = spy
        fill_one_set(c, 3 * c.ways)
        assert chosen, "overfilling a set must trigger evictions"
        for resident, victim in chosen:
            assert victim in resident
            if any(e.life <= 0 for e in resident):
                assert victim.life <= 0, "policy evicted a pinned entry"

    def test_eviction_count_conservation(self, policy_name):
        c = cache(key_block_bits=30, coalesce=False, policy=policy_name)
        fill_one_set(c, 4 * c.ways)
        stats = c.stats
        assert stats.insertions - stats.evictions == len(c)
        assert stats.evictions > 0

    def test_deterministic_victim_choice(self, policy_name):
        def run():
            c = cache(key_block_bits=30, coalesce=False, policy=policy_name)
            fill_one_set(c, 3 * c.ways)
            # Interleave probes so recency/frequency state diverges from
            # insertion order, then force more evictions.
            for key in (0, 5, 0, 10, 5, 0):
                c.probe(key)
            for i in range(c.ways):
                lo = 1000 + i * 5
                c.insert(node(5, lo, lo + 4))
            return resident_tags(c)

        assert run() == run()

    def test_clear_resets_policy_state(self, policy_name):
        c = cache(key_block_bits=30, coalesce=False, policy=policy_name)
        fill_one_set(c, 3 * c.ways)
        for key in (0, 5, 10):
            c.probe(key)
        c.clear()
        assert len(c) == 0
        # A cleared cache must behave like a fresh one under the same
        # sequence (cross-entry state — LRU ticks — must not leak).
        fresh = cache(key_block_bits=30, coalesce=False, policy=policy_name)
        for target in (c, fresh):
            fill_one_set(target, 3 * target.ways)
            for key in (0, 5, 0, 10):
                target.probe(key)
        assert resident_tags(c) == resident_tags(fresh)

    def test_hooks_dispatch_for_policy_subclasses(self):
        # Every policy, the paper's default and its subclasses alike, runs
        # through the same on_insert/on_hit hooks: a subclass that only
        # records the calls sees every insertion, probe hit and duplicate.
        calls = []

        class Recording(UtilityRRIPPolicy):
            def on_insert(self, entry):
                calls.append("insert")
                super().on_insert(entry)

            def on_hit(self, entry):
                calls.append("hit")
                super().on_hit(entry)

        c = cache(coalesce=False, policy=Recording())
        n = node(5, 0, 4)
        c.insert(n)
        c.insert(n)  # duplicate: promoted, not re-inserted
        c.probe(2)
        c.probe(100)  # miss: no hook
        assert calls == ["insert", "hit", "hit"]
        assert c.entries()[0].utility == 5

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_policy("not_a_policy")


class TestPinnedReclaimAging:
    """Regression: survivor aging must run on both eviction paths.

    Before the policy refactor, ``_evict_from`` aged survivors after a
    forced (unpinned) eviction but *not* after a pinned reclaim — a
    fully-pinned set under eviction pressure kept its utility counters
    permanently fresher than an unpinned one. Both paths now route
    through ``epoch_decay``.
    """

    def test_pinned_reclaim_ages_survivors(self):
        c = cache(key_block_bits=30, coalesce=False)
        fill_one_set(c, c.ways, life=100)
        survivors_before = {e.seq: e.utility for e in c.entries()}
        assert all(e.pinned for e in c.entries())
        # A fully pinned set: the next insert must reclaim a pinned entry.
        c.insert(node(5, 9000, 9004))
        reclaimed = set(survivors_before) - {e.seq for e in c.entries()}
        assert len(reclaimed) == 1
        aged = [
            e for e in c.entries()
            if e.seq in survivors_before
            and e.utility == survivors_before[e.seq] - 1
        ]
        # Every pre-existing survivor aged one notch (victim utility 3 > 0).
        assert len(aged) == len(survivors_before) - 1

    def test_unpinned_eviction_still_ages_survivors(self):
        c = cache(key_block_bits=30, coalesce=False)
        fill_one_set(c, c.ways)
        before = {e.seq: e.utility for e in c.entries()}
        c.insert(node(5, 9000, 9004))
        aged = [
            e for e in c.entries()
            if e.seq in before and e.utility == before[e.seq] - 1
        ]
        assert len(aged) == len(before) - 1


class TestCoverageBackfill:
    """invalidate_range eviction accounting + note_bypass tracing."""

    def test_invalidate_range_counts_evictions(self):
        c = cache(key_block_bits=30, coalesce=False)
        fill_one_set(c, 4)  # exactly one set's worth: nothing evicted yet
        resident = len(c)
        evictions_before = c.stats.evictions
        assert evictions_before == 0
        removed = c.invalidate_range(0, 14)  # overlaps the first 3 nodes
        assert removed == 3
        assert c.stats.evictions == evictions_before + removed
        assert len(c) == resident - removed

    def test_invalidate_range_covers_wide_array(self):
        c = cache(key_block_bits=4, replication_limit=2, coalesce=False)
        c.insert(node(0, 0, 10_000))  # spans many blocks -> wide array
        assert len(c._wide) == 1
        assert c.invalidate_range(5_000, 5_001) == 1
        assert len(c._wide) == 0
        assert c.stats.evictions == 1

    def test_invalidate_range_rejects_inverted(self):
        with pytest.raises(ValueError, match="invalid range"):
            cache().invalidate_range(10, 5)

    def test_note_bypass_traces_and_counts(self):
        c = cache()
        tracer = Tracer()
        c.attach_obs(tracer)
        c.note_bypass()
        c.note_bypass()
        assert c.stats.bypasses == 2
        events = tracer.events("ix_bypass")
        assert len(events) == 2
        assert all(e.args["reason"] == "pattern" for e in events)

    def test_invalidate_range_traces_evictions(self):
        c = cache(key_block_bits=30, coalesce=False)
        fill_one_set(c, 4)
        tracer = Tracer()
        c.attach_obs(tracer)
        removed = c.invalidate_range(0, 100)
        events = tracer.events("ix_evict")
        assert len(events) == removed
        assert all(e.args["reason"] == "invalidate" for e in events)


class TestGoldenByteIdentity:
    """The default policy reproduces pre-refactor results byte-for-byte."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH) as f:
            return json.load(f)["digests"]

    def test_golden_covers_full_matrix(self, golden):
        from repro.bench.runner import SYSTEMS

        want = {
            f"0.01/{name}/{system}"
            for name in GOLDEN_WORKLOADS
            for system in SYSTEMS
        }
        # The address-cache variants outside SYSTEMS, on scan only.
        want |= {"0.01/scan/address_pf", "0.01/scan/address_l2"}
        assert set(golden) == want

    @staticmethod
    def assert_byte_identical(golden, workload_name):
        from repro.bench.runner import SYSTEMS, run_workload
        from repro.workloads.suite import build_workload

        workload = build_workload(workload_name, scale=0.01)
        for system in SYSTEMS:
            result = run_workload(workload, system)
            canon = json.dumps(result.to_dict(), sort_keys=True)
            digest = hashlib.sha256(canon.encode()).hexdigest()
            key = f"0.01/{workload_name}/{system}"
            assert digest == golden[key], (
                f"{key}: RunResult diverged from the golden under the "
                f"default policy"
            )

    @pytest.mark.parametrize("workload_name", ["scan", "select"])
    def test_byte_identical_to_golden(self, golden, workload_name):
        """Scan and select: the cells once checked under two backend labels."""
        self.assert_byte_identical(golden, workload_name)

    @pytest.mark.parametrize(
        "workload_name",
        [name for name in GOLDEN_WORKLOADS if name not in ("scan", "select")])
    def test_every_workload_byte_identical_to_golden(self, golden,
                                                     workload_name):
        self.assert_byte_identical(golden, workload_name)


class TestDefaultPolicyEquivalence:
    """Explicit utility_rrip instance == the inlined default fast path."""

    def test_instance_matches_name(self):
        seq = [(5, i * 6, i * 6 + 4) for i in range(12)]
        results = []
        for policy in ("utility_rrip", UtilityRRIPPolicy()):
            c = cache(key_block_bits=30, coalesce=False, policy=policy)
            for level, lo, hi in seq:
                c.insert(node(level, lo, hi))
                c.probe(lo)
            results.append((resident_tags(c), c.stats.evictions))
        assert results[0] == results[1]
