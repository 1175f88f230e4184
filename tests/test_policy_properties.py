"""Property tests for the policy axis: multi-step LRU, the tuner, exec.

* Multi-step LRU degenerates to exact LRU whenever its step count covers
  the candidate list (steps >= associativity), and its victim always
  comes from the oldest recency class.
* ThresholdTuner proposals are monotone in the driving churn counter and
  always clamp into [min_threshold, max_threshold].
* Auto-tuned runs are fully deterministic through the exec pipeline:
  serial, jobs=4, and warm-cache paths hand back byte-identical payloads.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core.policy import (
    MultiStepLRUPolicy,
    ThresholdTuner,
    TrueLRUPolicy,
)
from repro.exec.executor import Executor
from repro.exec.spec import RunSpec
from repro.exec.store import ResultStore


class FakeEntry:
    """Just the fields the LRU selectors read."""

    def __init__(self, stamp: int, seq: int) -> None:
        self.stamp = stamp
        self.seq = seq

    def __repr__(self) -> str:
        return f"FakeEntry(stamp={self.stamp}, seq={self.seq})"


def entries_strategy(max_size: int = 16):
    return st.lists(
        st.integers(min_value=0, max_value=1_000),  # stamps may collide
        min_size=1, max_size=max_size,
    ).map(lambda stamps: [FakeEntry(s, i) for i, s in enumerate(stamps)])


# --------------------------------------------------------------------- #
# Multi-step LRU vs exact LRU
# --------------------------------------------------------------------- #


@given(entries=entries_strategy(), extra=st.integers(min_value=0, max_value=8))
def test_multistep_equals_exact_lru_when_steps_cover_set(entries, extra):
    """steps >= associativity => every candidate is its own recency class."""
    steps = len(entries) + extra
    exact = TrueLRUPolicy().select_victim(list(entries))
    approx = MultiStepLRUPolicy(steps=steps).select_victim(list(entries))
    assert approx is exact


@given(entries=entries_strategy(), steps=st.integers(min_value=1, max_value=16))
def test_multistep_victim_in_oldest_class(entries, steps):
    policy = MultiStepLRUPolicy(steps=steps)
    victim = policy.select_victim(list(entries))
    assert victim in entries
    n = len(entries)
    ranked = sorted(entries, key=lambda e: (e.stamp, e.seq))
    class_size = max(1, -(-n // steps))  # ceil(n / steps)
    oldest_class = ranked[:class_size]
    assert victim in oldest_class


@given(entries=entries_strategy(), steps=st.integers(min_value=1, max_value=16))
def test_multistep_never_evicts_newest_when_distinguishable(entries, steps):
    """With >1 class available, the most recent entry survives."""
    if steps < 2 or len(entries) < 2:
        return
    # Make stamps unique so "newest" is well-defined.
    for i, entry in enumerate(sorted(entries, key=lambda e: (e.stamp, e.seq))):
        entry.stamp = i
    victim = MultiStepLRUPolicy(steps=steps).select_victim(list(entries))
    newest = max(entries, key=lambda e: e.stamp)
    assert victim is not newest


def test_multistep_tag_bits():
    assert MultiStepLRUPolicy(steps=1).tag_bits == 1
    assert MultiStepLRUPolicy(steps=2).tag_bits == 1
    assert MultiStepLRUPolicy(steps=4).tag_bits == 2
    assert MultiStepLRUPolicy(steps=8).tag_bits == 3
    assert TrueLRUPolicy.tag_bits == 32


# --------------------------------------------------------------------- #
# ThresholdTuner: monotone and clamped
# --------------------------------------------------------------------- #

tuner_strategy = st.builds(
    ThresholdTuner,
    low_churn=st.floats(min_value=0.0, max_value=0.5),
    high_churn=st.floats(min_value=0.5, max_value=2.0),
    min_threshold=st.integers(min_value=1, max_value=4),
    max_threshold=st.integers(min_value=4, max_value=16),
    step=st.integers(min_value=1, max_value=3),
)

churn_strategy = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@given(tuner=tuner_strategy, churn=churn_strategy,
       current=st.integers(min_value=-5, max_value=30))
def test_tuner_proposal_always_clamped(tuner, churn, current):
    proposed = tuner.propose(churn, current)
    assert tuner.min_threshold <= proposed <= tuner.max_threshold


@given(tuner=tuner_strategy, churn_a=churn_strategy, churn_b=churn_strategy,
       current=st.integers(min_value=1, max_value=16))
def test_tuner_monotone_in_churn(tuner, churn_a, churn_b, current):
    lo, hi = sorted((churn_a, churn_b))
    assert tuner.propose(lo, current) <= tuner.propose(hi, current)


@given(tuner=tuner_strategy, current=st.integers(min_value=1, max_value=16))
def test_tuner_holds_inside_band(tuner, current):
    mid = (tuner.low_churn + tuner.high_churn) / 2
    clamped = max(tuner.min_threshold, min(tuner.max_threshold, current))
    assert tuner.propose(mid, clamped) == clamped


def test_tuner_rejects_bad_config():
    import pytest

    with pytest.raises(ValueError):
        ThresholdTuner(low_churn=0.9, high_churn=0.1)
    with pytest.raises(ValueError):
        ThresholdTuner(min_threshold=0)
    with pytest.raises(ValueError):
        ThresholdTuner(min_threshold=9, max_threshold=8)
    with pytest.raises(ValueError):
        ThresholdTuner(step=0)


# --------------------------------------------------------------------- #
# Pareto front (pure function over the lab's cell metrics)
# --------------------------------------------------------------------- #


def test_pareto_front_identifies_dominated():
    from repro.bench.policy_lab import pareto_front

    cells = {
        "a": {"hit_rate": 0.90, "tag_energy_fj": 100.0},  # dominated by b
        "b": {"hit_rate": 0.90, "tag_energy_fj": 50.0},
        "c": {"hit_rate": 0.95, "tag_energy_fj": 200.0},  # best hit rate
        "d": {"hit_rate": 0.80, "tag_energy_fj": 300.0},  # dominated by all
    }
    assert pareto_front(cells) == ["b", "c"]


@given(st.dictionaries(
    st.text(min_size=1, max_size=4),
    st.fixed_dictionaries({
        "hit_rate": st.floats(min_value=0, max_value=1),
        "tag_energy_fj": st.floats(min_value=0, max_value=1e9),
    }),
    min_size=1, max_size=8,
))
def test_pareto_front_never_empty_and_contains_best(cells):
    from repro.bench.policy_lab import pareto_front

    front = pareto_front(cells)
    assert front
    best_hit = max(c["hit_rate"] for c in cells.values())
    cheapest_at_best = min(
        (label for label, c in cells.items() if c["hit_rate"] == best_hit),
        key=lambda label: (cells[label]["tag_energy_fj"], label),
    )
    assert any(cells[label]["hit_rate"] == best_hit for label in front), (
        f"front {front} lost the best-hit-rate cell {cheapest_at_best}"
    )


def test_policy_lab_on_metal_ix_skips_the_tuned_cell(capsys):
    """METAL-IX has no pattern controller to tune, so its sweep runs no
    tuned cell instead of building a spec its kind rejects."""
    from repro.bench.policy_lab import TUNED_LABEL
    from repro.cli import main

    assert main(["policy", "--system", "metal_ix", "--workloads", "scan",
                 "--policies", "lru", "--scale", "0.01", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["system"] == "metal_ix"
    assert payload["policies"] == ["lru"]
    assert TUNED_LABEL not in payload["cells"]["scan"]


# --------------------------------------------------------------------- #
# Tuned runs through exec: serial == pooled == warm-cache
# --------------------------------------------------------------------- #

TUNED_SPEC_KW = dict(
    scale=0.01, seed=0,
    tuner={"low_churn": 0.25, "high_churn": 0.75, "step": 1},
    collect=("controller_history",),
)


def _canonical(outcome):
    return json.dumps(outcome.check().payload, sort_keys=True)


def test_tuned_run_deterministic_through_exec(tmp_path):
    specs = [
        RunSpec.make("scan", "metal", **TUNED_SPEC_KW),
        RunSpec.make("scan", "metal", policy="multistep_lru", scale=0.01),
    ]
    with Executor(jobs=1) as serial:
        serial_payloads = [_canonical(o) for o in serial.run(specs)]
    with Executor(jobs=4) as pooled:
        pooled_payloads = [_canonical(o) for o in pooled.run(specs)]
    assert serial_payloads == pooled_payloads

    store = ResultStore(root=tmp_path)
    with Executor(jobs=1, store=store) as cold:
        cold_payloads = [_canonical(o) for o in cold.run(specs)]
    with Executor(jobs=1, store=ResultStore(root=tmp_path)) as warm:
        warm_outcomes = warm.run(specs)
        warm_payloads = [_canonical(o) for o in warm_outcomes]
    assert all(o.cached for o in warm_outcomes)
    assert cold_payloads == warm_payloads == serial_payloads


def test_tuned_spec_hashes_differently_from_untuned():
    tuned = RunSpec.make("scan", "metal", **TUNED_SPEC_KW)
    untuned = RunSpec.make(
        "scan", "metal", scale=0.01, seed=0, collect=("controller_history",)
    )
    assert tuned.digest() != untuned.digest()
    # And the tuner config is canonically ordered: dict order irrelevant.
    reordered = RunSpec.make(
        "scan", "metal", scale=0.01, seed=0,
        tuner={"step": 1, "high_churn": 0.75, "low_churn": 0.25},
        collect=("controller_history",),
    )
    assert reordered.digest() == tuned.digest()


def test_tuned_history_records_tuner_state():
    with Executor(jobs=1) as ex:
        tuned, untuned = ex.run([
            RunSpec.make("scan", "metal", **TUNED_SPEC_KW),
            RunSpec.make("scan", "metal", scale=0.01, seed=0,
                         collect=("controller_history",)),
        ])
    tuned_history = tuned.check().extras["controller_history"]
    untuned_history = untuned.check().extras["controller_history"]
    assert tuned_history and all("tuner" in h for h in tuned_history)
    for h in tuned_history:
        assert h["tuner"]["churn"] >= 0.0
        assert all(t >= 1 for t in h["tuner"]["thresholds"])
    # No tuner configured => history stays in its pre-policy-PR shape.
    assert untuned_history and all("tuner" not in h for h in untuned_history)
