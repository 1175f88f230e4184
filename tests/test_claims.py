"""Every row of the paper-claims table holds at its stated scales.

One test per row of :data:`repro.bench.claims.CLAIMS`; the table is
evaluated once per test module, each (experiment, workloads, scale, seed)
running once. A failure prints the row's rule and every measured point.
"""

import pytest

from repro.bench import claims
from repro.bench.claims import Claim, Rule


@pytest.fixture(scope="module")
def verdicts():
    return claims.evaluate()


@pytest.mark.parametrize("claim_id", list(claims.CLAIMS_BY_ID))
def test_claim(verdicts, claim_id):
    verdict = verdicts[claim_id]
    assert verdict.holds, str(verdict)


class TestRule:
    def test_comparisons_hold_at_every_point(self):
        assert Rule(">", 1.0).holds([1.5, 2.0])
        assert not Rule(">", 1.0).holds([1.5, 1.0])
        assert Rule(">=", 1.0).holds([1.0])
        assert Rule("<", 1.0).holds([0.5]) and not Rule("<", 1.0).holds([1.0])
        assert Rule("<=", 1.0).holds([1.0])
        assert Rule("==", 2).holds([2, 2]) and not Rule("==", 2).holds([2, 3])
        assert Rule("in", 0.5, 1.0).holds([1.0, 0.6])
        assert not Rule("in", 0.5, 1.0).holds([0.5])

    def test_aggregate_rules(self):
        assert Rule("mean>", 1.0).holds([0.5, 2.0])
        assert not Rule("mean>", 1.0).holds([0.5, 1.5])
        assert Rule("cv<", 0.3).holds([2.0, 2.2, 2.4])
        assert not Rule("cv<", 0.1).holds([1.0, 2.0])
        assert Rule("grows").holds([3, 1, 4]) and not Rule("grows").holds([3, 3])

    def test_summary_is_the_point_nearest_failing(self):
        assert Rule(">", 1.0).summary([3.0, 1.2, 2.0]) == 1.2
        assert Rule("<=", 1.0).summary([0.3, 0.9]) == 0.9
        assert Rule("grows").summary([2, 5]) == 2.5

    def test_no_values_never_hold(self):
        assert not Rule(">", 0.0).holds([])

    @pytest.mark.parametrize("args", [("!=",), ("in", 0.5), ("<", 1.0, 2.0)])
    def test_malformed_rules_rejected(self, args):
        with pytest.raises(ValueError):
            Rule(*args)


def test_failing_row_reports_its_points():
    impossible = Claim(
        "impossible", "Fig. 18", "METAL beats streaming a thousandfold",
        "cells", claims.each(lambda c: c("stream").makespan
                             / c("metal").makespan),
        Rule(">", 1000.0), scales=(0.01,), workloads=("scan",))
    verdict = claims.evaluate([impossible])["impossible"]
    assert not verdict.holds
    assert "FAILS" in str(verdict) and "0.01/s0/scan=" in str(verdict)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        Claim("x", "Fig. 0", "", "nope", len, Rule(">", 0))


def test_seedless_experiments_reject_other_seeds():
    row = Claim("x", "Fig. 18", "", "speedups",
                lambda results: results[0].speedups()["metal"],
                Rule(">", 0), scales=(0.01,), seeds=(1,), workloads=("scan",))
    with pytest.raises(ValueError, match="seed 0 only"):
        claims.evaluate([row])


def test_every_paper_value_is_rendered():
    text = claims.format_paper_values(0.01)
    for claim in claims.CLAIMS:
        assert (claim.id in text) == (claim.paper is not None)
