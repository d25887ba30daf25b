"""The statistics of ``tools/bench_pairs.py`` on synthetic runs: no bench
run is made."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(ops, p50, failed=0):
    return {"correct": not failed, "attempted": 100, "failed": failed, "metrics": {
        "ops_per_s": {"value": ops, "unit": "1/s"}, "latency_p50_ms": {"value": p50, "unit": "ms"}}}


METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.2},
           {"name": "latency_p50_ms", "better": "lower", "bound": 0.2}]


def test_sides_alternate_parent_first(pairs):
    assert pairs.first_sides(5) == ["parent", "change", "parent", "change", "parent"]


def test_a_gain_on_a_higher_is_better_metric(pairs):
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    change = [110.0, 111.0, 109.0, 112.0, 99.0, 110.0, 113.0, 108.0, 111.0, 110.0]
    stat = pairs.compare(parent, change, "higher", 0.2)
    assert stat["parent_median"] == 100.0 and stat["change_median"] == 110.0
    # inclusive quartiles of the sorted parent runs 97, 98, 99, 100, 100,
    # 100, 101, 101, 102, 103
    assert stat["parent_quartiles"] == [99.25, 101.0] and stat["parent_iqr"] == 1.75
    # pair 5 is a tie, which counts for neither side
    assert stat["change_wins"] == "9/10" and stat["gain_met"]
    assert stat["change_worse_by"] == -0.1 and stat["within_bound"]


def test_a_loss_on_a_lower_is_better_metric(pairs):
    stat = pairs.compare([2.0, 2.0, 2.0], [2.5, 2.6, 1.9], "lower", 0.2)
    assert stat["change_worse_by"] == 0.25 and not stat["within_bound"]
    assert stat["change_wins"] == "1/3" and not stat["gain_met"]


def test_a_gain_within_the_parent_spread_is_not_met(pairs):
    parent = [90.0, 110.0, 95.0, 105.0, 100.0, 100.0, 92.0, 108.0, 100.0, 100.0]
    stat = pairs.compare(parent, [v + 1 for v in parent], "higher", 0.2)
    assert stat["change_wins"] == "10/10" and not stat["gain_met"]


def test_summary_counts_runs_and_failures(pairs):
    runs = {"parent": [_run(100.0, 2.0), _run(101.0, 2.1)],
            "change": [_run(110.0, 1.8), _run(111.0, 1.9, failed=1)]}
    summary = pairs.summarize(runs, METRICS)
    assert summary["parent"] == {"runs": 2, "failed": 0, "attempted": 200, "correct": True}
    assert summary["change"] == {"runs": 2, "failed": 1, "attempted": 200, "correct": False}
    assert summary["metrics"]["ops_per_s"]["change"] == [110.0, 111.0]
    assert summary["metrics"]["latency_p50_ms"]["change_wins"] == "2/2"
