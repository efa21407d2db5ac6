"""The paired-run collector of tools/bench_pairs.py on synthetic result.json files."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = {
    "workloads": [{"name": "early"}, {"name": "late"}],
    "end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "final_dsc", "unit": "ratio", "better": "higher", "bound": 0.2},
    ],
}
ENV = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "blas": "openblas 0.3"}


def result(seed, run_s, rss, dsc, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"},
                        "final_dsc": {"value": dsc, "unit": "ratio"}},
            "details": {"seed": seed, "environment": ENV}}


@pytest.fixture
def runs(tmp_path):
    """Ten early pairs: rss 30 MB lower on every change run, run_s 40% slower
    on the change, final_dsc identical. Seeds 1101..1110 are written out of
    order, and seed 1110 sorts after 1109, not after 1101."""
    runs = tmp_path / "runs"
    for i in reversed(range(10)):
        seed = 1101 + i
        kept = runs / "early" / f"seed{seed}"
        kept.mkdir(parents=True)
        (kept / "parent.json").write_text(json.dumps(result(seed, 10.0 + i / 10, 150.0 + i, 0.54)))
        (kept / "change.json").write_text(json.dumps(
            result(seed, 1.4 * (10.0 + i / 10), 120.0 + i, 0.54, correct=i != 3, failed=i == 3)))
    (runs / "pairs.json").write_text(json.dumps(
        {"parent_commit": "aaa", "change_commit": "bbb", "command": "bench <w> <s>"}))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    return runs


def test_plan_alternates_which_side_runs_first():
    order = bench_pairs.plan(["early", "late"], 1101, 2)
    assert order == [
        ("early", 1101, "parent"), ("early", 1101, "change"),
        ("late", 1201, "parent"), ("late", 1201, "change"),
        ("early", 1102, "change"), ("early", 1102, "parent"),
        ("late", 1202, "change"), ("late", 1202, "parent"),
    ]


def test_collect_applies_the_gain_rule_and_the_bounds(runs):
    out = bench_pairs.collect(runs, DECLARED, "what", "early:peak_rss_mb")
    assert list(out["workloads"]) == ["early"]
    early = out["workloads"]["early"]
    assert early["seeds"] == list(range(1101, 1111)) and early["pairs"] == 10
    assert not early["all_runs_correct"]
    assert early["failed_steps"] == {"parent": 0, "change": 1}
    assert early["attempted_steps"] == {"parent": 1000, "change": 1000}

    rss = early["metrics"]["peak_rss_mb"]
    assert rss["parent"] == {"q1": 152.25, "median": 154.5, "q3": 156.75}
    assert rss["change_wins"] == 10 and rss["gain_rule_met"] and rss["within_bound"]
    assert rss["median_change_rel"] == round(-30 / 154.5, 4)
    assert rss["parent_runs"] == [150.0 + i for i in range(10)]

    run_s = early["metrics"]["run_s"]
    assert run_s["change_losses"] == 10 and not run_s["gain_rule_met"]
    assert not run_s["within_bound"] and run_s["resolved"]

    dsc = early["metrics"]["final_dsc"]
    assert dsc["ties"] == 10 and dsc["within_bound"] and not dsc["gain_rule_met"]

    assert out["claim"] == {"metric": "peak_rss_mb", "workload": "early",
                            "parent": rss["parent"], "change": rss["change"],
                            "change_wins": 10, "pairs": 10, "met": True}
    assert (out["parent_commit"], out["change_commit"]) == ("aaa", "bbb")


def test_gain_needs_nine_wins_and_a_median_beyond_the_parent_spread():
    parent = [100.0 + i for i in range(10)]  # quartile spread 4.5
    eight_wins = [p - 10 for p in parent[:8]] + [p + 1 for p in parent[8:]]
    assert not bench_pairs.compare(parent, eight_wins, "lower", 0.25)["gain_rule_met"]
    small = [p - 4 for p in parent]  # 10 wins, but by less than the spread
    assert not bench_pairs.compare(parent, small, "lower", 0.25)["gain_rule_met"]
    assert bench_pairs.compare(parent, [p - 5 for p in parent], "lower", 0.25)["gain_rule_met"]
    assert bench_pairs.compare(parent, [p + 5 for p in parent], "higher", 0.25)["gain_rule_met"]


def test_main_writes_the_summary(runs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "BENCHMARK", tmp_path / "BENCHMARK.json")
    out = tmp_path / "BENCH_1.json"
    argv = ["collect", "--runs", str(runs), "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    written = json.loads(out.read_text())
    assert written["claim"] is None and written["method"] == bench_pairs.METHOD
    assert written["host"].startswith("2-core ")
