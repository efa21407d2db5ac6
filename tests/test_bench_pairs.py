"""The paired-run collector of tools/bench_pairs.py on synthetic result.json files."""

import importlib.util
import json
import subprocess
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
        {"parent_commit": "aaa", "change_commit": "bbb", "parent_tree": "ccc",
         "change_tree": "ddd", "command": "bench <w> <s>"}))
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
    assert (out["parent_tree"], out["change_tree"]) == ("ccc", "ddd")


def test_gain_needs_nine_wins_and_a_median_beyond_the_parent_spread():
    parent = [100.0 + i for i in range(10)]  # quartile spread 4.5
    eight_wins = [p - 10 for p in parent[:8]] + [p + 1 for p in parent[8:]]
    assert not bench_pairs.compare(parent, eight_wins, "lower", 0.25)["gain_rule_met"]
    small = [p - 4 for p in parent]  # 10 wins, but by less than the spread
    assert not bench_pairs.compare(parent, small, "lower", 0.25)["gain_rule_met"]
    assert bench_pairs.compare(parent, [p - 5 for p in parent], "lower", 0.25)["gain_rule_met"]
    assert bench_pairs.compare(parent, [p + 5 for p in parent], "higher", 0.25)["gain_rule_met"]


def test_collect_reports_raw_times_and_host_factors(runs):
    """Each side's median unscaled time and host factor, next to the scaled
    medians, so a reader can tell whether the scaling moved a claim."""
    early = bench_pairs.collect(runs, DECLARED, "", None)["workloads"]["early"]
    assert "host_factor_median" not in early  # the fixture's records carry no raw values
    for i, seed_dir in enumerate(sorted((runs / "early").glob("seed*"))):
        for side, factor in (("parent", 1.0 + i / 100), ("change", 1.2 - i / 100)):
            kept = seed_dir / f"{side}.json"
            record = json.loads(kept.read_text())
            scaled = record["metrics"]["run_s"]["value"]
            record["details"]["raw_metrics"] = {"run_s": scaled * factor,
                                                "peak_rss_mb": 1.0, "final_dsc": 1.0}
            record["details"]["host_factors"] = {"setup": 1.0, "run": factor}
            kept.write_text(json.dumps(record))
    early = bench_pairs.collect(runs, DECLARED, "", None)["workloads"]["early"]
    assert early["host_factor_median"] == {"parent": {"setup": 1.0, "run": 1.045},
                                           "change": {"setup": 1.0, "run": 1.155}}
    run_s = early["metrics"]["run_s"]
    # parent: 10.0..10.9 times 1.00..1.09; change: 14.0..15.26 times 1.20..1.11
    parent = sorted((10.0 + i / 10) * (1.0 + i / 100) for i in range(10))
    change = sorted(1.4 * (10.0 + i / 10) * (1.2 - i / 100) for i in range(10))
    assert run_s["raw_median"] == {"parent": round((parent[4] + parent[5]) / 2, 4),
                                   "change": round((change[4] + change[5]) / 2, 4)}
    assert "raw_median" not in early["metrics"]["peak_rss_mb"]


def test_main_writes_the_summary(runs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "BENCHMARK", tmp_path / "BENCHMARK.json")
    out = tmp_path / "BENCH_1.json"
    argv = ["collect", "--runs", str(runs), "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    written = json.loads(out.read_text())
    assert written["claim"] is None and written["method"] == bench_pairs.METHOD
    assert written["host"].startswith("2-core ")


@pytest.mark.parametrize("claim", ["peak_rss_mb:early", "early:peak_rss_mb:early", "early",
                                   "early:", "scale:run_s", "early:step_ms_p50"])
def test_run_refuses_an_undeclared_claim_before_any_run(claim, tmp_path, monkeypatch, capsys):
    declared = tmp_path / "BENCHMARK.json"
    declared.write_text(json.dumps(DECLARED))
    monkeypatch.setattr(bench_pairs, "BENCHMARK", declared)

    def no_runs(*args):
        raise AssertionError("a benchmark process ran before the claim was checked")

    monkeypatch.setattr(bench_pairs, "run_pairs", no_runs)
    out = tmp_path / "BENCH_1.json"
    argv = ["run", "--parent", str(tmp_path), "--change", str(tmp_path), "--first-seed", "1",
            "--runs", str(tmp_path / "runs"), "--out", str(out), "--claim", claim]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert f"--claim {claim!r} is not WORKLOAD:METRIC" in err and "early, late" in err
    assert not out.exists()


def fake_checkout(root, run_py):
    """A git checkout at root whose bench/run.py is run_py."""
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(run_py)
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "bench"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "fake"], check=True)
    return root


def test_run_records_each_sides_commit_and_tree(tmp_path, monkeypatch):
    """The tree hash names the files a side ran, also for a commit made in a
    scratch clone that never lands."""
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    record = json.dumps(result(1101, 10.0, 150.0, 0.54))
    checkouts = {side: fake_checkout(tmp_path / side, (
        "import sys\n"
        "from pathlib import Path\n"
        "seed = sys.argv[sys.argv.index('--seed') + 1]\n"
        "out = Path(f'.bench_runs/early-seed{seed}-trace0')\n"
        "out.mkdir(parents=True, exist_ok=True)\n"
        f"(out / 'result.json').write_text({record!r})\n"
        f"# {side}\n")) for side in bench_pairs.SIDES}
    declared = {**DECLARED, "workloads": [{"name": "early"}], "run_seconds": 1}
    bench_pairs.run_pairs(checkouts, tmp_path / "runs", declared, 1101)
    meta = json.loads((tmp_path / "runs" / "pairs.json").read_text())
    out = bench_pairs.collect(tmp_path / "runs", declared, "", None)
    for side, root in checkouts.items():
        git = ["git", "-C", str(root), "rev-parse"]
        tree = subprocess.run([*git, "HEAD^{tree}"], capture_output=True, text=True).stdout
        commit = subprocess.run([*git, "--short", "HEAD"], capture_output=True, text=True).stdout
        assert meta[f"{side}_tree"] == out[f"{side}_tree"] == tree.strip()
        assert meta[f"{side}_commit"] == out[f"{side}_commit"] == commit.strip()
    assert meta["parent_tree"] != meta["change_tree"]


def test_run_keeps_no_record_an_earlier_run_left(tmp_path):
    """bench/run.py exits 1 both on a failed check and on an uncaught
    exception; a run that wrote no record must not pass off the stale one."""
    checkouts = {}
    for side in bench_pairs.SIDES:
        root = fake_checkout(tmp_path / side, "import sys\nsys.exit(1)\n")
        stale = root / ".bench_runs" / "early-seed1101-trace0" / "result.json"
        stale.parent.mkdir(parents=True)
        stale.write_text(json.dumps(result(1101, 10.0, 150.0, 0.54)))
        checkouts[side] = root
    declared = {**DECLARED, "workloads": [{"name": "early"}], "run_seconds": 1}
    with pytest.raises(RuntimeError, match="parent early seed 1101 exited 1"):
        bench_pairs.run_pairs(checkouts, tmp_path / "runs", declared, 1101)
    assert not (tmp_path / "runs" / "early").exists()
