"""Paired benchmark runs of a parent and a change checkout, and the
BENCH_<pr>.json summary they give.

    python3 tools/bench_pairs.py run --parent DIR --change DIR --first-seed N \\
        --runs DIR --out BENCH_<pr>.json [--what TEXT] [--claim WORKLOAD:METRIC]
    python3 tools/bench_pairs.py collect --runs DIR --out BENCH_<pr>.json \\
        [--what TEXT] [--claim WORKLOAD:METRIC]

`run` runs `bench/run.py` in each checkout, one process at a time, for
PAIRS pairs of every workload `BENCHMARK.json` declares, each run as long
as its `run_seconds`. Workload k (0-based, in declared order) uses the
seeds first_seed + 100k + i for i = 0 .. PAIRS-1. The pairs are
interleaved across workloads, and pair i (1-based) runs the parent first
when i is odd and the change first when i is even. Each run's
`result.json` is kept as `<runs>/<workload>/seed<s>/<parent|change>.json`,
with the command and each side's commit and tree hash in
`<runs>/pairs.json`; the tree names the files a side ran even when its
commit was made in a scratch clone and never lands. `run` then does
what `collect` does: it reads the kept files and the metric directions
and bounds of the repo's `BENCHMARK.json`, and writes the summary.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from checkout import ROOT

BENCHMARK = ROOT / "BENCHMARK.json"
SIDES = ("parent", "change")
PAIRS = 10
TIME_UNITS = ("s", "ms")
BENCH_COMMAND = ("python3 bench/run.py --workload {workload} --seed {seed} "
                 "--seconds {seconds} --trace 0")
METHOD = (
    "Parent and change run from clean copies, one process at a time, in alternating pairs: "
    "pair i (1-based) runs the parent first when i is odd, the change first when i is even. "
    "Times are host-scaled by the harness. A win is a pair where the change is better in the "
    "metric's direction; equal values are ties. Quartiles are inclusive. gain_rule_met: at "
    "least 9 of 10 wins and a median difference larger than the parent's quartile spread, in "
    "the better direction. within_bound: the change's median is no worse than the parent's by "
    "more than the BENCHMARK.json bound. resolved: the parent's quartile spread, relative to "
    "its median, is below the bound. raw_median: each side's median unscaled time; "
    "host_factor_median: each side's median host factor per phase, so a reader can see "
    "whether the scaling moved a time."
)

def plan(workloads: list[str], first_seed: int, pairs: int) -> list[tuple[str, int, str]]:
    """(workload, seed, side) of every run, in the order they run."""
    order = []
    for i in range(pairs):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        for k, workload in enumerate(workloads):
            order += [(workload, first_seed + 100 * k + i, side) for side in sides]
    return order


def _rev_parse(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), "rev-parse", *args],
                          capture_output=True, text=True, check=True).stdout.strip()


def run_pairs(checkouts: dict[str, Path], runs: Path, declared: dict, first_seed: int) -> None:
    """Run every planned benchmark process and keep its result.json under `runs`."""
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    runs.mkdir(parents=True, exist_ok=True)
    meta = {f"{side}_{name}": _rev_parse(checkouts[side], *args) for side in SIDES
            for name, args in (("commit", ("--short", "HEAD")), ("tree", ("HEAD^{tree}",)))}
    meta["command"] = BENCH_COMMAND.format(workload="<w>", seed="<s>", seconds=f"{seconds:g}")
    (runs / "pairs.json").write_text(json.dumps(meta, indent=1) + "\n")
    for workload, seed, side in plan(workloads, first_seed, PAIRS):
        cmd = BENCH_COMMAND.format(workload=workload, seed=seed, seconds=f"{seconds:g}").split()
        print(f"{workload} seed {seed} {side}", flush=True)
        produced = (checkouts[side] / ".bench_runs" / f"{workload}-seed{seed}-trace0"
                    / "result.json")
        # exit code 1 is also an uncaught exception: only a record this run wrote counts
        produced.unlink(missing_ok=True)
        proc = subprocess.run(cmd, cwd=checkouts[side], capture_output=True, text=True)
        if proc.returncode not in (0, 1) or not produced.is_file():
            raise RuntimeError(f"{side} {workload} seed {seed} exited {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")
        kept = runs / workload / f"seed{seed}" / f"{side}.json"
        kept.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(produced, kept)


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def relative(diff: float, base: float) -> float:
    """diff as a share of |base|; against a zero base any nonzero diff is infinite."""
    if base:
        return diff / abs(base)
    return 0.0 if diff == 0 else math.copysign(math.inf, diff)


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Gain rule, bound and resolution of one metric over paired runs."""
    sign = -1.0 if better == "lower" else 1.0  # sign * (change - parent) > 0 is a gain
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_med = statistics.median(change)
    wins = sum(g > 0 for g in gains)
    return {
        "parent": quartiles(parent),
        "change": quartiles(change),
        "median_change_rel": round(relative(c_med - p_med, p_med), 4),
        "change_wins": wins,
        "change_losses": sum(g < 0 for g in gains),
        "ties": sum(g == 0 for g in gains),
        "gain_rule_met": 10 * wins >= 9 * len(gains) and sign * (c_med - p_med) > p_q3 - p_q1,
        "within_bound": relative(sign * (p_med - c_med), p_med) <= bound,
        "resolved": relative(p_q3 - p_q1, p_med) < bound,
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
    }


def summarize_workload(results: dict[str, list[dict]], declared: list[dict]) -> dict:
    """The summary of one workload's paired result records (side -> records)."""
    summary = {
        "seeds": [r["details"]["seed"] for r in results["parent"]],
        "pairs": len(results["parent"]),
        "all_runs_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "failed_steps": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted_steps": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "metrics": {},
    }
    details = {side: [r["details"] for r in results[side]] for side in SIDES}
    if all("host_factors" in d for side in SIDES for d in details[side]):
        summary["host_factor_median"] = {
            side: {phase: _median([d["host_factors"][phase] for d in details[side]])
                   for phase in details[side][0]["host_factors"]} for side in SIDES}
    for m in declared:
        runs = {side: [r["metrics"][m["name"]]["value"] for r in results[side]] for side in SIDES}
        block = summary["metrics"][m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **compare(runs["parent"], runs["change"], m["better"], m["bound"]),
        }
        if m["unit"] in TIME_UNITS and all(m["name"] in d.get("raw_metrics", {})
                                           for side in SIDES for d in details[side]):
            block["raw_median"] = {side: _median([d["raw_metrics"][m["name"]]
                                                  for d in details[side]]) for side in SIDES}
    return summary


def _median(values: list[float]) -> float:
    return round(statistics.median(values), 4)


def parse_claim(claim: str, declared: dict) -> tuple[str, str]:
    """(workload, metric) of a WORKLOAD:METRIC claim; both names must be
    declared in BENCHMARK.json, or ValueError."""
    workload, _, metric = claim.partition(":")
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = [m["name"] for m in declared["end_to_end"]]
    if workload not in workloads or metric not in metrics:
        raise ValueError(f"--claim {claim!r} is not WORKLOAD:METRIC with WORKLOAD one of "
                         f"{', '.join(workloads)} and METRIC one of {', '.join(metrics)}")
    return workload, metric


def collect(runs: Path, declared: dict, what: str, claim: str | None) -> dict:
    """The BENCH_<pr>.json object of the kept runs under `runs`."""
    meta = json.loads((runs / "pairs.json").read_text())
    workloads, env = {}, None
    for w in declared["workloads"]:
        seed_dirs = sorted((runs / w["name"]).glob("seed*"), key=lambda d: int(d.name[4:]))
        if seed_dirs:
            results = {side: [json.loads((d / f"{side}.json").read_text()) for d in seed_dirs]
                       for side in SIDES}
            workloads[w["name"]] = summarize_workload(results, declared["end_to_end"])
            env = results["change"][0]["details"]["environment"]
    if not workloads:
        raise ValueError(f"no kept runs under {runs}")
    out = {
        "what": what,
        **{f"{side}_{name}": meta[f"{side}_{name}"] for name in ("commit", "tree")
           for side in SIDES},
        "host": (f"{env['nproc']}-core {platform.machine()} {platform.system()} host, Python "
                 f"{env['python']}, numpy {env['numpy']} with {env['blas']} "
                 f"(bench/run.py pins BLAS to 1 thread)"),
        "command": meta["command"],
        "method": METHOD,
        "claim": None,
        "workloads": workloads,
    }
    if claim:
        workload, metric = parse_claim(claim, declared)
        block = workloads[workload]["metrics"][metric]
        out["claim"] = {"metric": metric, "workload": workload,
                        **{k: block[k] for k in ("parent", "change", "change_wins")},
                        "pairs": workloads[workload]["pairs"], "met": block["gain_rule_met"]}
    return out


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the pairs, then collect them")
    run.add_argument("--parent", type=Path, required=True, help="parent checkout")
    run.add_argument("--change", type=Path, required=True, help="change checkout")
    run.add_argument("--first-seed", type=int, required=True,
                     help="first seed of the first workload; use seeds no earlier run used")
    col = sub.add_parser("collect", help="summarize kept runs")
    for q in (run, col):
        q.add_argument("--runs", type=Path, required=True, help="directory of kept runs")
        q.add_argument("--out", type=Path, required=True, help="BENCH_<pr>.json to write")
        q.add_argument("--what", default="", help="one paragraph on what the change does")
        q.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    declared = json.loads(BENCHMARK.read_text())
    if args.claim:  # checked before the first of the runs, not after the last
        try:
            parse_claim(args.claim, declared)
        except ValueError as e:
            print(f"bench_pairs: {e}", file=sys.stderr)
            return 2
    if args.command == "run":
        run_pairs({"parent": args.parent.resolve(), "change": args.change.resolve()},
                  args.runs, declared, args.first_seed)
    summary = collect(args.runs, declared, args.what, args.claim)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
