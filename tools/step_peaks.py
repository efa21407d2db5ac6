"""Traced memory peaks of one training step, each row from its own process.

    python3 tools/step_peaks.py [--root DIR]

Runs the package of the checkout at DIR (default: the checkout holding
this script), imported from DIR/src and DIR/bench alone, with BLAS pinned
to one thread, and prints one line per row: its name and the peak in MiB
that `tracemalloc` reports for one step, counted from the step's start.

- The BASE set-up (2 + 2 cases, seed 1, the default config otherwise),
  whose peaks `TestStepMemory` bounds, takes WARM_STEPS = 3 warm steps;
  the row is the peak of the fourth.
  The rows are float32, float64, float32 on the confident schedule
  (`alpha=100, tau_sched=2000`) and float32 at 64x64x32.
- The last two rows use the `late` benchmark set-up (fixture weights,
  confident schedule, step seed 7), each step traced on its own; the
  contrast fires on those steps. One is the highest peak of steps 3-12
  of `late` itself, the other the highest of steps 2-7 at 64x64x32 with
  4 + 4 cases.

Run it at two commits, from their checkouts or with --root, to compare
the peaks of a change with its parent's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from checkout import ROOT, run_env

# (name, config keys over BASE); `TestStepMemory` bounds the first three
ROWS = (
    ("float32, default schedule", {}),
    ("float64, default schedule", {"dtype": "float64"}),
    ("float32, alpha=100, tau_sched=2000", {"alpha": 100.0, "tau_sched": 2000.0}),
    ("float32, 64x64x32", {"dim_h": 64, "dim_w": 64, "dim_d": 32}),
)
BASE = {"n_labeled": 2, "n_unlabeled": 2, "seed": 1}
WARM_STEPS = 3
# (name, config keys over the `late` workload's, first and last traced step)
LATE_ROWS = (
    ("float32, late fixture, highest of steps 3-12", {}, (3, 12)),
    ("float32, late fixture, 64x64x32, 4 + 4 cases, highest of steps 2-7",
     {"dim_h": 64, "dim_w": 64, "dim_d": 32, "n_labeled": 4, "n_unlabeled": 4}, (2, 7)),
)
LATE_SEED = 7

# argv: JSON config keys; prints the traced peak of step WARM_STEPS in bytes
STEP_SCRIPT = """
import json, sys, tracemalloc
from pacedseg.ablation import dataset_for_seed
from pacedseg.training import TrainConfig, Trainer

keys, warm = json.loads(sys.argv[1]), int(sys.argv[2])
cfg = TrainConfig(**keys).validate()
trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
for t in range(warm):
    trainer.step(*trainer.batch_for(t))
tracemalloc.start()
trainer.step(*trainer.batch_for(warm))
print(tracemalloc.get_traced_memory()[1])
"""

# run with bench/ on the path; argv: JSON config keys, first and last traced
# step, step seed; prints the highest traced step peak in bytes
LATE_SCRIPT = """
import json, sys, tracemalloc
from dataclasses import replace
import harness

keys = json.loads(sys.argv[1])
first, last, seed = map(int, sys.argv[2:5])
config = replace(harness.workload_config("late", seed, 25.0), **keys).validate()
trainer = harness.set_up("late", config, seed).trainer
peaks = []
for t in range(last + 1):
    if t >= first:
        tracemalloc.start()
    trainer.step(*trainer.batch_for(t))
    if t >= first:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
print(max(peaks))
"""


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every row, in the order printed: one per ROWS entry on
    the BASE set-up, then one per LATE_ROWS entry on the `late` set-up."""
    found = [(name, [sys.executable, "-c", STEP_SCRIPT, json.dumps({**BASE, **keys}),
                     str(WARM_STEPS)]) for name, keys in ROWS]
    found += [(name, [sys.executable, "-c", LATE_SCRIPT, json.dumps(keys), *map(str, steps),
                      str(LATE_SEED)]) for name, keys, steps in LATE_ROWS]
    return found


def measure(root=ROOT) -> list[tuple[str, int]]:
    """(name, peak bytes) of every row, one process at a time; a failed row
    raises RuntimeError with its name and error output."""
    env = run_env(Path(root).resolve())
    peaks = []
    for name, argv in commands():
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        if done.returncode:
            raise RuntimeError(f"{name} exited with {done.returncode}:\n{done.stderr}")
        peaks.append((name, int(done.stdout.split()[-1])))
    return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(ROOT), help="checkout whose package runs")
    args = parser.parse_args(argv)
    try:
        for name, peak in measure(args.root):
            print(f"{name}: {peak / 2**20:.2f} MiB", flush=True)
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
