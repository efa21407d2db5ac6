"""The run files one checkout writes, for a byte-identity check of two commits.

    python3 tools/identity_runs.py OUT [--root DIR]

Runs the package of the checkout at DIR (default: the checkout holding
this script), imported from DIR/src and DIR/bench alone, one process per
run, with BLAS pinned to one thread, since run files depend on the BLAS
thread count.
It writes under OUT:

- `data/`: `gen-data` of the default config;
- `train_<dtype>_<schedule>/`: `train --data-dir data` at 40 iterations,
  `eval_period=20` and `n_eval=4`, in float32 and float64, on the default
  schedule and on the confident one (`alpha=100, tau_sched=2000`);
- `train_float32_generated/`: `train` without `--data-dir` on the
  float32 default-schedule config, so on the data it generates itself;
- `train_reg/`: `train` without `--data-dir` on the config of the quality
  pin's `reg` run (`tests/test_quality_pin.py`), whose eval predictions
  are neither empty nor all foreground, so its surface distances run on
  real surfaces;
- `eval_<dtype>/`: `eval` of `train_<dtype>_default/final.ckpt` on
  `data`, with that run's config: `metrics.csv`, scored on the truths;
- `schedule_<schedule>/schedule.csv`: the output of `schedule-dump` on
  `train_float32_<schedule>`'s config;
- `ablate/`: `ablate --seeds 1,2,3` at 20 iterations;
- `late_<dtype>/`: 12 steps from the `late` benchmark's warm-start fixture
  (step seed 7) in float32 and float64, set up as `bench/harness.py` sets
  up that workload: the steps' `train_log.csv` rows and `final.ckpt`;
- `<run>.cfg`: the config file each CLI run reads.

Run it for each commit, each from its own checkout or with --root, then
`diff -r PARENT_OUT CHANGE_OUT`; no output means every run file is
byte-identical. Each run prints its name and wall time. A `late` run
prints on how many steps the contrast loss was nonzero, and a run that
scores prints on how many of its eval rows the surface distances are
defined, so a reader can tell that the comparison covered steps where the
contrast fires and cases where the distances run.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, run_env

DTYPES = ("float32", "float64")
SCHEDULES = {"default": {}, "confident": {"alpha": "100", "tau_sched": "2000"}}
TRAIN = {"iterations": "40", "eval_period": "20", "n_eval": "4"}
ABLATE = {"iterations": "20"}
ABLATE_SEEDS = "1,2,3"
LATE_STEPS = 12
LATE_SEED = 7
# the quality pin's `reg` run: the registration label alone, SU and SC off
REG = {"dim_h": "16", "dim_w": "16", "dim_d": "8", "n_labeled": "4", "n_unlabeled": "4",
       "n_eval": "4", "iterations": "300", "decay_period": "150", "fuse_w0": "1.0",
       "fuse_half_life": "1000.0", "loss_w_u": "1e-9", "enable_su": "false",
       "enable_sc": "false", "seed": "1"}
# the per-case eval files: `train`'s last student's scores and `eval`'s
CASE_FILES = ("eval_final.csv", "metrics.csv")

# run with bench/ on the path; argv: out dir, dtype, steps, step seed
LATE_SCRIPT = """
import sys
from dataclasses import replace
from pathlib import Path

import harness
from pacedseg.losses import LossReport
from pacedseg.network import save_checkpoint

out, dtype, steps, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
config = replace(harness.workload_config("late", seed, 25.0), dtype=dtype).validate()
trainer = harness.set_up("late", config, seed).trainer
out.mkdir(parents=True, exist_ok=True)
fired = 0
with open(out / "train_log.csv", "w") as log:
    log.write(LossReport.CSV_HEADER + "\\n")
    for t in range(steps):
        report = trainer.step(*trainer.batch_for(t))
        fired += report.l_bf != 0
        log.write(report.csv_row() + "\\n")
save_checkpoint(out / "final.ckpt", {"student": trainer.student, "teacher": trainer.teacher},
                {"iteration": trainer.t})
print(f"contrast loss nonzero on {fired} of {steps} steps")
"""


def write_config(path: Path, values: dict[str, str]) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return path


def runs(out: Path, base: dict[str, str], late_steps: int) -> list[tuple[str, list[str]]]:
    """(name, argv) of every run, in order; `base` holds config keys every
    CLI run sets, a `late` run takes none."""
    cli = [sys.executable, "-m", "pacedseg.cli"]
    found = [("data", cli + ["--config", str(write_config(out / "data.cfg", base)),
                             "--out-dir", str(out / "data"), "gen-data"])]
    for dtype in DTYPES:
        for schedule, keys in SCHEDULES.items():
            name = f"train_{dtype}_{schedule}"
            cfg = write_config(out / f"{name}.cfg", {**base, **TRAIN, "dtype": dtype, **keys})
            found.append((name, cli + ["--config", str(cfg), "--out-dir", str(out / name),
                                       "train", "--data-dir", str(out / "data")]))
    name = "train_float32_generated"
    found.append((name, cli + ["--config", str(out / "train_float32_default.cfg"),
                               "--out-dir", str(out / name), "train"]))
    cfg = write_config(out / "train_reg.cfg", {**base, **REG})
    found.append(("train_reg", cli + ["--config", str(cfg), "--out-dir", str(out / "train_reg"),
                                      "train"]))
    for dtype in DTYPES:
        name, train = f"eval_{dtype}", out / f"train_{dtype}_default"
        found.append((name, cli + ["--config", f"{train}.cfg", "--out-dir", str(out / name),
                                   "eval", "--checkpoint", str(train / "final.ckpt"),
                                   "--data-dir", str(out / "data")]))
    for schedule in SCHEDULES:
        found.append((f"schedule_{schedule}", cli + [
            "--config", str(out / f"train_float32_{schedule}.cfg"), "schedule-dump"]))
    cfg = write_config(out / "ablate.cfg", {**base, **ABLATE})
    found.append(("ablate", cli + ["--config", str(cfg), "--out-dir", str(out / "ablate"),
                                   "ablate", "--seeds", ABLATE_SEEDS]))
    for dtype in DTYPES:
        name = f"late_{dtype}"
        found.append((name, [sys.executable, "-c", LATE_SCRIPT, str(out / name), dtype,
                             str(late_steps), str(LATE_SEED)]))
    return found


def defined_rows(run: Path) -> tuple[int, int]:
    """(eval rows with every metric defined, eval rows) over the per-case
    files under a run; a surface distance is empty where a foreground is."""
    rows = [line.split(",") for path in sorted(run.rglob("*.csv")) if path.name in CASE_FILES
            for line in path.read_text().splitlines()[1:]]
    return sum(all(row) for row in rows), len(rows)


def write_runs(out, root=ROOT, base=None, late_steps=LATE_STEPS) -> None:
    """Every run, one process at a time; a failed run raises RuntimeError
    with its name and error output."""
    out, root = Path(out).resolve(), Path(root).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = run_env(root)
    for name, argv in runs(out, base or {}, late_steps):
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        if done.returncode:
            raise RuntimeError(f"{name} exited with {done.returncode}:\n{done.stderr}")
        if name.startswith("schedule"):  # schedule-dump writes to stdout
            (out / name).mkdir(exist_ok=True)
            (out / name / "schedule.csv").write_text(done.stdout)
        note = done.stdout.strip().splitlines()[-1] if name.startswith("late") else ""
        defined, scored = defined_rows(out / name)
        if scored:
            note = f"surface distances defined on {defined} of {scored} eval rows"
        print(f"{name}: {time.perf_counter() - start:.1f} s {note}".rstrip(), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="output directory")
    parser.add_argument("--root", default=str(ROOT), help="checkout whose package runs")
    args = parser.parse_args(argv)
    try:
        write_runs(args.out, args.root)
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
