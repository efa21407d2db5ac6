"""The float64 loss trajectories of three short runs, pinned.

Each reference holds the `train_log.csv` rows of an 8-step float64 run
on 16x16x8 volumes:
- `tests/data/f64_trajectory.csv`, the confident regime
  (`alpha=100, tau_sched=2000`, so the mask covers about 99% of the
  volume from step 1);
- `tests/data/f64_trajectory_warm.csv`, the default schedule: SU stays
  on its warm branch and the mask holds at most 10% of the voxels;
- `tests/data/f64_trajectory_contrast.csv`, the confident regime resumed
  from the student and teacher of the `late` benchmark fixture
  (`bench/fixtures/late_warm_start.npz`, read by
  `bench/warmstart.load_fixture` and never written here). The contrast
  fires on most of its steps, so `L_bf` pins SC inside a training step.
  ROADMAP item 9 rebuilds that fixture, and whoever rebuilds it re-pins
  this reference.

Both were last written once images were held in float32, so each is
rounded to float32 before the float64 weak-view noise is added, and once
the decoder's bias gradient summed its full-resolution output gradient
per channel.

A speedup that reorders float sums must keep `L_s`, `L_u` and `L_bf`
within 1e-12 relative and the mask count `K` exact.

`L_bf` reads 0 from a fresh init, so only the resumed run pins it; the
contrast numerics are pinned in isolation by `test_contrastive.py`.

Regenerate (only when a change is meant to move the trajectories):
    PYTHONPATH=src python tests/test_trajectory.py
It prints, per reference, the largest relative change of each loss column
and whether `K` changed, before it overwrites the file.
"""

import importlib.util
from pathlib import Path

import numpy as np

from pacedseg.ablation import dataset_for_seed
from pacedseg.losses import LossReport
from pacedseg.network import SGDState
from pacedseg.training import TrainConfig, Trainer

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("warmstart", ROOT / "bench" / "warmstart.py")
warmstart = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(warmstart)

DATA = Path(__file__).parent / "data"
RTOL = 1e-12
SHORT_RUN = dict(dim_h=16, dim_w=16, dim_d=8, n_labeled=2, n_unlabeled=2, iterations=8,
                 dtype="float64", seed=0)
CONFIDENT = TrainConfig(**SHORT_RUN, alpha=100.0, tau_sched=2000.0)
# (reference, config, whether the run resumes from the `late` fixture)
REFERENCES = {
    "confident": (DATA / "f64_trajectory.csv", CONFIDENT, False),
    "warm": (DATA / "f64_trajectory_warm.csv", TrainConfig(**SHORT_RUN), False),
    "contrast": (DATA / "f64_trajectory_contrast.csv", CONFIDENT, True),
}
# steps of the contrast reference on which L_bf must be nonzero, at least
MIN_FIRING_STEPS = 5


def run_rows(config: TrainConfig, warm_start: bool = False) -> list[str]:
    trainer = Trainer(config, dataset_for_seed(config, config.seed))
    if warm_start:
        params = warmstart.load_fixture(config)
        trainer.student, trainer.teacher = params["student"], params["teacher"]
        trainer.opt = SGDState(trainer.student)
    return [trainer.step(*trainer.batch_for(t)).csv_row() for t in range(config.iterations)]


def _columns(rows: list[str]) -> dict[str, list[str]]:
    header = LossReport.CSV_HEADER.split(",")
    cells = [row.split(",") for row in rows]
    return {name: [c[i] for c in cells] for i, name in enumerate(header)}


def _max_errors(got: dict[str, list[str]], want: dict[str, list[str]]) -> dict[str, float]:
    """Largest change of each loss column: relative where the reference is
    non-zero, absolute at exact zeros."""
    errors = {}
    for col in ("L_s", "L_u", "L_bf"):
        g = np.array(got[col], dtype=np.float64)
        w = np.array(want[col], dtype=np.float64)
        errors[col] = float((np.abs(g - w) / np.where(w == 0.0, 1.0, np.abs(w))).max())
    return errors


def _check(regime: str) -> None:
    path, config, warm_start = REFERENCES[regime]
    lines = path.read_text().splitlines()
    assert lines[0] == LossReport.CSV_HEADER
    want = _columns(lines[1:])
    got = _columns(run_rows(config, warm_start))
    assert got["t"] == want["t"] == [str(t) for t in range(config.iterations)]
    assert got["K"] == want["K"]
    for col, err in _max_errors(got, want).items():
        assert err <= RTOL, f"{col}: max error {err:.3e}"


def test_float64_trajectory_matches_reference():
    _check("confident")


def test_float64_warm_trajectory_matches_reference():
    _check("warm")


def test_float64_contrast_trajectory_matches_reference():
    _check("contrast")


def test_contrast_reference_fires_the_contrast():
    path, _, _ = REFERENCES["contrast"]
    ref = _columns(path.read_text().splitlines()[1:])
    assert sum(float(v) != 0.0 for v in ref["L_bf"]) >= MIN_FIRING_STEPS


def test_warm_reference_stays_on_the_warm_branch():
    path, config, _ = REFERENCES["warm"]
    ref = _columns(path.read_text().splitlines()[1:])
    voxels = config.dim_h * config.dim_w * config.dim_d  # the mask of one volume
    assert set(ref["branch"]) == {"warm"}
    assert max(int(k) for k in ref["K"]) <= 0.1 * voxels


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for path, config, warm_start in REFERENCES.values():
        rows = run_rows(config, warm_start)
        if path.exists():  # report the drift from the reference it replaces
            want, got = _columns(path.read_text().splitlines()[1:]), _columns(rows)
            changes = ", ".join(f"{col} {err:.3e}" for col, err in _max_errors(got, want).items())
            print(f"{path.name}: max relative change {changes}; "
                  f"K {'changed' if got['K'] != want['K'] else 'identical'}")
        path.write_text("\n".join([LossReport.CSV_HEADER] + rows) + "\n")
