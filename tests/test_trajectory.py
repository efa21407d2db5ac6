"""The float64 loss trajectories of two short runs, pinned.

Each reference holds the `train_log.csv` rows of an 8-step float64 run
on 16x16x8 volumes:
- `tests/data/f64_trajectory.csv`, the confident regime
  (`alpha=100, tau_sched=2000`, so the mask covers about 99% of the
  volume from step 1);
- `tests/data/f64_trajectory_warm.csv`, the default schedule: SU stays
  on its warm branch and the mask holds at most 10% of the voxels.

Both were last written once images were held in float32, so each is
rounded to float32 before the float64 weak-view noise is added, and once
the decoder's bias gradient summed its full-resolution output gradient
per channel.

A speedup that reorders float sums must keep `L_s`, `L_u` and `L_bf`
within 1e-12 relative and the mask count `K` exact.

`L_bf` reads 0 from a fresh init; the contrast numerics are pinned by
`test_contrastive.py`.

Regenerate (only when a change is meant to move the trajectories):
    PYTHONPATH=src python tests/test_trajectory.py
It prints, per reference, the largest relative change of each loss column
and whether `K` changed, before it overwrites the file.
"""

from pathlib import Path

import numpy as np

from pacedseg.ablation import dataset_for_seed
from pacedseg.losses import LossReport
from pacedseg.training import TrainConfig, Trainer

DATA = Path(__file__).parent / "data"
RTOL = 1e-12
SHORT_RUN = dict(dim_h=16, dim_w=16, dim_d=8, n_labeled=2, n_unlabeled=2, iterations=8,
                 dtype="float64", seed=0)
REFERENCES = {
    "confident": (DATA / "f64_trajectory.csv",
                  TrainConfig(**SHORT_RUN, alpha=100.0, tau_sched=2000.0)),
    "warm": (DATA / "f64_trajectory_warm.csv", TrainConfig(**SHORT_RUN)),
}


def run_rows(config: TrainConfig) -> list[str]:
    trainer = Trainer(config, dataset_for_seed(config, config.seed))
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
    path, config = REFERENCES[regime]
    lines = path.read_text().splitlines()
    assert lines[0] == LossReport.CSV_HEADER
    want = _columns(lines[1:])
    got = _columns(run_rows(config))
    assert got["t"] == want["t"] == [str(t) for t in range(config.iterations)]
    assert got["K"] == want["K"]
    for col, err in _max_errors(got, want).items():
        assert err <= RTOL, f"{col}: max error {err:.3e}"


def test_float64_trajectory_matches_reference():
    _check("confident")


def test_float64_warm_trajectory_matches_reference():
    _check("warm")


def test_warm_reference_stays_on_the_warm_branch():
    path, config = REFERENCES["warm"]
    ref = _columns(path.read_text().splitlines()[1:])
    voxels = config.dim_h * config.dim_w * config.dim_d  # the mask of one volume
    assert set(ref["branch"]) == {"warm"}
    assert max(int(k) for k in ref["K"]) <= 0.1 * voxels


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for path, config in REFERENCES.values():
        rows = run_rows(config)
        if path.exists():  # report the drift from the reference it replaces
            want, got = _columns(path.read_text().splitlines()[1:]), _columns(rows)
            changes = ", ".join(f"{col} {err:.3e}" for col, err in _max_errors(got, want).items())
            print(f"{path.name}: max relative change {changes}; "
                  f"K {'changed' if got['K'] != want['K'] else 'identical'}")
        path.write_text("\n".join([LossReport.CSV_HEADER] + rows) + "\n")
