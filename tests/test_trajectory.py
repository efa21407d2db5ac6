"""The float64 loss trajectory of a short confident-regime run, pinned.

`tests/data/f64_trajectory.csv` holds the `train_log.csv` rows of an
8-step float64 run (16x16x8 volumes, `alpha=100, tau_sched=2000`, so the
mask covers about 99% of the volume from step 1). It was written by the
decoder that up-samples the bottleneck and then convolves it at full
resolution. A speedup that reorders float sums must keep `L_s`, `L_u` and
`L_bf` within 1e-12 relative and the mask count `K` exact.

`L_bf` reads 0 from a fresh init; the contrast numerics are pinned by
`test_contrastive.py`.

Regenerate (only when a change is meant to move the trajectory):
    PYTHONPATH=src python tests/test_trajectory.py
"""

from pathlib import Path

import numpy as np

from pacedseg.ablation import dataset_for_seed
from pacedseg.losses import LossReport
from pacedseg.training import TrainConfig, Trainer

DATA = Path(__file__).parent / "data" / "f64_trajectory.csv"
RTOL = 1e-12
CONFIG = TrainConfig(
    dim_h=16, dim_w=16, dim_d=8, n_labeled=2, n_unlabeled=2, iterations=8,
    dtype="float64", alpha=100.0, tau_sched=2000.0, seed=0,
)


def run_rows() -> list[str]:
    trainer = Trainer(CONFIG, dataset_for_seed(CONFIG, CONFIG.seed))
    return [trainer.step(*trainer.batch_for(t)).csv_row() for t in range(CONFIG.iterations)]


def _columns(rows: list[str]) -> dict[str, list[str]]:
    header = LossReport.CSV_HEADER.split(",")
    cells = [row.split(",") for row in rows]
    return {name: [c[i] for c in cells] for i, name in enumerate(header)}


def test_float64_trajectory_matches_reference():
    lines = DATA.read_text().splitlines()
    assert lines[0] == LossReport.CSV_HEADER
    want = _columns(lines[1:])
    got = _columns(run_rows())
    assert got["t"] == want["t"] == [str(t) for t in range(CONFIG.iterations)]
    assert got["K"] == want["K"]
    for col in ("L_s", "L_u", "L_bf"):
        g = np.array(got[col], dtype=np.float64)
        w = np.array(want[col], dtype=np.float64)
        # relative where the reference is non-zero, absolute at exact zeros
        err = np.abs(g - w) / np.where(w == 0.0, 1.0, np.abs(w))
        assert err.max() <= RTOL, f"{col}: max error {err.max():.3e}"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("\n".join([LossReport.CSV_HEADER] + run_rows()) + "\n")
