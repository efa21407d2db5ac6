"""The final DSC of one short float32 run of the `reg` setting, pinned.

`reg` trains on the registration label alone: `fuse_w0=1` and
`fuse_half_life=1000` keep the fused label on it, `loss_w_u=1e-9` mutes
the consistency loss, and SU and SC are off. The run: 16x16x8 volumes,
4 + 4 cases, seed 1, 300 iterations with the learning rate decayed at
150, scored on the run's 4 eval cases.

It read a mean DSC of 0.8389 (seeds 2 and 3: 0.8577 and 0.8856). At 100
iterations every eval prediction was empty, so the run is not shortened.
The pin is a regression check, not a quality claim: it holds the DSC to
DSC_PIN within DSC_TOL, and every eval prediction to neither empty nor
all foreground. A change meant to move it re-pins DSC_PIN and says so
in CHANGES.md, as `test_trajectory.py`'s references are re-pinned.
"""

import numpy as np

from pacedseg.ablation import dataset_for_seed
from pacedseg.grids import argmax_last
from pacedseg.metrics import summarize
from pacedseg.network import forward_parts, head_forward
from pacedseg.training import TrainConfig, Trainer, eval_cases, evaluate_params

DSC_PIN = 0.8389
DSC_TOL = 0.05
REG_RUN = TrainConfig(dim_h=16, dim_w=16, dim_d=8, n_labeled=4, n_unlabeled=4, n_eval=4,
                      iterations=300, decay_period=150, fuse_w0=1.0, fuse_half_life=1000.0,
                      loss_w_u=1e-9, enable_su=False, enable_sc=False, seed=1)


def test_reg_run_final_dsc_is_pinned_and_no_prediction_collapses():
    cfg = REG_RUN.validate()
    trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
    for t in range(cfg.iterations):
        trainer.step(*trainer.batch_for(t))
    cases = eval_cases(cfg)
    student = trainer.student
    summary = summarize(evaluate_params(student, cases, cfg.n_classes))
    fg = []  # foreground voxels of each eval prediction
    for case in cases:
        probs = head_forward(student, forward_parts(student, case.image.data)[0])
        fg.append(int(np.count_nonzero(argmax_last(probs))))
    assert all(0 < n < np.prod(cfg.dims) for n in fg), f"foreground voxels per case: {fg}"
    assert summary["n_undefined"] == 0
    assert abs(summary["dsc"] - DSC_PIN) <= DSC_TOL, f"mean DSC {summary['dsc']:.4f}"
