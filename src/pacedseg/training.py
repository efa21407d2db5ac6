"""The full teacher-student training loop with self-paced selection.

One iteration consumes one labeled and one unlabeled case:

  labeled:  two weak views in a shared flip frame -> teacher pseudo labels
            -> CutMix strong view -> fuse the CutMixed teacher label with
            the (identically flipped) registration label -> supervised
            Dice+CE on the student's strong-view prediction;
  unlabeled: two independently flipped weak views -> teacher pseudo labels
            -> MC-dropout entropy on view 1 -> self-paced voxel mask ->
            CutMix strong view -> mask-gated Dice+CE against the CutMixed
            pseudo label, plus the bidirectional feature contrast loss
            (teacher anchors, student strong-view negatives);
  update:   L = Ls + Lu + Lbf, each branch's graph on its own tape and
            swept as soon as its loss exists, both into one set of
            parameter leaves (each leaf's gradient is g_l + g_u) -> finite
            check -> SGD(momentum) on the student -> EMA refresh of the
            teacher -> the schedule advances.

Per-step randomness comes from a fixed number of seed streams derived
from (seed, t) alone, so toggling the selection or contrastive components
never shifts the data augmentation draws — ablation variants see
identical inputs — and a trainer whose schedule is set to iteration t
draws what one that stepped there draws. The trainer's clock is its
schedule's: the run state is the schedule (t, lambda, last L_u), the
student and teacher parameters and the SGD velocity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .autodiff import Tape
from .contrastive import contrast_loss_node, mine_pairs
from .errors import ConfigError, TrainingAbort
from .grids import (
    LabelMap,
    argmax_last,
    downsample_labels_majority,
    downsample_mask,
    downsample_mean,
)
from .losses import LossReport, dice_ce_node
from .metrics import MetricsRecord, evaluate_case, summarize, write_eval_log, write_records
from .network import (
    ModelParams,
    SGDState,
    draw_dropout,
    ema_update,
    feature_grid,
    feature_node,
    forward_graph,
    forward_parts,
    head_forward,
    init_params,
    model_fault,
    param_nodes,
    save_checkpoint,
    sgd_step,
)
from .perturb import apply_flips, cutmix_with_box, sample_box, sample_flips, weak_perturb
from .synthdata import (
    DEFAULT_REG_BETA,
    DEFAULT_REG_SIGMA,
    Dataset,
    LabeledCase,
    UnlabeledCase,
    fuse_with_weight_map,
    generate_dataset,
    slice_weight_map,
    valid_dims,
)
from .uncertainty import Schedule, admitted, mc_uncertainty_from_trunk, select_mask

TRAIN_LOG_NAME = "train_log.csv"
EVAL_LOG_NAME = "eval_log.csv"
EVAL_FINAL_NAME = "eval_final.csv"
FINAL_CKPT_NAME = "final.ckpt"
CONFIG_NAME = "config.txt"


@dataclass(frozen=True)
class TrainConfig:
    """Every knob of a run; maps 1:1 onto the flat key=value config file.

    Frozen, and checked once, when made (`__post_init__` runs `validate`):
    `replace` makes a new, checked config. `run_training` writes config.txt.
    """

    # optimization: lr steps down by lr_decay every decay_period iterations;
    # unset (None), the period is derived from iterations at the default
    # ratio 625/1500, i.e. max(1, iterations * 5 // 12)
    iterations: int = 1500
    lr0: float = 0.01
    lr_decay: float = 0.1
    decay_period: int | None = None
    momentum: float = 0.9
    ema_decay: float = 0.99
    # self-paced uncertainty selection
    enable_su: bool = True
    mc_passes: int = 8
    tau_sched: float = 10.0
    alpha: float = 0.1
    delta: float = 1.01
    # bidirectional feature contrast
    enable_sc: bool = True
    tau_contrast: float = 0.5
    k_neg: int = 64
    # model
    n_classes: int = 2
    widths: tuple[int, ...] = (4, 8, 8, 8)
    embed_dim: int = 16
    dropout_rate: float = 0.3
    dtype: str = "float32"
    # synthetic data generator
    dim_h: int = 32
    dim_w: int = 32
    dim_d: int = 16
    n_labeled: int = 16
    n_unlabeled: int = 64
    noise_amp: float = 0.5
    radius_lo: float = 0.24
    radius_hi: float = 0.40
    center_jitter: float = 0.08
    edge_width: float = 0.08
    # registration surrogate + fusion
    reg_sigma: float = DEFAULT_REG_SIGMA
    reg_beta: float = DEFAULT_REG_BETA
    fuse_w0: float = 0.8
    fuse_half_life: float = 4.0
    # perturbations
    weak_sigma: float = 0.05
    # loss weights; 1.0 everywhere is the literal unweighted sum
    loss_w_s: float = 1.0
    loss_w_u: float = 1.0
    loss_w_bf: float = 1.0
    # run control
    seed: int = 0
    eval_seed: int = 777
    n_eval: int = 8
    eval_period: int = 250
    ablation_seeds: tuple[int, ...] = (1, 2, 3, 4, 5)

    def __post_init__(self):
        self.validate()

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.dim_h, self.dim_w, self.dim_d)

    @property
    def generator_options(self) -> dict:
        """The keyword arguments of `synthdata.generate_dataset` this config sets."""
        return {"noise_amp": self.noise_amp, "radius_range": (self.radius_lo, self.radius_hi),
                "center_jitter": self.center_jitter, "edge_width": self.edge_width}

    def new_schedule(self) -> Schedule:
        """The self-paced schedule at t = 0, over t_max = iterations steps."""
        return Schedule(self.iterations, self.alpha, self.delta, self.tau_sched)

    @property
    def effective_decay_period(self) -> int:
        """decay_period if set, else the share of iterations the defaults imply."""
        if self.decay_period is not None:
            return self.decay_period
        return max(1, self.iterations * 5 // 12)

    def lr_at(self, t: int) -> float:
        """The learning rate of iteration t: lr0, stepped down by lr_decay
        every effective_decay_period iterations."""
        return self.lr0 * self.lr_decay ** (t // self.effective_decay_period)

    @property
    def np_dtype(self):
        return {"float32": np.float32, "float64": np.float64}[self.dtype]

    def validate(self) -> "TrainConfig":
        # inf has a meaning only for fuse_half_life (every slice trusted alike)
        # and tau_sched (the warm cap is 1 from the first step)
        infinite = [f.name for f in fields(self) if f.type == "float"  # a str (PEP 563)
                    and f.name not in ("fuse_half_life", "tau_sched")
                    and not np.isfinite(getattr(self, f.name))]
        model = model_fault(self.n_classes, self.widths, self.embed_dim, self.dropout_rate)
        checks = [
            (not infinite, f"{', '.join(infinite)} must be finite"),
            (self.iterations >= 1, "iterations must be >= 1"),
            (self.lr0 > 0, "lr0 must be positive"),
            (0 < self.lr_decay <= 1, "lr_decay must be in (0, 1]"),
            (1 <= self.effective_decay_period, "decay_period must be >= 1"),
            (self.effective_decay_period <= self.iterations,
             f"decay_period ({self.effective_decay_period}) must not exceed "
             f"iterations ({self.iterations})"),
            (0 <= self.momentum < 1, "momentum must be in [0, 1)"),
            (0 <= self.ema_decay < 1, "ema_decay must be in [0, 1)"),
            (self.mc_passes >= 1, "mc_passes must be >= 1"),
            (self.tau_sched > 0, "tau_sched must be positive"),
            (self.alpha > 0, "alpha must be positive"),
            (self.delta >= 1, "delta must be >= 1: the age parameter never shrinks"),
            (self.tau_contrast > 0, "tau_contrast must be positive"),
            (self.k_neg >= 0, "k_neg must be >= 0"),
            (model is None, model),
            (self.dtype in ("float32", "float64"), "dtype must be float32 or float64"),
            (valid_dims(self.dims), "dims must be even and >= 4"),
            (self.n_labeled >= 1 and self.n_unlabeled >= 1,
             "need at least one labeled and one unlabeled case"),
            # intensities lie in [0, 1]; no normal draw times 1e30 nears float32's 3.4e38
            (0 <= self.noise_amp <= 1e30, "noise_amp must be in [0, 1e30]: an image is float32"),
            (0 < self.radius_lo <= self.radius_hi < 0.5, "radius range must be in (0, 0.5)"),
            (0 <= self.center_jitter < 0.5, "center_jitter must be in [0, 0.5)"),
            (self.edge_width > 0, "edge_width must be positive"),
            (self.reg_sigma >= 0 and self.reg_beta >= 0, "registration noise must be >= 0"),
            (0 <= self.fuse_w0 <= 1, "fuse_w0 must be in [0, 1]"),
            (self.fuse_half_life > 0, "fuse_half_life must be positive"),
            (self.weak_sigma >= 0, "weak_sigma must be >= 0"),
            (all(w >= 0 for w in (self.loss_w_s, self.loss_w_u, self.loss_w_bf)),
             "loss weights loss_w_s, loss_w_u and loss_w_bf must be >= 0"),
            (self.n_eval >= 1, "n_eval must be >= 1"),
            (self.eval_period >= 1, "eval_period must be >= 1"),
            (all(s >= 0 for s in (self.seed, self.eval_seed, *self.ablation_seeds)),
             "seed, eval_seed and ablation_seeds must be non-negative"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        # lr_decay <= 1, so the last iteration's rate is the least
        if not self.lr_at(self.iterations - 1) > 0:
            raise ConfigError("the learning rate underflows to 0 before the last iteration; "
                              "raise lr0, lr_decay or decay_period")
        return self


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false", "1", "0"):
        raise ValueError(raw)
    return raw.lower() in ("true", "1")


# the parser of each TrainConfig annotation (a str, PEP 563)
_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str, "int | None": int,
            "tuple[int, ...]": lambda raw: tuple(int(x) for x in raw.replace(",", " ").split())}


def parse_setting(key: str, raw: str):
    """The value of config key `key` written as the string `raw`, parsed by
    the field's annotation; its config checks it when that config is made."""
    kinds = {f.name: f.type for f in fields(TrainConfig)}
    if key not in kinds:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _PARSERS[kinds[key]](raw)
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from e


def load_config(path) -> TrainConfig:
    """Parse a flat `key = value` file; '#' starts a comment and each key
    is set at most once. A line's error names its path and line number."""
    values, lines = {}, {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: {key!r} is set again, first on line {lines[key]}")
        try:
            values[key], lines[key] = parse_setting(key, value), lineno
        except ConfigError as e:
            raise ConfigError(f"{path}:{lineno}: {e}") from e
    return TrainConfig(**values)


def save_config(config: TrainConfig, path) -> None:
    """Write every set field; an unset (None) field is left out so it stays unset."""
    with open(path, "w") as f:
        for fld in fields(TrainConfig):
            value = getattr(config, fld.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            f.write(f"{fld.name} = {value}\n")


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------

@dataclass
class StepTrace:
    """Intermediates captured for oracle tests and run diagnostics (ROADMAP item 3(b))."""

    labeled_strong: np.ndarray | None = None
    labeled_fused: np.ndarray | None = None
    labeled_probs: np.ndarray | None = None
    unlabeled_strong: np.ndarray | None = None
    unlabeled_pseudo: np.ndarray | None = None
    unlabeled_probs: np.ndarray | None = None
    mask: np.ndarray | None = None


class Trainer:
    """Owns student/teacher parameters, the optimizer, and the schedule."""

    def __init__(self, config: TrainConfig, dataset: Dataset):
        if dataset.n_labeled < 1 or dataset.n_unlabeled < 1:
            raise ConfigError("training needs at least one labeled and one unlabeled case")
        if dataset.dims != config.dims:
            raise ConfigError(f"dataset dims {dataset.dims} != config dims {config.dims}")
        if dataset.n_classes != config.n_classes:
            raise ConfigError(f"dataset has {dataset.n_classes} classes, "
                              f"config n_classes is {config.n_classes}")
        for case in dataset.labeled:
            if case.reg_label is None:
                raise ConfigError(f"{case.case_id}: labeled case has no registration label")
        self.config = config
        self.dataset = dataset
        self.dtype = config.np_dtype
        self.student = init_params(
            n_classes=config.n_classes, widths=config.widths, embed_dim=config.embed_dim,
            dropout_rate=config.dropout_rate, seed=config.seed, dtype=self.dtype,
        )
        self.teacher = self.student.copy()
        self.opt = SGDState(self.student)
        self.schedule = config.new_schedule()
        self._drop_shape = (config.widths[3], *config.dims)

    @property
    def t(self) -> int:
        """The iteration the next step runs; the schedule owns the clock."""
        return self.schedule.t

    def current_lr(self) -> float:
        return self.config.lr_at(self.t)

    def _teacher_view(self, view: np.ndarray):
        """Teacher trunk + clean head on one weak view; (decoder, down-sampled, labels)."""
        hdec, hd = forward_parts(self.teacher, view)
        return hdec, hd, argmax_last(head_forward(self.teacher, hdec))

    def step(self, labeled: LabeledCase, unlabeled: UnlabeledCase,
             capture: StepTrace | None = None) -> LossReport:
        """One iteration on one labeled and one unlabeled case.

        Each branch records its student graph on a tape of its own and
        sweeps it as soon as its loss exists, so the labeled graph is freed
        before the unlabeled branch runs MC and records its own. Both tapes
        read one set of parameter leaves, and each leaf takes one addend per
        branch, so its gradient is g_l + g_u, the floats one sweep of
        L = Ls + Lu + Lbf would give: float addition commutes. The
        finite-loss check comes before any update of the student, the
        velocity, the teacher or the schedule.
        """
        cfg = self.config
        r_conf, v = admitted(self.schedule, cfg.enable_su)
        branch = "off" if not cfg.enable_su else "warm" if v is None else "confident"
        if not self.student.finite():
            raise TrainingAbort(
                f"non-finite student parameters entering iteration {self.t}; "
                f"schedule={self.schedule}"
            )
        subs = np.random.SeedSequence((cfg.seed, 0xC0FFEE), spawn_key=(self.t,)).spawn(8)
        pnodes = param_nodes(Tape(self.dtype), self.student)  # leaves only; the tape is dropped
        ls_w, ls = self._labeled_loss(labeled, subs, pnodes, capture)
        (lu_w, lu), (lbf_w, lbf), mask = self._unlabeled_loss(unlabeled, subs, pnodes, r_conf,
                                                              capture)
        if not np.isfinite((ls_w + lu_w) + lbf_w):
            raise TrainingAbort(
                f"non-finite loss at iteration {self.t}: "
                f"Ls={float(ls)} Lu={float(lu)} Lbf={float(lbf)} schedule={self.schedule}"
            )

        grads = {
            name: (node.grad if node.grad is not None else np.zeros_like(node.value))
            for name, node in pnodes.items()
        }
        lr = self.current_lr()
        sgd_step(self.student, grads, lr, cfg.momentum, self.opt)
        ema_update(self.teacher, self.student, cfg.ema_decay)

        report = LossReport(
            t=self.t,
            l_s=float(ls_w), l_u=float(lu_w), l_bf=float(lbf_w),
            mask_count=int(np.count_nonzero(mask)), r_conf=r_conf, branch=branch, v=v,
            lam=self.schedule.lam, lr=lr,
        )
        self.schedule.advance(float(lu))
        return report

    def _labeled_loss(self, case: LabeledCase, subs, pnodes, capture):
        """Supervised loss against the fused label, swept into the leaves'
        gradients; (weighted, unweighted) Ls. Its tape dies on return."""
        cfg = self.config
        tape = Tape(self.dtype)
        rng = np.random.default_rng(subs[0])
        flips = sample_flips(rng)
        w1 = weak_perturb(case.image.data, rng, cfg.weak_sigma, flips, self.dtype)
        w2 = weak_perturb(case.image.data, rng, cfg.weak_sigma, flips, self.dtype)
        y1 = self._teacher_view(w1)[2]
        y2 = self._teacher_view(w2)[2]
        box = sample_box(cfg.dims, np.random.default_rng(subs[1]))
        xs, ys = cutmix_with_box((w1, y1), (w2, y2), box)
        reg_f = apply_flips(case.reg_label.data, flips)
        trust = slice_weight_map(cfg.dim_d, case.k, cfg.fuse_w0, cfg.fuse_half_life)
        fused = fuse_with_weight_map(reg_f, ys, trust[::-1] if flips[2] else trust)
        probs, _ = forward_graph(tape, pnodes, xs, draw_dropout(
            self._drop_shape, cfg.dropout_rate, subs[2], self.dtype))
        ls = dice_ce_node(tape, probs, fused, cfg.n_classes)
        ls_w = tape.mul_const(ls, cfg.loss_w_s)
        if capture is not None:
            capture.labeled_strong = xs
            capture.labeled_fused = fused
            capture.labeled_probs = np.asarray(probs.value, dtype=np.float64)
        tape.backward(ls_w)
        return ls_w.value, ls.value

    def _self_paced_mask(self, hdec: np.ndarray, sub, r_conf: float) -> np.ndarray:
        """The voxels SU admits: the r_conf share on which the teacher's MC
        head passes over its decoder activations hdec agree most (lowest
        entropy); every voxel, with no MC pass, at a ratio of 1 (what SU off gives)."""
        cfg = self.config
        if r_conf == 1.0:
            return np.ones(cfg.dims, dtype=bool)
        mc_seed = int(np.random.default_rng(sub).integers(0, 2**62))
        entropy = mc_uncertainty_from_trunk(self.teacher, hdec, cfg.mc_passes, mc_seed)[1]
        return select_mask(entropy, r_conf)

    def _unlabeled_loss(self, case: UnlabeledCase, subs, pnodes, r_conf: float, capture):
        """Gated consistency and feature contrast, swept into the leaves'
        gradients; ((weighted, unweighted) Lu, the same of Lbf, the mask).
        Its tape dies on return."""
        cfg = self.config
        tape = Tape(self.dtype)
        u1 = weak_perturb(case.image.data, np.random.default_rng(subs[3]), cfg.weak_sigma,
                          dtype=self.dtype)
        u2 = weak_perturb(case.image.data, np.random.default_rng(subs[4]), cfg.weak_sigma,
                          dtype=self.dtype)
        hdec_u1, hd_u1, yu1 = self._teacher_view(u1)
        hd_u2, yu2 = self._teacher_view(u2)[1:]
        mask = self._self_paced_mask(hdec_u1, subs[7], r_conf)
        del hdec_u1  # MC read it last; the student graph is recorded without it

        box = sample_box(cfg.dims, np.random.default_rng(subs[5]))
        xs, ys = cutmix_with_box((u1, yu1), (u2, yu2), box)
        probs, hd = forward_graph(tape, pnodes, xs, draw_dropout(
            self._drop_shape, cfg.dropout_rate, subs[6], self.dtype))
        lu = dice_ce_node(tape, probs, ys, cfg.n_classes, gate_idx=np.flatnonzero(mask.ravel()))

        # only the contrast reads features, and a mask grid with no true
        # block has no positive, so nothing is mined from it
        factor = (2, 2, 2)
        mask_ds = downsample_mask(mask, factor) if cfg.enable_sc else None
        if mask_ds is not None and mask_ds.any():
            feats = feature_node(tape, pnodes, hd)
            # argmax and max are exact in the model's dtype: a cast to float64
            # is exact and monotone, so only the max is cast, for the mean
            batch = mine_pairs(
                feature_grid(self.teacher, hd_u1), feature_grid(self.teacher, hd_u2), feats.value,
                downsample_labels_majority(yu1, cfg.n_classes, factor),
                downsample_labels_majority(yu2, cfg.n_classes, factor),
                downsample_labels_majority(argmax_last(probs.value), cfg.n_classes, factor),
                mask_ds,
                downsample_mean(probs.value.max(-1).astype(np.float64), factor),
                cfg.k_neg, cfg.tau_contrast,
            )
            lbf = contrast_loss_node(tape, feats, batch)
        else:
            lbf = tape.input(0.0)

        lu_w = tape.mul_const(lu, cfg.loss_w_u)
        lbf_w = tape.mul_const(lbf, cfg.loss_w_bf)
        if capture is not None:
            capture.unlabeled_strong = xs
            capture.unlabeled_pseudo = ys
            capture.unlabeled_probs = np.asarray(probs.value, dtype=np.float64)
            capture.mask = mask
        tape.backward(tape.add(lu_w, lbf_w))
        return (lu_w.value, lu.value), (lbf_w.value, lbf.value), mask

    def batch_for(self, t: int) -> tuple[LabeledCase, UnlabeledCase]:
        return (
            self.dataset.labeled[t % self.dataset.n_labeled],
            self.dataset.unlabeled[t % self.dataset.n_unlabeled],
        )


def eval_cases(config: TrainConfig) -> list[LabeledCase]:
    """The held-out cases a run with this config is scored on: n_eval
    generated cases of eval_seed, each with its truth."""
    return generate_dataset(
        config.n_eval, 0, config.dims, seed=config.eval_seed, **config.generator_options
    ).labeled


def evaluate_params(params: ModelParams, cases, n_classes: int) -> list[MetricsRecord]:
    """Dropout-off student predictions scored against hidden truths."""
    records = []
    for case in cases:
        probs = head_forward(params, forward_parts(params, case.image.data)[0])
        pred = LabelMap(argmax_last(probs), n_classes)
        records.append(evaluate_case(case.case_id, pred, case.truth))
    return records


def run_training(config: TrainConfig, dataset: Dataset, out_dir) -> dict:
    """Train, log per-iteration losses and periodic metrics, persist checkpoints.

    This is the one writer of a run's config.txt: after `Trainer` has
    accepted the config and the data, and before the first step, so a
    refused run writes none and an aborted one says what it ran. The
    student is scored every eval_period iterations (one eval_log.csv row
    each) and after the last iteration, whose per-case scores go to
    eval_final.csv. Returns summarize() of that last student.
    """
    trainer = Trainer(config, dataset)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(config, out / CONFIG_NAME)
    eval_set = eval_cases(config)
    eval_points = []

    with open(out / TRAIN_LOG_NAME, "w") as log:
        log.write(LossReport.CSV_HEADER + "\n")
        for t in range(config.iterations):
            labeled, unlabeled = trainer.batch_for(t)
            report = trainer.step(labeled, unlabeled)
            log.write(report.csv_row() + "\n")
            done = t + 1
            periodic = done % config.eval_period == 0
            if periodic or done == config.iterations:
                records = evaluate_params(trainer.student, eval_set, config.n_classes)
                summary = summarize(records)
                if periodic:
                    eval_points.append((done, summary))

    write_records(out / EVAL_FINAL_NAME, records)  # the last step's scores
    write_eval_log(out / EVAL_LOG_NAME, eval_points)
    save_checkpoint(
        out / FINAL_CKPT_NAME,
        {"student": trainer.student, "teacher": trainer.teacher},
        {"iteration": trainer.t, "lambda": trainer.schedule.lam},
    )
    return summary
