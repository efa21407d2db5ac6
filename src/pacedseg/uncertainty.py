"""Monte-Carlo-dropout uncertainty and self-paced voxel selection.

The selection machinery decides, per training iteration, which voxels'
pseudo labels are trustworthy enough to learn from:

* predictive entropy of the mean over T stochastic forward passes ranks
  voxels from certain to uncertain;
* one mutable `Schedule` holds the self-paced state: the clock t, the age
  parameter lambda = alpha * delta^t (delta >= 1, so it never shrinks) and
  the latest unsupervised loss. Its confident ratio is the fraction of
  voxels admitted this iteration, with a warm-up branch (capped at
  WARM_CAP of the ramp) while the loss still exceeds lambda, and a
  loss-proportional weight v = 1 - Lu/lambda once it drops below. The
  trainer and the CLI's schedule-dump step the same object.

Because dropout sits only in front of the segmentation head, the T
stochastic passes share a single trunk evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .network import ModelParams, draw_dropout, head_forward


def entropy_values(p: np.ndarray, n_classes: int) -> np.ndarray:
    """Shannon entropy along the last axis with the 0*log(0) := 0 convention.

    Values are clamped into [0, ln C] to absorb float rounding at the
    uniform extreme (order 1e-16).
    """
    p = np.asarray(p, dtype=np.float64)
    ent = -np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0).sum(-1)
    np.clip(ent, 0.0, math.log(n_classes), out=ent)
    return ent


def mc_pass_seed(seed: int, t: int) -> int:
    """Seed of the t-th stochastic pass; pinned so oracles can replay passes."""
    return seed + t


def mc_uncertainty_from_trunk(
    params: ModelParams, hdec: np.ndarray, n_passes: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """T dropout-on head passes over a shared trunk; (mean probs, entropy in nats).

    Pass t uses ``mc_pass_seed(seed, t)``, so averaging T full dropout-on
    forward passes with those seeds reproduces the mean exactly.
    """
    if n_passes < 1:
        raise ValueError("need at least one stochastic pass")
    acc = None
    for t in range(n_passes):
        drop = draw_dropout(hdec.shape, params.dropout_rate, mc_pass_seed(seed, t), params.dtype)
        probs = head_forward(params, hdec, drop).astype(np.float64)
        if acc is None:
            acc = probs
        else:
            acc += probs
    mean = acc / n_passes
    return mean, entropy_values(mean, params.n_classes)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

# ceiling of the confident ratio on the warm branch, as a share of the ramp
WARM_CAP = 0.1


def warmup_xi(t: int, t_max: int) -> float:
    """Ramp min(0.1 * exp(-5 (1 - t/t_max)^2), 1), nondecreasing on [0, t_max]."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if not 0 <= t <= t_max:
        raise ValueError(f"t={t} outside [0, {t_max}]")
    frac = 1.0 - t / t_max
    return min(0.1 * math.exp(-5.0 * frac * frac), 1.0)


@dataclass
class Schedule:
    """The self-paced schedule's whole state: the clock t, the age parameter
    lam = alpha * delta^t, and the last unweighted unsupervised loss fed in
    (inf before the first step, so step 0 is on the warm branch)."""

    t_max: int
    alpha: float = 0.1
    delta: float = 1.01
    tau_sched: float = 10.0
    t: int = field(default=0, init=False)
    lam: float = field(init=False)
    last_lu: float = field(default=math.inf, init=False)

    def __post_init__(self):
        if not (self.t_max > 0 and self.alpha > 0 and self.delta >= 1):
            raise ValueError(
                f"need t_max > 0, alpha > 0 and delta >= 1 (the age parameter never "
                f"shrinks), got t_max={self.t_max}, alpha={self.alpha}, delta={self.delta}"
            )
        self.lam = self.alpha

    def ratio(self):
        """(fraction of voxels admitted at t, self-paced weight v).

        Warm branch (last_lu >= lam): ratio = WARM_CAP * min(xi(t) * tau, 1)
        and v is None. Confident branch (last_lu < lam): ratio =
        v * min(xi(t) * tau, 1) with v = 1 - last_lu/lam.
        """
        if self.t > self.t_max:
            raise ConfigError(
                f"iteration {self.t} is past the schedule's end (t_max = "
                f"{self.t_max}); set iterations to the number of steps to run"
            )
        cap = min(warmup_xi(self.t, self.t_max) * self.tau_sched, 1.0)
        if self.last_lu >= self.lam:
            return WARM_CAP * cap, None
        v = 1.0 - self.last_lu / self.lam
        return v * cap, v

    def advance(self, lu: float) -> None:
        """One iteration that saw unsupervised loss lu: t increments, the age
        parameter grows by delta."""
        if not lu >= 0:
            raise ValueError(f"unsupervised loss must be >= 0, got {lu!r}")
        self.t += 1
        self.lam *= self.delta
        self.last_lu = lu


def admitted(schedule: Schedule, enable_su: bool):
    """(fraction of voxels admitted at the schedule's t, self-paced weight v).

    With sample selection on this is schedule.ratio(); with it off every
    voxel is admitted and v is None, while the schedule still checks its
    clock and its age parameter still grows as the run advances it.
    """
    r_conf, v = schedule.ratio()
    return (r_conf, v) if enable_su else (1.0, None)


def admitted_count(r_conf: float, n_voxels: int) -> int:
    """K = floor(r_conf * n_voxels), the number of voxels a ratio admits."""
    return int(math.floor(r_conf * n_voxels))


def select_mask(u: np.ndarray, r_conf: float) -> np.ndarray:
    """Mark the K = `admitted_count(r_conf, H*W*D)` most certain voxels.

    Ordering is (entropy, linear index) ascending, NaN last, as a stable
    `argsort` ranks them, so entropy ties break toward earlier voxels and
    the mask always has exactly K true bits. No full sort is made:
    `np.partition` finds the K-th smallest entropy, every voxel below it is
    kept, and the lowest-index voxels equal to it fill the rest.
    """
    if not 0.0 <= r_conf <= 1.0:
        raise ValueError(f"confident ratio {r_conf} outside [0, 1]")
    flat = u.ravel()
    k = admitted_count(r_conf, flat.size)
    if k == 0:
        return np.zeros(u.shape, dtype=bool)
    kth = np.partition(flat, k - 1)[k - 1]
    if np.isnan(kth):  # partition, like argsort, ranks NaN after every number
        tied = np.isnan(flat)
        mask = ~tied
    else:
        mask, tied = flat < kth, flat == kth
    mask[np.flatnonzero(tied)[: k - np.count_nonzero(mask)]] = True
    return mask.reshape(u.shape)
