"""Monte-Carlo-dropout uncertainty and self-paced voxel selection.

The selection machinery decides, per training iteration, which voxels'
pseudo labels are trustworthy enough to learn from:

* predictive entropy of the mean over T stochastic forward passes ranks
  voxels from certain to uncertain;
* a confident ratio turns the training clock and the latest unsupervised
  loss into the fraction of voxels admitted this iteration, with a
  warm-up branch (capped at 10% of the schedule ceiling) while the loss
  still exceeds the age parameter, and a loss-proportional weight
  v = 1 - Lu/lambda once it drops below;
* the age parameter lambda grows geometrically, lambda = alpha * delta^t.

Because dropout sits only in front of the segmentation head, the T
stochastic passes share a single trunk evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import fold_last
from .errors import ScheduleStateError
from .network import ModelParams, head_forward, make_dropout_mask


def entropy_values(p: np.ndarray, n_classes: int) -> np.ndarray:
    """Shannon entropy along the last axis with the 0*log(0) := 0 convention.

    Values are clamped into [0, ln C] to absorb float rounding at the
    uniform extreme (order 1e-16).
    """
    p = np.asarray(p, dtype=np.float64)
    ent = -fold_last(np.add, np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0))
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
        rng = np.random.default_rng(mc_pass_seed(seed, t))
        mask = make_dropout_mask(hdec.shape, params.dropout_rate, rng).astype(params.dtype)
        probs = head_forward(params, hdec, mask).astype(np.float64)
        acc = probs if acc is None else acc + probs
    mean = acc / n_passes
    return mean, entropy_values(mean, params.n_classes)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleState:
    """Scalar state of the self-paced schedule at iteration t."""

    t: int
    t_max: int
    alpha: float
    delta: float
    lam: float
    tau_sched: float
    last_lu: float
    v: float | None
    warm_cap: float = 0.1


def make_schedule(t_max: int, alpha=0.1, delta=1.01, tau_sched=10.0) -> ScheduleState:
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    return ScheduleState(
        t=0, t_max=t_max, alpha=alpha, delta=delta, lam=alpha,
        tau_sched=tau_sched, last_lu=math.inf, v=None,
    )


def warmup_xi(t: int, t_max: int) -> float:
    """Ramp min(0.1 * exp(-5 (1 - t/t_max)^2), 1), nondecreasing on [0, t_max]."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if not 0 <= t <= t_max:
        raise ValueError(f"t={t} outside [0, {t_max}]")
    frac = 1.0 - t / t_max
    return min(0.1 * math.exp(-5.0 * frac * frac), 1.0)


def advance_age(state: ScheduleState) -> ScheduleState:
    """One iteration: t increments, the age parameter grows by delta."""
    return replace(state, t=state.t + 1, lam=state.lam * state.delta)


def confident_ratio(state: ScheduleState, lu: float):
    """Fraction of voxels admitted this iteration, and the self-paced weight.

    Warm branch (lu >= lambda): ratio = warm_cap * min(xi(t) * tau, 1),
    weight undefined. Confident branch (lu < lambda): ratio =
    v * min(xi(t) * tau, 1) with v = 1 - lu/lambda.
    """
    if state.lam <= 0:
        raise ScheduleStateError(f"age parameter must be positive, got {state.lam}")
    if lu < 0:
        raise ValueError("unsupervised loss must be nonnegative")
    cap = min(warmup_xi(state.t, state.t_max) * state.tau_sched, 1.0)
    if lu >= state.lam:
        return state.warm_cap * cap, None
    v = 1.0 - lu / state.lam
    return v * cap, v


def select_mask(u: np.ndarray, r_conf: float) -> np.ndarray:
    """Mark the floor(r_conf * H*W*D) most certain voxels.

    Ordering is (entropy, linear index) ascending, so entropy ties break
    toward earlier voxels and the mask always has exactly K true bits.
    """
    if not 0.0 <= r_conf <= 1.0:
        raise ValueError(f"confident ratio {r_conf} outside [0, 1]")
    flat = u.ravel()
    k = int(math.floor(r_conf * flat.size))
    mask = np.zeros(flat.size, dtype=bool)
    if k > 0:
        order = np.argsort(flat, kind="stable")
        mask[order[:k]] = True
    return mask.reshape(u.shape)
