"""Supervised, mask-gated unsupervised, and total training objectives.

Each loss exists once, as a tape-graph builder; reported values are the
values of the same nodes the training gradients flow through.

Mask gating is subset reduction: the gated loss is literally the loss of
the voxel subset where the mask is true, not a multiply-then-average
over the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Node, Tape

DICE_EPS = 1e-5
CE_PROB_FLOOR = 1e-7


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    return np.eye(n_classes)[labels]


def _scalar(tape: Tape, node: Node) -> Node:
    return tape.reshape(node, ())


def dice_node(tape: Tape, probs_flat: Node, onehot: np.ndarray, n_classes: int) -> Node:
    """Soft Dice of (N, C) probabilities, averaged over foreground classes 1..C-1.

    The foreground classes form one vector: one `take_rows` of the column
    sums of p*g and of p, then 1 - (2*inter + eps) / (p + g + eps) for all
    of them at once. The label counts g + eps are formed in float64 and
    cast to the tape dtype once, as a float constant per class would be.
    """
    fg = np.arange(1, n_classes)
    counts = np.asarray(onehot, dtype=np.float64).sum(axis=0)[fg]
    inter = tape.take_rows(tape.sum_axis(tape.mul_const(probs_flat, onehot), 0), fg)
    p_sums = tape.take_rows(tape.sum_axis(probs_flat, 0), fg)
    num = tape.add_const(tape.mul_const(inter, 2.0), DICE_EPS)
    den = tape.add_const(p_sums, counts + DICE_EPS)
    terms = tape.add_const(tape.mul_const(tape.div(num, den), -1.0), 1.0)
    return _scalar(tape, tape.mul_const(tape.sum(terms), 1.0 / (n_classes - 1)))


def ce_node(tape: Tape, probs_flat: Node, labels: np.ndarray) -> Node:
    """Mean -log p[target] with probabilities floored at 1e-7 before the log."""
    picked = tape.select_class(probs_flat, labels)
    logp = tape.log(tape.clamp_min(picked, CE_PROB_FLOOR))
    return _scalar(tape, tape.mul_const(tape.sum(logp), -1.0 / labels.shape[0]))


def dice_ce_node(tape: Tape, prob_node: Node, target_labels: np.ndarray,
                 n_classes: int, gate_idx: np.ndarray | None = None) -> Node:
    """Dice + CE on the full grid, or on the gated voxel subset."""
    n_vox = int(np.prod(prob_node.value.shape[:3]))
    flat = tape.reshape(prob_node, (n_vox, n_classes))
    labels = np.asarray(target_labels).ravel()
    if gate_idx is not None:
        if gate_idx.size == 0:
            return tape.input(0.0)
        flat = tape.take_rows(flat, gate_idx)
        labels = labels[gate_idx]
    onehot = _one_hot(labels, n_classes)
    return tape.add(dice_node(tape, flat, onehot, n_classes), ce_node(tape, flat, labels))


@dataclass
class LossReport:
    """Per-iteration loss decomposition and the selection stats behind it.

    ``total`` is always computed as (l_s + l_u) + l_bf in that order, so
    the decomposition is bit-reproducible across runs.
    """

    t: int
    l_s: float
    l_u: float
    l_bf: float
    mask_count: int
    r_conf: float
    branch: str
    v: float | None
    lam: float
    lr: float
    total: float = field(init=False)

    def __post_init__(self):
        self.total = (self.l_s + self.l_u) + self.l_bf

    CSV_HEADER = "t,L_s,L_u,L_bf,L_total,R_conf,K,lambda,v,branch,lr"

    def csv_row(self) -> str:
        v_str = "" if self.v is None else repr(self.v)
        return (
            f"{self.t},{self.l_s!r},{self.l_u!r},{self.l_bf!r},{self.total!r},"
            f"{self.r_conf!r},{self.mask_count},{self.lam!r},{v_str},{self.branch},{self.lr!r}"
        )
