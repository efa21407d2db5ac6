"""Supervised, mask-gated unsupervised, and total training objectives.

Each loss exists once, as a tape-graph builder; reported values are the
values of the same nodes the training gradients flow through. Dice + CE
is one tape node (`Tape.dice_ce`), which keeps no per-voxel array of its
own; the chain of general ops it replaced is its bitwise reference in the
tests' oracles.

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


def dice_ce_node(tape: Tape, prob_node: Node, target_labels: np.ndarray,
                 gate_idx: np.ndarray | None = None) -> Node:
    """Dice + CE on the full grid, or on the gated voxel subset.

    Soft Dice of the (H, W, D, C) probabilities, averaged over the
    foreground classes 1..C-1, plus the mean -log p[target] with
    probabilities floored at 1e-7 before the log; an empty gate gives 0.
    The class count C is read off the probabilities' last axis.
    ``gate_idx`` lists each flat voxel at most once, as `np.flatnonzero`
    of a mask does.
    """
    if gate_idx is not None and gate_idx.size == 0:
        return tape.input(0.0)
    return tape.dice_ce(prob_node, target_labels, gate_idx, DICE_EPS, CE_PROB_FLOOR)


def v_cell(v: float | None) -> str:
    """The CSV cell of the self-paced weight v, empty when SU is off; the run
    log and `schedule-dump` both write it through this."""
    return "" if v is None else repr(v)


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
        return (
            f"{self.t},{self.l_s!r},{self.l_u!r},{self.l_bf!r},{self.total!r},"
            f"{self.r_conf!r},{self.mask_count},{self.lam!r},{v_cell(self.v)},{self.branch},"
            f"{self.lr!r}"
        )
