"""Bidirectional feature contrastive learning on mask-gated embeddings.

Positives are half-resolution locations that survive the down-sampled
selection mask and where the two weak views predict the same class.
Negatives for an anchor of class c are the most confident strong-view
locations (also mask-gated) predicting any other class, capped at K per
anchor class. The loss is an InfoNCE-style term over cosine similarities,
summed in both anchor directions and averaged over positives.

The differentiable loss uses the matrix form of InfoNCE. Anchors of one
class share one negative pool, so a batch names few distinct negative
rows: they are normalized once and every anchor is scored against all
of them with one (P, F) @ (F, U) matmul per direction. An anchor's
log-sum-exp adds 0 to each row its pool lists and -inf to every other
row, so its value is the sum over that anchor's pool. Each direction is
one `Tape.pool_logsumexp` node, which keeps two numbers per anchor and
rebuilds its (P, U) negative logits in the backward, so the loss holds
no logit frame between its forward and its backward, and at most one at
any time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape


@dataclass(eq=False)
class ContrastBatch:
    """Mined positive pairs plus one ranked negative pool per anchor class.

    Each pool holds at most K distinct flat indices into the (M, F)
    strong-view feature grid that `mine_pairs` checked against the mask
    grid, in (confidence descending, index) order. The anchors of one
    weak-view class share a pool, so there are at most n_classes * K
    distinct negative rows.
    """

    positions: np.ndarray      # (P,) flat indices into the half-res grid
    z1: np.ndarray             # (P, F) weak-view-1 embeddings
    z2: np.ndarray             # (P, F) weak-view-2 embeddings
    pools: list[np.ndarray]    # one (<= K,) index array per anchor class
    pool_of: np.ndarray        # (P,) pool of each anchor
    tau: float

    @property
    def n_positives(self) -> int:
        return int(self.positions.size)

    @property
    def neg_counts(self) -> np.ndarray:
        """(P,) negatives per anchor: the size of its pool."""
        return np.array([pool.size for pool in self.pools], dtype=np.int64)[self.pool_of]


def mine_pairs(
    zw1: np.ndarray,
    zw2: np.ndarray,
    zsn: np.ndarray,
    preds_w1: np.ndarray,
    preds_w2: np.ndarray,
    preds_sn: np.ndarray,
    mask_ds: np.ndarray,
    conf_sn: np.ndarray,
    k_neg: int,
    tau: float = 0.5,
) -> ContrastBatch:
    """Select positives and per-class negative pools on the half-res grid.

    Features are (h, w, d, F) grids; labels, the mask and the strong-view
    confidence are (h, w, d) grids. Negatives are ordered by (confidence
    descending, linear index), so the batch is deterministic for identical
    inputs.
    """
    dims = mask_ds.shape
    for name, arr in (
        ("zw1", zw1), ("zw2", zw2), ("zsn", zsn),
        ("preds_w1", preds_w1), ("preds_w2", preds_w2), ("preds_sn", preds_sn),
        ("conf_sn", conf_sn),
    ):
        if arr.shape[:3] != dims:
            raise ValueError(f"{name} dims {arr.shape[:3]} != mask dims {dims}")
    if k_neg < 0:
        raise ValueError("k_neg must be nonnegative")
    if tau <= 0:
        raise ValueError("tau must be positive")

    m = mask_ds.ravel()
    p1, p2, psn = preds_w1.ravel(), preds_w2.ravel(), preds_sn.ravel()
    conf = conf_sn.ravel()
    f = zw1.shape[3]

    pos = np.flatnonzero(m & (p1 == p2))
    z1 = zw1.reshape(-1, f)[pos]
    z2 = zw2.reshape(-1, f)[pos]

    # one ranked negative pool per anchor class, shared by its anchors
    pool_classes, pool_of = np.unique(p1[pos], return_inverse=True)
    pools = []
    for c in pool_classes:
        cand = np.flatnonzero(m & (psn != c))
        pools.append(cand[np.argsort(-conf[cand], kind="stable")[:k_neg]])

    return ContrastBatch(positions=pos, z1=z1, z2=z2, pools=pools, pool_of=pool_of, tau=tau)


def _unit(v: np.ndarray, name: str) -> np.ndarray:
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if (n == 0).any():
        raise ValueError(f"{name} contains a zero vector; cosine undefined")
    return v / n


def contrast_loss_node(tape: Tape, zsn_node: Node, batch: ContrastBatch) -> Node:
    """Differentiable bidirectional loss.

    ``zsn_node`` is the (h, w, d, F) or (M, F) strong-view feature node.
    The anchors and their positive logits are teacher constants, plain
    arrays that no tape node holds, since the weak views come from the EMA
    teacher; each direction is one `Tape.pool_logsumexp` node.
    """
    p_count = batch.n_positives
    if p_count == 0:
        return tape.input(0.0)
    f = batch.z1.shape[1]
    scale = 1.0 / batch.tau

    # the distinct negative rows; each anchor adds 0 to its pool's rows, -inf elsewhere
    # (asking for the inverse also spares np.unique its lazy numpy.ma import, ~1 MB)
    uniq, col = np.unique(np.concatenate(batch.pools), return_inverse=True)
    sizes = [pool.size for pool in batch.pools]
    pool_mask = np.full((len(sizes), uniq.size), -np.inf, dtype=tape.dtype)
    pool_mask[np.repeat(np.arange(len(sizes)), sizes), col] = 0.0

    flat = tape.reshape(zsn_node, (-1, f))
    negs_t = tape.transpose(tape.row_normalize(tape.take_rows(flat, uniq)))   # (F, U)

    z1n = np.asarray(_unit(batch.z1, "z1"), dtype=tape.dtype)
    z2n = np.asarray(_unit(batch.z2, "z2"), dtype=tape.dtype)
    s12 = (z1n * z2n).sum(axis=-1) * np.asarray(scale, dtype=tape.dtype)  # (P,)

    def direction(anchors: np.ndarray) -> Node:
        lse = tape.pool_logsumexp(s12, anchors, negs_t, scale, pool_mask, batch.pool_of)
        return tape.sum(tape.add_const(lse, -s12))

    total = tape.add(direction(z1n), direction(z2n))
    return tape.mul_const(total, 1.0 / p_count)
