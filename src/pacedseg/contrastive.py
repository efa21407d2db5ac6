"""Bidirectional feature contrastive learning on mask-gated embeddings.

Positives are half-resolution locations that survive the down-sampled
selection mask and where the two weak views predict the same class.
Negatives for an anchor of class c are the most confident strong-view
locations (also mask-gated) predicting any other class, capped at K per
anchor. The loss is an InfoNCE-style term over cosine similarities,
summed in both anchor directions and averaged over positives.

The differentiable loss uses the matrix form of InfoNCE. Anchors of one
class share one negative pool, so a batch names few distinct negative
rows: they are normalized once and every anchor is scored against all
of them with one (P, F) @ (F, U) matmul per direction. Each anchor's own
list enters its log-sum-exp as log(multiplicity) of each distinct row:
-inf for a row it does not list, log 2 for one it lists twice. The value
is therefore the sum over that anchor's K-entry list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape
from .grids import BoolMask, LabelMap, Volume
from .network import FeatureMap

NEG_PAD = -1


@dataclass(eq=False)
class ContrastBatch:
    """Mined positive pairs plus per-anchor negative index lists.

    ``neg_idx`` rows index into the flattened strong-view feature grid
    ``zsn`` and are padded with -1 past ``neg_counts[i]`` entries.
    `mine_pairs` gives every anchor of one class the same list, so there
    are at most n_classes * K distinct indices. `contrast_loss_node`
    scores anchors against those distinct rows and reads each anchor's
    list as multiplicities, so the loss is exact for any lists, repeats
    included.
    """

    positions: np.ndarray      # (P,) flat indices into the half-res grid
    classes: np.ndarray        # (P,) predicted class of each positive
    z1: np.ndarray             # (P, F) weak-view-1 embeddings
    z2: np.ndarray             # (P, F) weak-view-2 embeddings
    neg_idx: np.ndarray        # (P, K) flat indices, NEG_PAD past the count
    neg_counts: np.ndarray     # (P,)
    zsn: np.ndarray            # (M, F) full flattened strong-view embeddings
    tau: float

    @property
    def n_positives(self) -> int:
        return int(self.positions.size)

    def negatives_for(self, i: int) -> np.ndarray:
        return self.zsn[self.neg_idx[i, : self.neg_counts[i]]]


def mine_pairs(
    zw1: FeatureMap,
    zw2: FeatureMap,
    zsn: FeatureMap,
    preds_w1: LabelMap,
    preds_w2: LabelMap,
    preds_sn: LabelMap,
    mask_ds: BoolMask,
    conf_sn: Volume,
    k_neg: int,
    tau: float = 0.5,
) -> ContrastBatch:
    """Select positives and per-class negative pools on the half-res grid.

    Negatives are ordered by (confidence descending, linear index), so the
    batch is deterministic for identical inputs.
    """
    dims = mask_ds.dims
    for name, obj in (
        ("zw1", zw1), ("zw2", zw2), ("zsn", zsn),
        ("preds_w1", preds_w1), ("preds_w2", preds_w2), ("preds_sn", preds_sn),
        ("conf_sn", conf_sn),
    ):
        if obj.dims != dims:
            raise ValueError(f"{name} dims {obj.dims} != mask dims {dims}")
    if k_neg < 0:
        raise ValueError("k_neg must be nonnegative")
    if tau <= 0:
        raise ValueError("tau must be positive")

    m = mask_ds.data.ravel()
    p1, p2, psn = preds_w1.data.ravel(), preds_w2.data.ravel(), preds_sn.data.ravel()
    conf = conf_sn.data.ravel()
    f = zw1.embed_dim

    pos = np.flatnonzero(m & (p1 == p2))
    classes = p1[pos]
    z1 = zw1.data.reshape(-1, f)[pos]
    z2 = zw2.data.reshape(-1, f)[pos]

    # one ranked negative pool per anchor class, shared by its anchors
    pool_classes, pool_of = np.unique(classes, return_inverse=True)
    pools = np.full((pool_classes.size, k_neg), NEG_PAD, dtype=np.int64)
    pool_sizes = np.zeros(pool_classes.size, dtype=np.int64)
    for j, c in enumerate(pool_classes):
        cand = np.flatnonzero(m & (psn != c))
        pool = cand[np.argsort(-conf[cand], kind="stable")[:k_neg]]
        pools[j, : pool.size] = pool
        pool_sizes[j] = pool.size
    neg_idx, neg_counts = pools[pool_of], pool_sizes[pool_of]

    return ContrastBatch(
        positions=pos, classes=classes, z1=z1, z2=z2,
        neg_idx=neg_idx, neg_counts=neg_counts,
        zsn=zsn.data.reshape(-1, f).copy(), tau=tau,
    )


def _unit(v: np.ndarray, name: str) -> np.ndarray:
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if (n == 0).any():
        raise ValueError(f"{name} contains a zero vector; cosine undefined")
    return v / n


def feature_contrast_loss(anchor, positive, negatives, tau: float) -> float:
    """-log( e^{cos(a,p)/tau} / (e^{cos(a,p)/tau} + sum_j e^{cos(a,n_j)/tau}) ).

    Stabilized by max-subtraction; an empty negative list gives exactly 0.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    a = _unit(np.asarray(anchor, dtype=np.float64), "anchor")
    p = _unit(np.asarray(positive, dtype=np.float64), "positive")
    logits = [float(a @ p) / tau]
    for neg in negatives:
        n = _unit(np.asarray(neg, dtype=np.float64), "negative")
        logits.append(float(a @ n) / tau)
    logits = np.asarray(logits)
    m = logits.max()
    return float(m + math.log(np.exp(logits - m).sum()) - logits[0])


def bidirectional_loss(batch: ContrastBatch) -> float:
    """Mean over positives of both anchor directions; 0 for an empty batch."""
    if batch.n_positives == 0:
        return 0.0
    total = 0.0
    for i in range(batch.n_positives):
        negs = batch.negatives_for(i)
        total += feature_contrast_loss(batch.z1[i], batch.z2[i], negs, batch.tau)
        total += feature_contrast_loss(batch.z2[i], batch.z1[i], negs, batch.tau)
    return total / batch.n_positives


def contrast_loss_node(
    tape: Tape,
    zsn_node: Node,
    batch: ContrastBatch,
    z1_node: Node | None = None,
    z2_node: Node | None = None,
) -> Node:
    """Differentiable bidirectional loss.

    ``zsn_node`` is the (h, w, d, F) or (M, F) strong-view feature node;
    anchors default to constants taken from the batch (the weak views come
    from the EMA teacher during training) but can be supplied as nodes for
    gradient checks.
    """
    p_count = batch.n_positives
    if p_count == 0:
        return tape.input(0.0)
    f = batch.z1.shape[1]
    tau = batch.tau

    # the distinct negative rows, and how often each anchor's list names each
    listed = batch.neg_idx != NEG_PAD
    named = batch.neg_idx[listed]
    present = np.bincount(named) > 0            # np.unique without its sort
    uniq = np.flatnonzero(present)
    cell = np.nonzero(listed)[0] * uniq.size + (np.cumsum(present) - 1)[named]
    mult = np.bincount(cell, minlength=p_count * uniq.size).reshape(p_count, uniq.size)
    with np.errstate(divide="ignore"):
        log_mult = np.log(mult.astype(tape.dtype))                  # -inf where unlisted

    flat = tape.reshape(zsn_node, (-1, f))
    negs_t = tape.transpose(tape.row_normalize(tape.take_rows(flat, uniq)))   # (F, U)

    z1n = tape.row_normalize(z1_node) if z1_node is not None else tape.input(_unit(batch.z1, "z1"))
    z2n = tape.row_normalize(z2_node) if z2_node is not None else tape.input(_unit(batch.z2, "z2"))
    s12 = tape.scale(tape.rows_dot(z1n, z2n), 1.0 / tau)           # (P,)
    s12_col = tape.reshape(s12, (p_count, 1))

    def direction(anchor_n: Node) -> Node:
        sims = tape.add_const(tape.scale(tape.matmul(anchor_n, negs_t), 1.0 / tau), log_mult)
        logits = tape.concat([s12_col, sims], axis=1)
        return tape.sum(tape.sub(tape.logsumexp(logits), s12))

    total = tape.add(direction(z1n), direction(z2n))
    return _scalar_node(tape, tape.scale(total, 1.0 / p_count))


def _scalar_node(tape: Tape, node: Node) -> Node:
    return tape.reshape(node, ())


def validate_batch(batch: ContrastBatch, preds_w1: LabelMap, preds_w2: LabelMap,
                   preds_sn: LabelMap, mask_ds: BoolMask) -> None:
    """Assert the mining contracts; used by tests and debug runs."""
    m = mask_ds.data.ravel()
    p1, p2, psn = preds_w1.data.ravel(), preds_w2.data.ravel(), preds_sn.data.ravel()
    assert m[batch.positions].all(), "positive off the selection mask"
    assert (p1[batch.positions] == p2[batch.positions]).all(), "views disagree at a positive"
    for i in range(batch.n_positives):
        idx = batch.neg_idx[i, : batch.neg_counts[i]]
        assert m[idx].all(), "negative off the selection mask"
        assert (psn[idx] != batch.classes[i]).all(), "negative shares the anchor class"
