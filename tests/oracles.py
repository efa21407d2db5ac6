"""Reference forms that the package's fast paths are tested against.

These are slow on purpose: each one computes its quantity the direct
way, so a test can compare the optimized form in `src/` against it.

- `dice_loss`: soft Dice of one class channel; checks `dice_node`.
- `dice_node`, `ce_node` and `dice_ce_chain`: Dice, CE and Dice + CE as
  chains of general ops on an `OracleTape`, which keep their gathered
  rows, one-hot labels, products, picks, clamps and logs; the bitwise
  reference of `pacedseg.autodiff.Tape.dice_ce` and
  `pacedseg.losses.dice_ce_node`.
- `feature_contrast_loss`: one-anchor InfoNCE over cosine similarities;
  the building block of `bidirectional_loss`.
- `negatives_for` and `bidirectional_loss`: the per-anchor float loop
  over each anchor's pool rows; check
  `pacedseg.contrastive.contrast_loss_node`.
- `OracleTape`: a `Tape` with the general ops the package no longer
  records (`mul`, `div`, `log`, `clamp_min`, `concat`, `sum_axis`,
  `logsumexp`, `matmul`, `select_class`), each with its own backward; the
  loss references below are built from them.
- `gather_contrast_loss_node`: the gather form of the same loss on an
  `OracleTape`; checks the values and gradients of `contrast_loss_node`.
- `matmul_contrast_loss_node`: the matrix form of the loss as a chain of
  general ops on an `OracleTape`; the bitwise reference of
  `pacedseg.autodiff.Tape.pool_logsumexp` and `contrast_loss_node`.
- `validate_batch`: the mining contracts of
  `pacedseg.contrastive.mine_pairs`.
- `make_dropout_mask`: the float mask of `pacedseg.network.draw_dropout`,
  its keep bits times its scale; with `mul_const` it checks
  `pacedseg.autodiff.Tape.dropout`, on a training graph and on
  `head_forward`'s tape.
- `upsample2`: nearest-neighbour x2 of a (C, h, w, d) tensor; with a
  plain conv it checks `pacedseg.autodiff.conv3d_raw(..., up=2)`.
- `conv3d_windowed` and `conv3d_windowed_backward`: a conv as im2col of
  its strided windows, with the backward's scatter of window gradients;
  check the flat-run path of `pacedseg.autodiff.conv3d_raw` and
  `conv3d_backward` on the stride phases, at every stride.
- `conv3d_direct` and `conv3d_direct_backward`: a conv and its gradients
  by definition, one output voxel and kernel tap at a time; check the
  depth-folded GEMM of `pacedseg.autodiff.conv3d_raw` and
  `conv3d_backward`.
- `parity_weight` and `parity_weight_adjoint`: the low-res weight of each
  output parity of an `up=2` conv, and its adjoint, as three tensordots
  with the per-axis tap table; the float64 reference of the one-matmul
  `pacedseg.autodiff._parity_weight` and `_parity_weight_adjoint`.
- `softmax_reduce`: softmax over the last axis of a C-order array, whose
  numpy reductions run row by row; checks `pacedseg.autodiff.softmax_raw`
  bit for bit on the class-major views the network hands out.
- `fuse_one_hot`: label fusion as the argmax of trust-weighted one-hot
  scores on a per-voxel trust map; checks the per-slice
  `pacedseg.synthdata.fuse_with_weight_map`.

The contrast references take the (M, F) strong-view feature grid as an
argument, since a `ContrastBatch` holds only indices into it.
"""

import math

import numpy as np

from pacedseg.autodiff import Node, Tape, _accum
from pacedseg.losses import CE_PROB_FLOOR, DICE_EPS
from pacedseg.network import draw_dropout


class OracleTape(Tape):
    """A `Tape` with general ops for the reference graphs of the tests."""

    def mul(self, a: Node, b: Node):
        if a.value.shape != b.value.shape:
            raise ValueError("mul: shape mismatch")
        out = self._record(a.value * b.value)

        def back(g):
            _accum(a, g * b.value)
            _accum(b, g * a.value)

        out._backward = back
        return out

    def div(self, a: Node, b: Node):
        out = self._record(a.value / b.value)

        def back(g):
            _accum(a, g / b.value)
            _accum(b, -g * a.value / (b.value * b.value))

        out._backward = back
        return out

    def log(self, x: Node):
        out = self._record(np.log(x.value))
        out._backward = lambda g: _accum(x, g / x.value)
        return out

    def clamp_min(self, x: Node, m: float):
        out = self._record(np.maximum(x.value, m))
        out._backward = lambda g: _accum(x, g * (x.value > m))
        return out

    def sum_axis(self, x: Node, axis: int):
        out = self._record(x.value.sum(axis=axis))
        out._backward = lambda g: _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.value.shape))
        return out

    def select_class(self, p: Node, labels):
        """out[i] = p[i, labels[i]] for a (N, C) node."""
        labels = np.asarray(labels)
        rows = np.arange(p.value.shape[0])
        out = self._record(p.value[rows, labels])

        def back(g):
            gp = np.zeros_like(p.value)
            gp[rows, labels] = g
            _accum(p, gp)

        out._backward = back
        return out

    def logsumexp(self, x: Node):
        """Log-sum-exp over the last axis; tolerates -inf padding entries."""
        m = x.value.max(axis=-1, keepdims=True)
        e = np.exp(x.value - m)
        s = e.sum(axis=-1, keepdims=True)
        out = self._record((m + np.log(s))[..., 0])

        def back(g):
            _accum(x, (e / s) * g[..., None])

        out._backward = back
        return out

    def matmul(self, a: Node, b: Node):
        out = self._record(a.value @ b.value)

        def back(g):
            _accum(a, g @ b.value.T)
            _accum(b, a.value.T @ g)

        out._backward = back
        return out

    def concat(self, parts: list[Node], axis: int):
        out = self._record(np.concatenate([p.value for p in parts], axis=axis))
        sizes = [p.value.shape[axis] for p in parts]

        def back(g):
            start = 0
            for p, size in zip(parts, sizes):
                sel = [slice(None)] * g.ndim
                sel[axis] = slice(start, start + size)
                _accum(p, g[tuple(sel)])
                start += size

        out._backward = back
        return out


def dice_loss(pred_channel, target, eps=DICE_EPS) -> float:
    """Soft Dice for one class channel: 1 - (2*sum(p*g)+eps)/(sum(p)+sum(g)+eps)."""
    p = np.asarray(pred_channel, dtype=np.float64)
    g = np.asarray(target, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    inter = float((p * g).sum())
    return 1.0 - (2.0 * inter + eps) / (float(p.sum()) + float(g.sum()) + eps)


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    return np.eye(n_classes)[labels]


def dice_node(tape, probs_flat, onehot, n_classes):
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
    return tape.mul_const(tape.sum(terms), 1.0 / (n_classes - 1))


def ce_node(tape, probs_flat, labels):
    """Mean -log p[target] with probabilities floored at 1e-7 before the log."""
    picked = tape.select_class(probs_flat, labels)
    logp = tape.log(tape.clamp_min(picked, CE_PROB_FLOOR))
    return tape.mul_const(tape.sum(logp), -1.0 / labels.shape[0])


def dice_ce_chain(tape, prob_node, target_labels, n_classes, gate_idx=None):
    """Dice + CE on the full grid, or on the gated voxel subset, as a chain of
    general ops on an `OracleTape`."""
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


def make_dropout_mask(shape, rate, seed, dtype=np.float32):
    """Inverted dropout as one float mask: zero with probability `rate`, and
    1/(1 - rate) formed in float32 elsewhere, in `dtype`."""
    keep, scale = draw_dropout(shape, rate, seed, dtype)
    return keep * scale


def upsample2(x):
    """Nearest-neighbour x2 on the spatial axes of a (C, h, w, d) tensor."""
    return x.repeat(2, axis=1).repeat(2, axis=2).repeat(2, axis=3)


def _windows(x, kshape, stride, pad):
    """(padded x, output extents, tap slices, (Cin*K, N) im2col) of a conv."""
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    out = tuple((s + 2 * pad - k) // stride + 1 for s, k in zip(x.shape[1:], kshape))
    taps = [
        (slice(None),) + tuple(slice(t, t + o * stride, stride) for t, o in zip(tap, out))
        for tap in np.ndindex(*kshape)
    ]
    cols = np.stack([xp[t].reshape(x.shape[0], -1) for t in taps], axis=1)
    return xp, out, taps, cols.reshape(-1, np.prod(out))


def conv3d_windowed(x, w, b, stride=1, pad=1):
    """Conv of a (Cin, H, W, D) x with a (Cin, kh, kw, kd, Cout) w: one
    im2col row block of strided windows per kernel tap, then a matmul."""
    cin, *kshape, cout = w.shape
    _, out, _, cols = _windows(x, kshape, stride, pad)
    wmat = w.transpose(4, 0, 1, 2, 3).reshape(cout, -1)
    return (wmat @ cols + b[:, None]).reshape(cout, *out)


def conv3d_windowed_backward(gout, x, w, stride=1, pad=1):
    """(gx, gw, gb) of `conv3d_windowed`: window gradients scattered back."""
    cin, *kshape, cout = w.shape
    xp, out, taps, cols = _windows(x, kshape, stride, pad)
    gmat = gout.reshape(cout, -1)
    gw = (gmat @ cols.T).reshape(cout, cin, *kshape).transpose(1, 2, 3, 4, 0)
    wmat = w.transpose(4, 0, 1, 2, 3).reshape(cout, -1)
    gcols = (wmat.T @ gmat).reshape(cin, len(taps), *out)
    gxp = np.zeros_like(xp)
    for m, t in enumerate(taps):
        gxp[t] += gcols[:, m]
    h, ww, d = x.shape[1:]
    return gxp[:, pad : pad + h, pad : pad + ww, pad : pad + d], gw, gmat.sum(axis=1)


def _direct_taps(x, w, stride, pad):
    """(padded x, output extents, ((oh, ow, od), (i, j, l), x voxel) of every
    output voxel and kernel tap) of a conv."""
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    kshape = w.shape[1:4]
    out = tuple((s + 2 * pad - k) // stride + 1 for s, k in zip(x.shape[1:], kshape))
    pairs = [(o, t, tuple(a * stride + b for a, b in zip(o, t)))
             for o in np.ndindex(*out) for t in np.ndindex(*kshape)]
    return xp, out, pairs


def conv3d_direct(x, w, b, stride=1, pad=1):
    """Conv of a (Cin, H, W, D) x with a (Cin, kh, kw, kd, Cout) w, by its
    definition: each output voxel sums x times w over every kernel tap."""
    xp, out, pairs = _direct_taps(x, w, stride, pad)
    res = np.zeros((w.shape[4], *out), dtype=np.result_type(x, w))
    for o, t, v in pairs:
        res[(slice(None), *o)] += xp[(slice(None), *v)] @ w[(slice(None), *t)]
    return res + b.reshape(-1, 1, 1, 1)


def conv3d_direct_backward(gout, x, w, stride=1, pad=1):
    """(gx, gw, gb) of `conv3d_direct`, by the chain rule through each
    output voxel and kernel tap."""
    xp, _, pairs = _direct_taps(x, w, stride, pad)
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for o, t, v in pairs:
        g = gout[(slice(None), *o)]
        gw[(slice(None), *t)] += np.outer(xp[(slice(None), *v)], g)
        gxp[(slice(None), *v)] += w[(slice(None), *t)] @ g
    h, ww, d = x.shape[1:]
    return gxp[:, pad : pad + h, pad : pad + ww, pad : pad + d], gw, gout.sum(axis=(1, 2, 3))


# PARITY_TAPS[p, a, k] = 1 where full-res tap k of an output at parity p of
# one axis reads low-res tap a: (w0, w1 + w2) on (i - 1, i) for p = 0,
# (w0 + w1, w2) on (i, i + 1) for p = 1
PARITY_TAPS = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]])


def parity_weight(w):
    """(Cin,3,3,3,Cout) -> the (Cin,2,2,2,Cout*8) low-res weight of each output
    parity, one axis of taps at a time."""
    t = PARITY_TAPS.astype(w.dtype)
    m = np.tensordot(w, t, axes=([1], [2]))  # (Cin, kw, kd, Cout, ph, a)
    m = np.tensordot(m, t, axes=([1], [2]))  # (Cin, kd, Cout, ph, a, pw, b)
    m = np.tensordot(m, t, axes=([1], [2]))  # (Cin, Cout, ph, a, pw, b, pd, e)
    cin, cout = w.shape[0], w.shape[4]
    return m.transpose(0, 3, 5, 7, 1, 2, 4, 6).reshape(cin, 2, 2, 2, cout * 8)


def parity_weight_adjoint(gm, cout):
    """Gradient of `parity_weight` at its (Cin,2,2,2,Cout*8) output -> (Cin,3,3,3,Cout)."""
    t = PARITY_TAPS.astype(gm.dtype)
    g = gm.reshape(gm.shape[0], 2, 2, 2, cout, 2, 2, 2)     # (Cin, a, b, e, Cout, ph, pw, pd)
    g = np.tensordot(g, t, axes=([1, 5], [1, 0]))        # (Cin, b, e, Cout, pw, pd, kh)
    g = np.tensordot(g, t, axes=([1, 4], [1, 0]))        # (Cin, e, Cout, pd, kh, kw)
    g = np.tensordot(g, t, axes=([1, 3], [1, 0]))        # (Cin, Cout, kh, kw, kd)
    return g.transpose(0, 2, 3, 4, 1)


def softmax_reduce(x):
    """Softmax over the last axis with `max`/`sum` reductions along it."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def fuse_one_hot(reg, seg, weight_map, n_classes):
    """Per-voxel argmax of w*onehot(reg) + (1-w)*onehot(seg); ties to the lower class."""
    eye = np.eye(n_classes)
    w = weight_map[..., None]
    return np.argmax(w * eye[reg] + (1.0 - w) * eye[seg], axis=-1)


def _unit(v, name):
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


def negatives_for(batch, zsn, i):
    """The rows of anchor i's negative pool, taken from the (M, F) grid."""
    return zsn[batch.pools[batch.pool_of[i]]]


def bidirectional_loss(batch, zsn) -> float:
    """Mean over positives of both anchor directions; 0 for an empty batch."""
    if batch.n_positives == 0:
        return 0.0
    total = 0.0
    for i in range(batch.n_positives):
        negs = negatives_for(batch, zsn, i)
        total += feature_contrast_loss(batch.z1[i], batch.z2[i], negs, batch.tau)
        total += feature_contrast_loss(batch.z2[i], batch.z1[i], negs, batch.tau)
    return total / batch.n_positives


def validate_batch(batch, inputs, k_neg) -> None:
    """Assert the mining contracts of `mine_pairs` on the keyword `inputs`
    it was called with."""
    m = inputs["mask_ds"].ravel()
    p1, p2 = inputs["preds_w1"].ravel(), inputs["preds_w2"].ravel()
    psn, conf = inputs["preds_sn"].ravel(), inputs["conf_sn"].ravel()
    assert m[batch.positions].all(), "positive off the selection mask"
    assert (p1[batch.positions] == p2[batch.positions]).all(), "views disagree at a positive"
    classes = p1[batch.positions]
    same_pool = batch.pool_of[:, None] == batch.pool_of[None, :]
    assert (same_pool == (classes[:, None] == classes[None, :])).all(), \
        "anchors share a pool unless they share a class"
    np.testing.assert_array_equal(np.unique(batch.pool_of), np.arange(len(batch.pools)))
    np.testing.assert_array_equal(batch.neg_counts, [batch.pools[j].size for j in batch.pool_of])
    for j, pool in enumerate(batch.pools):
        assert pool.size <= k_neg, "pool longer than k_neg"
        assert np.unique(pool).size == pool.size, "pool names a row twice"
        ranks = list(zip(-conf[pool], pool))
        assert ranks == sorted(ranks), "pool not in (confidence descending, index) order"
        assert m[pool].all(), "negative off the selection mask"
        assert (psn[pool] != classes[batch.pool_of == j][0]).all(), \
            "negative shares the anchor class"


def gather_contrast_loss_node(tape, zsn_node, batch):
    """The gather form of `contrast_loss_node`.

    Every anchor's pool is copied into a K-entry row of a (P*K, F) block,
    normalized and dotted with its anchor one row at a time; entries past
    the pool's size are masked with -inf before the log-sum-exp. K is one
    past the longest pool, so every row holds a masked entry.
    """
    p_count = batch.n_positives
    if p_count == 0:
        return tape.input(0.0)
    k = max(pool.size for pool in batch.pools) + 1
    f = batch.z1.shape[1]
    tau = batch.tau

    neg_idx = np.zeros((p_count, k), dtype=np.int64)
    pad = np.full((p_count, k), -np.inf)
    for i, j in enumerate(batch.pool_of):
        n = batch.pools[j].size
        neg_idx[i, :n], pad[i, :n] = batch.pools[j], 0.0

    flat = tape.reshape(zsn_node, (-1, f))
    negs = tape.row_normalize(tape.take_rows(flat, neg_idx.ravel()))   # (P*K, F)
    owner = np.repeat(np.arange(p_count), k)                            # anchor of each row

    z1n = tape.row_normalize(tape.input(batch.z1))
    z2n = tape.row_normalize(tape.input(batch.z2))
    s12 = tape.mul_const(tape.sum_axis(tape.mul(z1n, z2n), -1), 1.0 / tau)  # (P,)
    s12_col = tape.reshape(s12, (p_count, 1))

    def direction(anchor_n):
        pairs = tape.mul(tape.take_rows(anchor_n, owner), negs)
        dots = tape.sum_axis(pairs, -1)                                 # (P*K,)
        sims = tape.add_const(tape.mul_const(tape.reshape(dots, (p_count, k)), 1.0 / tau), pad)
        logits = tape.concat([s12_col, sims], axis=1)
        return tape.sum(tape.add(tape.logsumexp(logits), tape.mul_const(s12, -1.0)))

    total = tape.add(direction(z1n), direction(z2n))
    return tape.reshape(tape.mul_const(total, 1.0 / p_count), ())


def pool_mask_of(batch, dtype):
    """(distinct negative rows, (n_pools, U) mask: 0 on a pool's columns,
    -inf elsewhere) of a batch, as `contrast_loss_node` builds them."""
    uniq, col = np.unique(np.concatenate(batch.pools), return_inverse=True)
    sizes = [pool.size for pool in batch.pools]
    pool_mask = np.full((len(sizes), uniq.size), -np.inf, dtype=dtype)
    pool_mask[np.repeat(np.arange(len(sizes)), sizes), col] = 0.0
    return uniq, pool_mask


def matmul_lse_direction(tape, s12_col, anchor_n, negs_t, scale, log_mult):
    """(P,) row log-sum-exp of [s12 | scale * anchors @ negs_t + log_mult] as
    a chain of general ops; the reference of `Tape.pool_logsumexp`."""
    sims = tape.add_const(tape.mul_const(tape.matmul(anchor_n, negs_t), scale), log_mult)
    return tape.logsumexp(tape.concat([s12_col, sims], axis=1))


def matmul_contrast_loss_node(tape, zsn_node, batch, anchor_grad=False):
    """The matrix form of `contrast_loss_node` as a chain of general ops.

    The anchors are leaves that take a gradient when `anchor_grad` is set,
    and each direction keeps its matmul, its scaled copy, its masked copy,
    the concat and the exponentials on the tape.
    """
    p_count = batch.n_positives
    if p_count == 0:
        return tape.input(0.0)
    f = batch.z1.shape[1]
    tau = batch.tau
    uniq, pool_mask = pool_mask_of(batch, tape.dtype)
    log_mult = pool_mask[batch.pool_of]  # (P, U)

    flat = tape.reshape(zsn_node, (-1, f))
    negs_t = tape.transpose(tape.row_normalize(tape.take_rows(flat, uniq)))   # (F, U)

    z1n = tape.input(_unit(batch.z1, "z1"), grad=anchor_grad)
    z2n = tape.input(_unit(batch.z2, "z2"), grad=anchor_grad)
    s12 = tape.mul_const(tape.sum_axis(tape.mul(z1n, z2n), -1), 1.0 / tau)  # (P,)
    s12_col = tape.reshape(s12, (p_count, 1))
    minus_s12 = tape.mul_const(s12, -1.0)

    def direction(anchor_n):
        lse = matmul_lse_direction(tape, s12_col, anchor_n, negs_t, 1.0 / tau, log_mult)
        return tape.sum(tape.add(lse, minus_s12))

    total = tape.add(direction(z1n), direction(z2n))
    return tape.reshape(tape.mul_const(total, 1.0 / p_count), ())
