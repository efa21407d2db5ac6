"""Reverse-mode differentiation over a fixed tensor op set.

A Tape records nodes in creation order, which is a topological order by
construction, so the backward pass is a single reverse sweep. Values are
numpy arrays (float32 or float64); each op caches what its backward
closure needs. The op set is exactly what the segmentation model and its
losses require: 3D convolution (via im2col + BLAS matmul), relu, nearest
up-sampling, softmax, elementwise arithmetic, reductions, gathers,
transpose and matmul, and the row-wise dot product used by the
cosine-similarity contrastive loss.

Raw kernels (`conv3d_raw`, `softmax_raw`, ...) are shared with the
tape-free inference path so both routes compute identical floats.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tape", "Node", "conv3d_raw", "softmax_raw", "upsample2_raw", "relu_raw"]


# ---------------------------------------------------------------------------
# raw kernels
# ---------------------------------------------------------------------------

def _out_extent(size, k, stride, pad):
    return (size + 2 * pad - k) // stride + 1


def _im2col(xp, kh, kw, kd, stride, oh, ow, od):
    """Gather windows of a channels-first volume into (Cin*kh*kw*kd, N).

    One dense block copy per kernel offset, so the cost is insensitive to
    the channel count (the fill is contiguous along the output grid).
    """
    cin = xp.shape[0]
    n = oh * ow * od
    cols = np.empty((cin, kh * kw * kd, n), dtype=xp.dtype)
    colsv = cols.reshape(cin, kh * kw * kd, oh, ow, od)
    m = 0
    for i in range(kh):
        for j in range(kw):
            for l in range(kd):
                colsv[:, m] = xp[
                    :,
                    i : i + oh * stride : stride,
                    j : j + ow * stride : stride,
                    l : l + od * stride : stride,
                ]
                m += 1
    return cols.reshape(cin * kh * kw * kd, n)


def _weight_mat(w):
    """(Cin,kh,kw,kd,Cout) -> (Cout, Cin*kh*kw*kd), matching _im2col rows."""
    cin, kh, kw, kd, cout = w.shape
    return np.ascontiguousarray(w.transpose(4, 0, 1, 2, 3)).reshape(cout, -1)


def conv3d_raw(x, w, b, stride=1, pad=1):
    """Channels-first 3D convolution. x: (Cin,H,W,D), w: (Cin,kh,kw,kd,Cout).

    Returns (out, cols); cols is the im2col matrix kept for the backward
    pass, or None on the 1x1x1 fast path (the input itself serves).
    """
    cin, kh, kw, kd, cout = w.shape
    if x.shape[0] != cin:
        raise ValueError(f"conv input has {x.shape[0]} channels, weight expects {cin}")
    h, ww, d = x.shape[1:]
    oh, ow, od = (_out_extent(s, k, stride, pad)
                  for s, k in zip((h, ww, d), (kh, kw, kd)))
    if kh == kw == kd == 1 and stride == 1 and pad == 0:
        cols = None
        out = w.reshape(cin, cout).T @ x.reshape(cin, -1)
    else:
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad))) if pad else x
        cols = _im2col(xp, kh, kw, kd, stride, oh, ow, od)
        out = _weight_mat(w) @ cols
    out += b[:, None]
    return out.reshape(cout, oh, ow, od), cols


def conv3d_backward(gout, cols, x, w, stride, pad):
    cin, kh, kw, kd, cout = w.shape
    oh, ow, od = gout.shape[1:]
    gmat = np.ascontiguousarray(gout.reshape(cout, -1))
    gb = gmat.sum(axis=1)
    if cols is None:  # 1x1x1 fast path
        xmat = x.reshape(cin, -1)
        gw = (xmat @ gmat.T).reshape(w.shape)
        gx = (w.reshape(cin, cout) @ gmat).reshape(x.shape)
        return gx, gw, gb
    gw = np.ascontiguousarray(
        (gmat @ cols.T).reshape(cout, cin, kh, kw, kd).transpose(1, 2, 3, 4, 0)
    )
    gcols = _weight_mat(w).T @ gmat
    g5 = gcols.reshape(cin, kh * kw * kd, oh, ow, od)
    h, ww, d = x.shape[1:]
    gxp = np.zeros((cin, h + 2 * pad, ww + 2 * pad, d + 2 * pad), dtype=gout.dtype)
    m = 0
    for i in range(kh):
        for j in range(kw):
            for l in range(kd):
                gxp[
                    :,
                    i : i + oh * stride : stride,
                    j : j + ow * stride : stride,
                    l : l + od * stride : stride,
                ] += g5[:, m]
                m += 1
    gx = gxp[:, pad : pad + h, pad : pad + ww, pad : pad + d] if pad else gxp
    return gx, gw, gb


def softmax_raw(x):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def relu_raw(x):
    return np.maximum(x, 0)


def upsample2_raw(x):
    """Nearest-neighbor x2 on the spatial axes of a (C, h, w, d) tensor."""
    return x.repeat(2, axis=1).repeat(2, axis=2).repeat(2, axis=3)


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

class Node:
    __slots__ = ("id", "value", "grad", "parents", "_backward")

    def __init__(self, node_id, value, parents=()):
        self.id = node_id
        self.value = value
        self.grad = None
        self.parents = parents
        self._backward = None

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Append-only op recorder; node order is a valid topological order."""

    def __init__(self, dtype=np.float64):
        self.dtype = dtype
        self.nodes: list[Node] = []

    def _record(self, value, parents=()):
        node = Node(len(self.nodes), np.asarray(value, dtype=self.dtype), parents)
        self.nodes.append(node)
        return node

    @staticmethod
    def _accum(node, g):
        node.grad = g if node.grad is None else node.grad + g

    def input(self, value):
        """A leaf holding a constant or parameter tensor."""
        return self._record(value)

    def release(self):
        """Drop node links and cached buffers.

        Backward closures capture their producing nodes, so a used tape is
        a cycle that only the garbage collector would reclaim; releasing
        eagerly keeps the per-step allocation footprint flat.
        """
        for n in self.nodes:
            n._backward = None
            n.parents = ()
            n.value = None
            n.grad = None
        self.nodes.clear()

    def backward(self, loss: Node):
        if loss.value.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        for n in self.nodes:
            n.grad = None
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Node, b: Node):
        if a.value.shape != b.value.shape:
            raise ValueError("add: shape mismatch")
        out = self._record(a.value + b.value, (a, b))

        def back(g):
            self._accum(a, g)
            self._accum(b, g)

        out._backward = back
        return out

    def sub(self, a: Node, b: Node):
        if a.value.shape != b.value.shape:
            raise ValueError("sub: shape mismatch")
        out = self._record(a.value - b.value, (a, b))

        def back(g):
            self._accum(a, g)
            self._accum(b, -g)

        out._backward = back
        return out

    def mul(self, a: Node, b: Node):
        if a.value.shape != b.value.shape:
            raise ValueError("mul: shape mismatch")
        out = self._record(a.value * b.value, (a, b))

        def back(g):
            self._accum(a, g * b.value)
            self._accum(b, g * a.value)

        out._backward = back
        return out

    def div(self, a: Node, b: Node):
        out = self._record(a.value / b.value, (a, b))

        def back(g):
            self._accum(a, g / b.value)
            self._accum(b, -g * a.value / (b.value * b.value))

        out._backward = back
        return out

    def scale(self, x: Node, s: float):
        out = self._record(x.value * s, (x,))
        out._backward = lambda g: self._accum(x, g * s)
        return out

    def add_const(self, x: Node, c):
        out = self._record(x.value + c, (x,))
        out._backward = lambda g: self._accum(x, g)
        return out

    def mul_const(self, x: Node, c):
        c = np.asarray(c, dtype=self.dtype)
        out = self._record(x.value * c, (x,))
        out._backward = lambda g: self._accum(x, g * c)
        return out

    def log(self, x: Node):
        out = self._record(np.log(x.value), (x,))
        out._backward = lambda g: self._accum(x, g / x.value)
        return out

    def exp(self, x: Node):
        out = self._record(np.exp(x.value), (x,))
        out._backward = lambda g: self._accum(x, g * out.value)
        return out

    def sqrt(self, x: Node):
        out = self._record(np.sqrt(x.value), (x,))
        out._backward = lambda g: self._accum(x, g * 0.5 / out.value)
        return out

    def clamp_min(self, x: Node, m: float):
        out = self._record(np.maximum(x.value, m), (x,))
        out._backward = lambda g: self._accum(x, g * (x.value > m))
        return out

    def relu(self, x: Node):
        out = self._record(relu_raw(x.value), (x,))
        out._backward = lambda g: self._accum(x, g * (x.value > 0))
        return out

    # -- reductions ---------------------------------------------------------

    def sum(self, x: Node):
        out = self._record(x.value.sum(), (x,))
        out._backward = lambda g: self._accum(x, np.broadcast_to(g, x.value.shape))
        return out

    def sum_axis(self, x: Node, axis: int, keepdims=True):
        out = self._record(x.value.sum(axis=axis, keepdims=keepdims), (x,))

        def back(g):
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(x, np.broadcast_to(g, x.value.shape))

        out._backward = back
        return out

    def logsumexp(self, x: Node):
        """Log-sum-exp over the last axis; tolerates -inf padding entries."""
        m = x.value.max(axis=-1, keepdims=True)
        e = np.exp(x.value - m)
        s = e.sum(axis=-1, keepdims=True)
        out = self._record((m + np.log(s))[..., 0], (x,))

        def back(g):
            self._accum(x, (e / s) * g[..., None])

        out._backward = back
        return out

    # -- linear algebra & structure ------------------------------------------

    def matmul(self, a: Node, b: Node):
        out = self._record(a.value @ b.value, (a, b))

        def back(g):
            self._accum(a, g @ b.value.T)
            self._accum(b, a.value.T @ g)

        out._backward = back
        return out

    def transpose(self, x: Node):
        """Reverse the axes of a node, as ``.T`` (a view; matmul takes it as is)."""
        out = self._record(x.value.T, (x,))
        out._backward = lambda g: self._accum(x, g.T)
        return out

    def conv3d(self, x: Node, w: Node, b: Node, stride=1, pad=1):
        val, cols = conv3d_raw(x.value, w.value, b.value, stride, pad)
        out = self._record(val, (x, w, b))

        def back(g):
            gx, gw, gb = conv3d_backward(g, cols, x.value, w.value, stride, pad)
            self._accum(x, gx)
            self._accum(w, gw)
            self._accum(b, gb)

        out._backward = back
        return out

    def upsample2(self, x: Node):
        out = self._record(upsample2_raw(x.value), (x,))

        def back(g):
            c, h, w, d = x.value.shape
            self._accum(x, g.reshape(c, h, 2, w, 2, d, 2).sum(axis=(2, 4, 6)))

        out._backward = back
        return out

    def chw_to_hwc(self, x: Node):
        """Move the leading channel axis of a (C, h, w, d) node to the end.

        The result is materialized contiguously so downstream reductions
        over the channel axis run at full speed.
        """
        out = self._record(np.ascontiguousarray(np.moveaxis(x.value, 0, 3)), (x,))
        out._backward = lambda g: self._accum(x, np.moveaxis(g, 3, 0))
        return out

    def softmax(self, x: Node):
        p = softmax_raw(x.value)
        out = self._record(p, (x,))

        def back(g):
            self._accum(x, p * (g - (g * p).sum(axis=-1, keepdims=True)))

        out._backward = back
        return out

    def reshape(self, x: Node, shape):
        out = self._record(x.value.reshape(shape), (x,))
        out._backward = lambda g: self._accum(x, g.reshape(x.value.shape))
        return out

    def concat(self, parts: list[Node], axis: int):
        out = self._record(np.concatenate([p.value for p in parts], axis=axis), tuple(parts))
        sizes = [p.value.shape[axis] for p in parts]

        def back(g):
            start = 0
            for p, size in zip(parts, sizes):
                sel = [slice(None)] * g.ndim
                sel[axis] = slice(start, start + size)
                self._accum(p, g[tuple(sel)])
                start += size

        out._backward = back
        return out

    def take_rows(self, x: Node, idx):
        """out[i] = x[idx[i]]; duplicate indices accumulate on backward."""
        idx = np.asarray(idx)
        out = self._record(x.value[idx], (x,))

        def back(g):
            gx = np.zeros_like(x.value)
            np.add.at(gx, idx, g)
            self._accum(x, gx)

        out._backward = back
        return out

    def select_class(self, p: Node, labels):
        """out[i] = p[i, labels[i]] for a (N, C) node."""
        labels = np.asarray(labels)
        rows = np.arange(p.value.shape[0])
        out = self._record(p.value[rows, labels], (p,))

        def back(g):
            gp = np.zeros_like(p.value)
            gp[rows, labels] = g
            self._accum(p, gp)

        out._backward = back
        return out

    def rows_dot(self, a: Node, b: Node):
        """Row-wise dot product of two (P, F) nodes -> (P,)."""
        out = self._record((a.value * b.value).sum(axis=-1), (a, b))

        def back(g):
            self._accum(a, g[..., None] * b.value)
            self._accum(b, g[..., None] * a.value)

        out._backward = back
        return out

    def row_normalize(self, x: Node):
        """Scale each trailing-axis vector to unit L2 norm."""
        n = np.sqrt((x.value * x.value).sum(axis=-1, keepdims=True))
        y = x.value / n
        out = self._record(y, (x,))

        def back(g):
            self._accum(x, g / n - y * ((g * y).sum(axis=-1, keepdims=True) / n))

        out._backward = back
        return out
