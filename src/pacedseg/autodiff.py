"""Reverse-mode differentiation over a fixed tensor op set.

A Tape records nodes in creation order, which is a topological order by
construction, so the backward pass is a single reverse sweep; each node's
closure is dropped once the sweep has passed it, so a tape is swept once.
A closure holds the nodes it reads, never the tape or the node it
belongs to, so a tape holds no reference cycle: dropping it frees its
values at once, by reference counting, whether or not backward ran.
Values are numpy arrays (float32 or float64); each op's closure holds
the nodes it reads and what it derived from them. A leaf recorded with
`input(..., grad=False)`, such as the model's input image, takes no
gradient: it never holds a `.grad`, and a conv reading it skips the
input-gradient half of its backward. The op set is exactly
what the segmentation model and its losses require: 3D convolution
(im2col + BLAS matmul), also of a nearest-up x2 input computed on the
low-res grid (`up=2`) and with its relu fused in, softmax, elementwise
arithmetic, inverted dropout on bool keep bits (`dropout`), reductions,
gathers, transpose, and each loss as few nodes as it takes: Dice + CE as
one (`dice_ce`) and each direction of the contrast loss as one
(`pool_logsumexp`). Neither keeps a per-voxel array of its own, and
`pool_logsumexp` rebuilds its logits in backward; the general ops
they replaced are the tests' bitwise references (`OracleTape`).

The hot numpy ops run on long contiguous rows. Every conv splits its
zero-padded input into its stride phases (space-to-depth, the
counterpart of the depth-to-space shuffle of `up=2`; Shi et al., arXiv
1609.05158), so each kernel tap reads one contiguous run of one phase
(the flat-shift form of im2col), and its backward adds each tap's
gradient back as one run; stride 1 is the one-phase case. At stride 1
depth tap l reads the run of in-plane tap (i, j, 0) shifted by +l, so a
conv whose gathered rows outnumber its outputs (the full-resolution
enc1 and enc2) lowers its depth axis into the GEMM instead of the cols:
it gathers only the in-plane taps, multiplies them by every depth tap's
weights stacked in rows, and adds the row blocks back shifted; its
backward stacks shifted copies of the output gradient into one tile
that gives both the weight and the input gradient. That sits between
im2col and kn2row (Vasudevan et al., ASAP 2017), in the spirit of MEC's
compact lowering (Cho & Brand, ICML 2017). This geometry, fold
included, depends on the shapes, stride and padding alone, so it is
built once per geometry and cached (`_geometry`). No im2col matrix is
kept for backward: a conv gathers its cols one tile at a time, and its
backward gathers them again from the input node (recompute in backward,
as in Chen et al., arXiv 1604.06174). A tile spans at most `TILE`
output-frame columns and holds at most `TILE_ELEMS` elements of cols and
product rows: a forward that would pass it takes narrower tiles
(`_tiled`), a backward fewer gathered taps per tile (`_conv3d_backward`),
so neither changes a float.

Work buffers are kept across calls, so their pages are not faulted in
afresh on every call. Only one conv runs at a time, so each role keeps
one flat buffer per dtype, grown to the largest conv's need
(`_kept_buffer`): the phase frame, the gradient frame (the `up=2`
backward writes its output parities straight into it) and the cols
arena, of which every tile buffer is a disjoint view. A call zeroes each
frame it uses before writing it, so a frame's borders, and at `up=2` the
grid points no parity lands on, hold no other geometry's values. The
kept bytes are those of the largest conv per role, not a sum over
geometries: 2.32 MiB in float32 for the default model at 32x32x16 and
10.45 MiB at 64x64x32. A backward's tile of column gradients overwrites
the tile of cols its weight gradient has just read. The buffers are per
process and not thread-safe.

A conv applies its relu, when asked, in place on its own result frame;
it writes no input or leaf array. Every (..., C) class map and (..., F)
feature map is a channels-last view over the class-major result of its
conv (`chw_to_hwc`), so each channel slice is contiguous and numpy
reduces the short trailing axis one whole slice at a time.

Every pass of the segmentation head runs on a tape (`network._head`).
Only the projection head has a raw copy, `network.feature_grid`, whose
`conv3d_raw` call is `Tape.conv3d`'s, so its two routes agree bitwise.
"""

from __future__ import annotations

import functools
import math

import numpy as np


# ---------------------------------------------------------------------------
# raw kernels
# ---------------------------------------------------------------------------

# Output-frame columns gathered per tile, and elements of cols plus product
# rows a tile holds, at most: no conv builds, or keeps for backward, a full
# im2col matrix, and a tile is 1 MiB at most in float32. Of the default
# model's convs only the stride-2 down conv, 8 channels by 27 taps,
# would pass the second.
TILE = 4096
TILE_ELEMS = 2**18
# Anchor rows per add of their pools' mask rows in `Tape.pool_logsumexp`
POOL_ROWS = 512

_kept: dict = {}


def _kept_buffer(role, dtype, size):
    """A flat work buffer of `size` elements, kept across calls, one per
    (role, dtype): "phases" (a conv's input on its stride phases), "gframe"
    (an output-gradient frame) or "cols" (the tile arena of `_arena`).

    It grows to the largest request yet, so each role keeps what its largest
    conv needs rather than a buffer per geometry, and its first element is
    64-byte aligned. It is never cleared: it holds what the last call left,
    so a caller writes, or zeroes, every entry it reads. The buffers are per
    process and not thread-safe: two convs must not run at once.
    """
    dtype = np.dtype(dtype)
    buf = _kept.get((role, dtype))
    if buf is None or buf.size < size:
        raw = np.empty(size + 64 // dtype.itemsize, dtype)
        skip = -raw.ctypes.data % 64 // dtype.itemsize
        buf = _kept[role, dtype] = raw[skip : skip + size]
    return buf[:size]


def _arena(dtype, columns, *rows):
    """Uninitialized (*row, width) views, one per row shape, of the kept
    "cols" buffer; width is `columns` rounded up to a multiple of 16.

    Every conv tile shares it, so one buffer serves every geometry and every
    use: the cols of a forward or of a weight gradient, a folded conv's
    product or stacked output gradient, then the column gradients of a
    backward. The views lie back to back from the buffer's 64-byte aligned
    first element and are disjoint and C-contiguous, so every row of every
    view starts 64-byte aligned, which makes the gathers and GEMMs on them a
    few percent faster. They are valid until the next call.
    """
    width = -(-columns // 16) * 16
    sizes = [math.prod(row) * width for row in rows]
    buf = _kept_buffer("cols", dtype, sum(sizes))
    views, start = [], 0
    for row, size in zip(rows, sizes):
        views.append(buf[start : start + size].reshape(*row, width))
        start += size
    return views


def _weight_mat(w, fold):
    """(Cin,kh,kw,kd,Cout) -> the (fold*Cout, Cin*kh*kw*kd/fold) GEMM weight.

    Its columns match the cols rows (c, gathered tap); row l*Cout + o holds
    output o's weights of depth tap l of a folded conv (`_geometry`). With
    fold 1 it is the plain (Cout, Cin*kh*kw*kd) im2col weight.
    """
    cin, kh, kw, kd, cout = w.shape
    w = w.reshape(cin, kh, kw, kd // fold, fold, cout)
    return np.ascontiguousarray(w.transpose(4, 5, 0, 1, 2, 3)).reshape(fold * cout, -1)


def _axis_phases(size, pad, stride, q):
    """(entries, x indices) of each phase p along one axis: the entries a < q
    whose padded position a*stride + p holds x, and the x indices they hold."""
    out = []
    for p in range(stride):
        lo = max(0, -((p - pad) // stride))
        n = max(0, min(q, -((p - pad - size) // stride)) - lo)
        x0 = lo * stride + p - pad
        out.append((slice(lo, lo + n), slice(x0, x0 + n * stride, stride)))
    return out


@functools.cache
def _geometry(xshape, wshape, stride, pad):
    """Flat-run geometry of a conv on the stride phases of its padded input.

    Along each axis, padded position a*stride + p is entry a of phase p, and
    kernel tap i reads phase i % stride shifted by i // stride. The stride**3
    phases lie back to back, each an (Hq, Wq, Dq) frame of Nq entries with
    Hq = oh + (kh - 1) // stride. Output voxel (a, b, c) sits at offset
    (a*Wq + b)*Dq + c of a phase, so tap (i, j, l) reads one contiguous run
    from phase*Nq + ((i//s)*Wq + j//s)*Dq + l//s. The run length L spans
    every output voxel; its columns past ow or od along a row are discarded.
    Stride 1 is the one-phase case, the zero-padded input itself.

    At stride 1 depth tap l reads the run of tap (i, j, 0) shifted by +l, so
    a conv may fold its kd depth taps into the GEMM instead of the cols: it
    gathers the taps (i, j, 0) alone, kd - 1 columns longer, multiplies them
    by the (kd*Cout, Cin*kh*kw) weight of `_weight_mat`, and adds row block l
    of the product shifted by +l. The fold saves Cin*kh*kw*(kd - 1) gathered
    rows per column and adds kd*Cout product rows, so it is taken at stride 1
    when the saving is the larger (enc1 and enc2, not the 64-output parity
    conv of up=2); fold = 1, gathering every tap, is the plain im2col.

    Returns (out extents, phase frame, offsets of the gathered taps in
    (i, j, l) order, L, copies, fold), all tuples but fold, where each copy
    pairs a block of the (Cin, s**3, Hq, Wq, Dq) phase buffer with the slice
    of x it holds. It is a pure function of its arguments, so it is built
    once per geometry and cached.
    """
    cin, kh, kw, kd, cout = wshape
    fold = kd if stride == 1 and cin * kh * kw * (kd - 1) > kd * cout else 1
    out = tuple((n + 2 * pad - k) // stride + 1 for n, k in zip(xshape[1:], (kh, kw, kd)))
    frame = tuple(o + (k - 1) // stride for o, k in zip(out, (kh, kw, kd)))
    hq, wq, dq = frame
    offsets = tuple(
        (((i % stride) * stride + j % stride) * stride + l % stride) * hq * wq * dq
        + ((i // stride) * wq + j // stride) * dq + l // stride
        for i in range(kh) for j in range(kw) for l in range(0, kd, fold)
    )
    axes = [_axis_phases(n, pad, stride, q) for n, q in zip(xshape[1:], frame)]
    copies = tuple(
        ((slice(None), (ph * stride + pw) * stride + pd, eh, ew, ed), (slice(None), xh, xw, xd))
        for ph, (eh, xh) in enumerate(axes[0])
        for pw, (ew, xw) in enumerate(axes[1])
        for pd, (ed, xd) in enumerate(axes[2])
    )
    oh, ow, od = out
    return out, frame, offsets, (oh - 1) * wq * dq + (ow - 1) * dq + od, copies, fold


def _phases(x, stride, pad, frame, copies):
    """x on its zero-bordered stride phases, as a flat (Cin, s**3 * Nq) view
    of the kept phase frame, which is zeroed whole before x is copied in:
    one contiguous fill is faster than zeroing the thin border slabs alone."""
    cin = x.shape[0]
    xq = _kept_buffer("phases", x.dtype, cin * stride**3 * math.prod(frame))
    xq.fill(0)
    xq = xq.reshape(cin, stride**3, *frame)
    for dst, src in copies:
        xq[dst] = x[src]
    return xq.reshape(cin, -1)


def _spans(n, size):
    """(start, end) of the spans of `size` that cover range(n), the last one
    shorter."""
    return [(s, min(s + size, n)) for s in range(0, n, size)]


def _even(n, fit):
    """The size of the fewest equal spans of at most `fit` that cover n."""
    return -(-n // -(-n // fit))


def _tiled(dtype, n, reach, *rows):
    """(start, end) of each tile of a conv forward's loop over n run columns,
    and the `_arena` views, of the given row shapes, of its widest tile,
    which gathers `reach` columns past its end.

    A tile spans TILE columns, the last one fewer, unless a tile of TILE
    columns and its reach would hold more than TILE_ELEMS elements over all
    its rows; then the loop takes the fewest tiles of one width (the last
    again fewer) within that. Each output column is its own GEMM column, so
    the width changes no float of the forward.
    """
    fit = max(1, TILE_ELEMS // sum(map(math.prod, rows)) - reach)
    width = min(n, TILE if TILE <= fit else _even(n, fit))
    return _spans(n, width), _arena(dtype, width + reach, *rows)


def _run_cols(xf, offsets, cols, s, e):
    """Columns s:e of the flat-run im2col of the flat phase buffer xf, as a
    (Cin*K, e - s) view of the (Cin, K, width) tile buffer cols: row
    (c, tap) holds channel c read from the tap's offset on."""
    for m, o in enumerate(offsets):
        cols[:, m, : e - s] = xf[:, o + s : o + e]
    return cols.reshape(-1, cols.shape[2])[:, : e - s]


def _sum_shifted(prod, out):
    """out = the sum over l of row block l of a folded conv's (fold, Cout,
    width) product, shifted by +l: depth tap l's share of each output."""
    t = out.shape[1]
    np.add(prod[0, :, :t], prod[1, :, 1 : t + 1], out=out)
    for l in range(2, prod.shape[0]):
        out += prod[l, :, l : l + t]


def _shifted_grad(grun, stack, s, e):
    """Columns s:e of the fold copies of the flat output gradient grun, copy
    l shifted by +l, as a (fold*Cout, e - s) view of the (fold, Cout, width)
    buffer stack; entries before grun's start are zero."""
    for l in range(stack.shape[0]):
        lo = min(max(0, l - s), e - s)
        stack[l, :, :lo] = 0
        stack[l, :, lo : e - s] = grun[:, s + lo - l : e - l]
    return stack.reshape(-1, stack.shape[2])[:, : e - s]


def _pointwise(w, stride, pad):
    return w.shape[1:4] == (1, 1, 1) and stride == 1 and pad == 0


def _relu_inplace(frame, relu):
    """relu of a contiguous result frame, in place; a strided view of it would
    run the ufunc about three times slower."""
    if relu:
        np.maximum(frame, 0, out=frame)


def _conv3d(x, w, b, stride, pad, relu):
    cin, cout = w.shape[0], w.shape[4]
    if x.shape[0] != cin:
        raise ValueError(f"conv input has {x.shape[0]} channels, weight expects {cin}")
    if _pointwise(w, stride, pad):
        out = w.reshape(cin, cout).T @ x.reshape(cin, -1)
        out += b[:, None]
        _relu_inplace(out, relu)
        return out.reshape(cout, *x.shape[1:])
    (oh, ow, od), frame, offsets, n, copies, fold = _geometry(x.shape, w.shape, stride, pad)
    xf, wmat = _phases(x, stride, pad, frame, copies), _weight_mat(w, fold)
    res = np.empty((cout, oh * frame[1] * frame[2]), dtype=x.dtype)
    # a folded tile gathers fold - 1 more columns, the reach of its last depth tap
    tiles, (cols, *prod) = _tiled(x.dtype, n, fold - 1, (cin, len(offsets)),
                                  *[(fold, cout)] * (fold > 1))
    for s, e in tiles:
        tile = _run_cols(xf, offsets, cols, s, e + fold - 1)
        if fold == 1:
            np.matmul(wmat, tile, out=res[:, s:e])
        else:
            np.matmul(wmat, tile, out=prod[0].reshape(fold * cout, -1)[:, : tile.shape[1]])
            _sum_shifted(prod[0], res[:, s:e])
    res[:, :n] += b[:, None]
    _relu_inplace(res[:, :n], relu)  # past n the frame is never written
    return res.reshape(cout, oh, *frame[1:])[:, :, :ow, :od]


def _grad_frame(x, w, stride, pad, dtype):
    """(kept (Cout, oh, Wq, Dq) output-gradient frame of a conv, zeroed, and
    its (Cout, oh, ow, od) output view). The caller writes the view; the
    runs read through the zeros between its rows."""
    (oh, ow, od), frame, *_ = _geometry(x.shape, w.shape, stride, pad)
    gframe = _kept_buffer("gframe", dtype, w.shape[4] * oh * frame[1] * frame[2])
    gframe.fill(0)
    gframe = gframe.reshape(w.shape[4], oh, *frame[1:])
    return gframe, gframe[:, :, :ow, :od]


def _conv3d_backward(gframe, x, w, stride, pad, need_gx):
    """(gx, gw) of a non-pointwise conv, from its `_grad_frame` filled with
    the output gradient.

    One tile loop gives both. A folded conv stacks its fold shifted copies
    of the output gradient into one tile G over the gathered taps' longer
    runs: gw is cols @ G.T, and the column gradients W.T @ G are added back
    with one run per gathered tap. The frame's zeros past the output run
    stand in for the gradient beyond it.

    A tile spans TILE columns, fewer only where one tap's rows beside the
    stack would pass TILE_ELEMS elements. Where all its taps would, it takes
    them in the fewest equal groups that fit (the stride-2 down conv: 27
    taps as three of 9). So each row of gw still sums a tile's whole run in
    one GEMM, and each run is added back whole, one numpy call per tap;
    narrower tiles would call it once per tap and tile.
    """
    cin, cout = w.shape[0], w.shape[4]
    _, frame, offsets, n, copies, fold = _geometry(x.shape, w.shape, stride, pad)
    xf = _phases(x, stride, pad, frame, copies)  # the forward's cols are gathered again from x
    k, m = len(offsets), n + fold - 1
    grun = gframe.reshape(cout, -1)
    stacked = [(fold, cout)] * (fold > 1)
    fixed = fold * cout * (fold > 1)
    width = min(m, TILE, max(1, TILE_ELEMS // (cin + fixed)))
    groups = _spans(k, _even(k, max(1, (TILE_ELEMS // width - fixed) // cin)))
    gw = np.zeros((cin, k, fold * cout), dtype=gframe.dtype)
    gxf = np.zeros_like(xf) if need_gx else None
    wmat_t = _weight_mat(w, fold).T.reshape(cin, k, fold * cout)
    # per group: its taps' offsets, cols view, gw rows and W.T rows; the
    # stack lies first in the arena, clear of every group's cols
    *stack, _ = _arena(gframe.dtype, width, *stacked, (cin, groups[0][1]))
    parts = [(offsets[t0:t1], _arena(gframe.dtype, width, *stacked, (cin, t1 - t0))[-1],
              gw[:, t0:t1], wmat_t[:, t0:t1].reshape(-1, fold * cout)) for t0, t1 in groups]
    for s, e in _spans(m, width):
        g = grun[:, s:e] if fold == 1 else _shifted_grad(grun, stack[0], s, e)
        for taps, cols, gw_rows, w_rows in parts:
            tile = _run_cols(xf, taps, cols, s, e)
            gw_rows += (tile @ g.T).reshape(gw_rows.shape)
            if need_gx:
                # the tile's cols are read, so their buffer takes its column gradients
                np.matmul(w_rows, g, out=tile)
                for t, o in enumerate(taps):
                    gxf[:, o + s : o + e] += cols[:, t, : e - s]
    if not need_gx:
        return None, gw.reshape(w.shape)
    # x rows that no window reads keep a zero gradient
    gx, gxq = np.zeros_like(x), gxf.reshape(cin, stride**3, *frame)
    for dst, src in copies:
        gx[src] = gxq[dst]
    return gx, gw.reshape(w.shape)


# _PARITY_TAPS[p, a, k] = 1 where full-res kernel tap k of an output at parity
# p reads tap a of the 2x2x2 low-res kernel: low-res offset a - 1 for p = 0,
# a for p = 1, so parity p of low-res voxel i sits at i + p of a pad-1 conv.
_PARITY_TAPS = np.array([
    [[1, 0, 0], [0, 1, 1]],  # even output: (w0, w1 + w2) on (i - 1, i)
    [[1, 1, 0], [0, 0, 1]],  # odd output:  (w0 + w1, w2) on (i, i + 1)
])
# the same on all three axes: row (i, j, l) of the 27 full-res taps, column
# (a, b, e, ph, pw, pd) of the 8 low-res taps of the 8 parities
_PARITY_MATRIX = np.einsum("pai,qbj,rel->ijlabepqr", *[_PARITY_TAPS] * 3).reshape(27, 64)


def _check_up(w, stride, pad, up):
    if up not in (1, 2):
        raise ValueError(f"conv up-sampling factor must be 1 or 2, got {up}")
    if up == 2 and (w.shape[1:4] != (3, 3, 3) or stride != 1 or pad != 1):
        raise ValueError(
            f"up=2 needs a 3x3x3 kernel with stride 1 and pad 1, got kernel "
            f"{w.shape[1:4]}, stride {stride}, pad {pad}"
        )


def _parity_weight(w):
    """(Cin,3,3,3,Cout) -> the (Cin,2,2,2,Cout*8) low-res weight of each output
    parity; output channel c*8 + 4*ph + 2*pw + pd is channel c at parity (ph,pw,pd)."""
    cin, cout = w.shape[0], w.shape[4]
    m = _PARITY_MATRIX.T.astype(w.dtype) @ w.reshape(cin, 27, cout)  # (Cin, a b e, ph pw pd, Cout)
    return m.reshape(cin, 8, 8, cout).transpose(0, 1, 3, 2).reshape(cin, 2, 2, 2, cout * 8)


def _parity_weight_adjoint(gm, cout):
    """Gradient of `_parity_weight` at its (Cin,2,2,2,Cout*8) output -> (Cin,3,3,3,Cout)."""
    cin = gm.shape[0]
    g = gm.reshape(cin, 8, cout, 8).transpose(0, 1, 3, 2).reshape(cin, 64, cout)
    return (_PARITY_MATRIX.astype(gm.dtype) @ g).reshape(cin, 3, 3, 3, cout)


def _parities(full, low, h, w, d):
    """(full-res view, parity-conv view) of each of the 8 output parities of a
    (C, 2h, 2w, 2d) array and its (C*8, h+1, w+1, d+1) parity conv, in which
    parity p of low-res voxel i sits at i + p."""
    full = full.reshape(-1, h, 2, w, 2, d, 2)
    # basic slices of low: views, so the backward can write through them
    return [(full[:, :, p, :, q, :, r], low[4 * p + 2 * q + r::8, p:p + h, q:q + w, r:r + d])
            for p, q, r in np.ndindex(2, 2, 2)]


def conv3d_raw(x, w, b, stride=1, pad=1, up=1, relu=False):
    """Channels-first 3D convolution. x: (Cin,H,W,D), w: (Cin,kh,kw,kd,Cout).

    Returns the (Cout, oh, ow, od) output, a view of the (Cout, oh, Wq, Dq)
    result frame on x's stride phases, filled one tile of flat-run columns
    at a time (see `_geometry` and `_run_cols`); every stride takes this
    path. Nothing is kept for the backward pass: `conv3d_backward` gathers
    the columns again from x. With relu=True the output is relu(conv),
    applied in place over the contiguous result frame, so no second copy of
    the output is made; x itself is never written.

    With up=2 the input is first up-sampled x2 by nearest neighbour, but the
    conv runs on x's own grid. Along each axis the output at 2i + p sees the
    low-res taps (i-1, i) with weights (w0, w1+w2) for p = 0 and (i, i+1)
    with (w0+w1, w2) for p = 1, zero padding included; so one pad-1 conv of
    x with the 2x2x2 Cout*8-channel weight of the 8 parities holds parity p
    of voxel i at i + p, and its 8 shifted crops, shuffled depth-to-space,
    equal the conv of the up-sampled input (sub-pixel resize-convolution).
    """
    _check_up(w, stride, pad, up)
    if up == 1:
        return _conv3d(x, w, b, stride, pad, relu)
    h, ww, d = x.shape[1:]
    small = _conv3d(x, _parity_weight(w), np.repeat(b, 8), 1, 1, False)
    out = np.empty((w.shape[4], 2 * h, 2 * ww, 2 * d), dtype=small.dtype)
    for o, s in _parities(out, small, h, ww, d):
        o[...] = s
    _relu_inplace(out, relu)
    return out


def conv3d_backward(gout, x, w, stride, pad, up=1, need_gx=True):
    """(gx, gw, gb) of `conv3d_raw(x, w, b, stride, pad, up)` for the output
    gradient gout. With need_gx=False gx is None and its GEMM, scatter-adds
    and frames are skipped; gw and gb are the same floats either way.

    With up=2, gout's 8 parities are written straight into the gradient
    frame of the parity conv, where parity p of low-res voxel i sits at i + p.
    """
    _check_up(w, stride, pad, up)
    cin, cout = w.shape[0], w.shape[4]
    gmat = np.ascontiguousarray(gout.reshape(cout, -1))
    gb = gmat.sum(axis=1)
    if _pointwise(w, stride, pad):
        gw = (x.reshape(cin, -1) @ gmat.T).reshape(w.shape)
        gx = (w.reshape(cin, cout) @ gmat).reshape(x.shape) if need_gx else None
        return gx, gw, gb
    if up == 1:
        gframe, view = _grad_frame(x, w, stride, pad, gout.dtype)
        view[...] = gout
        return (*_conv3d_backward(gframe, x, w, stride, pad, need_gx), gb)
    h, ww, d = x.shape[1:]
    wp = _parity_weight(w)
    # the grid points no parity lands on keep the frame's zero gradient
    gframe, view = _grad_frame(x, wp, 1, 1, gout.dtype)
    for g, s in _parities(gout, view, h, ww, d):
        s[...] = g
    gx, gm = _conv3d_backward(gframe, x, wp, 1, 1, need_gx)
    return gx, _parity_weight_adjoint(gm, cout), gb


def softmax_raw(x):
    e = np.exp(x - x.max(-1)[..., None])
    return e / e.sum(-1)[..., None]


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

class Node:
    __slots__ = ("value", "grad", "_backward", "takes_grad", "__weakref__")

    def __init__(self, value):
        self.value = value
        self.grad = None
        self._backward = None
        self.takes_grad = True


def _accum(node, g):
    if node.takes_grad:
        node.grad = g if node.grad is None else node.grad + g


class Tape:
    """Append-only op recorder; node order is a valid topological order."""

    def __init__(self, dtype=np.float64):
        self.dtype = dtype
        self.nodes: list[Node] = []
        self._swept = False

    def _record(self, value):
        node = Node(np.asarray(value, dtype=self.dtype))
        self.nodes.append(node)
        return node

    def input(self, value, grad=True):
        """A leaf holding a constant or parameter tensor.

        With grad=False the leaf takes no gradient: backward leaves its
        `.grad` None, and an op that would only compute a gradient for it
        skips that work (a conv on it asks `conv3d_backward` for no gx).
        """
        node = self._record(value)
        node.takes_grad = grad
        return node

    def backward(self, loss: Node):
        """Fill `.grad` of every leaf the loss depends on; one sweep per tape.

        A leaf may be read by several tapes; one that already holds a
        `.grad` from another tape's sweep gets this sweep's gradient added.

        Each node's closure, and with it what it derived from its inputs
        (a softmax's probabilities, a gather's indices), is dropped as the
        sweep passes the node, and so is the node's gradient once the
        closure has passed it on: after the sweep only the leaves (`input`
        nodes) and the loss hold a `.grad`, and the sweep's peak memory
        falls as it goes. A conv's closure holds only its nodes: backward
        gathers the cols again from the input. A second sweep would find no
        closures and yield no gradients, so it raises instead.
        """
        if loss.value.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        if self._swept:
            raise ValueError("backward already ran on this tape; record a new tape")
        self._swept = True
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes):
            back, node._backward = node._backward, None
            if back is None:
                continue
            if node.grad is not None:
                back(node.grad)
            if node is not loss:
                node.grad = None

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Node, b: Node):
        if a.value.shape != b.value.shape:
            raise ValueError("add: shape mismatch")
        out = self._record(a.value + b.value)

        def back(g):
            _accum(a, g)
            _accum(b, g)

        out._backward = back
        return out

    def add_const(self, x: Node, c):
        c = np.asarray(c, dtype=self.dtype)
        out = self._record(x.value + c)
        out._backward = lambda g: _accum(x, g)
        return out

    def mul_const(self, x: Node, c):
        c = np.asarray(c, dtype=self.dtype)
        out = self._record(x.value * c)
        out._backward = lambda g: _accum(x, g * c)
        return out

    def dropout(self, x: Node, keep, scale):
        """x * (keep * scale): inverted dropout by bool keep bits and one scale.

        The node keeps the bits, one byte per entry, and forms the float mask
        `keep * scale` afresh in its forward and in its backward, so each
        product is the one `mul_const` against that mask gives.
        """
        scale = np.asarray(scale, dtype=self.dtype)
        mask = keep * scale
        out = self._record(np.multiply(x.value, mask, out=mask))

        def back(g):
            mask = keep * scale
            _accum(x, np.multiply(g, mask, out=mask))

        out._backward = back
        return out

    # -- reductions ---------------------------------------------------------

    def sum(self, x: Node):
        out = self._record(x.value.sum())
        out._backward = lambda g: _accum(x, np.broadcast_to(g, x.value.shape))
        return out

    def pool_logsumexp(self, s12, anchors, negs_t: Node, scale, pool_mask, pool_of):
        """Row log-sum-exp of [s12 | scale * anchors @ negs_t + pool_mask[pool_of]].

        One direction of a matrix-form InfoNCE: s12 (P,) and the (P, F)
        anchors are constants; an anchor in pool j adds row j of pool_mask
        (0 on the pool's columns of the (F, U) negs_t, -inf elsewhere). The
        node keeps no (P, U+1) frame, only each row's max and sum of
        exponentials beside the inputs it reads. Its backward rebuilds the
        (P, U) negative logits with the same numpy calls, so their
        exponentials are the forward's bit for bit, and turns them into the
        logit gradient in place. One frame is alive at a time, in the
        forward as in the backward (recompute in backward, as the convs do).
        """
        c = np.asarray(scale, dtype=self.dtype)

        def negative_logits(sims):
            np.matmul(anchors, negs_t.value, out=sims)
            sims *= c
            # each row is in one pool, so an unmasked add of its mask row is exact
            for lo in range(0, sims.shape[0], POOL_ROWS):
                sims[lo:lo + POOL_ROWS] += pool_mask[pool_of[lo:lo + POOL_ROWS]]
            return sims

        e = np.empty((anchors.shape[0], negs_t.value.shape[1] + 1), dtype=self.dtype)
        e[:, 0] = s12
        negative_logits(e[:, 1:])
        m = e.max(axis=-1, keepdims=True)
        e -= m
        np.exp(e, out=e)
        s = e.sum(axis=-1, keepdims=True)
        out = self._record((m + np.log(s))[..., 0])

        def back(g):
            # s12 is a constant, so only the negatives' logits take gradient
            e = negative_logits(np.empty((len(anchors), negs_t.value.shape[1]), dtype=self.dtype))
            e -= m
            np.exp(e, out=e)
            np.divide(e, s, out=e)
            np.multiply(e, g[:, None], out=e)
            e *= c
            _accum(negs_t, anchors.T @ e)

        out._backward = back
        return out

    def dice_ce(self, probs: Node, labels, gate_idx, eps, floor):
        """Dice + CE of an (..., C) probability node against its class ids, on
        the flat voxels that a nonempty `gate_idx` names, or on all of them;
        the class count C is the last axis of the probabilities.
        The gate names each voxel at most once (`np.flatnonzero` of a mask
        does), so its backward scatters the gated gradient with a plain
        indexed add.

        Dice is the mean over the foreground classes 1..C-1 of
        1 - (2*sum(p*g) + eps) / (sum(p) + sum(g) + eps), and CE the mean of
        -log max(p[label], floor). The node keeps no per-voxel array of its
        own: it holds the probability node and the labels and gate it is
        given, and its backward gathers the gated probabilities again. Each
        sum, product and quotient is the numpy call that the chain of general
        ops (`dice_ce_chain` in the tests' oracles) makes on C-order operands
        of the same shape, so the loss and its gradient are that chain's
        floats, whatever the layout of the probabilities.
        """
        n_classes = probs.value.shape[-1]
        c2, c_eps, c_neg, c_one, c_fg = (np.asarray(v, dtype=self.dtype)
                                         for v in (2.0, eps, -1.0, 1.0, 1.0 / (n_classes - 1)))
        labels = np.asarray(labels).ravel()

        def picks():
            """(flat probabilities, class ids of the gated voxels, their probabilities)."""
            flat = probs.value.reshape(-1, n_classes)
            if gate_idx is None:
                return flat, labels, flat[np.arange(labels.size), labels]
            ids = labels[gate_idx]
            return flat, ids, flat[gate_idx, ids]

        flat, ids, picked = picks()
        # rows in C order, so each class sum adds its voxels in turn
        p = np.ascontiguousarray(flat) if gate_idx is None else flat[gate_idx]
        hit = ids[:, None] == np.arange(n_classes)  # the one-hot labels, as bits
        c_ce = np.asarray(-1.0 / ids.size, dtype=self.dtype)
        num = (p * hit).sum(axis=0)[1:] * c2 + c_eps
        den = p.sum(axis=0)[1:] + np.asarray(hit.sum(axis=0)[1:] + eps, dtype=self.dtype)
        dice = ((num / den) * c_neg + c_one).sum() * c_fg
        out = self._record(dice + np.log(np.maximum(picked, floor)).sum() * c_ce)

        def back(g):
            _, ids, picked = picks()
            g_q = np.broadcast_to(g * c_fg, num.shape) * c_neg
            # the gradients of sum(p) and sum(p*g) per class; class 0's stay 0
            g_sums, g_inter = np.zeros((2, n_classes), dtype=self.dtype)
            g_sums[1:] += -g_q * num / (den * den)
            g_inter[1:] += g_q / den * c2
            g_picked = (g * c_ce) / np.maximum(picked, floor) * (picked > floor)
            # class-major, the layout of the probabilities
            gp = np.zeros((n_classes, ids.size), dtype=self.dtype).T
            gp[np.arange(ids.size), ids] = g_picked
            gp += g_sums
            gp += g_inter * (ids[:, None] == np.arange(n_classes))
            if gate_idx is not None:
                full = np.zeros((n_classes, labels.size), dtype=self.dtype).T
                full[gate_idx] += gp
                gp = full
            _accum(probs, gp.reshape(probs.value.shape))

        out._backward = back
        return out

    # -- linear algebra & structure ------------------------------------------

    def transpose(self, x: Node):
        """Reverse the axes of a node, as ``.T`` (a view; a matmul takes it as is)."""
        out = self._record(x.value.T)
        out._backward = lambda g: _accum(x, g.T)
        return out

    def conv3d(self, x: Node, w: Node, b: Node, stride=1, pad=1, up=1, relu=False):
        """conv3d_raw as one node; with relu=True the node holds relu(conv).

        The fused backward gates g by value > 0 before the conv backward:
        relu(v) > 0 exactly where v > 0, so this is the product an unfused
        relu node would pass back, and the pre-relu output is never kept.
        """
        out = self._record(conv3d_raw(x.value, w.value, b.value, stride, pad, up, relu))
        value = out.value

        def back(g):
            if relu:
                g = g * (value > 0)
            # by keyword, so a wrapper can read w and stride without the positions
            gx, gw, gb = conv3d_backward(g, x.value, w=w.value, stride=stride, pad=pad, up=up,
                                         need_gx=x.takes_grad)
            _accum(x, gx)
            _accum(w, gw)
            _accum(b, gb)

        out._backward = back
        return out

    def chw_to_hwc(self, x: Node):
        """Move the leading channel axis of a (C, h, w, d) node to the end, as
        a view: each channel slice of the result stays contiguous."""
        out = self._record(np.moveaxis(x.value, 0, 3))
        out._backward = lambda g: _accum(x, np.moveaxis(g, 3, 0))
        return out

    def softmax(self, x: Node):
        p = softmax_raw(x.value)
        out = self._record(p)

        def back(g):
            _accum(x, p * (g - (g * p).sum(-1)[..., None]))

        out._backward = back
        return out

    def reshape(self, x: Node, shape):
        out = self._record(x.value.reshape(shape))
        out._backward = lambda g: _accum(x, g.reshape(x.value.shape))
        return out

    def take_rows(self, x: Node, idx):
        """out[i] = x[idx[i]]; duplicate indices accumulate on backward."""
        idx = np.asarray(idx)
        out = self._record(x.value[idx])

        def back(g):
            gx = np.zeros_like(x.value)
            np.add.at(gx, idx, g)
            _accum(x, gx)

        out._backward = back
        return out

    def row_normalize(self, x: Node):
        """Scale each trailing-axis vector to unit L2 norm."""
        n = np.sqrt((x.value * x.value).sum(axis=-1, keepdims=True))
        y = x.value / n
        out = self._record(y)

        def back(g):
            _accum(x, g / n - y * ((g * y).sum(axis=-1, keepdims=True) / n))

        out._backward = back
        return out
