"""Finite-difference verification of every op's backward pass."""

import math

import numpy as np
import pytest
from oracles import (
    OracleTape,
    conv3d_direct,
    conv3d_direct_backward,
    conv3d_windowed,
    conv3d_windowed_backward,
    parity_weight,
    parity_weight_adjoint,
    softmax_reduce,
    upsample2,
)

from pacedseg import autodiff
from pacedseg.autodiff import Tape, conv3d_backward, conv3d_raw, softmax_raw
from pacedseg.grids import argmax_last
from pacedseg.uncertainty import entropy_values

RTOL = 1e-4
STEP = 1e-3
# the roles of the kept work buffers, sorted
ROLES = ("cols", "gframe", "phases")


def fd_check(build, shapes, seed=0, n_coords=20, step=STEP, rtol=RTOL):
    """Central finite differences on random coordinates of every input.

    `build(tape, nodes)` must return a scalar node; the tape is an
    `OracleTape`, so a build may use its general ops. Inputs are float64;
    the error is |analytic - numeric| / max(1, |numeric|) per coordinate.
    """
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(s) for s in shapes]

    def loss_at(vals):
        tape = OracleTape(np.float64)
        return float(build(tape, [tape.input(v) for v in vals]).value)

    tape = OracleTape(np.float64)
    nodes = [tape.input(v) for v in values]
    tape.backward(build(tape, nodes))

    for vi, value in enumerate(values):
        flat = value.reshape(-1)
        coords = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
        grad = np.zeros(1) if nodes[vi].grad is None else nodes[vi].grad.reshape(-1)
        for ci in coords:
            bumped = [v.copy() for v in values]
            bumped[vi].reshape(-1)[ci] += step
            hi = loss_at(bumped)
            bumped[vi].reshape(-1)[ci] -= 2 * step
            lo = loss_at(bumped)
            numeric = (hi - lo) / (2 * step)
            analytic = grad[ci] if nodes[vi].grad is not None else 0.0
            err = abs(analytic - numeric) / max(1.0, abs(numeric))
            assert err < rtol, f"input {vi} coord {ci}: {analytic} vs {numeric}"


def record_run_cols(monkeypatch):
    """A list that gathers the shape of every tile of cols `_run_cols` returns."""
    shapes, run_cols = [], autodiff._run_cols

    def recording(*args):
        cols = run_cols(*args)
        shapes.append(cols.shape)
        return cols

    monkeypatch.setattr(autodiff, "_run_cols", recording)
    return shapes


class TestBasicContracts:
    def test_linear_loss_gives_unit_gradients(self):
        tape = Tape(np.float64)
        p = tape.input(np.random.default_rng(0).standard_normal((3, 4)))
        tape.backward(tape.sum(p))
        np.testing.assert_array_equal(p.grad, np.ones((3, 4)))

    def test_quadratic_loss_gradient_equals_params(self):
        tape = OracleTape(np.float64)
        value = np.random.default_rng(1).standard_normal((5,))
        p = tape.input(value)
        tape.backward(tape.mul_const(tape.sum(tape.mul(p, p)), 0.5))
        np.testing.assert_allclose(p.grad, value, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        tape = Tape(np.float64)
        p = tape.input(np.ones((2, 2)))
        with pytest.raises(ValueError):
            tape.backward(p)

    def test_backward_populates_reachable_nodes(self):
        tape = OracleTape(np.float64)
        a = tape.input(np.ones(3))
        unused = tape.log(a)
        loss = tape.sum(tape.mul(a, a))
        tape.backward(loss)
        assert a.grad is not None and loss.grad is not None
        assert unused.grad is None

    def test_backward_keeps_only_leaf_and_loss_gradients(self):
        tape = OracleTape(np.float64)
        value = np.random.default_rng(2).standard_normal((4, 3))
        p, c = tape.input(value), tape.input(np.full((4, 3), 2.0))
        sq = tape.mul(p, p)
        loss = tape.sum(tape.add(sq, tape.mul(c, tape.clamp_min(p, 0.0))))
        tape.backward(loss)
        interior = [n for n in tape.nodes if n not in (p, c, loss)]
        assert len(interior) == 4 and all(n.grad is None for n in interior)
        np.testing.assert_array_equal(loss.grad, 1.0)
        np.testing.assert_allclose(p.grad, 2 * value + 2.0 * (value > 0), rtol=1e-15)
        np.testing.assert_array_equal(c.grad, np.maximum(value, 0))

    def test_second_backward_raises(self):
        tape = OracleTape(np.float64)
        p = tape.input(np.ones(3))
        loss = tape.sum(tape.mul(p, p))
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad, 2 * np.ones(3))
        with pytest.raises(ValueError, match="already ran"):
            tape.backward(loss)

    def test_leaf_without_grad_gets_none_and_changes_no_other_grad(self):
        rng = np.random.default_rng(3)
        values = [rng.standard_normal(s) for s in ((2, 4, 4, 3), (2, 3, 3, 3, 3), (3,))]
        weight = rng.standard_normal((3, 4, 4, 3))
        grads = {}
        for grad in (True, False):
            tape = OracleTape(np.float64)
            x, w, b = tape.input(values[0], grad=grad), tape.input(values[1]), tape.input(values[2])
            out = tape.conv3d(x, w, b)
            tape.backward(tape.add(tape.sum(tape.mul_const(out, weight)), tape.sum(tape.mul(x, x))))
            assert (x.grad is not None) == grad
            grads[grad] = (w.grad, b.grad)
        for on, off in zip(grads[True], grads[False]):
            assert on.tobytes() == off.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaves_shared_by_two_tapes_take_one_sweeps_gradient(self, dtype):
        """Two losses swept on tapes of their own add into the leaves they
        share, bitwise what one sweep of their sum gives, when each loss
        reaches each leaf once: float addition commutes."""
        rng = np.random.default_rng(5)
        values = [rng.standard_normal(s) for s in ((3, 4, 4, 3), (2, 3, 3, 3, 3), (3,))]
        images = [rng.standard_normal((2, 4, 4, 3)) for _ in range(2)]

        def branch_loss(tape, leaves, image):
            shift, w, b = leaves
            out = tape.conv3d(tape.input(image, grad=False), w, b, relu=True)
            return tape.sum(tape.mul(tape.add(out, shift), out))

        one = OracleTape(dtype)
        leaves = [one.input(v) for v in values]
        one.backward(one.add(*(branch_loss(one, leaves, image) for image in images)))
        shared = [OracleTape(dtype).input(v) for v in values]
        for image in images:
            tape = OracleTape(dtype)
            tape.backward(branch_loss(tape, shared, image))
        for a, b in zip(leaves, shared):
            assert a.grad.dtype == b.grad.dtype and a.grad.tobytes() == b.grad.tobytes()

    def test_dtype_follows_tape(self):
        tape = OracleTape(np.float32)
        a = tape.input(np.ones((2, 2)))
        out = tape.clamp_min(tape.mul_const(a, 2.0), 0.0)
        assert out.value.dtype == np.float32
        tape.backward(tape.sum(out))
        assert a.grad.dtype == np.float32


class TestElementwiseGrads:
    def test_add_sub_mul(self):
        """(a + b) * (a - b), with a - b spelled as a plus the negation of b."""
        def build(t, xs):
            diff = t.add(xs[0], t.mul_const(xs[1], -1.0))
            return t.sum(t.mul(t.add(xs[0], xs[1]), diff))

        fd_check(build, [(3, 4), (3, 4)])

    def test_div(self):
        def build(t, xs):
            denom = t.add_const(t.mul(xs[1], xs[1]), 1.0)
            return t.sum(t.div(xs[0], denom))

        fd_check(build, [(4,), (4,)])

    def test_scale_add_const(self):
        fd_check(lambda t, xs: t.sum(t.add_const(t.mul_const(xs[0], -2.5), 3.0)), [(3, 3)])
        # a constant is cast to the tape dtype first, whether a float or a float64 array
        x = np.random.default_rng(8).standard_normal(1000).astype(np.float32)
        tape = Tape(np.float32)
        node = tape.input(x)
        by_float = tape.add_const(node, 0.1).value
        by_vector = tape.add_const(node, np.full(x.shape, 0.1)).value
        assert by_vector.dtype == np.float32
        assert by_float.tobytes() == by_vector.tobytes() == (x + np.float32(0.1)).tobytes()

    def test_mul_const(self):
        mask = np.random.default_rng(3).random((3, 3))
        fd_check(lambda t, xs: t.sum(t.mul_const(xs[0], mask)), [(3, 3)])

    def test_log(self):
        def build(t, xs):
            return t.sum(t.log(t.add_const(t.mul(xs[0], xs[0]), 0.5)))

        fd_check(build, [(6,)])

    def test_clamp_min(self):
        # keep samples away from the clamp kink
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.2, 1.0, size=7) * rng.choice([-1, 1], size=7)

        def loss_at(v):
            t = OracleTape(np.float64)
            return float(t.sum(t.clamp_min(t.input(v), 0.0)).value)

        t = OracleTape(np.float64)
        x = t.input(vals)
        t.backward(t.sum(t.clamp_min(x, 0.0)))
        for i in range(7):
            b = vals.copy()
            b[i] += STEP
            hi = loss_at(b)
            b[i] -= 2 * STEP
            lo = loss_at(b)
            assert abs(x.grad[i] - (hi - lo) / (2 * STEP)) < RTOL

    def test_relu(self):
        """The relu a conv fuses passes g back where its output is positive."""
        rng = np.random.default_rng(5)
        vals = rng.uniform(0.1, 1.0, size=(1, 4, 4, 4)) * rng.choice([-1, 1], size=(1, 4, 4, 4))
        tape = Tape(np.float64)
        x = tape.input(vals)
        identity = (tape.input(np.ones((1, 1, 1, 1, 1))), tape.input(np.zeros(1)))
        tape.backward(tape.sum(tape.conv3d(x, *identity, pad=0, relu=True)))
        np.testing.assert_array_equal(x.grad, (vals > 0).astype(float))


class TestReductionGrads:
    def test_sum_axis(self):
        fd_check(lambda t, xs: t.sum(t.mul(t.sum_axis(xs[0], 0), t.sum_axis(xs[0], 0))), [(3, 5)])

    def test_logsumexp(self):
        fd_check(lambda t, xs: t.sum(t.logsumexp(xs[0])), [(4, 6)])

    def test_logsumexp_with_neg_inf_padding(self):
        pad = np.zeros((3, 5))
        pad[:, 3:] = -np.inf
        fd_check(lambda t, xs: t.sum(t.logsumexp(t.add_const(xs[0], pad))), [(3, 5)])

    def test_pool_logsumexp_with_neg_inf_pool_entries(self):
        """Rows of two pools, each -inf on the columns it does not list, and
        one column no pool lists; the anchors and s12 are constants."""
        rng = np.random.default_rng(7)
        anchors, s12, weight = (rng.standard_normal(s) for s in ((4, 3), (4,), (4,)))
        inf = -np.inf
        pool_mask = np.array([[0.0, inf, 0.0, 0.0, inf], [inf, 0.0, 0.0, inf, inf]])
        pool_of = np.array([0, 1, 1, 0])

        def build(t, xs):
            negs_t = t.transpose(xs[0])
            lse = t.pool_logsumexp(s12, anchors, negs_t, 2.0, pool_mask, pool_of)
            return t.sum(t.mul_const(lse, weight))

        fd_check(build, [(5, 3)])

    def test_softmax(self):
        def build(t, xs):
            p = t.softmax(xs[0])
            return t.sum(t.mul(p, xs[1]))

        fd_check(build, [(5, 3), (5, 3)])


class TestClassAxis:
    """Reductions over the short trailing class axis, on C-order arrays and on
    the class-major views the network hands out, against numpy's row-by-row
    reductions of C-order arrays."""

    @staticmethod
    def _logits(n_classes, dtype, seed=0):
        rng = np.random.default_rng(seed)
        shape = (6, 5, 4, n_classes)
        x = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)).astype(dtype)
        x[0, 0] = 1.5                       # exact ties on every class
        x[0, 1, :, -1] = x[0, 1, :, 0]      # ties between first and last class
        x[1, 0] = -0.0                      # an all -0.0 row sums to +0.0
        x[1, 1, :, 0] = -0.0
        x[1, 1, :, 1:] = 0.0                # mixed-sign zeros
        return x

    @staticmethod
    def _same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @staticmethod
    def _laid_out(x, layout):
        """x itself, or the same values as a view over a class-major copy."""
        if layout == "c_order":
            return x
        view = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)
        assert view[..., 0].flags.c_contiguous
        return view

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_argmax_equal_to_numpy_ties_to_lowest(self, n_classes, dtype):
        x = self._logits(n_classes, np.float64, seed=2)
        if dtype == np.int64:
            x = np.sign(x).astype(dtype)    # vote counts: ties on most rows
        x = x.astype(dtype)
        x[2, 0, :2] = x[2, 0, :2, -1:]      # every class tied with the last
        got = argmax_last(x)
        assert self._same_bits(got, np.argmax(x, axis=-1).astype(np.uint8))
        assert (got[0, 0] == 0).all() and (got[2, 0, :2] == 0).all()

    def test_argmax_takes_at_most_256_classes(self):
        """An id is one byte, so the last of 256 classes is 255, and a 257th
        class is refused."""
        x = np.zeros((3, 257))
        x[:, 255] = 1.0
        assert self._same_bits(argmax_last(x[:, :256]), np.full(3, 255, dtype=np.uint8))
        with pytest.raises(ValueError, match="over 256"):
            argmax_last(x)

    @pytest.mark.parametrize("layout", ["c_order", "class_major"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_softmax_bitwise_equal_to_reduction_form(self, n_classes, dtype, layout):
        x = self._logits(n_classes, dtype, seed=1)
        x = np.clip(x, -80, 80)             # keep exp finite in float32
        assert self._same_bits(softmax_raw(self._laid_out(x, layout)), softmax_reduce(x))

    @pytest.mark.parametrize("layout", ["c_order", "class_major"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_softmax_backward_bitwise_equal_to_reduction_form(self, n_classes, dtype, layout):
        """The gradient `Tape.softmax` passes back, for a gradient in the
        layout of its logits, is p * (g - sum(g * p)) reduced row by row."""
        x = np.clip(self._logits(n_classes, dtype, seed=3), -80, 80)
        g = self._logits(n_classes, dtype, seed=4)
        tape = Tape(dtype)
        logits = tape.input(self._laid_out(x, layout))
        probs = tape.softmax(logits)
        tape.backward(tape.sum(tape.mul_const(probs, self._laid_out(g, layout))))
        p = softmax_reduce(x)
        assert self._same_bits(logits.grad, p * (g - (g * p).sum(axis=-1, keepdims=True)))

    @pytest.mark.parametrize("layout", ["c_order", "class_major"])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_entropy_bitwise_equal_to_reduction_form(self, n_classes, layout):
        """Exact 0 and 1 probabilities, ties and signed zeros, from the logits."""
        p = softmax_reduce(self._logits(n_classes, np.float64, seed=5))
        assert (p == 0).any() and (p == 1).any()
        terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        expected = np.clip(-terms.sum(axis=-1), 0.0, math.log(n_classes))
        assert self._same_bits(entropy_values(self._laid_out(p, layout)), expected)


class TestStructuralGrads:
    def test_matmul(self):
        fd_check(lambda t, xs: t.sum(t.matmul(xs[0], xs[1])), [(3, 4), (4, 2)])

    def test_reshape_concat(self):
        def build(t, xs):
            a = t.reshape(xs[0], (2, 6))
            b = t.reshape(xs[1], (2, 6))
            return t.sum(t.mul(t.concat([a, b], axis=1), t.concat([b, a], axis=1)))

        fd_check(build, [(3, 4), (4, 3)])

    def test_take_rows_accumulates_duplicates(self):
        idx = np.array([0, 1, 1, 2])

        def build(t, xs):
            return t.sum(t.mul(t.take_rows(xs[0], idx), t.take_rows(xs[0], idx)))

        fd_check(build, [(4, 3)])

    def test_select_class(self):
        labels = np.array([0, 2, 1, 1])
        fd_check(lambda t, xs: t.sum(t.select_class(xs[0], labels)), [(4, 3)])

    def test_rows_dot_and_transpose_matmul(self):
        """The contrast loss's shapes: (P,) row dots as mul then sum_axis, and
        (P, F) @ (F, U) logits."""
        def build(t, xs):
            a = t.sum_axis(t.mul(xs[0], xs[1]), -1)
            b = t.logsumexp(t.matmul(xs[0], t.transpose(xs[2])))
            return t.sum(t.add(a, b))

        fd_check(build, [(3, 4), (3, 4), (5, 4)])

    def test_row_normalize(self):
        def build(t, xs):
            y = t.row_normalize(xs[0])
            return t.sum(t.mul(y, xs[1]))

        fd_check(build, [(4, 6), (4, 6)])

    def test_conv3d_up2(self):
        weight = np.random.default_rng(6).standard_normal((3, 4, 6, 4))

        def build(t, xs):
            return t.sum(t.mul_const(t.conv3d(xs[0], xs[1], xs[2], up=2), weight))

        fd_check(build, [(2, 2, 3, 2), (2, 3, 3, 3, 3), (3,)], n_coords=12)

    def test_chw_to_hwc(self):
        weight = np.random.default_rng(7).standard_normal((3, 4, 2, 5))
        fd_check(
            lambda t, xs: t.sum(t.mul_const(t.chw_to_hwc(xs[0]), weight)), [(5, 3, 4, 2)]
        )


class TestConvGrads:
    def test_conv3d_stride1(self):
        def build(t, xs):
            out = t.conv3d(xs[0], xs[1], xs[2], stride=1, pad=1)
            return t.sum(t.mul(out, out))

        fd_check(build, [(2, 4, 4, 2), (2, 3, 3, 3, 3), (3,)], n_coords=12)

    def test_conv3d_stride2(self):
        def build(t, xs):
            out = t.conv3d(xs[0], xs[1], xs[2], stride=2, pad=1)
            return t.sum(t.mul(out, out))

        fd_check(build, [(2, 4, 4, 4), (2, 3, 3, 3, 2), (2,)], n_coords=12)

    def test_conv3d_against_direct_triple_loop(self):
        """Forward values vs a naive nested-loop convolution oracle."""
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 4, 4, 3))
        w = rng.standard_normal((2, 3, 3, 3, 2))
        b = rng.standard_normal(2)
        out = conv3d_raw(x, w, b, stride=1, pad=1)
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
        for co in range(2):
            for oh in range(4):
                for ow in range(4):
                    for od in range(3):
                        acc = b[co]
                        for ci in range(2):
                            for i in range(3):
                                for j in range(3):
                                    for l in range(3):
                                        acc += xp[ci, oh + i, ow + j, od + l] * w[ci, i, j, l, co]
                        assert abs(out[co, oh, ow, od] - acc) < 1e-10

    def test_conv3d_1x1_nopad(self):
        def build(t, xs):
            return t.sum(t.conv3d(xs[0], xs[1], xs[2], stride=1, pad=0))

        fd_check(build, [(3, 2, 2, 2), (3, 1, 1, 1, 4), (4,)])

    @pytest.mark.parametrize("x_shape,w_shape,stride,up", [
        ((3, 4, 5, 3), (3, 3, 3, 3, 2), 1, 1),
        ((3, 5, 4, 6), (3, 3, 3, 3, 2), 2, 1),
        ((3, 3, 2, 5), (3, 3, 3, 3, 4), 1, 2),
        ((3, 3, 2, 2), (3, 1, 1, 1, 4), 1, 1),
    ], ids=["stride1", "stride2", "up2", "pointwise"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_and_bias_grads_without_gx_are_bitwise_equal(
            self, x_shape, w_shape, stride, up, dtype):
        rng = np.random.default_rng(11)
        x, w = rng.standard_normal(x_shape).astype(dtype), rng.standard_normal(w_shape).astype(dtype)
        pad = 0 if w_shape[1] == 1 else 1
        out = conv3d_raw(x, w, np.zeros(w_shape[4], dtype), stride, pad, up)
        g = rng.standard_normal(out.shape).astype(dtype)
        gx, gw, gb = conv3d_backward(g, x, w, stride, pad, up)
        none, gw_only, gb_only = conv3d_backward(g, x, w, stride, pad, up, need_gx=False)
        assert gx is not None and none is None
        assert gw.tobytes() == gw_only.tobytes() and gb.tobytes() == gb_only.tobytes()

    def test_conv_channel_mismatch(self):
        tape = Tape(np.float64)
        x = tape.input(np.ones((3, 2, 2, 2)))
        w = tape.input(np.ones((2, 3, 3, 3, 1)))
        b = tape.input(np.zeros(1))
        with pytest.raises(ValueError):
            tape.conv3d(x, w, b)


class TestFlatRunConv:
    """conv3d_raw/conv3d_backward against the windowed im2col oracle.

    Every conv, stride 1 or 2, runs on flat-run cols of its padded input's
    stride phases, gathered one tile at a time in forward and again in
    backward. The stride-2 cases cover the phase frame: kernels whose taps
    read one phase or several, pads 0 to 2, input rows that no window
    reads, and two tiles.
    """

    CASES = [
        # (x shape, w shape, stride, pad): odd extents with Cin != Cout,
        # pad 0 and pad 1 on non-1x1 kernels, a non-cubic kernel
        ((3, 5, 3, 7), (3, 3, 3, 3, 2), 1, 1),
        ((2, 5, 4, 3), (2, 3, 3, 3, 4), 1, 0),
        ((3, 5, 6, 4), (3, 2, 3, 1, 2), 1, 0),
        ((2, 4, 5, 3), (2, 3, 1, 2, 3), 1, 1),
        ((2, 5, 4, 6), (2, 3, 3, 3, 3), 2, 1),
        ((2, 20, 18, 16), (2, 3, 3, 3, 3), 1, 1),
        # kernel 2 on odd extents: the input's last row is read by no window
        ((2, 5, 4, 3), (2, 2, 2, 2, 3), 2, 0),
        ((2, 5, 4, 3), (2, 2, 2, 2, 3), 2, 1),
        ((2, 5, 6, 4), (2, 1, 1, 1, 3), 2, 0),
        ((2, 6, 5, 7), (2, 3, 1, 2, 3), 2, 1),
        ((2, 7, 7, 7), (2, 3, 3, 3, 2), 2, 2),
        ((2, 40, 36, 32), (2, 3, 3, 3, 3), 2, 1),
    ]

    @staticmethod
    def _errors(case, dtype, seed):
        x_shape, w_shape, stride, pad = case
        rng = np.random.default_rng(seed)
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        b = rng.standard_normal(w_shape[4])
        x, w, b = (a.astype(dtype) for a in (x, w, b))
        out = conv3d_raw(x, w, b, stride, pad)
        ref = conv3d_windowed(x, w, b, stride, pad)
        g = rng.standard_normal(ref.shape).astype(dtype)
        got = conv3d_backward(g, x, w, stride, pad)
        want = conv3d_windowed_backward(g, x, w, stride, pad)
        errors = []
        for a, r in zip((out, *got), (ref, *want)):
            assert a.shape == r.shape and a.dtype == dtype
            errors.append(np.abs(a - r).max() / np.abs(r).max())
        return errors

    @pytest.mark.parametrize("case", CASES)
    def test_float64_matches_windowed(self, case):
        assert max(self._errors(case, np.float64, seed=0)) < 1e-12

    @pytest.mark.parametrize("case", CASES)
    def test_float32_matches_windowed(self, case):
        assert max(self._errors(case, np.float32, seed=1)) < 1e-5

    @pytest.mark.parametrize("case", CASES)
    def test_ragged_small_tiles_match_windowed(self, case, monkeypatch):
        monkeypatch.setattr(autodiff, "TILE", 7)
        assert max(self._errors(case, np.float64, seed=2)) < 1e-12

    @pytest.mark.parametrize("case", CASES)
    def test_small_element_cap_matches_windowed(self, case, monkeypatch):
        # 1000 elements: each case whose cols hold more splits into equal tiles
        monkeypatch.setattr(autodiff, "TILE_ELEMS", 1000)
        shapes = record_run_cols(monkeypatch)
        assert max(self._errors(case, np.float64, seed=3)) < 1e-12
        assert all(math.prod(shape) <= 1000 for shape in shapes)

    def test_stride2_cols_are_runs_of_the_phase_frame(self, monkeypatch):
        # x padded to (8, 6, 7) gives a (3, 2, 3) output on (4, 3, 4) phase
        # frames: one tile of (3-1)*3*4 + (2-1)*4 + 3 columns, each tap a run
        shapes = record_run_cols(monkeypatch)
        x, w = np.ones((3, 6, 4, 5)), np.ones((3, 3, 3, 3, 2))
        out = conv3d_raw(x, w, np.zeros(2), 2, 1)
        assert out.shape == (2, 3, 2, 3)
        assert shapes == [(3 * 27, 31)]
        conv3d_backward(np.ones_like(out), x, w, 2, 1)
        assert shapes == [(3 * 27, 31)] * 2


class TestFoldedConv:
    """Stride-1 convs that fold their depth taps into the GEMM, against the
    direct per-voxel oracle in float64.

    A folded conv gathers only the taps (i, j, 0), fold - 1 columns longer,
    and adds row block l of its product shifted by +l; its backward stacks
    fold shifted copies of the output gradient into one tile. Small tiles
    put those shifts across tile ends, and tiles shorter than the fold's
    reach start the stacked gradient inside its zero head.
    """

    CASES = {
        # (x shape, w shape, pad): an enc2-like conv on odd extents, pad 0,
        # a two-tap depth, and a kernel flat in one in-plane axis
        "enc2": ((4, 5, 4, 7), (4, 3, 3, 3, 2), 1),
        "pad0": ((3, 5, 6, 5), (3, 3, 3, 3, 2), 0),
        "kd2": ((3, 4, 5, 6), (3, 3, 3, 2, 2), 1),
        "kh1": ((3, 4, 5, 6), (3, 1, 3, 3, 1), 1),
    }

    @staticmethod
    def _inputs(case, seed):
        x_shape, w_shape, pad = case
        rng = np.random.default_rng(seed)
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        return x, w, rng.standard_normal(w_shape[4]), pad, rng

    @staticmethod
    def _close(got, want):
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_the_shape_rule_folds_these_cases(self, case):
        x_shape, w_shape, pad = case
        _, _, offsets, _, _, fold = autodiff._geometry(x_shape, w_shape, 1, pad)
        assert fold == w_shape[3] and len(offsets) == w_shape[1] * w_shape[2]

    def test_the_shape_rule_on_the_model_convs(self):
        # enc1 and enc2 fold; the stride-2 down conv and the 64-output
        # parity conv of the up=2 decoder gather all their taps
        folds = [autodiff._geometry(x, w, stride, 1)[-1] for x, w, stride in [
            ((1, 32, 32, 16), (1, 3, 3, 3, 4), 1),
            ((4, 32, 32, 16), (4, 3, 3, 3, 8), 1),
            ((8, 32, 32, 16), (8, 3, 3, 3, 8), 2),
            ((8, 16, 16, 8), (8, 2, 2, 2, 64), 1),
        ]]
        assert folds == [3, 3, 1, 1]

    @pytest.mark.parametrize("tile", [None, 1, 2, 7])
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_matches_the_direct_oracle(self, case, tile, monkeypatch):
        if tile:
            monkeypatch.setattr(autodiff, "TILE", tile)
        x, w, b, pad, rng = self._inputs(case, seed=5)
        out = conv3d_raw(x, w, b, 1, pad)
        self._close(out, conv3d_direct(x, w, b, 1, pad))
        g = rng.standard_normal(out.shape)
        for got, want in zip(conv3d_backward(g, x, w, 1, pad), conv3d_direct_backward(g, x, w, 1, pad)):
            self._close(got, want)

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_small_element_cap_matches_the_direct_oracle(self, case, monkeypatch):
        # a folded tile holds its cols beside the fold*Cout rows of its
        # product or stacked gradient, and its forward gathers fold - 1
        # columns past its end; the backward takes its taps in groups
        monkeypatch.setattr(autodiff, "TILE_ELEMS", 600)
        shapes = record_run_cols(monkeypatch)
        x, w, b, pad, rng = self._inputs(case, seed=9)
        out = conv3d_raw(x, w, b, 1, pad)
        self._close(out, conv3d_direct(x, w, b, 1, pad))
        g = rng.standard_normal(out.shape)
        for got, want in zip(conv3d_backward(g, x, w, 1, pad), conv3d_direct_backward(g, x, w, 1, pad)):
            self._close(got, want)
        fixed = w.shape[3] * w.shape[4]
        assert len(shapes) > 2 and all((rows + fixed) * cols <= 600 for rows, cols in shapes)

    def test_ragged_tiles_fold_across_tile_ends(self, monkeypatch):
        # TILE = 8 divides neither the 4*6*9 + 3*9 + 7 = 250 output columns
        # nor the 252 columns of the backward's longer runs; each forward
        # tile gathers 8 + 2 columns of the 9 taps (i, j, 0)
        monkeypatch.setattr(autodiff, "TILE", 8)
        shapes = record_run_cols(monkeypatch)
        x, w, b, pad, rng = self._inputs(self.CASES["enc2"], seed=6)
        n = 4 * 6 * 9 + 3 * 9 + 7
        out = conv3d_raw(x, w, b, 1, pad)
        assert shapes == [(4 * 9, 10)] * (n // 8) + [(4 * 9, n % 8 + 2)]
        self._close(out, conv3d_direct(x, w, b, 1, pad))
        shapes.clear()
        g = rng.standard_normal(out.shape)
        got = conv3d_backward(g, x, w, 1, pad)
        assert shapes == [(4 * 9, 8)] * ((n + 2) // 8) + [(4 * 9, (n + 2) % 8)]
        for a, r in zip(got, conv3d_direct_backward(g, x, w, 1, pad)):
            self._close(a, r)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_without_gx_weight_and_bias_grads_are_bitwise_equal(self, dtype):
        x, w, b, pad, rng = self._inputs(self.CASES["enc2"], seed=7)
        x, w = x.astype(dtype), w.astype(dtype)
        g = rng.standard_normal(conv3d_raw(x, w, b.astype(dtype), 1, pad).shape).astype(dtype)
        gx, gw, gb = conv3d_backward(g, x, w, 1, pad)
        none, gw_only, gb_only = conv3d_backward(g, x, w, 1, pad, need_gx=False)
        assert gx is not None and none is None
        assert gw.tobytes() == gw_only.tobytes() and gb.tobytes() == gb_only.tobytes()

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_fused_relu_matches_the_direct_oracle(self, case):
        x, w, b, pad, rng = self._inputs(case, seed=8)
        tape = Tape(np.float64)
        nodes = [tape.input(a) for a in (x, w, b)]
        out = tape.conv3d(*nodes, stride=1, pad=pad, relu=True)
        pre = conv3d_direct(x, w, b, 1, pad)
        assert (pre < 0).any() and (pre > 0).any()
        self._close(out.value, np.maximum(pre, 0))
        weight = rng.standard_normal(pre.shape)
        tape.backward(tape.sum(tape.mul_const(out, weight)))
        want = conv3d_direct_backward(weight * (pre > 0), x, w, 1, pad)
        for node, r in zip(nodes, want):
            self._close(node.grad, r)


class TestKeptBuffers:
    """Convs of different geometries interleaved on the kept work buffers,
    which every geometry shares, so each call must zero what it reads and
    does not write."""

    # (x shape, w shape, stride, up) of the default model's four non-pointwise
    # convs at 32x32x16: enc1, enc2, the stride-2 down conv and the up=2 dec
    MODEL = {
        "enc1": ((1, 32, 32, 16), (1, 3, 3, 3, 4), 1, 1),
        "enc2": ((4, 32, 32, 16), (4, 3, 3, 3, 8), 1, 1),
        "down": ((8, 32, 32, 16), (8, 3, 3, 3, 8), 2, 1),
        "dec": ((8, 16, 16, 8), (8, 3, 3, 3, 8), 1, 2),
    }

    @staticmethod
    def _model_conv(x_shape, w_shape, stride, up, dtype):
        x, w = np.ones(x_shape, dtype), np.ones(w_shape, dtype)
        out = conv3d_raw(x, w, np.zeros(w_shape[4], dtype), stride, 1, up)
        conv3d_backward(np.ones_like(out), x, w, stride, 1, up)

    @staticmethod
    def _check(x_shape, w_shape, pad, seed, stride=1):
        rng = np.random.default_rng(seed)
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        b = rng.standard_normal(w_shape[4])
        out = conv3d_raw(x, w, b, stride, pad)
        g = rng.standard_normal(out.shape)
        got = (out, *conv3d_backward(g, x, w, stride, pad))
        want = (conv3d_windowed(x, w, b, stride, pad),
                *conv3d_windowed_backward(g, x, w, stride, pad))
        for a, r in zip(got, want):
            assert a.shape == r.shape
            assert np.abs(a - r).max() < 1e-12 * np.abs(r).max()

    def test_same_padded_shape_from_another_pad(self):
        # (2, 5, 5, 5) at pad 1 and (2, 3, 3, 3) at pad 2 both pad to (2, 7, 7, 7)
        for seed in range(3):
            self._check((2, 5, 5, 5), (2, 3, 3, 3, 3), 1, seed)
            self._check((2, 3, 3, 3), (2, 3, 3, 3, 3), 2, seed)

    def test_same_gradient_frame_with_another_kernel_width(self):
        # both give a (3, 4, 8, 7) gradient frame, the first with ow = 8, the second 6
        for seed in range(3):
            self._check((2, 4, 6, 5), (2, 3, 1, 3, 3), 1, seed)
            self._check((2, 4, 6, 5), (2, 3, 3, 3, 3), 1, seed)

    def test_stride1_and_stride2_on_one_input_shape(self):
        for seed in range(3):
            self._check((2, 5, 6, 5), (2, 3, 3, 3, 3), 1, seed, stride=1)
            self._check((2, 5, 6, 5), (2, 3, 3, 3, 3), 1, seed, stride=2)

    def test_stride2_kernels_with_different_phase_frames(self):
        # padded to (7, 7, 7): kernel 3 gives (4, 4, 4) phase frames, kernel 2 (3, 3, 3)
        for seed in range(3):
            self._check((2, 5, 5, 5), (2, 3, 3, 3, 3), 1, seed, stride=2)
            self._check((2, 5, 5, 5), (2, 2, 2, 2, 3), 1, seed, stride=2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_arenas_give_the_results_of_a_conv_run_alone(self, dtype, monkeypatch):
        # B's tiles of cols outgrow A's, so the second A runs on views of a
        # grown arena; each conv must still give what it gives on fresh buffers
        rng = np.random.default_rng(4)
        geometries = {
            "A": ((2, 4, 5, 3), (2, 3, 3, 3, 3), 1, 1),
            "B": ((3, 9, 8, 6), (3, 3, 3, 3, 2), 2, 1),
        }
        inputs = {}
        for name, (x_shape, w_shape, stride, pad) in geometries.items():
            x, w = rng.standard_normal(x_shape).astype(dtype), rng.standard_normal(w_shape)
            b = rng.standard_normal(w_shape[4]).astype(dtype)
            out_shape = conv3d_raw(x, w.astype(dtype), b, stride, pad).shape
            inputs[name] = (x, w.astype(dtype), b, rng.standard_normal(out_shape).astype(dtype))

        def run(name):
            x, w, b, g = inputs[name]
            stride, pad = geometries[name][2:]
            return [conv3d_raw(x, w, b, stride, pad), *conv3d_backward(g, x, w, stride, pad)]

        alone = {}
        for name in geometries:
            monkeypatch.setattr(autodiff, "_kept", {})
            alone[name] = run(name)
        monkeypatch.setattr(autodiff, "_kept", {})
        for name in ("A", "B", "A"):
            for got, want in zip(run(name), alone[name]):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # one kept buffer per role serves both geometries: the phase frame,
        # the gradient frame, and the cols arena, from which the column
        # gradients of a backward take their tiles too
        assert sorted(autodiff._kept) == [(role, np.dtype(dtype)) for role in ROLES]

    def test_kept_bytes_are_the_largest_single_convs_need_per_role(self, monkeypatch):
        # each conv alone, then all four in both dtypes on one set of buffers
        dtypes = [np.dtype(np.float32), np.dtype(np.float64)]
        alone = {}
        for dtype in dtypes:
            for name, geometry in self.MODEL.items():
                monkeypatch.setattr(autodiff, "_kept", {})
                self._model_conv(*geometry, dtype)
                alone[name, dtype] = {role: buf.nbytes for (role, _), buf in autodiff._kept.items()}
        monkeypatch.setattr(autodiff, "_kept", {})
        for dtype in dtypes:
            for geometry in self.MODEL.values():
                self._model_conv(*geometry, dtype)
        kept = {key: buf.nbytes for key, buf in autodiff._kept.items()}
        assert len(kept) == 2 * len(ROLES)
        for dtype in dtypes:
            largest = {}
            for role in ROLES:
                needs = {name: alone[name, dtype][role] for name in self.MODEL}
                largest[role] = max(needs, key=needs.get)
                assert kept[role, dtype] == needs[largest[role]]
            # the 64-channel parity conv of dec has the largest gradient
            # frame, the stride-2 down conv the largest phase frame, and
            # enc2's 60 rows of 4096 + 2 columns the largest tile
            assert largest == {"cols": "enc2", "gframe": "dec", "phases": "down"}
            assert kept["cols", dtype] == 60 * 4112 * dtype.itemsize
            summed = sum(sum(alone[name, dtype].values()) for name in self.MODEL)
            assert sum(kept[role, dtype] for role in ROLES) < summed / 2
        assert sum(kept[role, dtypes[0]] for role in ROLES) <= 2.4 * 2**20

    def test_down_tiles_hold_at_most_the_element_cap(self, monkeypatch):
        # 8 channels * 27 taps over (16-1)*17*9 + (16-1)*9 + 8 = 2438 columns
        # would be 526,608 elements in one tile: the forward takes three of
        # 813, 813 and 812 columns, the backward three of 9 taps each
        shapes = record_run_cols(monkeypatch)
        (x_shape, w_shape, stride, _), rng = self.MODEL["down"], np.random.default_rng(10)
        x, w, b = rng.standard_normal(x_shape), rng.standard_normal(w_shape), rng.standard_normal(8)
        out = conv3d_raw(x, w, b, stride, 1)
        g = rng.standard_normal(out.shape)
        got = (out, *conv3d_backward(g, x, w, stride, 1))
        assert shapes == [(216, 813), (216, 813), (216, 812)] + [(72, 2438)] * 3
        assert all(rows * cols <= autodiff.TILE_ELEMS == 2**18 for rows, cols in shapes)
        want = (conv3d_windowed(x, w, b, stride, 1), *conv3d_windowed_backward(g, x, w, stride, 1))
        for a, r in zip(got, want):
            assert np.abs(a - r).max() < 1e-12 * np.abs(r).max()

    @pytest.mark.parametrize("stride,up", [(1, 1), (2, 1), (1, 2)])
    def test_results_survive_a_later_call(self, stride, up):
        rng = np.random.default_rng(9)

        def call():
            x, w = rng.standard_normal((3, 4, 6, 4)), rng.standard_normal((3, 3, 3, 3, 2))
            out = conv3d_raw(x, w, rng.standard_normal(2), stride, 1, up)
            g = rng.standard_normal(out.shape)
            return [out, *conv3d_backward(g, x, w, stride, 1, up)]

        first = call()
        kept = [a.copy() for a in first]
        call()
        for a, k in zip(first, kept):
            np.testing.assert_array_equal(a, k)


class TestConvUp2:
    """conv3d(..., up=2) against the up-sample-then-conv oracle."""

    # odd low-res extent on one axis and Cin != Cout, so both borders of
    # every axis and every parity are covered
    X_SHAPE, W_SHAPE = (3, 3, 2, 5), (3, 3, 3, 3, 4)

    def _pair(self, dtype, seed=0, x_shape=X_SHAPE, w_shape=W_SHAPE):
        rng = np.random.default_rng(seed)
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        b = rng.standard_normal(w_shape[4])
        x, w, b = (a.astype(dtype) for a in (x, w, b))
        fused = conv3d_raw(x, w, b, up=2)
        xu = upsample2(x)
        ref = conv3d_raw(xu, w, b)
        g = rng.standard_normal(ref.shape).astype(dtype)
        grads = conv3d_backward(g, x, w, 1, 1, up=2)
        rgx, rgw, rgb = conv3d_backward(g, xu, w, 1, 1)
        # adjoint of the nearest-up x2: sum each 2x2x2 block
        c, h, ww, d = x.shape
        rgx = rgx.reshape(c, h, 2, ww, 2, d, 2).sum(axis=(2, 4, 6))
        return [(fused, ref), *zip(grads, (rgx, rgw, rgb))]

    @staticmethod
    def _rel(got, want):
        assert got.shape == want.shape and got.dtype == want.dtype
        return np.abs(got - want).max() / np.abs(want).max()

    def test_float64_matches_upsampled_conv(self):
        for got, want in self._pair(np.float64):
            assert self._rel(got, want) < 1e-12

    def test_float32_matches_upsampled_conv(self):
        for got, want in self._pair(np.float32, seed=1):
            assert self._rel(got, want) < 1e-5

    @pytest.mark.parametrize("x_shape", [(3, 1, 2, 5), (3, 3, 1, 5), (3, 3, 2, 1)])
    def test_low_res_extent_1_matches_upsampled_conv(self, x_shape):
        # each parity reads only padding on one side of the one-voxel axis
        for got, want in self._pair(np.float64, seed=2, x_shape=x_shape):
            assert self._rel(got, want) < 1e-12

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-14), (np.float32, 1e-6)])
    def test_parity_weight_matches_the_tensordot_oracle(self, dtype, rtol):
        rng = np.random.default_rng(4)
        w = rng.standard_normal(self.W_SHAPE).astype(dtype)
        g = rng.standard_normal((3, 2, 2, 2, 4 * 8)).astype(dtype)
        for got, want in [(autodiff._parity_weight(w), parity_weight(w.astype(np.float64))),
                          (autodiff._parity_weight_adjoint(g, 4),
                           parity_weight_adjoint(g.astype(np.float64), 4))]:
            assert got.dtype == dtype and got.flags.c_contiguous
            np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())

    def test_parity_weight_adjoint_is_its_transpose(self):
        # <P(w), G> = <w, P*(G)> for the linear map P = _parity_weight
        rng = np.random.default_rng(3)
        w = rng.standard_normal(self.W_SHAPE)
        g = rng.standard_normal((3, 2, 2, 2, 4 * 8))
        lhs = np.vdot(autodiff._parity_weight(w), g)
        rhs = np.vdot(w, autodiff._parity_weight_adjoint(g, 4))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_im2col_is_on_the_low_res_grid(self, monkeypatch):
        # 8 taps of a 2x2x2 kernel over the (4, 3, 6) parity grid, as flat runs
        # of the padded (5, 4, 7) low-res frame: (4-1)*4*7 + (3-1)*7 + 6 columns,
        # fewer than the 6*4*10 = 240 voxels of the high-res grid; a gather of
        # 3*27 rows over the (3, 2, 5) low-res grid would take 3*27*68 entries
        shapes = record_run_cols(monkeypatch)
        x = np.ones(self.X_SHAPE)
        w = np.ones(self.W_SHAPE)
        out = conv3d_raw(x, w, np.zeros(4), up=2)
        assert shapes == [(3 * 8, 104)]
        assert shapes[0][1] < 6 * 4 * 10
        assert math.prod(shapes[0]) < 3 * 27 * 68
        conv3d_backward(np.ones_like(out), x, w, 1, 1, up=2)
        assert shapes == [(3 * 8, 104)] * 2

    def test_kept_parity_gradient_frame_keeps_its_zero_border(self, monkeypatch):
        # the parities are written straight into the zero-bordered gradient
        # frame of the parity conv, (Cout*8, h+1, w+2, d+2): 4*8 * (4, 4, 7) and
        # 2*8 * (4, 7, 7) entries; A and B share one kept frame, so unless each
        # call zeroes what it does not write, A's blocks would be carried into
        # B's border and its unwritten grid points
        monkeypatch.setattr(autodiff, "_kept", {})
        geometries = {"A": (self.X_SHAPE, self.W_SHAPE), "B": ((2, 3, 5, 5), (2, 3, 3, 3, 2))}
        for seed, name in enumerate(("A", "B", "A")):
            x_shape, w_shape = geometries[name]
            for got, want in self._pair(np.float64, seed, x_shape, w_shape):
                assert self._rel(got, want) < 1e-12
        # one frame, sized for the larger of the two
        assert [k for k in autodiff._kept if k[0] == "gframe"] == [("gframe", np.dtype(np.float64))]
        assert autodiff._kept["gframe", np.dtype(np.float64)].size == max(16 * 4 * 7 * 7, 32 * 4 * 4 * 7)

    def test_up1_conv_on_a_parity_frame_shape_between_up2_calls(self, monkeypatch):
        # A's parity gradient frame is (32, 4, 4, 7), its output view
        # (32, 4, 3, 6); B1 and B2 are up=1 convs whose gradient frames have
        # those shapes but other ow and od, and B3's 2x2x2 kernel gives A's
        # frame with A's ow and od, which an up=1 call writes in full
        monkeypatch.setattr(autodiff, "_kept", {})
        b_geometries = [((2, 4, 1, 4), (2, 3, 3, 3, 32)), ((2, 4, 2, 5), (2, 3, 3, 3, 32)),
                        ((2, 3, 2, 5), (2, 2, 2, 2, 32))]
        for seed, b in enumerate(b_geometries):
            for got, want in self._pair(np.float64, 2 * seed):
                assert self._rel(got, want) < 1e-12
            TestKeptBuffers._check(*b, pad=1, seed=seed)
        for got, want in self._pair(np.float64, 5):
            assert self._rel(got, want) < 1e-12

    @pytest.mark.parametrize("w_shape,stride,pad,up", [
        ((3, 1, 1, 1, 4), 1, 0, 2),
        ((3, 3, 3, 1, 4), 1, 1, 2),
        ((3, 3, 3, 3, 4), 2, 1, 2),
        ((3, 3, 3, 3, 4), 1, 0, 2),
        ((3, 3, 3, 3, 4), 1, 1, 3),
        ((3, 3, 3, 3, 4), 1, 1, 0),
    ])
    def test_unsupported_arguments_raise(self, w_shape, stride, pad, up):
        x, w, b = np.ones(self.X_SHAPE), np.ones(w_shape), np.zeros(4)
        with pytest.raises(ValueError):
            conv3d_raw(x, w, b, stride, pad, up)
        g = np.ones((4, 6, 4, 10))
        with pytest.raises(ValueError):
            conv3d_backward(g, x, w, stride, pad, up)
        tape = Tape(np.float64)
        with pytest.raises(ValueError):
            tape.conv3d(tape.input(x), tape.input(w), tape.input(b), stride, pad, up)


class TestFusedRelu:
    """conv3d(..., relu=True) against a conv node followed by a relu node.

    `clamp_min(v, 0.0)` is that relu node: it holds np.maximum(v, 0) and
    passes back g * (v > 0).
    """

    GEOMETRIES = {
        "stride1": ((3, 4, 5, 3), (3, 3, 3, 3, 4), 1, 1),
        "stride2": ((3, 5, 4, 6), (3, 3, 3, 3, 4), 2, 1),
        "up2": ((3, 3, 2, 5), (3, 3, 3, 3, 4), 1, 2),
    }

    @staticmethod
    def _run(case, dtype, fused):
        x_shape, w_shape, stride, up = case
        rng = np.random.default_rng(13)
        x, w, b = rng.standard_normal(x_shape), rng.standard_normal(w_shape), rng.standard_normal(4)
        tape = OracleTape(dtype)
        nodes = [tape.input(a.astype(dtype)) for a in (x, w, b)]
        if fused:
            out = tape.conv3d(*nodes, stride=stride, pad=1, up=up, relu=True)
        else:
            out = tape.clamp_min(tape.conv3d(*nodes, stride=stride, pad=1, up=up), 0.0)
        weight = rng.standard_normal(out.value.shape)
        tape.backward(tape.sum(tape.mul_const(out, weight)))
        return [out.value] + [n.grad for n in nodes]

    @pytest.mark.parametrize("case", GEOMETRIES.values(), ids=GEOMETRIES.keys())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_value_and_gradients_bitwise_equal_to_conv_then_relu(self, case, dtype):
        fused, unfused = self._run(case, dtype, True), self._run(case, dtype, False)
        assert (fused[0] == 0).any() and (fused[0] > 0).any()
        for got, want in zip(fused, unfused):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
