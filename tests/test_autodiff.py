"""Finite-difference verification of every op's backward pass."""

import numpy as np
import pytest

from pacedseg.autodiff import Tape

RTOL = 1e-4
STEP = 1e-3


def fd_check(build, shapes, seed=0, n_coords=20, step=STEP, rtol=RTOL):
    """Central finite differences on random coordinates of every input.

    `build(tape, nodes)` must return a scalar node. Inputs are float64;
    the error is |analytic - numeric| / max(1, |numeric|) per coordinate.
    """
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(s) for s in shapes]

    def loss_at(vals):
        tape = Tape(np.float64)
        return float(build(tape, [tape.input(v) for v in vals]).value)

    tape = Tape(np.float64)
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


class TestBasicContracts:
    def test_linear_loss_gives_unit_gradients(self):
        tape = Tape(np.float64)
        p = tape.input(np.random.default_rng(0).standard_normal((3, 4)))
        tape.backward(tape.sum(p))
        np.testing.assert_array_equal(p.grad, np.ones((3, 4)))

    def test_quadratic_loss_gradient_equals_params(self):
        tape = Tape(np.float64)
        value = np.random.default_rng(1).standard_normal((5,))
        p = tape.input(value)
        tape.backward(tape.scale(tape.sum(tape.mul(p, p)), 0.5))
        np.testing.assert_allclose(p.grad, value, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        tape = Tape(np.float64)
        p = tape.input(np.ones((2, 2)))
        with pytest.raises(ValueError):
            tape.backward(p)

    def test_nodes_reference_earlier_nodes(self):
        tape = Tape(np.float64)
        a = tape.input(np.ones(3))
        b = tape.relu(a)
        c = tape.sum(tape.mul(a, b))
        for node in tape.nodes:
            assert all(p.id < node.id for p in node.parents)
        assert c.id == len(tape.nodes) - 1

    def test_backward_populates_reachable_nodes(self):
        tape = Tape(np.float64)
        a = tape.input(np.ones(3))
        unused = tape.exp(a)
        loss = tape.sum(tape.mul(a, a))
        tape.backward(loss)
        assert a.grad is not None and loss.grad is not None
        assert unused.grad is None

    def test_dtype_follows_tape(self):
        tape = Tape(np.float32)
        a = tape.input(np.ones((2, 2)))
        out = tape.relu(tape.scale(a, 2.0))
        assert out.value.dtype == np.float32
        tape.backward(tape.sum(out))
        assert a.grad.dtype == np.float32


class TestElementwiseGrads:
    def test_add_sub_mul(self):
        fd_check(
            lambda t, xs: t.sum(t.mul(t.add(xs[0], xs[1]), t.sub(xs[0], xs[1]))),
            [(3, 4), (3, 4)],
        )

    def test_div(self):
        def build(t, xs):
            denom = t.add_const(t.mul(xs[1], xs[1]), 1.0)
            return t.sum(t.div(xs[0], denom))

        fd_check(build, [(4,), (4,)])

    def test_scale_add_const(self):
        fd_check(lambda t, xs: t.sum(t.add_const(t.scale(xs[0], -2.5), 3.0)), [(3, 3)])

    def test_mul_const(self):
        mask = np.random.default_rng(3).random((3, 3))
        fd_check(lambda t, xs: t.sum(t.mul_const(xs[0], mask)), [(3, 3)])

    def test_log_exp_sqrt(self):
        def build(t, xs):
            pos = t.add_const(t.mul(xs[0], xs[0]), 0.5)
            return t.sum(t.add(t.log(pos), t.add(t.exp(t.scale(xs[0], 0.3)), t.sqrt(pos))))

        fd_check(build, [(6,)])

    def test_clamp_min(self):
        # keep samples away from the clamp kink
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.2, 1.0, size=7) * rng.choice([-1, 1], size=7)

        def loss_at(v):
            t = Tape(np.float64)
            return float(t.sum(t.clamp_min(t.input(v), 0.0)).value)

        t = Tape(np.float64)
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
        rng = np.random.default_rng(5)
        vals = rng.uniform(0.1, 1.0, size=(4, 4)) * rng.choice([-1, 1], size=(4, 4))
        tape = Tape(np.float64)
        x = tape.input(vals)
        tape.backward(tape.sum(tape.relu(x)))
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

    def test_softmax(self):
        def build(t, xs):
            p = t.softmax(xs[0])
            return t.sum(t.mul(p, xs[1]))

        fd_check(build, [(5, 3), (5, 3)])


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
        """The contrast loss's shapes: (P,) row dots, (P, F) @ (F, U) logits."""
        def build(t, xs):
            a = t.rows_dot(xs[0], xs[1])
            b = t.logsumexp(t.matmul(xs[0], t.transpose(xs[2])))
            return t.sum(t.add(a, b))

        fd_check(build, [(3, 4), (3, 4), (5, 4)])

    def test_row_normalize(self):
        def build(t, xs):
            y = t.row_normalize(xs[0])
            return t.sum(t.mul(y, xs[1]))

        fd_check(build, [(4, 6), (4, 6)])

    def test_upsample2(self):
        weight = np.random.default_rng(6).standard_normal((2, 4, 4, 4))
        fd_check(lambda t, xs: t.sum(t.mul_const(t.upsample2(xs[0]), weight)), [(2, 2, 2, 2)])

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
        from pacedseg.autodiff import conv3d_raw

        out, _ = conv3d_raw(x, w, b, stride=1, pad=1)
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

    def test_conv_channel_mismatch(self):
        tape = Tape(np.float64)
        x = tape.input(np.ones((3, 2, 2, 2)))
        w = tape.input(np.ones((2, 3, 3, 3, 1)))
        b = tape.input(np.zeros(1))
        with pytest.raises(ValueError):
            tape.conv3d(x, w, b)
