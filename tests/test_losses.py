import math

import numpy as np
import pytest

from pacedseg.autodiff import Tape
from pacedseg.losses import CE_PROB_FLOOR, DICE_EPS, LossReport, dice_ce_node, v_cell

from oracles import OracleTape, ce_node, dice_ce_chain, dice_loss, dice_node


def node_value(build, probs, *args):
    """Float value of a loss graph built on a float64 `OracleTape` over `probs`."""
    tape = OracleTape(np.float64)
    return float(build(tape, tape.input(probs), *args).value)


def ce(pred, labels):
    return node_value(ce_node, pred.reshape(-1, pred.shape[3]), labels.ravel())


def dice(pred, labels):
    c = pred.shape[3]
    return node_value(dice_node, pred.reshape(-1, c), np.eye(c)[labels.ravel()], c)


def dice_ce(pred, labels, gate=None):
    gate_idx = None if gate is None else np.flatnonzero(gate.ravel())
    return node_value(dice_ce_node, pred, labels, gate_idx)


def probmap_from_labels(labels, n_classes=2, hot=1.0):
    """Probabilities concentrated on the given labels."""
    eye = np.eye(n_classes)
    return eye[labels] * hot + (1 - hot) / n_classes


def random_pred(rng, dims=(4, 4, 2), n_classes=2):
    raw = rng.random((*dims, n_classes)) + 1e-4
    return raw / raw.sum(axis=3, keepdims=True)


class TestDiceChannel:
    def test_perfect_overlap(self):
        g = np.zeros((4, 4, 4))
        g[:2] = 1.0
        assert dice_loss(g, g) <= 1e-5

    def test_inverted_half_full_grid(self):
        g = np.zeros((4, 4, 4))
        g.reshape(-1)[:32] = 1.0
        p = 1.0 - g
        expected = 1.0 - DICE_EPS / (64.0 + DICE_EPS)
        assert dice_loss(p, g) == pytest.approx(expected, rel=1e-12)

    def test_both_empty_is_zero(self):
        z = np.zeros((2, 2, 2))
        assert dice_loss(z, z) == pytest.approx(0.0, abs=0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            dice_loss(np.zeros((2, 2, 2)), np.zeros((2, 2, 4)))


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        labels = np.ones((2, 2, 2), dtype=np.int64)
        pred = probmap_from_labels(labels)
        assert ce(pred, labels) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_two_class_is_ln2(self):
        labels = np.zeros((2, 2, 2), dtype=np.int64)
        pred = np.full((2, 2, 2, 2), 0.5)
        assert ce(pred, labels) == pytest.approx(math.log(2), rel=1e-12)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(0)
        pred = random_pred(rng)
        labels = rng.integers(0, 2, size=(4, 4, 2))
        total = 0.0
        for h in range(4):
            for w in range(4):
                for d in range(2):
                    p = max(pred[h, w, d, labels[h, w, d]], CE_PROB_FLOOR)
                    total -= math.log(p)
        assert ce(pred, labels) == pytest.approx(total / 32, rel=1e-6)

    def test_empty_gate_is_zero(self):
        labels = np.zeros((2, 2, 2), dtype=np.int64)
        pred = np.full((2, 2, 2, 2), 0.5)
        assert dice_ce(pred, labels, gate=np.zeros((2, 2, 2), dtype=bool)) == 0.0


class TestSupervised:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=(4, 4, 2))
        pred = probmap_from_labels(labels)
        assert dice_ce(pred, labels) <= 1e-4

    def test_bounded_below_by_components(self):
        rng = np.random.default_rng(2)
        pred = random_pred(rng)
        labels = rng.integers(0, 2, size=(4, 4, 2))
        ls = dice_ce(pred, labels)
        assert ls >= dice(pred, labels) - 1e-12
        assert ls >= ce(pred, labels) - 1e-12

    def test_equals_sum_of_components(self):
        rng = np.random.default_rng(3)
        pred = random_pred(rng)
        labels = rng.integers(0, 2, size=(4, 4, 2))
        expected = dice(pred, labels) + ce(pred, labels)
        assert dice_ce(pred, labels) == pytest.approx(expected, rel=1e-12)
        onehot = labels == 1
        assert dice(pred, labels) == pytest.approx(
            dice_loss(pred[..., 1], onehot), rel=1e-12
        )

    def test_dice_is_the_mean_over_foreground_classes(self):
        rng = np.random.default_rng(4)
        pred = random_pred(rng, n_classes=3)
        labels = rng.integers(0, 3, size=(4, 4, 2))
        per_class = [dice_loss(pred[..., c], labels == c) for c in (1, 2)]
        assert dice(pred, labels) == pytest.approx(np.mean(per_class), rel=1e-12)


class TestUnsupervised:
    def test_empty_mask_zero(self):
        rng = np.random.default_rng(4)
        pred = random_pred(rng)
        labels = rng.integers(0, 2, size=(4, 4, 2))
        assert dice_ce(pred, labels, gate=np.zeros((4, 4, 2), dtype=bool)) == 0.0

    def test_full_mask_equals_ungated(self):
        rng = np.random.default_rng(5)
        pred = random_pred(rng)
        labels = rng.integers(0, 2, size=(4, 4, 2))
        full = np.ones((4, 4, 2), dtype=bool)
        assert dice_ce(pred, labels, gate=full) == pytest.approx(
            dice_ce(pred, labels), rel=1e-12
        )

    def test_gating_equals_subset_recomputation(self):
        """The gated loss is literally the loss of the extracted voxel subset."""
        rng = np.random.default_rng(6)
        pred = random_pred(rng)
        labels = rng.integers(0, 2, size=(4, 4, 2))
        bits = rng.random((4, 4, 2)) < 0.5
        got = dice_ce(pred, labels, gate=bits)

        idx = np.flatnonzero(bits.ravel())
        p = pred.reshape(-1, 2)[idx]
        g = labels.ravel()[idx]
        onehot = np.eye(2)[g]
        inter = (p[:, 1] * onehot[:, 1]).sum()
        dice = 1.0 - (2 * inter + DICE_EPS) / (p[:, 1].sum() + onehot[:, 1].sum() + DICE_EPS)
        ce = -np.log(np.maximum(p[np.arange(len(g)), g], CE_PROB_FLOOR)).mean()
        assert got == pytest.approx(dice + ce, rel=1e-6)


def assert_matches_finite_differences(loss_of_probs, logits0, rng, n_coords):
    """The softmax-input gradient of a loss graph against central differences."""
    def loss_at(logits):
        tape = Tape(np.float64)
        return float(loss_of_probs(tape, tape.softmax(tape.input(logits))).value)

    tape = Tape(np.float64)
    node = tape.input(logits0)
    tape.backward(loss_of_probs(tape, tape.softmax(node)))
    flat = logits0.reshape(-1)
    for ci in rng.choice(flat.size, size=n_coords, replace=False):
        bumped = logits0.copy()
        bumped.reshape(-1)[ci] += 1e-3
        hi = loss_at(bumped)
        bumped.reshape(-1)[ci] -= 2e-3
        lo = loss_at(bumped)
        numeric = (hi - lo) / 2e-3
        err = abs(node.grad.reshape(-1)[ci] - numeric) / max(1.0, abs(numeric))
        assert err < 1e-4


class TestLossGradients:
    def test_dice_and_ce_match_finite_differences(self):
        rng = np.random.default_rng(7)
        logits0 = rng.standard_normal((4, 4, 2, 2))
        labels = rng.integers(0, 2, size=(4, 4, 2))
        assert_matches_finite_differences(
            lambda tape, probs: dice_ce_node(tape, probs, labels), logits0, rng, 20
        )

    def test_three_class_dice_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        logits0 = rng.standard_normal((4, 4, 2, 3))
        labels = rng.integers(0, 3, size=(4, 4, 2))
        assert_matches_finite_differences(
            lambda tape, probs: dice_ce_node(tape, probs, labels), logits0, rng, 20
        )

    def test_gated_loss_gradient(self):
        rng = np.random.default_rng(8)
        logits0 = rng.standard_normal((4, 4, 2, 2))
        labels = rng.integers(0, 2, size=(4, 4, 2))
        gate = np.flatnonzero(rng.random(32) < 0.5)
        assert_matches_finite_differences(
            lambda tape, probs: dice_ce_node(tape, probs, labels, gate_idx=gate),
            logits0, rng, 16,
        )


class TestDiceCeNode:
    """`dice_ce_node`, one tape node, against the chain of general ops it
    replaced (`oracles.dice_ce_chain`), bit for bit."""

    @staticmethod
    def _inputs(n_classes, dtype, seed=0):
        """Softmax probabilities with one-hot rows, so some sit below the CE
        floor, and uint8 class ids."""
        rng = np.random.default_rng(seed)
        logits = 3.0 * rng.standard_normal((6, 4, 4, n_classes))
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = (e / e.sum(axis=-1, keepdims=True)).astype(dtype)
        probs[0, 0] = np.eye(n_classes, dtype=dtype)[1]
        labels = rng.integers(0, n_classes, size=(6, 4, 4)).astype(np.uint8)
        labels[0, 0] = 0  # the probability of its class is 0, under the floor
        return probs, labels, rng

    @staticmethod
    def _run(tape, build, probs, labels, *args):
        node = tape.input(probs)
        loss = build(tape, node, labels, *args)
        tape.backward(tape.mul_const(loss, 0.7))
        return loss.value, node.grad

    @pytest.mark.parametrize("layout", ["c_order", "class_major"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("gate", ["ungated", "gated", "empty"])
    def test_loss_and_probability_gradient_bitwise_equal_to_chain(self, gate, n_classes, dtype,
                                                                  layout):
        """Also on probabilities laid out as the network hands them out, a
        view over a class-major array; the chain reads the C-order array.
        The gradient the node passes back is laid out class-major."""
        probs, labels, rng = self._inputs(n_classes, dtype)
        gate_idx = {"ungated": None, "gated": np.flatnonzero(rng.random(labels.size) < 0.4),
                    "empty": np.zeros(0, dtype=np.int64)}[gate]
        if gate == "gated":
            gate_idx = np.union1d(gate_idx, [0])  # the row under the floor
        laid_out = probs
        if layout == "class_major":
            laid_out = np.moveaxis(np.ascontiguousarray(np.moveaxis(probs, -1, 0)), 0, -1)
        got = self._run(Tape(dtype), dice_ce_node, laid_out, labels, gate_idx)
        want = self._run(OracleTape(dtype), dice_ce_chain, probs, labels, n_classes, gate_idx)
        assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
        if gate == "empty":
            assert got[1] is None and want[1] is None and got[0] == 0.0
        else:
            assert got[1].dtype == want[1].dtype == np.dtype(dtype)
            assert got[1].shape == want[1].shape == probs.shape
            assert got[1].tobytes() == want[1].tobytes()
            assert got[1][..., 0].flags.c_contiguous

    @pytest.mark.parametrize("gated", [False, True])
    def test_keeps_no_per_voxel_array_of_its_own(self, gated):
        """The node holds the labels and the gate it is given, and no other
        array with a row per voxel."""
        probs, labels, rng = self._inputs(2, np.float32)
        gate_idx = np.flatnonzero(rng.random(labels.size) < 0.5) if gated else None
        tape = Tape(np.float32)
        node = tape.input(probs)
        loss = dice_ce_node(tape, node, labels, gate_idx)
        assert tape.nodes == [node, loss]
        held = [cell.cell_contents for cell in loss._backward.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray) and a.size >= 2]
        assert arrays and all(a is gate_idx or np.shares_memory(a, labels) for a in arrays)


class TestLossReport:
    def test_total_is_exact_ordered_sum(self):
        rep = LossReport(t=3, l_s=0.1, l_u=0.2, l_bf=0.3, mask_count=5,
                         r_conf=0.4, branch="warm", v=None, lam=0.1, lr=0.01)
        assert rep.total == (0.1 + 0.2) + 0.3

    def test_csv_row_roundtrips_floats(self):
        rep = LossReport(t=1, l_s=1 / 3, l_u=2 / 7, l_bf=0.0, mask_count=1,
                         r_conf=0.123456789, branch="confident", v=0.5, lam=0.101, lr=0.01)
        row = rep.csv_row().split(",")
        assert float(row[1]) == rep.l_s
        assert float(row[4]) == rep.total
        assert row[8] == v_cell(0.5) == "0.5"
        assert row[9] == "confident"

    def test_v_cell_is_empty_when_su_is_off(self):
        rep = LossReport(t=1, l_s=0.0, l_u=0.0, l_bf=0.0, mask_count=1,
                         r_conf=1.0, branch="off", v=None, lam=0.1, lr=0.01)
        assert v_cell(None) == "" and rep.csv_row().split(",")[8] == ""
