import math

import numpy as np
import pytest

from pacedseg.autodiff import Tape
from pacedseg.contrastive import (
    ContrastBatch,
    bidirectional_loss,
    contrast_loss_node,
    feature_contrast_loss,
    mine_pairs,
    validate_batch,
)
from pacedseg.grids import BoolMask, LabelMap, Volume
from pacedseg.network import FeatureMap

from oracles import gather_contrast_loss_node


def random_batch(rng, n_pos=3, k_neg=2, f=4, tau=0.5):
    n_grid = max(n_pos * 2, 8)
    zsn = rng.standard_normal((n_grid, f))
    neg_idx = np.full((n_pos, k_neg), -1, dtype=np.int64)
    neg_counts = rng.integers(0, k_neg + 1, size=n_pos)
    for i in range(n_pos):
        neg_idx[i, : neg_counts[i]] = rng.choice(n_grid, size=neg_counts[i], replace=False)
    return ContrastBatch(
        positions=np.arange(n_pos), classes=np.zeros(n_pos, dtype=np.int64),
        z1=rng.standard_normal((n_pos, f)), z2=rng.standard_normal((n_pos, f)),
        neg_idx=neg_idx, neg_counts=neg_counts, zsn=zsn, tau=tau,
    )


class TestFeatureContrastLoss:
    def test_identical_pair_one_orthogonal_negative(self):
        """cos(z1,z2)=1, cos(z1,n)=0, tau=0.5 -> ln(1 + e^-2)."""
        z = np.array([1.0, 0.0, 0.0])
        neg = np.array([0.0, 1.0, 0.0])
        got = feature_contrast_loss(z, z.copy(), [neg], tau=0.5)
        assert got == pytest.approx(math.log(1 + math.exp(-2)), abs=1e-9)
        assert got == pytest.approx(0.126928, abs=1e-6)

    def test_empty_negatives_exactly_zero(self):
        rng = np.random.default_rng(0)
        a, p = rng.standard_normal(5), rng.standard_normal(5)
        assert feature_contrast_loss(a, p, [], tau=0.5) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a, p = rng.standard_normal(4), rng.standard_normal(4)
        negs = [rng.standard_normal(4) for _ in range(3)]
        base = feature_contrast_loss(a, p, negs, tau=0.7)
        scaled = feature_contrast_loss(3 * a, 3 * p, [3 * n for n in negs], tau=0.7)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            feature_contrast_loss(np.zeros(3), np.ones(3), [], tau=0.5)
        with pytest.raises(ValueError):
            feature_contrast_loss(np.ones(3), np.ones(3), [np.zeros(3)], tau=0.5)

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            feature_contrast_loss(np.ones(3), np.ones(3), [], tau=0.0)

    def test_nonnegative_and_zero_iff_no_negatives(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, p = rng.standard_normal(4), rng.standard_normal(4)
            negs = [rng.standard_normal(4) for _ in range(int(rng.integers(1, 4)))]
            assert feature_contrast_loss(a, p, negs, tau=0.5) > 0.0

    def test_monotone_in_similarities(self):
        """Decreasing in cos(anchor, positive); increasing in cos(anchor, negative)."""
        neg = np.array([0.0, 1.0])
        anchors = np.array([1.0, 0.0])
        losses = [
            feature_contrast_loss(anchors, np.array([math.cos(a), math.sin(a)]), [neg], 0.5)
            for a in np.linspace(0.0, math.pi / 2, 8)
        ]
        assert all(b > a for a, b in zip(losses, losses[1:]))
        losses = [
            feature_contrast_loss(anchors, np.array([1.0, 0.0]),
                                  [np.array([math.cos(a), math.sin(a)])], 0.5)
            for a in np.linspace(math.pi / 2, 0.0, 8)
        ]
        assert all(b > a for a, b in zip(losses, losses[1:]))


class TestBidirectionalLoss:
    def test_single_identical_pair_no_negatives(self):
        batch = ContrastBatch(
            positions=np.array([0]), classes=np.array([1]),
            z1=np.array([[1.0, 2.0]]), z2=np.array([[1.0, 2.0]]),
            neg_idx=np.full((1, 2), -1), neg_counts=np.array([0]),
            zsn=np.ones((4, 2)), tau=0.5,
        )
        assert bidirectional_loss(batch) == 0.0

    def test_symmetric_under_view_swap(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            batch = random_batch(rng, n_pos=int(rng.integers(1, 5)))
            swapped = ContrastBatch(
                positions=batch.positions, classes=batch.classes,
                z1=batch.z2, z2=batch.z1,
                neg_idx=batch.neg_idx, neg_counts=batch.neg_counts,
                zsn=batch.zsn, tau=batch.tau,
            )
            a, b = bidirectional_loss(batch), bidirectional_loss(swapped)
            assert abs(a - b) <= 1e-12

    def test_matches_naive_double_loop_oracle(self):
        """Direct exp-sum evaluation without the log-sum-exp stabilization."""
        rng = np.random.default_rng(4)
        batch = random_batch(rng, n_pos=3, k_neg=2)

        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        expected = 0.0
        for i in range(3):
            negs = batch.negatives_for(i)
            for a, p in ((batch.z1[i], batch.z2[i]), (batch.z2[i], batch.z1[i])):
                num = math.exp(cos(a, p) / batch.tau)
                den = num + sum(math.exp(cos(a, n) / batch.tau) for n in negs)
                expected += -math.log(num / den)
        expected /= 3
        assert bidirectional_loss(batch) == pytest.approx(expected, abs=1e-6)

    def test_empty_batch_is_zero(self):
        batch = ContrastBatch(
            positions=np.zeros(0, dtype=int), classes=np.zeros(0, dtype=int),
            z1=np.zeros((0, 3)), z2=np.zeros((0, 3)),
            neg_idx=np.zeros((0, 2), dtype=int), neg_counts=np.zeros(0, dtype=int),
            zsn=np.ones((4, 3)), tau=0.5,
        )
        assert bidirectional_loss(batch) == 0.0


class TestContrastNode:
    def test_node_value_matches_float_path(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            batch = random_batch(rng, n_pos=int(rng.integers(1, 5)), k_neg=3)
            tape = Tape(np.float64)
            node = contrast_loss_node(tape, tape.input(batch.zsn), batch)
            assert float(node.value) == pytest.approx(bidirectional_loss(batch), rel=1e-10)

    def test_gradients_wrt_all_feature_vectors(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng, n_pos=2, k_neg=2)
        z1_0, z2_0, zsn_0 = batch.z1.copy(), batch.z2.copy(), batch.zsn.copy()

        def loss_at(z1, z2, zsn):
            tape = Tape(np.float64)
            return float(contrast_loss_node(
                tape, tape.input(zsn), batch, tape.input(z1), tape.input(z2)
            ).value)

        tape = Tape(np.float64)
        n_zsn, n_z1, n_z2 = tape.input(zsn_0), tape.input(z1_0), tape.input(z2_0)
        tape.backward(contrast_loss_node(tape, n_zsn, batch, n_z1, n_z2))

        for arr, node, tag in ((z1_0, n_z1, "z1"), (z2_0, n_z2, "z2"), (zsn_0, n_zsn, "zsn")):
            flat = arr.reshape(-1)
            grad = np.zeros_like(flat) if node.grad is None else node.grad.reshape(-1)
            for ci in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                z1b, z2b, zsnb = z1_0.copy(), z2_0.copy(), zsn_0.copy()
                target = {"z1": z1b, "z2": z2b, "zsn": zsnb}[tag]
                target.reshape(-1)[ci] += 1e-4
                hi = loss_at(z1b, z2b, zsnb)
                target.reshape(-1)[ci] -= 2e-4
                lo = loss_at(z1b, z2b, zsnb)
                numeric = (hi - lo) / 2e-4
                err = abs(grad[ci] - numeric) / max(1.0, abs(numeric))
                assert err < 1e-4, f"{tag}[{ci}]"


# float64 agreement of the matmul form with the gather oracle, relative to
# the scale of the loss and of each gradient array
ORACLE_RTOL = 1e-12


def _loss_and_grads(build, batch):
    tape = Tape(np.float64)
    zsn, z1, z2 = tape.input(batch.zsn), tape.input(batch.z1), tape.input(batch.z2)
    loss = build(tape, zsn, batch, z1, z2)
    tape.backward(loss)
    grads = {name: np.zeros_like(n.value) if n.grad is None else n.grad
             for name, n in (("zsn", zsn), ("z1", z1), ("z2", z2))}
    return float(loss.value), grads


def assert_matches_gather_oracle(batch):
    got, got_grads = _loss_and_grads(contrast_loss_node, batch)
    ref, ref_grads = _loss_and_grads(gather_contrast_loss_node, batch)
    assert abs(got - ref) <= ORACLE_RTOL * abs(ref), (got, ref)
    for name, ref_g in ref_grads.items():
        err = np.abs(got_grads[name] - ref_g).max(initial=0.0)
        assert err <= ORACLE_RTOL * np.abs(ref_g).max(initial=0.0), name
    return got


class TestMatmulFormAgainstGatherOracle:
    def test_random_per_anchor_batches(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            batch = random_batch(rng, n_pos=int(rng.integers(1, 7)),
                                 k_neg=int(rng.integers(1, 5)), f=int(rng.integers(2, 6)))
            assert_matches_gather_oracle(batch)

    def test_repeated_index_counts_twice(self):
        rng = np.random.default_rng(17)
        batch = random_batch(rng, n_pos=2, k_neg=3)
        batch.neg_idx = np.array([[3, 3, 5], [5, -1, -1]])
        batch.neg_counts = np.array([3, 1])
        loss = assert_matches_gather_oracle(batch)
        assert loss == pytest.approx(bidirectional_loss(batch), rel=1e-12)

    def test_all_padding_rows_give_exactly_zero(self):
        rng = np.random.default_rng(18)
        batch = random_batch(rng, n_pos=4, k_neg=3)
        batch.neg_idx = np.full((4, 3), -1)
        batch.neg_counts = np.zeros(4, dtype=np.int64)
        assert assert_matches_gather_oracle(batch) == 0.0


def feature_grid(rng, dims, f=4):
    return FeatureMap(rng.standard_normal((*dims, f)) + 0.1)


class TestMinePairs:
    def make_inputs(self, rng, dims=(2, 2, 1)):
        n = int(np.prod(dims))
        return dict(
            zw1=feature_grid(rng, dims), zw2=feature_grid(rng, dims),
            zsn=feature_grid(rng, dims),
            preds_w1=LabelMap(rng.integers(0, 2, size=dims), 2),
            preds_w2=LabelMap(rng.integers(0, 2, size=dims), 2),
            preds_sn=LabelMap(rng.integers(0, 2, size=dims), 2),
            mask_ds=BoolMask(np.ones(dims, dtype=bool)),
            conf_sn=Volume(rng.random(dims)),
        )

    def test_no_consensus_zero_positives(self):
        rng = np.random.default_rng(7)
        inputs = self.make_inputs(rng)
        inputs["preds_w1"] = LabelMap(np.zeros((2, 2, 1), dtype=np.int64), 2)
        inputs["preds_w2"] = LabelMap(np.ones((2, 2, 1), dtype=np.int64), 2)
        batch = mine_pairs(**inputs, k_neg=2)
        assert batch.n_positives == 0
        assert bidirectional_loss(batch) == 0.0

    def test_uniform_strong_prediction_gives_empty_negatives(self):
        rng = np.random.default_rng(8)
        inputs = self.make_inputs(rng)
        inputs["preds_w1"] = LabelMap(np.ones((2, 2, 1), dtype=np.int64), 2)
        inputs["preds_w2"] = LabelMap(np.ones((2, 2, 1), dtype=np.int64), 2)
        inputs["preds_sn"] = LabelMap(np.ones((2, 2, 1), dtype=np.int64), 2)
        batch = mine_pairs(**inputs, k_neg=3)
        assert batch.n_positives == 4
        assert (batch.neg_counts == 0).all()
        assert bidirectional_loss(batch) == 0.0

    def test_hand_enumerated_grid(self):
        """2x2x1 grid with hand-set predictions and confidences, K_neg=1."""
        rng = np.random.default_rng(9)
        inputs = self.make_inputs(rng)
        # consensus (both views class 1) at flat cells 0 and 2; cell 1 disagrees,
        # cell 3 agrees on class 0
        inputs["preds_w1"] = LabelMap(np.array([1, 0, 1, 0]).reshape(2, 2, 1), 2)
        inputs["preds_w2"] = LabelMap(np.array([1, 1, 1, 0]).reshape(2, 2, 1), 2)
        # strong view predicts class 0 at cells 0,1 and class 1 at cells 2,3
        inputs["preds_sn"] = LabelMap(np.array([0, 0, 1, 1]).reshape(2, 2, 1), 2)
        inputs["conf_sn"] = Volume(np.array([0.9, 0.4, 0.8, 0.6]).reshape(2, 2, 1))
        batch = mine_pairs(**inputs, k_neg=1)

        # positives: cells 0 and 2 (class 1) and cell 3 (class 0)
        np.testing.assert_array_equal(batch.positions, [0, 2, 3])
        np.testing.assert_array_equal(batch.classes, [1, 1, 0])
        # class-1 anchors: candidates are strong-class-0 cells {0, 1}; top conf = 0
        # class-0 anchors: candidates are strong-class-1 cells {2, 3}; top conf = 2
        np.testing.assert_array_equal(batch.neg_idx[:, 0], [0, 0, 2])
        validate_batch(batch, inputs["preds_w1"], inputs["preds_w2"],
                       inputs["preds_sn"], inputs["mask_ds"])

    def test_mask_gates_positives_and_negatives(self):
        rng = np.random.default_rng(10)
        inputs = self.make_inputs(rng, dims=(4, 4, 2))
        bits = rng.random((4, 4, 2)) < 0.5
        inputs["mask_ds"] = BoolMask(bits)
        batch = mine_pairs(**inputs, k_neg=4)
        flat_mask = bits.ravel()
        assert flat_mask[batch.positions].all()
        for i in range(batch.n_positives):
            idx = batch.neg_idx[i, : batch.neg_counts[i]]
            assert flat_mask[idx].all()

    def test_negatives_never_share_anchor_class(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inputs = self.make_inputs(rng, dims=(4, 2, 2))
            batch = mine_pairs(**inputs, k_neg=3)
            validate_batch(batch, inputs["preds_w1"], inputs["preds_w2"],
                           inputs["preds_sn"], inputs["mask_ds"])

    def test_confidence_ordering_with_index_ties(self):
        rng = np.random.default_rng(12)
        inputs = self.make_inputs(rng, dims=(2, 2, 2))
        inputs["preds_w1"] = LabelMap(np.ones((2, 2, 2), dtype=np.int64), 2)
        inputs["preds_w2"] = LabelMap(np.ones((2, 2, 2), dtype=np.int64), 2)
        inputs["preds_sn"] = LabelMap(np.zeros((2, 2, 2), dtype=np.int64), 2)
        inputs["conf_sn"] = Volume(np.array([0.5, 0.9, 0.9, 0.1, 0.9, 0.2, 0.3, 0.4]).reshape(2, 2, 2))
        batch = mine_pairs(**inputs, k_neg=4)
        # ties at 0.9 resolve by linear index: 1, 2, 4, then 0.5 at index 0
        np.testing.assert_array_equal(batch.neg_idx[0], [1, 2, 4, 0])

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        inputs = self.make_inputs(rng)
        inputs["conf_sn"] = Volume(rng.random((4, 4, 2)))
        with pytest.raises(ValueError):
            mine_pairs(**inputs, k_neg=1)

    def test_shared_class_pools_match_gather_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            batch = mine_pairs(**self.make_inputs(rng, dims=(4, 4, 2)), k_neg=5)
            assert np.unique(batch.neg_idx, axis=0).shape[0] < batch.n_positives
            assert_matches_gather_oracle(batch)

    def test_deterministic(self):
        rng_a, rng_b = np.random.default_rng(14), np.random.default_rng(14)
        a = mine_pairs(**self.make_inputs(rng_a, dims=(4, 4, 2)), k_neg=3)
        b = mine_pairs(**self.make_inputs(rng_b, dims=(4, 4, 2)), k_neg=3)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.neg_idx, b.neg_idx)
