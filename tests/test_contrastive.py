import math
import tracemalloc

import numpy as np
import pytest

from pacedseg.autodiff import Tape
from pacedseg.contrastive import ContrastBatch, contrast_loss_node, mine_pairs

from oracles import (
    OracleTape,
    bidirectional_loss,
    feature_contrast_loss,
    gather_contrast_loss_node,
    matmul_contrast_loss_node,
    matmul_lse_direction,
    negatives_for,
    pool_mask_of,
    validate_batch,
)


def random_batch(rng, n_pos=3, k_neg=2, f=4, tau=0.5):
    """A batch with random negative pools, each shared by at least one
    anchor, and the (M, F) grid they index."""
    n_grid = max(n_pos * 2, 8)
    zsn = rng.standard_normal((n_grid, f))
    n_pools = int(rng.integers(1, n_pos + 1))
    pools = [rng.choice(n_grid, size=int(rng.integers(0, k_neg + 1)), replace=False)
             for _ in range(n_pools)]
    batch = ContrastBatch(
        positions=np.arange(n_pos),
        z1=rng.standard_normal((n_pos, f)), z2=rng.standard_normal((n_pos, f)),
        pools=pools, pool_of=rng.permutation(np.arange(n_pos) % n_pools), tau=tau,
    )
    return batch, zsn


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
            positions=np.array([0]),
            z1=np.array([[1.0, 2.0]]), z2=np.array([[1.0, 2.0]]),
            pools=[np.zeros(0, dtype=np.int64)], pool_of=np.array([0]), tau=0.5,
        )
        assert bidirectional_loss(batch, np.ones((4, 2))) == 0.0

    def test_symmetric_under_view_swap(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            batch, zsn = random_batch(rng, n_pos=int(rng.integers(1, 5)))
            swapped = ContrastBatch(
                positions=batch.positions, z1=batch.z2, z2=batch.z1,
                pools=batch.pools, pool_of=batch.pool_of, tau=batch.tau,
            )
            a, b = bidirectional_loss(batch, zsn), bidirectional_loss(swapped, zsn)
            assert abs(a - b) <= 1e-12

    def test_matches_naive_double_loop_oracle(self):
        """Direct exp-sum evaluation without the log-sum-exp stabilization."""
        rng = np.random.default_rng(4)
        batch, zsn = random_batch(rng, n_pos=3, k_neg=2)

        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        expected = 0.0
        for i in range(3):
            negs = negatives_for(batch, zsn, i)
            for a, p in ((batch.z1[i], batch.z2[i]), (batch.z2[i], batch.z1[i])):
                num = math.exp(cos(a, p) / batch.tau)
                den = num + sum(math.exp(cos(a, n) / batch.tau) for n in negs)
                expected += -math.log(num / den)
        expected /= 3
        assert bidirectional_loss(batch, zsn) == pytest.approx(expected, abs=1e-6)

    def test_empty_batch_is_zero(self):
        batch = ContrastBatch(
            positions=np.zeros(0, dtype=int), z1=np.zeros((0, 3)), z2=np.zeros((0, 3)),
            pools=[], pool_of=np.zeros(0, dtype=int), tau=0.5,
        )
        assert bidirectional_loss(batch, np.ones((4, 3))) == 0.0


class TestContrastNode:
    def test_node_value_matches_float_path(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            batch, zsn = random_batch(rng, n_pos=int(rng.integers(1, 5)), k_neg=3)
            tape = Tape(np.float64)
            node = contrast_loss_node(tape, tape.input(zsn), batch)
            assert float(node.value) == pytest.approx(bidirectional_loss(batch, zsn), rel=1e-10)

    def test_gradients_wrt_strong_view_features(self):
        rng = np.random.default_rng(6)
        batch, zsn_0 = random_batch(rng, n_pos=2, k_neg=2)

        def loss_at(zsn):
            tape = Tape(np.float64)
            return float(contrast_loss_node(tape, tape.input(zsn), batch).value)

        tape = Tape(np.float64)
        n_zsn = tape.input(zsn_0)
        tape.backward(contrast_loss_node(tape, n_zsn, batch))

        flat = zsn_0.reshape(-1)
        grad = np.zeros_like(flat) if n_zsn.grad is None else n_zsn.grad.reshape(-1)
        for ci in rng.choice(flat.size, size=min(8, flat.size), replace=False):
            zsnb = zsn_0.copy()
            zsnb.reshape(-1)[ci] += 1e-4
            hi = loss_at(zsnb)
            zsnb.reshape(-1)[ci] -= 2e-4
            lo = loss_at(zsnb)
            numeric = (hi - lo) / 2e-4
            err = abs(grad[ci] - numeric) / max(1.0, abs(numeric))
            assert err < 1e-4, f"zsn[{ci}]"

    def test_anchors_take_no_gradient(self):
        """The weak-view anchors are teacher constants: no tape node holds
        one or takes a gradient for one, and the strong-view gradient is the
        one anchors that took a gradient would give, bit for bit."""
        rng = np.random.default_rng(21)
        batch, zsn = random_batch(rng, n_pos=3, k_neg=2)
        units = [z / np.linalg.norm(z, axis=-1, keepdims=True) for z in (batch.z1, batch.z2)]

        def anchor_nodes(tape):
            return [n for n in tape.nodes for u in units
                    if n.value.shape == u.shape and (n.value == u).all()]

        tape = Tape(np.float64)
        n_zsn = tape.input(zsn)
        loss = contrast_loss_node(tape, n_zsn, batch)
        assert anchor_nodes(tape) == []
        tape.backward(loss)
        assert [n for n in tape.nodes if n.grad is not None] == [n_zsn, loss]

        wide = OracleTape(np.float64)
        wide_zsn = wide.input(zsn)
        wide_loss = matmul_contrast_loss_node(wide, wide_zsn, batch, anchor_grad=True)
        wide.backward(wide_loss)
        wide_anchors = anchor_nodes(wide)
        assert len(wide_anchors) == 2 and all(a.grad is not None for a in wide_anchors)
        assert loss.value.tobytes() == wide_loss.value.tobytes()
        assert n_zsn.grad.tobytes() == wide_zsn.grad.tobytes()


def pooled_batch(rng, n_pos, pool_sizes, f=4, n_grid=12, dtype=np.float64, tau=0.5):
    """A batch whose pools have the given sizes, each shared by at least one
    anchor when n_pos allows, drawn from an (n_grid, F) grid."""
    pools = [np.sort(rng.choice(n_grid, size=size, replace=False)) for size in pool_sizes]
    batch = ContrastBatch(
        positions=np.arange(n_pos),
        z1=rng.standard_normal((n_pos, f)).astype(dtype),
        z2=rng.standard_normal((n_pos, f)).astype(dtype),
        pools=pools, pool_of=rng.permutation(np.arange(n_pos) % len(pools)), tau=tau,
    )
    return batch, rng.standard_normal((n_grid, f)).astype(dtype)


# (anchors, pool sizes): one pool; two ragged pools; an empty pool, whose
# anchors' rows are -inf apart from their positive; every pool empty; P = 1
POOL_CASES = {
    "one_pool": (5, [7]),
    "two_ragged_pools": (7, [6, 2]),
    "empty_pool": (6, [0, 4]),
    "all_pools_empty": (4, [0, 0]),
    "one_anchor": (1, [5]),
}


class TestPoolLogsumexp:
    """The fused direction node against the chain of general ops it
    replaces: matmul, scale, mask, concat and log-sum-exp."""

    @staticmethod
    def _direction(case, dtype, fused):
        n_pos, sizes = case
        batch, zsn = pooled_batch(np.random.default_rng(31), n_pos, sizes, dtype=dtype)
        uniq, pool_mask = pool_mask_of(batch, dtype)
        anchors = batch.z1 / np.linalg.norm(batch.z1, axis=-1, keepdims=True)
        s12 = np.random.default_rng(32).standard_normal(n_pos).astype(dtype)
        weight = np.random.default_rng(33).standard_normal(n_pos)
        tape = OracleTape(dtype)
        negs = tape.input(zsn[uniq])
        negs_t = tape.transpose(negs)
        if fused:
            lse = tape.pool_logsumexp(s12, anchors, negs_t, 2.0, pool_mask, batch.pool_of)
        else:
            lse = matmul_lse_direction(
                tape, tape.input(s12[:, None], grad=False), tape.input(anchors, grad=False),
                negs_t, 2.0, pool_mask[batch.pool_of])
        tape.backward(tape.sum(tape.mul_const(lse, weight)))
        return lse.value, negs.grad

    @pytest.mark.parametrize("case", POOL_CASES.values(), ids=POOL_CASES.keys())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_value_and_gradient_bitwise_equal_to_the_op_chain(self, case, dtype):
        (value, grad), (want, want_grad) = (self._direction(case, dtype, fused)
                                            for fused in (True, False))
        assert value.dtype == want.dtype and value.tobytes() == want.tobytes()
        assert np.isfinite(value).all()
        assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
        assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("case", POOL_CASES.values(), ids=POOL_CASES.keys())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_and_strong_view_gradient_bitwise_equal_to_the_matmul_chain(self, case, dtype):
        batch, zsn = pooled_batch(np.random.default_rng(34), *case, dtype=dtype)
        got = []
        for tape, build in ((Tape(dtype), contrast_loss_node),
                            (OracleTape(dtype), matmul_contrast_loss_node)):
            n_zsn = tape.input(zsn)
            loss = build(tape, n_zsn, batch)
            tape.backward(loss)
            got.append((loss.value.tobytes(), n_zsn.grad.tobytes()))
        assert got[0] == got[1]


class TestContrastMemory:
    # A synthetic float32 batch the size of a confident step's: P = 2048
    # anchors against U = 64 distinct negatives in two pools. A direction
    # keeps each anchor's row max and sum, not its (P, U+1) frame (0.51 MiB),
    # and rebuilds the negatives' logits in its backward. After the forward
    # 0.33 MiB is held, mostly the two (P, F) anchor arrays, and the peak
    # through the backward is 1.00 MiB; the bound is about 15% above it.
    # When each direction kept its frame, 1.33 MiB was held after the
    # forward and the backward peaked at 1.86 MiB; a chain of general ops
    # held 5.50 MiB and peaked at 6.52 MiB.
    P, U, F = 2048, 64, 16
    PEAK_MIB = 1.15

    def test_forward_holds_no_frame_and_the_backward_peak_is_bounded(self):
        rng = np.random.default_rng(35)
        dtype = np.float32
        zsn = rng.standard_normal((2048, self.F)).astype(dtype)
        half = self.U // 2
        batch = ContrastBatch(
            positions=np.arange(self.P),
            z1=rng.standard_normal((self.P, self.F)).astype(dtype),
            z2=rng.standard_normal((self.P, self.F)).astype(dtype),
            pools=[np.arange(half), np.arange(half, self.U)],
            pool_of=np.arange(self.P) % 2, tau=0.5,
        )
        frame = self.P * (self.U + 1) * np.dtype(dtype).itemsize
        tracemalloc.start()
        try:
            tape = Tape(dtype)
            n_zsn = tape.input(zsn)
            loss = contrast_loss_node(tape, n_zsn, batch)
            held = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_zsn.grad is not None and float(loss.value) > 0
        assert held < frame, f"held {held / 2**20:.2f} MiB"
        assert peak < self.PEAK_MIB * 2**20, f"peak {peak / 2**20:.2f} MiB"


# float64 agreement of the matmul form with the gather oracle, relative to
# the scale of the loss and of its gradient in the strong-view features
ORACLE_RTOL = 1e-12


def _loss_and_grad(build, batch, zsn_grid):
    tape = OracleTape(np.float64)
    zsn = tape.input(zsn_grid)
    loss = build(tape, zsn, batch)
    tape.backward(loss)
    return float(loss.value), np.zeros_like(zsn.value) if zsn.grad is None else zsn.grad


def assert_matches_gather_oracle(batch, zsn):
    got, got_grad = _loss_and_grad(contrast_loss_node, batch, zsn)
    ref, ref_grad = _loss_and_grad(gather_contrast_loss_node, batch, zsn)
    assert abs(got - ref) <= ORACLE_RTOL * abs(ref), (got, ref)
    err = np.abs(got_grad - ref_grad).max(initial=0.0)
    assert err <= ORACLE_RTOL * np.abs(ref_grad).max(initial=0.0)
    return got


class TestMatmulFormAgainstGatherOracle:
    def test_random_per_anchor_batches(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            batch, zsn = random_batch(rng, n_pos=int(rng.integers(1, 7)),
                                      k_neg=int(rng.integers(1, 5)), f=int(rng.integers(2, 6)))
            assert_matches_gather_oracle(batch, zsn)

    def test_all_padding_rows_give_exactly_zero(self):
        rng = np.random.default_rng(18)
        batch, zsn = random_batch(rng, n_pos=4, k_neg=3)
        batch.pools = [np.zeros(0, dtype=np.int64) for _ in batch.pools]
        assert (batch.neg_counts == 0).all()
        assert assert_matches_gather_oracle(batch, zsn) == 0.0


def feature_grid(rng, dims, f=4):
    return rng.standard_normal((*dims, f)) + 0.1


def flat_grid(fmap):
    return fmap.reshape(-1, fmap.shape[3])


class TestMinePairs:
    def make_inputs(self, rng, dims=(2, 2, 1)):
        n = int(np.prod(dims))
        return dict(
            zw1=feature_grid(rng, dims), zw2=feature_grid(rng, dims),
            zsn=feature_grid(rng, dims),
            preds_w1=rng.integers(0, 2, size=dims),
            preds_w2=rng.integers(0, 2, size=dims),
            preds_sn=rng.integers(0, 2, size=dims),
            mask_ds=np.ones(dims, dtype=bool),
            conf_sn=rng.random(dims),
        )

    def test_no_consensus_zero_positives(self):
        rng = np.random.default_rng(7)
        inputs = self.make_inputs(rng)
        inputs["preds_w1"] = np.zeros((2, 2, 1), dtype=np.int64)
        inputs["preds_w2"] = np.ones((2, 2, 1), dtype=np.int64)
        batch = mine_pairs(**inputs, k_neg=2)
        assert batch.n_positives == 0
        assert bidirectional_loss(batch, flat_grid(inputs["zsn"])) == 0.0

    def test_uniform_strong_prediction_gives_empty_negatives(self):
        rng = np.random.default_rng(8)
        inputs = self.make_inputs(rng)
        inputs["preds_w1"] = np.ones((2, 2, 1), dtype=np.int64)
        inputs["preds_w2"] = np.ones((2, 2, 1), dtype=np.int64)
        inputs["preds_sn"] = np.ones((2, 2, 1), dtype=np.int64)
        batch = mine_pairs(**inputs, k_neg=3)
        assert batch.n_positives == 4
        assert (batch.neg_counts == 0).all()
        assert bidirectional_loss(batch, flat_grid(inputs["zsn"])) == 0.0

    def test_hand_enumerated_grid(self):
        """2x2x1 grid with hand-set predictions and confidences, K_neg=1."""
        rng = np.random.default_rng(9)
        inputs = self.make_inputs(rng)
        # consensus (both views class 1) at flat cells 0 and 2; cell 1 disagrees,
        # cell 3 agrees on class 0
        inputs["preds_w1"] = np.array([1, 0, 1, 0]).reshape(2, 2, 1)
        inputs["preds_w2"] = np.array([1, 1, 1, 0]).reshape(2, 2, 1)
        # strong view predicts class 0 at cells 0,1 and class 1 at cells 2,3
        inputs["preds_sn"] = np.array([0, 0, 1, 1]).reshape(2, 2, 1)
        inputs["conf_sn"] = np.array([0.9, 0.4, 0.8, 0.6]).reshape(2, 2, 1)
        batch = mine_pairs(**inputs, k_neg=1)

        # positives: cells 0 and 2 (class 1) and cell 3 (class 0)
        np.testing.assert_array_equal(batch.positions, [0, 2, 3])
        # class-0 anchors: candidates are strong-class-1 cells {2, 3}; top conf = 2
        # class-1 anchors: candidates are strong-class-0 cells {0, 1}; top conf = 0
        assert [pool.tolist() for pool in batch.pools] == [[2], [0]]
        np.testing.assert_array_equal(batch.pool_of, [1, 1, 0])
        np.testing.assert_array_equal(batch.neg_counts, [1, 1, 1])
        validate_batch(batch, inputs, k_neg=1)

    def test_mask_gates_positives_and_negatives(self):
        rng = np.random.default_rng(10)
        inputs = self.make_inputs(rng, dims=(4, 4, 2))
        bits = rng.random((4, 4, 2)) < 0.5
        inputs["mask_ds"] = bits
        batch = mine_pairs(**inputs, k_neg=4)
        flat_mask = bits.ravel()
        assert flat_mask[batch.positions].all()
        for pool in batch.pools:
            assert flat_mask[pool].all()

    def test_negatives_never_share_anchor_class(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inputs = self.make_inputs(rng, dims=(4, 2, 2))
            batch = mine_pairs(**inputs, k_neg=3)
            validate_batch(batch, inputs, k_neg=3)

    def test_confidence_ordering_with_index_ties(self):
        rng = np.random.default_rng(12)
        inputs = self.make_inputs(rng, dims=(2, 2, 2))
        inputs["preds_w1"] = np.ones((2, 2, 2), dtype=np.int64)
        inputs["preds_w2"] = np.ones((2, 2, 2), dtype=np.int64)
        inputs["preds_sn"] = np.zeros((2, 2, 2), dtype=np.int64)
        inputs["conf_sn"] = np.array([0.5, 0.9, 0.9, 0.1, 0.9, 0.2, 0.3, 0.4]).reshape(2, 2, 2)
        batch = mine_pairs(**inputs, k_neg=4)
        # ties at 0.9 resolve by linear index: 1, 2, 4, then 0.5 at index 0
        assert len(batch.pools) == 1
        np.testing.assert_array_equal(batch.pools[0], [1, 2, 4, 0])
        validate_batch(batch, inputs, k_neg=4)

    def test_tied_confidences_rank_by_index_on_a_large_grid(self):
        """Many ties in more candidates than a small-array sort sees."""
        rng = np.random.default_rng(20)
        inputs = self.make_inputs(rng, dims=(4, 4, 4))
        inputs["conf_sn"] = rng.integers(0, 3, size=(4, 4, 4)) / 2
        batch = mine_pairs(**inputs, k_neg=64)
        validate_batch(batch, inputs, k_neg=64)
        for j, pool in enumerate(batch.pools):
            c = inputs["preds_w1"].ravel()[batch.positions[batch.pool_of == j][0]]
            assert pool.size == np.count_nonzero(inputs["preds_sn"] != c)

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        inputs = self.make_inputs(rng)
        inputs["conf_sn"] = rng.random((4, 4, 2))
        with pytest.raises(ValueError):
            mine_pairs(**inputs, k_neg=1)
        inputs = self.make_inputs(rng)
        inputs["zsn"] = feature_grid(rng, (2, 1, 1))
        with pytest.raises(ValueError):
            mine_pairs(**inputs, k_neg=1)

    def test_shared_class_pools_match_gather_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            inputs = self.make_inputs(rng, dims=(4, 4, 2))
            batch = mine_pairs(**inputs, k_neg=5)
            assert len(batch.pools) < batch.n_positives
            validate_batch(batch, inputs, k_neg=5)
            assert_matches_gather_oracle(batch, flat_grid(inputs["zsn"]))

    def test_deterministic(self):
        rng_a, rng_b = np.random.default_rng(14), np.random.default_rng(14)
        a = mine_pairs(**self.make_inputs(rng_a, dims=(4, 4, 2)), k_neg=3)
        b = mine_pairs(**self.make_inputs(rng_b, dims=(4, 4, 2)), k_neg=3)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.pool_of, b.pool_of)
        assert [p.tolist() for p in a.pools] == [p.tolist() for p in b.pools]
