import math

import numpy as np
import pytest
from oracles import make_dropout_mask

from pacedseg.errors import ConfigError
from pacedseg.network import forward_parts, head_forward, init_params
from pacedseg.uncertainty import (
    WARM_CAP,
    Schedule,
    admitted,
    entropy_values,
    mc_pass_seed,
    mc_uncertainty_from_trunk,
    select_mask,
    warmup_xi,
)


def random_probmap(rng, dims=(4, 4, 2), n_classes=2):
    raw = rng.random((*dims, n_classes)) + 1e-6
    return raw / raw.sum(axis=3, keepdims=True)


def mc_on_image(params, image, n_passes, seed):
    """MC-dropout mean and entropy for one image, over one trunk pass."""
    hdec, _ = forward_parts(params, image)
    return mc_uncertainty_from_trunk(params, hdec, n_passes, seed)


class TestEntropy:
    def test_degenerate_distribution_is_zero(self):
        probs = np.zeros((2, 2, 2, 2))
        probs[..., 0] = 1.0
        np.testing.assert_array_equal(entropy_values(probs), 0.0)

    def test_uniform_is_ln2(self):
        probs = np.full((2, 2, 2, 2), 0.5)
        np.testing.assert_allclose(entropy_values(probs), math.log(2), atol=1e-9)

    def test_bounds_over_random_probmaps(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_classes = int(rng.integers(2, 5))
            ent = entropy_values(random_probmap(rng, n_classes=n_classes))
            assert ent.min() >= 0.0
            assert ent.max() <= math.log(n_classes)


class TestMCUncertainty:
    def test_single_pass_no_dropout_degenerate(self):
        params = init_params(widths=(2, 2, 2, 2), embed_dim=3, dropout_rate=0.0, seed=1)
        # force a hard prediction by inflating the head weights
        params.tensors["seg_b"] = np.array([50.0, -50.0])
        mean, ent = mc_on_image(params, np.zeros((4, 4, 2)), 1, 0)
        np.testing.assert_allclose(ent, 0.0, atol=1e-12)

    def test_mean_matches_per_pass_reaccumulation(self):
        """Average of T independent full forwards with the pinned pass seeds."""
        params = init_params(widths=(2, 3, 4, 3), embed_dim=4, dropout_rate=0.4, seed=2)
        image = np.random.default_rng(3).standard_normal((4, 4, 2))
        seed, passes = 77, 4
        mean, ent = mc_on_image(params, image, passes, seed)
        acc = np.zeros((4, 4, 2, 2))
        for t in range(passes):
            hdec, _ = forward_parts(params, image)
            mask = make_dropout_mask(hdec.shape, params.dropout_rate, mc_pass_seed(seed, t))
            acc += head_forward(params, hdec * mask.astype(params.dtype))
        np.testing.assert_allclose(mean, acc / passes, atol=1e-6)
        np.testing.assert_array_equal(ent, entropy_values(mean))

    def test_deterministic_per_seed(self):
        params = init_params(widths=(2, 3, 4, 3), embed_dim=4, dropout_rate=0.4, seed=2)
        image = np.random.default_rng(3).standard_normal((4, 4, 2))
        m1, e1 = mc_on_image(params, image, 3, 5)
        m2, e2 = mc_on_image(params, image, 3, 5)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(e1, e2)


class TestWarmup:
    def test_endpoint_is_one_tenth(self):
        assert warmup_xi(100, 100) == pytest.approx(0.1, abs=0)

    def test_start_value(self):
        assert warmup_xi(0, 100) == pytest.approx(0.1 * math.exp(-5.0), rel=1e-12)

    def test_nondecreasing(self):
        vals = [warmup_xi(t, 50) for t in range(51)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestAgeSchedule:
    def test_initial_age_is_alpha(self):
        schedule = Schedule(100)
        assert schedule.lam == 0.1 and schedule.t == 0 and schedule.last_lu == math.inf

    def test_one_step(self):
        schedule = Schedule(100)
        schedule.advance(0.3)
        assert schedule.t == 1 and schedule.last_lu == 0.3
        assert schedule.lam == pytest.approx(0.101, rel=1e-12)

    def test_hundred_steps_closed_form(self):
        schedule = Schedule(1000)
        for _ in range(100):
            schedule.advance(1.0)
        assert schedule.lam == pytest.approx(0.1 * 1.01**100, rel=1e-12)
        assert schedule.lam == pytest.approx(0.27048, rel=1e-4)


def schedule_at(t_max, t, lu, **kwargs):
    """A schedule stepped to iteration t whose last loss is lu (a multiple of lambda)."""
    schedule = Schedule(t_max, **kwargs)
    for _ in range(t):
        schedule.advance(0.0)
    schedule.last_lu = lu * schedule.lam
    return schedule


class TestConfidentRatio:
    def test_self_paced_weight_direct_substitution(self):
        _, v = schedule_at(100, 0, 0.5).ratio()
        assert v == pytest.approx(0.5, abs=0)

    def test_warm_branch_saturated(self):
        # xi(t_max) * tau = 0.1 * 1000 >> 1, so the min saturates at 1
        schedule = Schedule(10, tau_sched=1000.0)
        for _ in range(10):
            schedule.advance(schedule.lam + 1.0)
        r, v = schedule.ratio()
        assert r == pytest.approx(WARM_CAP, abs=0) and v is None

    def test_endpoint_confident_branch(self):
        r, v = schedule_at(100, 100, 0.5, tau_sched=10.0).ratio()
        assert v == pytest.approx(0.5)
        assert r == pytest.approx(0.5 * min(warmup_xi(100, 100) * 10.0, 1.0), abs=0)

    def test_warm_branch_capped_at_one_tenth(self):
        rng = np.random.default_rng(1)
        schedule = Schedule(50, tau_sched=10.0)
        for _ in range(50):
            r, v = schedule.ratio()
            assert v is None and r <= 0.1 + 1e-15
            schedule.advance(schedule.lam * schedule.delta + rng.random())

    def test_admitted_with_selection_off_is_every_voxel(self):
        schedule = schedule_at(100, 100, 0.5, tau_sched=10.0)
        assert admitted(schedule, True) == schedule.ratio()
        assert admitted(schedule, False) == (1.0, None)
        schedule.advance(0.0)
        for enable_su in (True, False):
            with pytest.raises(ConfigError, match="past the schedule's end"):
                admitted(schedule, enable_su)

    def test_invalid_states(self):
        for lu in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="must be >= 0"):
                Schedule(10).advance(lu)


class TestSelectMask:
    def umap(self, values, dims):
        return np.asarray(values, dtype=float).reshape(dims)

    def test_four_voxel_example(self):
        u = self.umap([0.1, 0.5, 0.3, 0.2], (4, 1, 1))
        mask = select_mask(u, 0.5)  # K = 2
        assert mask.dtype == bool and mask.shape == (4, 1, 1)
        np.testing.assert_array_equal(mask.ravel(), [True, False, False, True])

    def test_full_ratio_full_mask(self):
        rng = np.random.default_rng(2)
        u = self.umap(rng.random(24) * 0.5, (2, 3, 4))
        assert np.count_nonzero(select_mask(u, 1.0)) == 24

    def test_ties_break_by_linear_index(self):
        u = self.umap(np.zeros(8), (2, 2, 2))
        mask = select_mask(u, 0.25)  # K = 2
        np.testing.assert_array_equal(mask.ravel()[:2], [True, True])
        assert np.count_nonzero(mask) == 2

    @staticmethod
    def sorted_mask(u, r):
        """The K first voxels in (entropy, index) order, NaN after every number."""
        flat = u.ravel()
        k = int(math.floor(r * flat.size))
        order = sorted(range(flat.size), key=lambda i: (
            math.isnan(flat[i]), 0.0 if math.isnan(flat[i]) else flat[i], i))
        expected = np.zeros(flat.size, dtype=bool)
        expected[order[:k]] = True
        return expected.reshape(u.shape), k

    def check_against_sort(self, u, r):
        mask = select_mask(u, r)
        expected, k = self.sorted_mask(u, r)
        assert mask.dtype == bool and mask.shape == u.shape
        assert np.count_nonzero(mask) == k
        np.testing.assert_array_equal(mask, expected)
        # the stable argsort ranks the same voxels first
        np.testing.assert_array_equal(
            mask.ravel(), np.isin(np.arange(u.size), np.argsort(u.ravel(), kind="stable")[:k]))

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dims = tuple(rng.integers(2, 9, size=3))
            n = int(np.prod(dims))
            vals = rng.random(n)
            if rng.random() < 0.5:  # force heavy ties
                vals = np.round(vals, 1)
            self.check_against_sort(self.umap(vals * math.log(2), dims), float(rng.random()))
        grids = []
        for dims in ((4, 4, 4), (3, 5, 2), (6, 2, 7)):
            # three entropy levels: the K-th value is tied on both sides of the cut
            grids.append(np.array([0.1, 0.3, 0.6])[rng.integers(0, 3, size=dims)])
        for n_nan in (1, 20, 40, 64):
            # NaN ranks after every number, as in argsort
            vals = np.round(rng.random(64), 1)
            vals[rng.choice(64, size=n_nan, replace=False)] = np.nan
            grids.append(vals.reshape(4, 4, 4))
        for u in grids:
            for r in (0.0, 1 / u.size, 0.5, 1.0):
                self.check_against_sort(u, r)

    def test_no_unselected_voxel_beats_a_selected_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = self.umap(rng.random(8 * 8 * 8) * 0.6, (8, 8, 8))
            mask = select_mask(u, float(rng.uniform(0.1, 0.9)))
            flat = u.ravel()
            sel = mask.ravel()
            if sel.any() and (~sel).any():
                assert flat[~sel].min() >= flat[sel].max() - 1e-15

    def test_monotone_inclusion(self):
        rng = np.random.default_rng(5)
        u = self.umap(rng.random(64) * 0.5, (4, 4, 4))
        r1, r2 = sorted(rng.random(2))
        m1, m2 = select_mask(u, r1), select_mask(u, r2)
        assert not (m1 & ~m2).any()

    def test_ratio_out_of_range(self):
        u = self.umap(np.zeros(8), (2, 2, 2))
        with pytest.raises(ValueError):
            select_mask(u, 1.5)
