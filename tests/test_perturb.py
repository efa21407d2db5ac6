import numpy as np
import pytest

from pacedseg.perturb import (
    Box,
    apply_flips,
    cutmix_with_box,
    sample_box,
    sample_flips,
    weak_perturb,
)


def vol(seed=0, dims=(8, 8, 4)):
    return np.random.default_rng(seed).standard_normal(dims)


def rng(seed):
    return np.random.default_rng(seed)


class TestWeakPerturb:
    def test_no_flip_no_noise_is_identity(self):
        image = vol(0)
        out = weak_perturb(image, rng(1), sigma_scale=0.0, flips=(False, False, False))
        np.testing.assert_array_equal(out, image)
        assert out is not image

    def test_double_flip_is_involution(self):
        image = vol(1)
        once = apply_flips(image, (True, False, True))
        twice = apply_flips(once, (True, False, True))
        np.testing.assert_array_equal(twice, image)

    def test_labels_ride_along_with_the_image(self):
        """Voxelwise image/label correspondence survives the flip.

        As in a labeled training step: the flips are drawn once, the image
        goes through `weak_perturb` and its label through `apply_flips`.
        """
        gen = rng(2)
        image = vol(2)
        labels = (image > 0).astype(np.int64)
        flips = sample_flips(gen)
        out_img = weak_perturb(image, gen, sigma_scale=0.0, flips=flips)
        out_lab = apply_flips(labels, flips)
        # independent index-mapped oracle
        h, w, d = image.shape
        idx = [np.arange(n) for n in (h, w, d)]
        mapped = [ix[::-1] if f else ix for ix, f in zip(idx, flips)]
        for _ in range(50):
            x, y, z = gen.integers(0, h), gen.integers(0, w), gen.integers(0, d)
            assert out_img[x, y, z] == image[mapped[0][x], mapped[1][y], mapped[2][z]]
            assert out_lab[x, y, z] == labels[mapped[0][x], mapped[1][y], mapped[2][z]]
        np.testing.assert_array_equal(out_lab, (out_img > 0).astype(np.int64))

    def test_noise_scales_with_intensity_range(self):
        data = np.zeros((16, 16, 8))
        data[0, 0, 0] = 10.0  # range = 10
        out = weak_perturb(data, rng(3), sigma_scale=0.05, flips=(False, False, False))
        resid = out - data
        assert 0.3 < resid.std() < 0.7  # sigma = 0.5

    def test_deterministic_per_seed(self):
        image = vol(4)
        a = weak_perturb(image, rng(42))
        b = weak_perturb(image, rng(42))
        assert a.dtype == np.float64
        np.testing.assert_array_equal(a, b)

    def test_flip_probability_half(self):
        gen = rng(5)
        flips = np.array([sample_flips(gen) for _ in range(2000)])
        assert abs(flips.mean() - 0.5) < 0.03


class TestCutmix:
    def labeled_pair(self, seed, dims=(8, 8, 4)):
        image = vol(seed, dims)
        return image, (image > 0).astype(np.int64)

    def test_full_box_returns_donor(self):
        rec, don = self.labeled_pair(0), self.labeled_pair(1)
        out_img, out_lab = cutmix_with_box(rec, don, Box((0, 0, 0), (8, 8, 4)))
        np.testing.assert_array_equal(out_img, don[0])
        np.testing.assert_array_equal(out_lab, don[1])

    def test_empty_box_returns_recipient(self):
        rec, don = self.labeled_pair(2), self.labeled_pair(3)
        out_img, out_lab = cutmix_with_box(rec, don, Box((0, 0, 0), (0, 0, 0)))
        np.testing.assert_array_equal(out_img, rec[0])
        np.testing.assert_array_equal(out_lab, rec[1])
        assert out_img is not rec[0] and out_lab is not rec[1]

    def test_random_box_matches_select_oracle(self):
        gen = rng(6)
        for _ in range(10):
            rec, don = self.labeled_pair(gen.integers(100)), self.labeled_pair(gen.integers(100))
            box = sample_box(rec[0].shape, gen)
            out_img, out_lab = cutmix_with_box(rec, don, box)
            inside = np.zeros((8, 8, 4), dtype=bool)
            inside[box.slices] = True
            np.testing.assert_array_equal(out_img[inside], don[0][inside])
            np.testing.assert_array_equal(out_img[~inside], rec[0][~inside])
            np.testing.assert_array_equal(out_lab[inside], don[1][inside])
            np.testing.assert_array_equal(out_lab[~inside], rec[1][~inside])

    def test_image_and_label_share_the_box(self):
        gen = rng(7)
        rec, don = self.labeled_pair(8), self.labeled_pair(9)
        out_img, out_lab = cutmix_with_box(rec, don, sample_box(rec[0].shape, gen))
        # labels were derived from sign(image) on both sides, so the composed
        # pair must still satisfy that relation voxelwise
        np.testing.assert_array_equal(out_lab, (out_img > 0).astype(np.int64))

    def test_box_side_bounds(self):
        gen = rng(8)
        for _ in range(200):
            box = sample_box((32, 32, 16), gen)
            for ext, side, corner in zip((32, 32, 16), box.size, box.corner):
                assert -(-ext // 4) <= side <= ext // 2
                assert 0 <= corner <= ext - side

    def test_dim_mismatch_rejected(self):
        rec = self.labeled_pair(10)
        don = self.labeled_pair(11, dims=(8, 8, 8))
        with pytest.raises(ValueError):
            cutmix_with_box(rec, don, sample_box(rec[0].shape, rng(0)))
        with pytest.raises(ValueError):
            cutmix_with_box(rec, (don[0][:, :, :4], don[1]), sample_box(rec[0].shape, rng(0)))

    def test_deterministic_per_seed(self):
        rec, don = self.labeled_pair(12), self.labeled_pair(13)
        box_a, box_b = sample_box(rec[0].shape, rng(99)), sample_box(rec[0].shape, rng(99))
        assert box_a == box_b
        a = cutmix_with_box(rec, don, box_a)
        b = cutmix_with_box(rec, don, box_b)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
