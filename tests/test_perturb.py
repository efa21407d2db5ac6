import numpy as np
import pytest

from pacedseg.grids import LabelMap, Volume
from pacedseg.perturb import (
    Box,
    apply_flips,
    cutmix_with_box,
    sample_box,
    sample_flips,
    weak_perturb,
)


def vol(seed=0, dims=(8, 8, 4)):
    return Volume(np.random.default_rng(seed).standard_normal(dims))


class TestWeakPerturb:
    def test_no_flip_no_noise_is_identity(self):
        image = vol(0)
        out, _, flips = weak_perturb(image, 1, sigma_scale=0.0, flips=(False, False, False))
        assert flips == (False, False, False)
        np.testing.assert_array_equal(out.data, image.data)

    def test_double_flip_is_involution(self):
        image = vol(1)
        once = apply_flips(image.data, (True, False, True))
        twice = apply_flips(once, (True, False, True))
        np.testing.assert_array_equal(twice, image.data)

    def test_labels_ride_along_with_the_image(self):
        """Voxelwise image/label correspondence survives the flip."""
        rng = np.random.default_rng(2)
        image = vol(2)
        labels = LabelMap((image.data > 0).astype(np.int64), 2)
        out_img, (out_lab,), flips = weak_perturb(image, rng, labels=(labels,), sigma_scale=0.0)
        # independent index-mapped oracle
        h, w, d = image.dims
        idx = [np.arange(n) for n in (h, w, d)]
        mapped = [ix[::-1] if f else ix for ix, f in zip(idx, flips)]
        for _ in range(50):
            x, y, z = rng.integers(0, h), rng.integers(0, w), rng.integers(0, d)
            assert out_img.data[x, y, z] == image.data[mapped[0][x], mapped[1][y], mapped[2][z]]
            assert out_lab.data[x, y, z] == labels.data[mapped[0][x], mapped[1][y], mapped[2][z]]
        np.testing.assert_array_equal(out_lab.data, (out_img.data > 0).astype(np.int64))

    def test_noise_scales_with_intensity_range(self):
        data = np.zeros((16, 16, 8))
        data[0, 0, 0] = 10.0  # range = 10
        image = Volume(data)
        out, _, _ = weak_perturb(image, 3, sigma_scale=0.05, flips=(False, False, False))
        resid = out.data - data
        assert 0.3 < resid.std() < 0.7  # sigma = 0.5

    def test_deterministic_per_seed(self):
        image = vol(4)
        a = weak_perturb(image, 42)[0]
        b = weak_perturb(image, 42)[0]
        np.testing.assert_array_equal(a.data, b.data)

    def test_flip_probability_half(self):
        rng = np.random.default_rng(5)
        flips = np.array([sample_flips(rng) for _ in range(2000)])
        assert abs(flips.mean() - 0.5) < 0.03


class TestCutmix:
    def labeled_pair(self, seed, dims=(8, 8, 4)):
        image = vol(seed, dims)
        labels = LabelMap((image.data > 0).astype(np.int64), 2)
        return image, labels

    def test_full_box_returns_donor(self):
        rec, don = self.labeled_pair(0), self.labeled_pair(1)
        out_img, out_lab, _ = cutmix_with_box(rec, don, Box((0, 0, 0), (8, 8, 4)))
        np.testing.assert_array_equal(out_img.data, don[0].data)
        np.testing.assert_array_equal(out_lab.data, don[1].data)

    def test_empty_box_returns_recipient(self):
        rec, don = self.labeled_pair(2), self.labeled_pair(3)
        out_img, out_lab, _ = cutmix_with_box(rec, don, Box((0, 0, 0), (0, 0, 0)))
        np.testing.assert_array_equal(out_img.data, rec[0].data)
        np.testing.assert_array_equal(out_lab.data, rec[1].data)

    def test_random_box_matches_select_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rec, don = self.labeled_pair(rng.integers(100)), self.labeled_pair(rng.integers(100))
            out_img, out_lab, box = cutmix_with_box(rec, don, sample_box(rec[0].dims, rng))
            inside = np.zeros((8, 8, 4), dtype=bool)
            inside[box.slices] = True
            np.testing.assert_array_equal(out_img.data[inside], don[0].data[inside])
            np.testing.assert_array_equal(out_img.data[~inside], rec[0].data[~inside])
            np.testing.assert_array_equal(out_lab.data[inside], don[1].data[inside])
            np.testing.assert_array_equal(out_lab.data[~inside], rec[1].data[~inside])

    def test_image_and_label_share_the_box(self):
        rng = np.random.default_rng(7)
        rec, don = self.labeled_pair(8), self.labeled_pair(9)
        out_img, out_lab, _ = cutmix_with_box(rec, don, sample_box(rec[0].dims, rng))
        # labels were derived from sign(image) on both sides, so the composed
        # pair must still satisfy that relation voxelwise
        np.testing.assert_array_equal(out_lab.data, (out_img.data > 0).astype(np.int64))

    def test_box_side_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            box = sample_box((32, 32, 16), rng)
            for ext, side, corner in zip((32, 32, 16), box.size, box.corner):
                assert -(-ext // 4) <= side <= ext // 2
                assert 0 <= corner <= ext - side

    def test_dim_mismatch_rejected(self):
        rec = self.labeled_pair(10)
        don = self.labeled_pair(11, dims=(8, 8, 8))
        with pytest.raises(ValueError):
            cutmix_with_box(rec, don, sample_box(rec[0].dims, 0))

    def test_deterministic_per_seed(self):
        rec, don = self.labeled_pair(12), self.labeled_pair(13)
        a = cutmix_with_box(rec, don, sample_box(rec[0].dims, 99))
        b = cutmix_with_box(rec, don, sample_box(rec[0].dims, 99))
        np.testing.assert_array_equal(a[0].data, b[0].data)
        assert a[2] == b[2]
