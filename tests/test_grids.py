import struct

import numpy as np
import pytest

from pacedseg.errors import FormatError
from pacedseg.grids import (
    VOLUME_MAGIC,
    LabelMap,
    Volume,
    downsample_labels_majority,
    downsample_mask,
    downsample_mean,
    load_volume,
    save_volume,
)
from pacedseg.metrics import evaluate_case
from pacedseg.network import forward_parts, head_forward, init_params
from pacedseg.synthdata import UnlabeledCase
from pacedseg.training import evaluate_params


class TestVolumeIO:
    def test_roundtrip_zeros(self, tmp_path):
        vol = Volume(np.zeros((2, 2, 2)))
        path = tmp_path / "z.vol"
        save_volume(vol, path)
        back = load_volume(path)
        assert back.dims == (2, 2, 2)
        np.testing.assert_array_equal(back.data, vol.data)

    def test_roundtrip_linear_index_bytes(self, tmp_path):
        """Byte-compare against an independently assembled buffer."""
        data = np.arange(3 * 4 * 5, dtype=np.float64).reshape(3, 4, 5)
        path = tmp_path / "lin.vol"
        save_volume(Volume(data), path)
        expected = (
            VOLUME_MAGIC
            + struct.pack("<4I", 3, 4, 5, 1)
            + data.astype("<f8").tobytes()
        )
        assert path.read_bytes() == expected
        np.testing.assert_array_equal(load_volume(path).data, data)

    def test_roundtrip_random_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(20):
            dims = tuple(rng.integers(1, 7, size=3))
            data = rng.standard_normal(dims) * 10.0 ** rng.integers(-8, 8)
            path = tmp_path / f"r{i}.vol"
            save_volume(Volume(data), path)
            back = load_volume(path)
            assert back.data.tobytes() == np.ascontiguousarray(data).tobytes()

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.vol"
        payload = np.zeros(7, dtype="<f8").tobytes()
        path.write_bytes(VOLUME_MAGIC + struct.pack("<4I", 2, 2, 2, 1) + payload)
        with pytest.raises(FormatError):
            load_volume(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.vol"
        path.write_bytes(b"x" * 64)
        with pytest.raises(FormatError):
            load_volume(path)


class TestTypes:
    def test_volume_rejects_nan(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Volume(data)

    def test_volume_immutable(self):
        vol = Volume(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1.0

    def test_labelmap_range(self):
        with pytest.raises(ValueError):
            LabelMap(np.full((2, 2, 2), 5), n_classes=2)


class TestDownsampleMask:
    def test_all_true_stays_true(self):
        out = downsample_mask(np.ones((4, 4, 4), dtype=bool), (2, 2, 2))
        assert out.dtype == bool and out.shape == (2, 2, 2) and out.all()

    def test_tie_resolves_true(self):
        bits = np.zeros((2, 2, 2), dtype=bool)
        bits.flat[:4] = True
        out = downsample_mask(bits, (2, 2, 2))
        assert out.shape == (1, 1, 1) and out[0, 0, 0]

    def test_matches_popcount_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            bits = rng.random((4, 4, 4)) < rng.uniform(0.2, 0.8)
            out = downsample_mask(bits, (2, 2, 2))
            for i in range(2):
                for j in range(2):
                    for l in range(2):
                        block = bits[2 * i : 2 * i + 2, 2 * j : 2 * j + 2, 2 * l : 2 * l + 2]
                        assert out[i, j, l] == (block.sum() >= 4)

    def test_true_outputs_have_majority_sources(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            bits = rng.random((6, 4, 4)) < rng.random()
            out = downsample_mask(bits, (3, 2, 2))
            for i, j, l in np.argwhere(out):
                block = bits[3 * i : 3 * i + 3, 2 * j : 2 * j + 2, 2 * l : 2 * l + 2]
                assert block.sum() >= 6  # ceil(12 / 2)

    def test_non_divisible_raises(self):
        with pytest.raises(ValueError):
            downsample_mask(np.ones((3, 4, 4), dtype=bool), (2, 2, 2))


class TestArgmaxLabels:
    """`evaluate_params` hardens probabilities by argmax, ties to the smallest id.

    The head is set by hand so the probabilities are known; the scored
    record shows which voxels the hardened prediction put in the foreground.
    """

    DIMS = (4, 4, 2)

    def params(self, n_classes=2, seed=0):
        return init_params(n_classes=n_classes, widths=(2, 2, 2, 2), embed_dim=2,
                           seed=seed, dtype=np.float64)

    def case(self, truth, seed=1):
        image = Volume(np.random.default_rng(seed).standard_normal(self.DIMS))
        return UnlabeledCase("c", image, truth=LabelMap(truth, n_classes=4))

    def constant_head(self, bias):
        params = self.params(n_classes=len(bias))
        params.tensors["seg_w"][:] = 0.0
        params.tensors["seg_b"] = np.asarray(bias, dtype=np.float64)
        return params

    def assert_predicts_background_only(self, params):
        empty = np.zeros(self.DIMS, dtype=np.int64)
        (rec,) = evaluate_params(params, [self.case(empty)], params.n_classes)
        assert rec.dsc == 1.0 and rec.asd is None  # both foregrounds empty
        full = np.ones(self.DIMS, dtype=np.int64)
        (rec,) = evaluate_params(params, [self.case(full)], params.n_classes)
        assert rec.dsc == 0.0

    def test_constant_probs(self):
        self.assert_predicts_background_only(self.constant_head([np.log(0.9), np.log(0.1)]))

    def test_tie_breaks_to_smallest(self):
        self.assert_predicts_background_only(self.constant_head([0.0, 0.0]))
        self.assert_predicts_background_only(self.constant_head([0.0, 0.0, 0.0]))

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            params = self.params(n_classes=3, seed=seed)
            case = self.case(rng.integers(0, 3, size=self.DIMS), seed=seed)
            probs = head_forward(params, forward_parts(params, case.image.data)[0])
            pred = np.zeros(self.DIMS, dtype=np.int64)
            for h, w, d in np.ndindex(*self.DIMS):
                best, best_p = 0, probs[h, w, d, 0]
                for c in range(1, 3):
                    if probs[h, w, d, c] > best_p:
                        best, best_p = c, probs[h, w, d, c]
                pred[h, w, d] = best
            expected = evaluate_case(case.case_id, LabelMap(pred, 3), case.truth)
            assert evaluate_params(params, [case], 3) == [expected]

    def test_invariant_under_positive_rescale(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            params = self.params(n_classes=4, seed=seed)
            case = self.case(rng.integers(0, 2, size=self.DIMS), seed=seed)
            scaled = params.copy()
            scaled.tensors["seg_w"] *= 2.0  # doubles every logit exactly
            scaled.tensors["seg_b"] *= 2.0
            assert evaluate_params(params, [case], 4) == evaluate_params(scaled, [case], 4)


class TestBlockHelpers:
    def test_majority_labels(self):
        labels = np.zeros((2, 2, 2), dtype=np.int64)
        labels.flat[:4] = 1
        out = downsample_labels_majority(labels, 2, (2, 2, 2))
        assert out[0, 0, 0] == 0  # 4-4 tie goes to the smaller class id

    def test_mean_downsample(self):
        vol = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        out = downsample_mean(vol, (2, 2, 2))
        assert out[0, 0, 0] == pytest.approx(3.5)
