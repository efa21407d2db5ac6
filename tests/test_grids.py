import struct

import numpy as np
import pytest

from pacedseg.errors import FormatError
from pacedseg.grids import (
    VOLUME_MAGIC,
    BoolMask,
    LabelMap,
    ProbMap,
    Volume,
    argmax_labels,
    downsample_labels_majority,
    downsample_mask,
    downsample_mean,
    load_volume,
    save_volume,
)


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

    def test_probmap_sum_check(self):
        bad = np.full((2, 2, 2, 2), 0.6)
        with pytest.raises(ValueError):
            ProbMap(bad)

    def test_labelmap_range(self):
        with pytest.raises(ValueError):
            LabelMap(np.full((2, 2, 2), 5), n_classes=2)

    def test_mask_count_cached(self):
        rng = np.random.default_rng(0)
        bits = rng.random((4, 4, 4)) < 0.3
        assert BoolMask(bits).count == int(bits.sum())


class TestDownsampleMask:
    def test_all_true_stays_true(self):
        mask = BoolMask(np.ones((4, 4, 4), dtype=bool))
        out = downsample_mask(mask, (2, 2, 2))
        assert out.count == 8 and out.data.all()

    def test_tie_resolves_true(self):
        bits = np.zeros((2, 2, 2), dtype=bool)
        bits.flat[:4] = True
        out = downsample_mask(BoolMask(bits), (2, 2, 2))
        assert out.dims == (1, 1, 1) and out.data[0, 0, 0]

    def test_matches_popcount_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            bits = rng.random((4, 4, 4)) < rng.uniform(0.2, 0.8)
            out = downsample_mask(BoolMask(bits), (2, 2, 2))
            for i in range(2):
                for j in range(2):
                    for l in range(2):
                        block = bits[2 * i : 2 * i + 2, 2 * j : 2 * j + 2, 2 * l : 2 * l + 2]
                        assert out.data[i, j, l] == (block.sum() >= 4)

    def test_true_outputs_have_majority_sources(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            bits = rng.random((6, 4, 4)) < rng.random()
            out = downsample_mask(BoolMask(bits), (3, 2, 2))
            for i, j, l in np.argwhere(out.data):
                block = bits[3 * i : 3 * i + 3, 2 * j : 2 * j + 2, 2 * l : 2 * l + 2]
                assert block.sum() >= 6  # ceil(12 / 2)

    def test_non_divisible_raises(self):
        with pytest.raises(ValueError):
            downsample_mask(BoolMask(np.ones((3, 4, 4), dtype=bool)), (2, 2, 2))


class TestArgmaxLabels:
    def test_constant_probs(self):
        probs = np.broadcast_to([0.9, 0.1], (2, 2, 2, 2)).copy()
        assert not argmax_labels(ProbMap(probs)).data.any()

    def test_tie_breaks_to_smallest(self):
        probs = np.full((2, 2, 2, 2), 0.5)
        assert not argmax_labels(ProbMap(probs)).data.any()

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(5)
        raw = rng.random((4, 4, 2, 3))
        probs = ProbMap(raw / raw.sum(axis=3, keepdims=True))
        got = argmax_labels(probs)
        for h in range(4):
            for w in range(4):
                for d in range(2):
                    best, best_p = 0, probs.data[h, w, d, 0]
                    for c in range(1, 3):
                        if probs.data[h, w, d, c] > best_p:
                            best, best_p = c, probs.data[h, w, d, c]
                    assert got.data[h, w, d] == best

    def test_invariant_under_positive_rescale(self):
        rng = np.random.default_rng(9)
        raw = rng.random((3, 4, 2, 4)) + 1e-3
        probs = raw / raw.sum(axis=3, keepdims=True)
        scaled = raw * rng.uniform(0.5, 4.0, size=(3, 4, 2, 1))
        scaled /= scaled.sum(axis=3, keepdims=True)
        np.testing.assert_array_equal(
            argmax_labels(ProbMap(probs)).data, argmax_labels(ProbMap(scaled)).data
        )


class TestBlockHelpers:
    def test_majority_labels(self):
        labels = np.zeros((2, 2, 2), dtype=np.int64)
        labels.flat[:4] = 1
        out = downsample_labels_majority(LabelMap(labels, 2), (2, 2, 2))
        assert out.data[0, 0, 0] == 0  # 4-4 tie goes to the smaller class id

    def test_mean_downsample(self):
        vol = Volume(np.arange(8, dtype=np.float64).reshape(2, 2, 2))
        out = downsample_mean(vol, (2, 2, 2))
        assert out.data[0, 0, 0] == pytest.approx(3.5)
