import struct

import numpy as np
import pytest

from pacedseg.errors import FormatError
from pacedseg.grids import (
    ARRAYS_MAGIC,
    LabelMap,
    Volume,
    downsample_labels_majority,
    downsample_mask,
    downsample_mean,
    load_arrays,
    save_arrays,
)
from pacedseg.metrics import evaluate_case
from pacedseg.network import forward_parts, head_forward, init_params
from pacedseg.synthdata import UnlabeledCase
from pacedseg.training import evaluate_params


def array_file(name: bytes, code: int, shape, payload: bytes, count: int = 1) -> bytes:
    """A named-array file assembled by hand, independently of `save_arrays`."""
    return (ARRAYS_MAGIC + struct.pack("<IH", count, len(name)) + name
            + struct.pack(f"<BB{len(shape)}I", code, len(shape), *shape) + payload)


class TestVolumeIO:
    """Volumes go to disk as named arrays; the codec must give them back bit for bit."""

    def test_roundtrip_zeros(self, tmp_path):
        vol = Volume(np.zeros((2, 2, 2)))
        path = tmp_path / "z.arr"
        save_arrays(path, {"image": vol.data})
        back = Volume(load_arrays(path)["image"])
        assert back.dims == (2, 2, 2)
        np.testing.assert_array_equal(back.data, vol.data)

    def test_roundtrip_linear_index_bytes(self, tmp_path):
        """Byte-compare against an independently assembled buffer."""
        data = np.arange(3 * 4 * 5, dtype=np.float64).reshape(3, 4, 5)
        path = tmp_path / "lin.arr"
        save_arrays(path, {"image": Volume(data).data})  # a volume is float32, dtype code 1
        expected = array_file(b"image", 1, (3, 4, 5), data.astype("<f4").tobytes())
        assert path.read_bytes() == expected
        np.testing.assert_array_equal(load_arrays(path)["image"], data)

    def test_roundtrip_random_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(20):
            dims = tuple(rng.integers(1, 7, size=3))
            arrays = {
                "f8": rng.standard_normal(dims) * 10.0 ** rng.integers(-8, 8),
                "f4": rng.standard_normal(dims).astype(np.float32),
                "i8": rng.integers(-2**62, 2**62, size=dims),
                "scalar": np.float64(rng.standard_normal()),
            }
            path = tmp_path / f"r{i}.arr"
            save_arrays(path, arrays)
            back = load_arrays(path)
            assert list(back) == list(arrays)
            for name, a in arrays.items():
                assert back[name].dtype == a.dtype and back[name].shape == np.shape(a)
                assert back[name].tobytes() == np.ascontiguousarray(a).tobytes()
                assert back[name].flags.writeable

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.arr"
        path.write_bytes(array_file(b"v", 0, (2, 2, 2), np.zeros(7, dtype="<f8").tobytes()))
        with pytest.raises(FormatError, match="truncated array 'v' of shape"):
            load_arrays(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.arr"
        path.write_bytes(b"x" * 64)
        with pytest.raises(FormatError, match="bad magic"):
            load_arrays(path)


class TestArrayFile:
    def test_equal_arrays_give_equal_bytes(self, tmp_path):
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.int64(4)}
        save_arrays(tmp_path / "1.arr", arrays)
        save_arrays(tmp_path / "2.arr", {k: np.array(v, copy=True) for k, v in arrays.items()})
        assert (tmp_path / "1.arr").read_bytes() == (tmp_path / "2.arr").read_bytes()

    def test_non_contiguous_input_is_written_in_c_order(self, tmp_path):
        data = np.arange(24.0).reshape(2, 3, 4)
        save_arrays(tmp_path / "t.arr", {"t": data.transpose(2, 0, 1)})
        np.testing.assert_array_equal(load_arrays(tmp_path / "t.arr")["t"],
                                      data.transpose(2, 0, 1))

    def test_other_dtypes_are_refused(self, tmp_path):
        for a in (np.zeros(2, dtype=bool), np.zeros(2, dtype=np.int32)):
            with pytest.raises(ValueError, match="not f8, f4, i8 or u1"):
                save_arrays(tmp_path / "x.arr", {"x": a})

    @pytest.mark.parametrize("raw, message", [
        (array_file(b"v", 4, (2,), bytes(16)), "unknown dtype code 4"),
        (array_file(b"\xff", 0, (2,), bytes(16)), "undecodable name"),
        (array_file(b"v", 0, (2,), bytes(17)), "1 trailing bytes"),
        (array_file(b"v", 0, (2,), bytes(16), count=2), "truncated name length"),
        (array_file(b"v", 0, (2,), bytes(16), count=2) + struct.pack("<HcBB", 1, b"v", 0, 0)
         + bytes(8), "array 'v' repeats"),
        # a shape of 2**96 float64 values is refused before any allocation
        (array_file(b"v", 0, (2**32 - 1,) * 3, bytes(16)), "truncated array 'v'"),
        (ARRAYS_MAGIC + b"\0\0", "truncated array count"),
        (b"", "truncated magic"),
    ], ids=["dtype_code", "name", "trailing", "count", "repeated_name", "huge_shape",
            "short_header", "empty"])
    def test_malformed_file_raises(self, tmp_path, raw, message):
        path = tmp_path / "bad.arr"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=message):
            load_arrays(path)

    def test_unreadable_path_raises(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            load_arrays(tmp_path)


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

    @pytest.mark.parametrize("dtype", [np.dtype(np.float32),
                                       np.dtype(np.float32).newbyteorder("<")])
    def test_volume_owns_its_data(self, dtype):
        # '<f4' is what `load_arrays` returns; numpy gives a new view of such an
        # array for a float32 request, which must not be shared with the source
        src = np.zeros((2, 2, 2, 2), dtype)
        vol = Volume(src[1])
        src[1] = 1.0
        assert not np.shares_memory(vol.data, src) and vol.data.max() == 0.0

    @pytest.mark.parametrize("make,dtype", [(Volume, np.float32), (LabelMap, np.uint8)])
    def test_only_memory_a_frozen_array_owns_is_shared(self, make, dtype):
        """A read-only view of a writable array, or of a buffer that is not an
        array, is copied: writing the owner leaves the held data unchanged. A
        row of a frozen array is shared."""
        src = np.zeros((2, 2, 2, 2), dtype)
        view = src[1]
        view.setflags(write=False)
        held = make(view).data
        src[1] = 1
        assert not np.shares_memory(held, src) and held.max() == 0
        buf = bytearray(8 * src.itemsize)
        flat = np.frombuffer(buf, dtype)
        flat.setflags(write=False)
        held = make(flat.reshape(2, 2, 2)).data
        buf[:] = b"\x01" * len(buf)
        assert held.max() == 0
        src.setflags(write=False)
        row = make(src[1]).data
        assert np.shares_memory(row, src) and not row.flags.writeable

    def test_volume_holds_float32_narrowed_from_float64(self):
        data = np.random.default_rng(3).standard_normal((3, 4, 5))
        vol = Volume(data)
        assert vol.data.dtype == np.float32 and vol.data.flags.c_contiguous
        assert vol.data.tobytes() == data.astype(np.float32).tobytes()
        assert Volume(vol.data).data.tobytes() == vol.data.tobytes()

    @pytest.mark.parametrize("value", [3.5e38, -1e300, np.inf])
    def test_volume_refuses_values_beyond_float32(self, value):
        data = np.zeros((2, 2, 2))
        data[1, 0, 1] = value
        with pytest.raises(ValueError, match="non-finite values, or values beyond float32"):
            Volume(data)
        data[1, 0, 1] = 3.4e38  # below float32's largest finite value
        assert Volume(data).data[1, 0, 1] == np.float32(3.4e38)

    def test_labelmap_range(self):
        with pytest.raises(ValueError):
            LabelMap(np.full((2, 2, 2), 5), n_classes=2)

    @pytest.mark.parametrize("label,n_classes", [(-1, 2), (2, 2), (256, 256)])
    def test_labelmap_checks_the_range_before_it_narrows(self, label, n_classes):
        # -1 and 256 would wrap to 255 and 0 in one byte
        data = np.zeros((2, 2, 2), dtype=np.int64)
        data[1, 0, 1] = label
        with pytest.raises(ValueError, match="outside"):
            LabelMap(data, n_classes)

    @pytest.mark.parametrize("n_classes", [1, 257])
    def test_labelmap_class_count_fits_a_byte(self, n_classes):
        with pytest.raises(ValueError, match="need 2 to 256 classes"):
            LabelMap(np.zeros((2, 2, 2), dtype=np.int64), n_classes)

    def test_labelmap_holds_one_byte_per_voxel(self):
        data = np.arange(8, dtype=np.int64).reshape(2, 2, 2) * 36  # 0 .. 252
        lm = LabelMap(data, 256)
        assert lm.data.dtype == np.uint8
        np.testing.assert_array_equal(lm.data, data)


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
