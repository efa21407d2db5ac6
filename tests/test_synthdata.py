import re
import tracemalloc

import numpy as np
import pytest

from oracles import fuse_one_hot

from pacedseg.ablation import dataset_for_seed
from pacedseg.errors import ConfigError, FormatError
from pacedseg.grids import load_arrays, save_arrays
from pacedseg.metrics import evaluate_case
from pacedseg.perturb import apply_flips
from pacedseg.synthdata import (
    DEFAULT_REG_BETA,
    DEFAULT_REG_SIGMA,
    attach_registration,
    clean_field,
    fuse_with_weight_map,
    generate_dataset,
    load_dataset,
    register_surrogate,
    save_dataset,
    slice_weight_map,
)
from pacedseg.training import TrainConfig


# the one dtype per array that `save_dataset` writes, and every dtype `save_arrays` writes
WRITTEN = {"classes": "int64", "images": "float32", "k": "int64", "slices": "uint8",
           "reg": "uint8", "truth": "uint8"}
SAVED = ("float64", "float32", "int64", "uint8")


def slice_dice(a, b):
    na, nb = a.sum(), b.sum()
    if na == 0 and nb == 0:
        return 1.0
    return 2.0 * (a & b).sum() / (na + nb)


class TestGenerator:
    def test_noiseless_image_is_clean_field(self):
        ds = generate_dataset(1, 0, (16, 16, 8), seed=0, noise_amp=0.0)
        case = ds.labeled[0]
        # the field is drawn in float64 and held narrowed to float32
        np.testing.assert_array_equal(
            case.image.data, clean_field((16, 16, 8), case.shape).astype(np.float32)
        )
        # ground truth is the 0.5 level set of the clean field
        np.testing.assert_array_equal(case.truth.data == 1, case.image.data > 0.5)

    def test_same_seed_identical(self):
        a = generate_dataset(2, 3, (16, 16, 8), seed=5)
        b = generate_dataset(2, 3, (16, 16, 8), seed=5)
        for ca, cb in zip(a.labeled, b.labeled):
            np.testing.assert_array_equal(ca.image.data, cb.image.data)
            np.testing.assert_array_equal(ca.truth.data, cb.truth.data)
            assert ca.k == cb.k
        for ca, cb in zip(a.unlabeled, b.unlabeled):
            np.testing.assert_array_equal(ca.image.data, cb.image.data)

    def test_foreground_fraction_band(self):
        ds = generate_dataset(20, 0, (32, 32, 16), seed=3)
        for case in ds.labeled:
            frac = case.truth.data.mean()
            assert 0.05 <= frac <= 0.40, frac

    def test_annotated_slice_is_middle(self):
        ds = generate_dataset(2, 0, (16, 16, 10), seed=1)
        for case in ds.labeled:
            assert case.k == 5
            np.testing.assert_array_equal(case.slice_labels, case.truth.data[:, :, 5])

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(1, 0, (7, 16, 8), seed=0)
        with pytest.raises(ValueError):
            generate_dataset(0, 5, (16, 16, 8), seed=0)


def calibrate_registration_sigma(
    dims=(32, 32, 16),
    n_cases: int = 20,
    target: float = 0.65,
    beta: float = DEFAULT_REG_BETA,
    seed: int = 12345,
    lo: float = 0.0,
    hi: float = 8.0,
    iters: int = 24,
) -> float:
    """Bisect sigma so the surrogate's mean DSC against truth hits `target`,
    with the per-case seeds that `attach_registration` gives a training run."""
    ds = generate_dataset(n_cases, 0, dims, seed=seed)

    def mean_dsc(sigma: float) -> float:
        attach_registration(ds, sigma, beta, seed=seed)
        return float(np.mean([evaluate_case("", c.reg_label, c.truth).dsc for c in ds.labeled]))

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mean_dsc(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestRegistrationSurrogate:
    def test_zero_noise_is_exact(self):
        ds = generate_dataset(5, 0, (32, 32, 16), seed=2)
        for case in ds.labeled:
            reg = register_surrogate(case, sigma=0.0, beta=0.0, seed=9)
            np.testing.assert_array_equal(reg.data, case.truth.data)
            rec = evaluate_case("", reg, case.truth)
            assert (rec.dsc, rec.jaccard) == (1.0, 1.0)

    def test_default_sigma_hits_reported_band(self):
        """Mean DSC over 20 cases must sit in the 0.60-0.70 band."""
        ds = generate_dataset(20, 0, (32, 32, 16), seed=12345)
        attach_registration(ds, DEFAULT_REG_SIGMA, DEFAULT_REG_BETA, seed=12345)
        vals = [evaluate_case("", c.reg_label, c.truth).dsc for c in ds.labeled]
        assert 0.60 <= float(np.mean(vals)) <= 0.70

    def test_calibration_search_lands_on_target(self):
        sigma = calibrate_registration_sigma(n_cases=10, target=0.65, iters=12)
        assert 1.0 < sigma < 6.0

    def test_per_slice_quality_decays_with_distance(self):
        """Mean per-slice DSC, averaged over 20 seeds, is non-increasing in |d - k|."""
        ds = generate_dataset(20, 0, (32, 32, 16), seed=8)
        per_dist = {s: [] for s in range(4)}
        for i, case in enumerate(ds.labeled):
            reg = register_surrogate(case, sigma=1.0, beta=0.5, seed=100 + i)
            k = case.k
            for s in range(4):
                for d in (k - s, k + s):
                    truth_slice = case.truth.data[:, :, d] == 1
                    if truth_slice.sum() == 0:
                        continue
                    per_dist[s].append(slice_dice(reg.data[:, :, d] == 1, truth_slice))
        means = [np.mean(per_dist[s]) for s in range(4)]
        assert all(b <= a + 1e-9 for a, b in zip(means, means[1:])), means

    def test_deterministic_per_seed(self):
        ds = generate_dataset(1, 0, (16, 16, 8), seed=4)
        a = register_surrogate(ds.labeled[0], 2.0, 0.2, seed=7)
        b = register_surrogate(ds.labeled[0], 2.0, 0.2, seed=7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_requires_shape_params(self):
        ds = generate_dataset(1, 0, (16, 16, 8), seed=4)
        ds.labeled[0].shape = None
        with pytest.raises(ValueError):
            register_surrogate(ds.labeled[0])


class TestFusion:
    def make_pair(self, seed=0, dims=(8, 8, 6)):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2, size=dims), rng.integers(0, 2, size=dims)

    def test_full_weight_infinite_half_life_returns_reg(self):
        reg, seg = self.make_pair()
        # half_life = inf: the weight is w0 on every slice
        fused = fuse_with_weight_map(reg, seg, np.full(reg.shape[2], 1.0))
        np.testing.assert_array_equal(fused, reg)

    def test_zero_weight_returns_seg(self):
        reg, seg = self.make_pair(1)
        fused = fuse_with_weight_map(reg, seg, slice_weight_map(reg.shape[2], 3, 0.0, 2.0))
        np.testing.assert_array_equal(fused, seg)

    def test_agreement_is_idempotent_for_any_weight(self):
        reg, seg = self.make_pair(2)
        for w0 in (0.0, 0.3, 0.5, 0.8, 1.0):
            fused = fuse_with_weight_map(reg, seg, slice_weight_map(reg.shape[2], 2, w0, 1.5))
            agree = reg == seg
            np.testing.assert_array_equal(fused[agree], reg[agree])

    def test_weight_decays_monotonically_from_k(self):
        profile = slice_weight_map(10, k=4, w0=0.8, half_life=2.0)
        assert profile.shape == (10,)
        assert profile[4] == pytest.approx(0.8)
        assert profile[6] == pytest.approx(0.4)  # one half-life away
        for d in range(4, 9):
            assert profile[d + 1] <= profile[d]
        for d in range(0, 4):
            assert profile[d] <= profile[d + 1]

    def test_dim_mismatch_rejected(self):
        reg, _ = self.make_pair(4)
        seg = np.zeros((4, 4, 4), dtype=np.int64)
        with pytest.raises(ValueError):
            fuse_with_weight_map(reg, seg, slice_weight_map(reg.shape[2], 0, 0.5, 1.0))
        with pytest.raises(ValueError):
            fuse_with_weight_map(reg, reg, slice_weight_map(4, 0, 0.5, 1.0))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_matches_one_hot_argmax(self, n_classes, dtype):
        rng = np.random.default_rng(n_classes)
        dims = (5, 4, 8)
        reg, seg = rng.integers(0, n_classes, size=(2, *dims)).astype(dtype)
        trust = rng.random(dims[2])
        trust[[1, 3, 6]] = 0.5, 0.0, 1.0    # an exact tie goes to the lower class
        full = np.broadcast_to(trust, dims)
        fused = fuse_with_weight_map(reg, seg, trust)
        assert fused.dtype == dtype
        np.testing.assert_array_equal(fused, fuse_one_hot(reg, seg, full, n_classes))
        # a depth flip reverses the trust vector, as the flipped full map
        flips = (True, False, True)
        reg_f, seg_f = apply_flips(reg, flips), apply_flips(seg, flips)
        np.testing.assert_array_equal(fuse_with_weight_map(reg_f, seg_f, trust[::-1]),
                                      fuse_one_hot(reg_f, seg_f, apply_flips(full, flips),
                                                   n_classes))


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        ds = generate_dataset(2, 2, (16, 16, 8), seed=6)
        attach_registration(ds, sigma=2.0, beta=0.1, seed=6)
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path, include_truth=True)
        assert back.dims == (16, 16, 8) and back.n_classes == 2
        assert back.n_labeled == 2 and back.n_unlabeled == 2
        for orig, got in zip(ds.labeled, back.labeled):
            np.testing.assert_array_equal(orig.image.data, got.image.data)
            np.testing.assert_array_equal(orig.slice_labels, got.slice_labels)
            np.testing.assert_array_equal(orig.reg_label.data, got.reg_label.data)
            np.testing.assert_array_equal(orig.truth.data, got.truth.data)
            assert orig.k == got.k

    def test_training_reader_never_touches_truth(self, tmp_path):
        ds = generate_dataset(1, 1, (16, 16, 8), seed=7)
        attach_registration(ds, seed=7)
        save_dataset(ds, tmp_path)
        (tmp_path / "truth.arr").unlink()
        back = load_dataset(tmp_path, include_truth=False)
        assert back.labeled[0].truth is None
        assert back.unlabeled[0].truth is None
        with pytest.raises(FormatError, match="cannot read .*truth.arr"):
            load_dataset(tmp_path, include_truth=True)

    def test_every_directory_holds_registration_labels_and_truths(self, tmp_path):
        ds = attach_registration(generate_dataset(2, 1, (8, 8, 4), seed=3), seed=3)
        save_dataset(ds, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.arr", "truth.arr"]
        assert set(load_arrays(tmp_path / "data.arr")) == {"classes", "images", "k", "reg",
                                                            "slices"}
        back = load_dataset(tmp_path, include_truth=True)
        assert [c.case_id for c in back.labeled + back.unlabeled] == [
            "case_0000", "case_0001", "case_0002"]
        assert all(c.reg_label is not None and c.truth is not None for c in back.labeled)
        np.testing.assert_array_equal(back.unlabeled[0].image.data, ds.unlabeled[0].image.data)

    @pytest.mark.parametrize("include_truth", [False, True], ids=["data", "data_and_truth"])
    def test_data_without_registration_is_a_format_error(self, tmp_path, include_truth):
        save_dataset(attach_registration(generate_dataset(2, 1, (8, 8, 4), seed=5), seed=5),
                     tmp_path)
        arrays = load_arrays(tmp_path / "data.arr")
        del arrays["reg"]
        save_arrays(tmp_path / "data.arr", arrays)
        message = "data.arr holds ['classes', 'images', 'k', 'slices']"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_dataset(tmp_path, include_truth=include_truth)

    def test_images_load_as_the_float32_arrays_written(self, tmp_path):
        ds = attach_registration(generate_dataset(2, 1, (8, 8, 4), seed=4), seed=4)
        save_dataset(ds, tmp_path)
        arrays = load_arrays(tmp_path / "data.arr")
        images = np.random.default_rng(0).standard_normal(arrays["images"].shape)
        arrays["images"] = images.astype(np.float32)
        save_arrays(tmp_path / "data.arr", arrays)
        back = load_dataset(tmp_path, include_truth=True)
        for got, want in zip(back.labeled + back.unlabeled, arrays["images"]):
            assert got.image.data.dtype == np.float32
            assert got.image.data.tobytes() == want.tobytes()
        np.testing.assert_array_equal(back.unlabeled[0].truth.data, ds.unlabeled[0].truth.data)

    @pytest.mark.parametrize("name,dtype", [
        (name, dtype) for name, written in WRITTEN.items() for dtype in SAVED if dtype != written])
    def test_every_other_dtype_is_a_format_error(self, tmp_path, name, dtype):
        """An array in any dtype but the one `save_dataset` writes is refused
        by name, float64 images and int64 class ids included."""
        save_dataset(attach_registration(generate_dataset(2, 1, (8, 8, 4), seed=5), seed=5),
                     tmp_path)
        path = tmp_path / ("truth.arr" if name == "truth" else "data.arr")
        arrays = load_arrays(path)
        arrays[name] = arrays[name].astype(dtype)
        save_arrays(path, arrays)
        shape = arrays[name].shape
        message = f"{name} is {dtype} {shape}, expected {WRITTEN[name]} {shape}"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_dataset(tmp_path, include_truth=True)

    def test_equal_datasets_give_equal_bytes(self, tmp_path):
        for name in ("a", "b"):
            ds = attach_registration(generate_dataset(2, 2, (8, 8, 4), seed=5), seed=5)
            (tmp_path / name).mkdir()
            save_dataset(ds, tmp_path / name)
        for fname in ("data.arr", "truth.arr"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda ds: setattr(ds.unlabeled[0], "case_id", "scan_7"), "case_0000, case_0001"),
        (lambda ds: setattr(ds.labeled[1], "reg_label", None), "its registration label"),
        (lambda ds: setattr(ds.unlabeled[1], "truth", None), "a case its truth"),
        (lambda ds: [setattr(case, "reg_label", None) for case in ds.labeled],
         "its registration label"),
        (lambda ds: [setattr(case, "truth", None) for case in ds.labeled + ds.unlabeled],
         "a case its truth"),
    ], ids=["case_id", "partial_reg", "partial_truth", "no_reg", "no_truth"])
    def test_save_refuses_what_the_files_cannot_hold(self, tmp_path, edit, message):
        """Every labeled case carries its registration label and every case
        its truth, none of them or only some alike."""
        ds = attach_registration(generate_dataset(2, 2, (8, 8, 4), seed=5), seed=5)
        edit(ds)
        with pytest.raises(ValueError, match=message):
            save_dataset(ds, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_labels_are_one_byte_in_memory_and_on_disk(self, tmp_path):
        ds = attach_registration(generate_dataset(2, 1, (8, 8, 4), seed=5), seed=5)
        case = ds.labeled[0]
        assert {case.truth.data.dtype, case.reg_label.data.dtype,
                case.slice_labels.dtype} == {np.dtype(np.uint8)}
        save_dataset(ds, tmp_path)
        files = load_arrays(tmp_path / "data.arr") | load_arrays(tmp_path / "truth.arr")
        assert {name: a.dtype.name for name, a in files.items()} == WRITTEN
        assert files["truth"].tobytes() == b"".join(
            case.truth.data.tobytes() for case in ds.labeled + ds.unlabeled)
        back = load_dataset(tmp_path, include_truth=True)
        assert back.labeled[0].reg_label.data.dtype == np.uint8

    @pytest.mark.parametrize("include_truth", [False, True], ids=["data", "data_and_truth"])
    def test_loading_holds_each_payload_once(self, tmp_path, include_truth):
        """Each payload is read once into its own array, which is frozen, and
        every volume and label map is a view of it. Copying each image out of
        the file's array peaked at 10.81 MB traced for 5.56 MB held."""
        save_dataset(dataset_for_seed(TrainConfig(), 1), tmp_path)
        tracemalloc.start()
        try:
            ds = load_dataset(tmp_path, include_truth=include_truth)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cases = ds.labeled + ds.unlabeled
        assert all((case.truth is not None) == include_truth for case in cases)
        assert all(not case.image.data.flags.writeable for case in cases)
        assert peak <= 1.05 * held

    @pytest.mark.parametrize("fname,name,edit,message", [
        ("data.arr", "reg", lambda a: np.where(a == 1, 2, a).astype(np.uint8), "labels outside"),
        ("truth.arr", "truth", lambda a: np.where(a == 1, 255, a).astype(np.uint8),
         "labels outside"),
        ("data.arr", "slices", lambda a: np.where(a == 0, 255, a).astype(np.uint8),
         "labels outside"),
        ("data.arr", "classes", lambda c: np.int64(257), "classes=257 is outside [2, 256]"),
    ], ids=["reg_2", "truth_255", "slices_255", "classes_257"])
    def test_labels_outside_the_class_count_are_format_errors(self, tmp_path, fname, name,
                                                              edit, message):
        save_dataset(attach_registration(generate_dataset(2, 1, (8, 8, 4), seed=5), seed=5),
                     tmp_path)
        arrays = load_arrays(tmp_path / fname)
        arrays[name] = edit(arrays[name])
        save_arrays(tmp_path / fname, arrays)
        with pytest.raises(FormatError, match=re.escape(message)):
            load_dataset(tmp_path, include_truth=True)

    def test_default_dataset_holds_about_five_bytes_per_case_voxel(self):
        """float32 images (4 bytes) and uint8 truths (1) on every case, plus
        uint8 registration labels on the labeled fifth: 5.2 bytes per
        case-voxel before object overheads. With float64 images it was 9.2,
        and with int64 labels as well 17.6."""
        cfg = TrainConfig()
        tracemalloc.start()
        try:
            ds = dataset_for_seed(cfg, 1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        voxels = (ds.n_labeled + ds.n_unlabeled) * np.prod(ds.dims)
        assert held / voxels <= 6.0
        cases = ds.labeled + ds.unlabeled
        assert sum(case.image.data.nbytes for case in cases) == 4 * voxels

    def test_the_eval_seed_draws_the_eval_cases(self):
        """Case i of a seed is drawn alike for any case count, so a dataset on
        the eval seed would open with the eval cases; `dataset_for_seed`
        refuses that seed, and another seed shares no image with them."""
        cfg = TrainConfig(dim_h=8, dim_w=8, dim_d=4, n_labeled=3, n_unlabeled=2, n_eval=2)
        options = cfg.generator_options
        eval_set = generate_dataset(cfg.n_eval, 0, cfg.dims, seed=cfg.eval_seed,
                                    **options).labeled
        overlap = generate_dataset(cfg.n_labeled, cfg.n_unlabeled, cfg.dims,
                                   seed=cfg.eval_seed, **options)
        for case, train_case in zip(eval_set, overlap.labeled):
            assert case.image.data.tobytes() == train_case.image.data.tobytes()
        with pytest.raises(ConfigError, match="seed 777 is eval_seed"):
            dataset_for_seed(cfg, cfg.eval_seed)
        other = dataset_for_seed(cfg, cfg.eval_seed + 1)
        assert not any(np.array_equal(case.image.data, train_case.image.data)
                       for case in eval_set for train_case in other.labeled + other.unlabeled)

    def test_attach_registration_deterministic(self):
        a = generate_dataset(3, 0, (16, 16, 8), seed=8)
        b = generate_dataset(3, 0, (16, 16, 8), seed=8)
        attach_registration(a, seed=11)
        attach_registration(b, seed=11)
        for ca, cb in zip(a.labeled, b.labeled):
            np.testing.assert_array_equal(ca.reg_label.data, cb.reg_label.data)
