"""Synthetic volumes, single-slice annotations, and a registration surrogate.

Each case is one soft-edged ellipsoid on a Gaussian-noise background; the
hidden ground truth is the 0.5 level set of the clean field, which for a
sigmoid edge profile is exactly the ellipsoid surface. Labeled cases carry
only the middle slice k = D//2 of the truth as their annotation.

A generated case keeps the ellipsoid it was drawn from, not its truth: the
truth is built from that shape on first read and kept, so a training set,
whose truths nothing reads, holds none. A case read from disk or built
with `truth=` keeps the truth it was given.

The registration surrogate stands in for a slice-propagation registration
model: it reproduces the true cross-section contour per slice, perturbed
by smooth random radial jitter whose magnitude grows with distance from
the annotated slice, sigma * (1 + beta * |d - k|) voxels. With sigma = 0
it is exact. The default sigma is calibrated so the surrogate's mean DSC
against the hidden truth lands in the 0.60-0.70 band.

A case is drawn in float64 and held as a float32 `Volume`. A dataset
directory holds two named-array files (`grids.save_arrays`): `data.arr`,
all that training reads, with the registration label of every labeled
case, and `truth.arr`, every case's truth, read only to score. Images are
stored as float32 and label maps as one byte per voxel, as they are held,
and `load_dataset` reads nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import FormatError
from .grids import MAX_CLASSES, LabelMap, Volume, load_arrays, save_arrays, valid_n_classes

DATA_NAME = "data.arr"
TRUTH_NAME = "truth.arr"

# Calibrated by calibrate_registration_sigma() in tests/test_synthdata.py on
# the default 32x32x16 generator so that mean DSC(reg, truth) over 20 cases
# sits mid-band (0.641-0.687 over dataset seeds 1-5, attach_registration's seeds).
# A re-bisection with those seeds reads 3.26; 3.1 is kept until the
# surrogate itself is next recalibrated.
DEFAULT_REG_SIGMA = 3.1
DEFAULT_REG_BETA = 0.15

_JITTER_MODES = 4


@dataclass(frozen=True)
class EllipsoidParams:
    center: tuple[float, float, float]
    semi: tuple[float, float, float]
    edge_width: float


class _Truth:
    """A case's hidden `truth` field: the label map it was built or set with,
    else `truth_labels` of its drawn shape, built on first read and kept;
    None for a case with neither. Setting None drops a kept truth.

    On the class it reads None, which a dataclass takes as the field's
    default, so `truth=` stays an optional keyword of the case."""

    def __get__(self, case, owner) -> LabelMap | None:
        if case is None:
            return None
        if case._truth is None and case.shape is not None:
            case._truth = truth_labels(case.image.dims, case.shape)
        return case._truth

    def __set__(self, case, truth: LabelMap | None) -> None:
        case._truth = truth


@dataclass(eq=False)
class LabeledCase:
    """A case with one annotated slice. Its truth is hidden, never read by
    training; a generated case builds it from `shape` on first read and
    keeps it."""

    case_id: str
    image: Volume
    k: int
    slice_labels: np.ndarray               # (H, W) uint8 annotation of slice k
    reg_label: LabelMap | None = None      # registration pseudo label
    truth: LabelMap | None = _Truth()
    shape: EllipsoidParams | None = None   # hidden; drives the surrogate and the truth


@dataclass(eq=False)
class UnlabeledCase:
    """A case without annotation. Its truth is hidden, as on a labeled case:
    a generated case builds it from `shape` on first read and keeps it."""

    case_id: str
    image: Volume
    truth: LabelMap | None = _Truth()
    shape: EllipsoidParams | None = None   # hidden; drives the truth


@dataclass(eq=False)
class Dataset:
    labeled: list[LabeledCase]
    unlabeled: list[UnlabeledCase]
    dims: tuple[int, int, int]
    n_classes: int = 2

    @property
    def n_labeled(self) -> int:
        return len(self.labeled)

    @property
    def n_unlabeled(self) -> int:
        return len(self.unlabeled)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _ellipsoid_r_sq(dims, params: EllipsoidParams) -> np.ndarray:
    h, w, d = dims
    hh = (np.arange(h) + 0.5 - params.center[0]) / params.semi[0]
    ww = (np.arange(w) + 0.5 - params.center[1]) / params.semi[1]
    dd = (np.arange(d) + 0.5 - params.center[2]) / params.semi[2]
    return hh[:, None, None] ** 2 + ww[None, :, None] ** 2 + dd[None, None, :] ** 2


def clean_field(dims, params: EllipsoidParams) -> np.ndarray:
    """Soft-edged ellipsoid in [0, 1]; exactly 0.5 on the ellipsoid surface."""
    r = np.sqrt(_ellipsoid_r_sq(dims, params))
    return 1.0 / (1.0 + np.exp(-(1.0 - r) / params.edge_width))


def truth_labels(dims, params: EllipsoidParams) -> LabelMap:
    return LabelMap((_ellipsoid_r_sq(dims, params) < 1.0).astype(np.uint8), 2)


def _draw_case(rng, dims, radius_range, center_jitter, edge_width, noise_amp):
    ext = np.asarray(dims, dtype=np.float64)
    center = tuple(ext * (0.5 + rng.uniform(-center_jitter, center_jitter, size=3)))
    semi = tuple(ext * rng.uniform(radius_range[0], radius_range[1], size=3))
    params = EllipsoidParams(center, semi, edge_width)
    image = clean_field(dims, params)
    if noise_amp > 0:
        image = image + noise_amp * rng.standard_normal(dims)
    return Volume(image), params


def valid_dims(dims) -> bool:
    """Whether datasets and configs may have these (H, W, D): each even and
    >= 4. The model itself takes any even dims >= 2 (`network._check_dims`)."""
    return len(dims) == 3 and all(v >= 4 and v % 2 == 0 for v in dims)


def generate_dataset(
    n_labeled: int,
    n_unlabeled: int,
    dims=(32, 32, 16),
    seed: int = 0,
    noise_amp: float = 0.5,
    radius_range=(0.24, 0.40),
    center_jitter: float = 0.08,
    edge_width: float = 0.08,
) -> Dataset:
    """Seeded synthetic dataset; the annotated slice is always k = D//2.
    Every case keeps its drawn shape and no truth; a labeled case's slice
    labels are copied out of a truth it does not keep."""
    if not valid_dims(dims):
        raise ValueError(f"dims {dims} must be >= 4 and divisible by 2")
    if n_labeled < 1:
        raise ValueError(f"n_labeled is {n_labeled}; need at least one labeled case")
    if n_unlabeled < 0:
        raise ValueError(f"n_unlabeled is {n_unlabeled}; it cannot be negative")
    children = np.random.SeedSequence(seed).spawn(n_labeled + n_unlabeled)
    k = dims[2] // 2
    labeled, unlabeled = [], []
    for i in range(n_labeled):
        rng = np.random.default_rng(children[i])
        image, params = _draw_case(rng, dims, radius_range, center_jitter, edge_width, noise_amp)
        labeled.append(LabeledCase(
            case_id=f"case_{i:04d}", image=image, k=k,
            slice_labels=truth_labels(dims, params).data[:, :, k].copy(), shape=params,
        ))
    for j in range(n_unlabeled):
        rng = np.random.default_rng(children[n_labeled + j])
        image, params = _draw_case(rng, dims, radius_range, center_jitter, edge_width, noise_amp)
        unlabeled.append(UnlabeledCase(
            case_id=f"case_{n_labeled + j:04d}", image=image, shape=params,
        ))
    return Dataset(labeled, unlabeled, tuple(dims))


# ---------------------------------------------------------------------------
# registration surrogate
# ---------------------------------------------------------------------------

def register_surrogate(
    case: LabeledCase,
    sigma: float = DEFAULT_REG_SIGMA,
    beta: float = DEFAULT_REG_BETA,
    seed: int = 0,
) -> LabelMap:
    """Slice-wise propagation of the annotated contour with radial jitter.

    Slice d gets the true cross-section contour displaced radially by
    sigma * (1 + beta * |d - k|) * g(theta, d) voxels, where g is a unit-
    variance low-order Fourier field that drifts smoothly across slices.
    sigma = 0 reproduces the hidden truth exactly.
    """
    if case.shape is None:
        raise ValueError(f"{case.case_id}: no analytic shape; cannot run the surrogate")
    dims = case.image.dims
    h, w, d = dims
    cx, cy, cz = case.shape.center
    sa, sb, sc = case.shape.semi
    k = case.k

    rng = np.random.default_rng(seed)
    coef_cos = rng.standard_normal(_JITTER_MODES)
    coef_sin = rng.standard_normal(_JITTER_MODES)
    drift = rng.normal(0.0, 0.25, size=_JITTER_MODES)

    hh = np.arange(h) + 0.5
    ww = np.arange(w) + 0.5
    out = np.zeros(dims, dtype=np.uint8)
    modes = np.arange(1, _JITTER_MODES + 1)
    for di in range(d):
        q_sq = 1.0 - ((di + 0.5 - cz) / sc) ** 2
        if q_sq <= 1e-9:
            continue
        q = math.sqrt(q_sq)
        a_d, b_d = sa * q, sb * q
        dx = (hh[:, None] - cx) / a_d
        dy = (ww[None, :] - cy) / b_d
        f = np.sqrt(dx * dx + dy * dy)
        theta = np.arctan2(dy, dx)
        radius_px = np.sqrt((a_d * np.cos(theta)) ** 2 + (b_d * np.sin(theta)) ** 2)
        s = abs(di - k)
        phase = theta[:, :, None] * modes + drift * (di - k)
        g = (
            coef_cos * np.cos(phase) + coef_sin * np.sin(phase)
        ).sum(axis=2) / math.sqrt(_JITTER_MODES)
        jitter = sigma * (1.0 + beta * s) * g
        out[:, :, di] = (f - 1.0) * radius_px < jitter
    return LabelMap(out, 2)


def attach_registration(
    dataset: Dataset,
    sigma: float = DEFAULT_REG_SIGMA,
    beta: float = DEFAULT_REG_BETA,
    seed: int = 0,
) -> Dataset:
    """Fill reg_label on every labeled case, one derived seed per case."""
    for i, case in enumerate(dataset.labeled):
        case.reg_label = register_surrogate(case, sigma, beta, seed=seed + 1009 * i)
    return dataset


# ---------------------------------------------------------------------------
# label fusion
# ---------------------------------------------------------------------------

def slice_weight_map(depth: int, k: int, w0: float, half_life: float) -> np.ndarray:
    """Trust in the registration label per depth slice d, a (depth,) vector:
    w0 * 2^(-|d - k| / half_life). It depends on the depth index alone.
    It needs w0 in [0, 1] and half_life > 0, which `TrainConfig.validate`
    enforces on fuse_w0 and fuse_half_life."""
    s = np.abs(np.arange(depth) - k).astype(np.float64)
    return w0 * np.exp2(-s / half_life)


def fuse_with_weight_map(reg: np.ndarray, seg: np.ndarray, trust: np.ndarray) -> np.ndarray:
    """Per-voxel argmax of w*onehot(reg) + (1-w)*onehot(seg), w = trust[d]; ties
    go to the lower class.

    Where reg and seg differ, reg scores w and seg scores 1 - w, so reg wins
    where w > 1 - w, seg where w < 1 - w, and the lower of the two on a tie.
    The trust is per slice, so each slice is copied whole from one of the
    three; for one-byte ids that runs several times faster than `np.where`.
    """
    if reg.shape != seg.shape or trust.shape != reg.shape[-1:]:
        raise ValueError("dims mismatch between reg, seg, and the per-slice trust")
    fused = np.minimum(reg, seg)
    for wins, src in ((trust > 1 - trust, reg), (trust < 1 - trust, seg)):
        fused[..., wins] = src[..., wins]
    return fused


# ---------------------------------------------------------------------------
# on-disk layout
# ---------------------------------------------------------------------------

def save_dataset(dataset: Dataset, out_dir) -> None:
    """Write `data.arr` and `truth.arr` into the directory `out_dir`. Case i
    must be `case_{i:04d}`, every labeled case must carry its registration
    label and every case its truth, which a generated case builds here if
    it was not read before."""
    cases = dataset.labeled + dataset.unlabeled
    if [case.case_id for case in cases] != [f"case_{i:04d}" for i in range(len(cases))]:
        raise ValueError("dataset files hold case_0000, case_0001, ..., labeled cases first")
    if (any(case.reg_label is None for case in dataset.labeled)
            or any(case.truth is None for case in cases)):
        raise ValueError("a labeled case lacks its registration label or a case its truth")
    save_arrays(Path(out_dir) / DATA_NAME, {
        "classes": np.int64(dataset.n_classes),
        "images": np.stack([case.image.data for case in cases]),
        "k": np.array([case.k for case in dataset.labeled], dtype=np.int64),
        "slices": np.stack([case.slice_labels for case in dataset.labeled]),
        "reg": np.stack([case.reg_label.data for case in dataset.labeled]),
    })
    save_arrays(Path(out_dir) / TRUTH_NAME, {"truth": np.stack([c.truth.data for c in cases])})


def load_dataset(in_dir, include_truth: bool = False) -> Dataset:
    """Read a dataset directory; truth.arr is only opened when asked for,
    and then it must be there.

    `data.arr` must hold exactly `classes`, `images`, `k`, `reg` and
    `slices`, each in the one dtype `save_dataset` writes: float32
    `images`, uint8 `slices`, `reg` and `truth`, int64 `classes` and `k`.
    The file arrays are frozen before any case is built, so the volumes and
    label maps are read-only views of them and each payload is held once.
    """
    root = Path(in_dir)
    arrays = load_arrays(root / DATA_NAME)
    if set(arrays) != {"classes", "images", "k", "reg", "slices"}:
        raise FormatError(f"{root}: data.arr holds {sorted(arrays)}")
    if include_truth:
        hidden = load_arrays(root / TRUTH_NAME)
        if set(hidden) != {"truth"}:
            raise FormatError(f"{root}: truth.arr holds {sorted(hidden)}")
        arrays |= hidden
    images, ks = arrays["images"], arrays["k"]
    if images.ndim != 4 or ks.ndim != 1 or len(ks) > len(images):
        raise FormatError(f"{root}: images {images.shape} or k {ks.shape} is misshapen")
    n_labeled, (n_cases, h, w, d) = len(ks), images.shape
    expected = {"classes": ("int64", ()), "images": ("float32", images.shape),
                "k": ("int64", ks.shape), "slices": ("uint8", (n_labeled, h, w)),
                "reg": ("uint8", (n_labeled, h, w, d)), "truth": ("uint8", images.shape)}
    for name, a in arrays.items():
        dtype, shape = expected[name]
        if (a.dtype.name, a.shape) != (dtype, shape):
            raise FormatError(f"{root}: {name} is {a.dtype} {a.shape}, expected {dtype} {shape}")
        a.setflags(write=False)
    if not valid_dims((h, w, d)):
        raise FormatError(f"{root}: image dims {(h, w, d)} must be >= 4 and divisible by 2")
    if ((ks < 0) | (ks >= d)).any():
        raise FormatError(f"{root}: slice indices k={ks.tolist()} outside depth {d}")
    n_classes = int(arrays["classes"])
    if not valid_n_classes(n_classes):
        raise FormatError(f"{root}: classes={n_classes} is outside [2, {MAX_CLASSES}]")

    def each(make, name):
        """make(a) for each case a of arrays[name]; None per case if absent."""
        try:
            return [make(a) for a in arrays[name]] if name in arrays else [None] * n_cases
        except ValueError as e:
            raise FormatError(f"{root}: {e}") from e

    label_map = partial(LabelMap, n_classes=n_classes)
    arrays["slices"] = arrays["slices"][..., None]  # each an (H, W, 1) label map
    slices, reg, truth = (each(label_map, name) for name in ("slices", "reg", "truth"))
    cases = [UnlabeledCase(f"case_{i:04d}", image, truth[i])
             for i, image in enumerate(each(Volume, "images"))]
    labeled = [LabeledCase(case.case_id, case.image, int(k), slices[i].data[:, :, 0],
                           reg[i], case.truth) for i, (case, k) in enumerate(zip(cases, ks))]
    return Dataset(labeled, cases[n_labeled:], (h, w, d), n_classes)
