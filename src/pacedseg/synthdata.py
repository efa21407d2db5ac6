"""Synthetic volumes, single-slice annotations, and a registration surrogate.

Each case is one soft-edged ellipsoid on a Gaussian-noise background; the
hidden ground truth is the 0.5 level set of the clean field, which for a
sigmoid edge profile is exactly the ellipsoid surface. Labeled cases carry
only the middle slice k = D//2 of the truth as their annotation.

The registration surrogate stands in for a slice-propagation registration
model: it reproduces the true cross-section contour per slice, perturbed
by smooth random radial jitter whose magnitude grows with distance from
the annotated slice, sigma * (1 + beta * |d - k|) voxels. With sigma = 0
it is exact. The default sigma is calibrated so the surrogate's mean DSC
against the hidden truth lands in the 0.60-0.70 band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .grids import (
    LabelMap,
    Volume,
    load_labelmap,
    load_volume,
    save_labelmap,
    save_volume,
)
from .metrics import dsc_jaccard

MANIFEST_NAME = "manifest.txt"
MANIFEST_HEADER = "# pacedseg dataset manifest v1"

# Calibrated via calibrate_registration_sigma() on the default 32x32x16
# generator so that mean DSC(reg, truth) over 20 cases sits mid-band
# (0.645-0.682 across dataset seeds).
DEFAULT_REG_SIGMA = 3.1
DEFAULT_REG_BETA = 0.15

_JITTER_MODES = 4


@dataclass(frozen=True)
class EllipsoidParams:
    center: tuple[float, float, float]
    semi: tuple[float, float, float]
    edge_width: float


@dataclass(eq=False)
class LabeledCase:
    case_id: str
    image: Volume
    k: int
    slice_labels: np.ndarray               # (H, W) int annotation of slice k
    reg_label: LabelMap | None = None      # registration pseudo label
    truth: LabelMap | None = None          # hidden; never read by training
    shape: EllipsoidParams | None = None   # hidden; drives the surrogate


@dataclass(eq=False)
class UnlabeledCase:
    case_id: str
    image: Volume
    truth: LabelMap | None = None
    shape: EllipsoidParams | None = None


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
    return LabelMap((_ellipsoid_r_sq(dims, params) < 1.0).astype(np.int64), 2)


def _draw_case(rng, dims, radius_range, center_jitter, edge_width, noise_amp):
    ext = np.asarray(dims, dtype=np.float64)
    center = tuple(ext * (0.5 + rng.uniform(-center_jitter, center_jitter, size=3)))
    semi = tuple(ext * rng.uniform(radius_range[0], radius_range[1], size=3))
    params = EllipsoidParams(center, semi, edge_width)
    image = clean_field(dims, params)
    if noise_amp > 0:
        image = image + noise_amp * rng.standard_normal(dims)
    return Volume(image), truth_labels(dims, params), params


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
    """Seeded synthetic dataset; the annotated slice is always k = D//2."""
    h, w, d = dims
    if min(h, w, d) < 4 or h % 2 or w % 2 or d % 2:
        raise ValueError(f"dims {dims} must be >= 4 and divisible by 2")
    if n_labeled < 1 or n_unlabeled < 0:
        raise ValueError("need at least one labeled case")
    children = np.random.SeedSequence(seed).spawn(n_labeled + n_unlabeled)
    k = d // 2
    labeled, unlabeled = [], []
    for i in range(n_labeled):
        rng = np.random.default_rng(children[i])
        image, truth, params = _draw_case(
            rng, dims, radius_range, center_jitter, edge_width, noise_amp
        )
        labeled.append(LabeledCase(
            case_id=f"case_{i:04d}", image=image, k=k,
            slice_labels=truth.data[:, :, k].copy(),
            truth=truth, shape=params,
        ))
    for j in range(n_unlabeled):
        rng = np.random.default_rng(children[n_labeled + j])
        image, truth, params = _draw_case(
            rng, dims, radius_range, center_jitter, edge_width, noise_amp
        )
        unlabeled.append(UnlabeledCase(
            case_id=f"case_{n_labeled + j:04d}", image=image, truth=truth, shape=params,
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
    out = np.zeros(dims, dtype=np.int64)
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
        if sigma == 0.0:
            out[:, :, di] = f < 1.0
            continue
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
    """Bisect sigma so the surrogate's mean DSC against truth hits `target`."""
    ds = generate_dataset(n_cases, 0, dims, seed=seed)

    def mean_dsc(sigma: float) -> float:
        vals = []
        for i, case in enumerate(ds.labeled):
            reg = register_surrogate(case, sigma, beta, seed=seed + 7 * i)
            vals.append(dsc_jaccard(reg, case.truth)[0])
        return float(np.mean(vals))

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mean_dsc(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# label fusion
# ---------------------------------------------------------------------------

def slice_weight_map(dims, k: int, w0: float, half_life: float) -> np.ndarray:
    """Per-voxel trust in the registration label: w0 * 2^(-|d - k| / half_life)."""
    if not 0.0 <= w0 <= 1.0:
        raise ValueError("w0 must be in [0, 1]")
    if half_life <= 0:
        raise ValueError("half_life must be positive")
    h, w, d = dims
    s = np.abs(np.arange(d) - k).astype(np.float64)
    weights = w0 * np.exp2(-s / half_life)
    return np.broadcast_to(weights, (h, w, d)).copy()


def fuse_with_weight_map(
    reg: np.ndarray, seg: np.ndarray, weight_map: np.ndarray, n_classes: int
) -> np.ndarray:
    """Per-voxel argmax of w*onehot(reg) + (1-w)*onehot(seg); ties to class 0."""
    if not reg.shape == seg.shape == weight_map.shape:
        raise ValueError("dims mismatch between reg, seg, and weight map")
    eye = np.eye(n_classes)
    w = weight_map[..., None]
    score = w * eye[reg] + (1.0 - w) * eye[seg]
    return np.argmax(score, axis=3)


# ---------------------------------------------------------------------------
# on-disk layout
# ---------------------------------------------------------------------------

def save_dataset(dataset: Dataset, out_dir) -> None:
    """images/ + slices/ + reg/ as training inputs, truth/ as hidden eval data."""
    out = Path(out_dir)
    for sub in ("images", "slices", "reg", "truth"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    rows = []
    for case in dataset.labeled:
        img = f"images/{case.case_id}.vol"
        sl = f"slices/{case.case_id}.vol"
        save_volume(case.image, out / img)
        save_labelmap(LabelMap(case.slice_labels[:, :, None], dataset.n_classes), out / sl)
        reg = "-"
        if case.reg_label is not None:
            reg = f"reg/{case.case_id}.vol"
            save_labelmap(case.reg_label, out / reg)
        if case.truth is not None:
            save_labelmap(case.truth, out / "truth" / f"{case.case_id}.vol")
        rows.append(f"{case.case_id} labeled {case.k} {img} {sl} {reg}")
    for case in dataset.unlabeled:
        img = f"images/{case.case_id}.vol"
        save_volume(case.image, out / img)
        if case.truth is not None:
            save_labelmap(case.truth, out / "truth" / f"{case.case_id}.vol")
        rows.append(f"{case.case_id} unlabeled -1 {img} - -")
    h, w, d = dataset.dims
    with open(out / MANIFEST_NAME, "w") as f:
        f.write(MANIFEST_HEADER + "\n")
        f.write(f"dims = {h} {w} {d}\n")
        f.write(f"classes = {dataset.n_classes}\n")
        f.write("cases:\n")
        f.write("\n".join(rows) + "\n")


def _manifest_int(path, what, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"{path}: {what} must be an integer, got {text!r}") from None


def _shaped(path, name, grid, want):
    if grid.data.shape != want:
        raise FormatError(f"{path}: {name} has shape {grid.data.shape}, manifest gives {want}")
    return grid


def load_dataset(in_dir, include_truth: bool = False) -> Dataset:
    """Read a dataset directory; truth/ is only touched when asked for."""
    root = Path(in_dir)
    path = root / MANIFEST_NAME
    if not path.exists():
        raise FormatError(f"no {MANIFEST_NAME} in {in_dir}")
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    if not lines or lines[0].strip() != MANIFEST_HEADER:
        raise FormatError(f"{path}: unrecognized manifest header")
    dims = None
    n_classes = None
    rows = []
    in_cases = False
    for line in lines[1:]:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == "cases:":
            in_cases = True
            continue
        if not in_cases:
            key, _, value = line.partition("=")
            key = key.strip()
            if key == "dims":
                dims = tuple(_manifest_int(path, "dims", x) for x in value.split())
                if len(dims) != 3 or min(dims) < 1:
                    raise FormatError(f"{path}: dims must be 3 positive ints, got {value!r}")
            elif key == "classes":
                n_classes = _manifest_int(path, "classes", value.strip())
            else:
                raise FormatError(f"{path}: unknown manifest key {key!r}")
        else:
            rows.append(line.split())
    if dims is None or n_classes is None:
        raise FormatError(f"{path}: manifest missing dims/classes")

    labeled, unlabeled = [], []
    for row in rows:
        if len(row) != 6:
            raise FormatError(f"{path}: malformed case row {row!r}")
        case_id, role, k_str, img, sl, reg = row
        k = _manifest_int(path, f"{case_id} k", k_str)
        if role == "labeled" and not 0 <= k < dims[2]:
            raise FormatError(f"{path}: {case_id} slice k={k} outside depth {dims[2]}")
        truth = None
        if include_truth:
            tpath = root / "truth" / f"{case_id}.vol"
            if tpath.exists():
                truth = _shaped(path, tpath, load_labelmap(tpath, n_classes), dims)
        image = _shaped(path, img, load_volume(root / img), dims)
        if role == "labeled":
            slices = _shaped(path, sl, load_labelmap(root / sl, n_classes), (*dims[:2], 1))
            reg_label = (None if reg == "-" else
                         _shaped(path, reg, load_labelmap(root / reg, n_classes), dims))
            labeled.append(LabeledCase(
                case_id=case_id, image=image, k=k,
                slice_labels=slices.data[:, :, 0].copy(),
                reg_label=reg_label, truth=truth,
            ))
        elif role == "unlabeled":
            unlabeled.append(UnlabeledCase(case_id=case_id, image=image, truth=truth))
        else:
            raise FormatError(f"{path}: unknown role {role!r}")
    return Dataset(labeled, unlabeled, dims, n_classes)
