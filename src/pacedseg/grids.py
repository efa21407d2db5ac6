"""Dense 3D grids: the boundary types and their bit-exact on-disk format.

Every map in the pipeline (image, probability, label, mask, uncertainty)
lives on the same (H, W, D) voxel grid, linearized in C order:
flat index = (h*W + w)*D + d. Inside a training step the maps are plain
numpy arrays. `Volume` and `LabelMap` exist only at the boundaries where
values come from outside the step (dataset generation, volume files,
manifests) or leave it for scoring: they validate their invariants once
at construction and then freeze the underlying array, so instances are
safe to share across threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

# 16-byte magic, then H, W, D, C as little-endian uint32, then
# H*W*D*C little-endian float64 values in C order.
VOLUME_MAGIC = b"pacedseg-vol-v1\n"
_HEADER = struct.Struct("<4I")


def _as_c_order(a: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    if out is a:
        out = a.copy()
    out.setflags(write=False)
    return out


@dataclass(eq=False)
class Volume:
    """Scalar field on an (H, W, D) grid; values must be finite."""

    data: np.ndarray

    def __post_init__(self):
        self.data = _as_c_order(self.data, np.float64)
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ValueError(f"volume must be 3D and non-empty, got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValueError("volume contains non-finite values")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(eq=False)
class LabelMap:
    """Integer class id per voxel, in [0, n_classes)."""

    data: np.ndarray
    n_classes: int = 2

    def __post_init__(self):
        self.data = _as_c_order(self.data, np.int64)
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ValueError(f"label map must be 3D and non-empty, got shape {self.data.shape}")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.data.size and (self.data.min() < 0 or self.data.max() >= self.n_classes):
            raise ValueError("labels outside [0, n_classes)")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


# ---------------------------------------------------------------------------
# binary volume I/O
# ---------------------------------------------------------------------------

def _write_raw(path, data4: np.ndarray) -> None:
    h, w, d, c = data4.shape
    payload = np.ascontiguousarray(data4, dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(VOLUME_MAGIC)
        f.write(_HEADER.pack(h, w, d, c))
        f.write(payload)


def _read_raw(path) -> np.ndarray:
    try:
        with open(path, "rb") as f:
            magic = f.read(len(VOLUME_MAGIC))
            header = f.read(_HEADER.size)
            payload = f.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    if magic != VOLUME_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if len(header) != _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    h, w, d, c = _HEADER.unpack(header)
    expected = h * w * d * c * 8
    if len(payload) != expected:
        raise FormatError(
            f"{path}: header claims {h}x{w}x{d}x{c} ({expected} bytes) "
            f"but payload has {len(payload)} bytes"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(h, w, d, c)


def save_volume(vol: Volume, path) -> None:
    _write_raw(path, vol.data[..., None])


def load_volume(path) -> Volume:
    data = _read_raw(path)
    if data.shape[3] != 1:
        raise FormatError(f"{path}: expected 1 channel, got {data.shape[3]}")
    try:
        return Volume(data[..., 0])
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e


def save_labelmap(lm: LabelMap, path) -> None:
    _write_raw(path, lm.data.astype(np.float64)[..., None])


def load_labelmap(path, n_classes: int) -> LabelMap:
    data = _read_raw(path)
    if data.shape[3] != 1:
        raise FormatError(f"{path}: expected 1 channel, got {data.shape[3]}")
    labels = np.rint(data[..., 0]).astype(np.int64)
    try:
        return LabelMap(labels, n_classes)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# grid operations
# ---------------------------------------------------------------------------

def _block_view(a: np.ndarray, factor: tuple[int, int, int]) -> np.ndarray:
    """Reshape (H, W, D) into (H/fh, W/fw, D/fd, fh*fw*fd) blocks."""
    fh, fw, fd = factor
    h, w, d = a.shape
    for size, f, name in ((h, fh, "H"), (w, fw, "W"), (d, fd, "D")):
        if f < 1 or size % f:
            raise ValueError(f"{name}={size} not divisible by factor {f}")
    return (
        a.reshape(h // fh, fh, w // fw, fw, d // fd, fd)
        .transpose(0, 2, 4, 1, 3, 5)
        .reshape(h // fh, w // fw, d // fd, fh * fw * fd)
    )


def downsample_mask(mask: np.ndarray, factor: tuple[int, int, int]) -> np.ndarray:
    """Majority vote per block; an exact half-true block counts as true."""
    blocks = _block_view(mask, factor)
    counts = blocks.sum(axis=3)
    return 2 * counts >= blocks.shape[3]


def downsample_labels_majority(
    labels: np.ndarray, n_classes: int, factor: tuple[int, int, int]
) -> np.ndarray:
    """Most frequent label per block; ties go to the smallest class id."""
    blocks = _block_view(labels, factor)
    counts = np.stack([(blocks == c).sum(axis=3) for c in range(n_classes)], axis=3)
    return np.argmax(counts, axis=3)


def downsample_mean(vol: np.ndarray, factor: tuple[int, int, int]) -> np.ndarray:
    """Block-average a scalar field."""
    return _block_view(vol, factor).mean(axis=3)
