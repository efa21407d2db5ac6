"""Dense 3D grids: the boundary types and the package's one on-disk format.

Every map in the pipeline (image, probability, label, mask, uncertainty)
lives on the same (H, W, D) voxel grid, linearized in C order:
flat index = (h*W + w)*D + d. Inside a training step the maps are plain
numpy arrays. `Volume` and `LabelMap` exist only at the boundaries where
values come from outside the step (dataset generation, dataset files) or
leave it for scoring: they validate their invariants once at construction,
narrow the data to what the step reads (float32 intensities, one-byte
class ids) and then freeze the underlying array, so instances are safe to
share across threads. They share memory only with an array already frozen
(a row of a read-only file array); anything still writable is copied.
Checkpoints and dataset files are all named-array files (`save_arrays`,
`load_arrays`): the package's one binary layout lives here. Class ids are
stored as the one byte each that `LabelMap` holds.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import argmax_last
from .errors import FormatError


def _as_c_order(a: np.ndarray, dtype) -> np.ndarray:
    """`a` as read-only C-order `dtype`; it shares memory only with a frozen ndarray owner."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if np.may_share_memory(out, a):  # out is a, or a view whose base owns the memory
        owner = out.base if isinstance(out.base, np.ndarray) else out
        if owner.base is not None or owner.flags.writeable:
            out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(eq=False)
class Volume:
    """Scalar field on an (H, W, D) grid, held in float32; values must be finite.

    The model computes in float32 by default, so an image holds half the
    bytes a float64 copy would. Float64 input is narrowed first and checked
    after, so a value beyond the float32 range is refused as non-finite.
    """

    data: np.ndarray

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflow becomes inf, refused below
            self.data = _as_c_order(self.data, np.float32)
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ValueError(f"volume must be 3D and non-empty, got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValueError("volume contains non-finite values, or values beyond float32")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


# a class id is one byte in memory: in a LabelMap and its files, and in a
# training step, whose pseudo, CutMix and fused labels and argmax maps are
# all uint8 (`argmax_last`)
MAX_CLASSES = 256


@dataclass(eq=False)
class LabelMap:
    """Integer class id per voxel, in [0, n_classes), with 2 <= n_classes <= 256.

    The ids are held as one byte (uint8) each, narrowed only after the range
    check, so an id that would wrap is refused; files store the same bytes.
    """

    data: np.ndarray
    n_classes: int = 2

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3 or min(data.shape) < 1:
            raise ValueError(f"label map must be 3D and non-empty, got shape {data.shape}")
        if not 2 <= self.n_classes <= MAX_CLASSES:
            raise ValueError(f"need 2 to {MAX_CLASSES} classes, got {self.n_classes}")
        if data.min() < 0 or data.max() >= self.n_classes:
            raise ValueError("labels outside [0, n_classes)")
        self.data = _as_c_order(data, np.uint8)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


# ---------------------------------------------------------------------------
# named-array files
# ---------------------------------------------------------------------------

# 16-byte magic, uint32 array count, then per array: name (uint16 byte length
# + UTF-8), dtype code and ndim (uint8 each), ndim uint32 dims and the C-order
# payload, all little-endian: the bytes depend only on what is written.
ARRAYS_MAGIC = b"pacedseg-arr-v1\n"
_DTYPES = (np.dtype(np.float64), np.dtype(np.float32), np.dtype(np.int64), np.dtype(np.uint8))


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write float64, float32, int64 and uint8 arrays under their names, in dict order."""
    with open(path, "wb") as f:
        f.write(ARRAYS_MAGIC + struct.pack("<I", len(arrays)))
        for name, a in arrays.items():
            a, raw = np.asarray(a), name.encode()
            if a.dtype not in _DTYPES:
                raise ValueError(f"array {name!r}: dtype {a.dtype} is not f8, f4, i8 or u1")
            f.write(struct.pack(f"<H{len(raw)}sBB{a.ndim}I", len(raw), raw,
                                _DTYPES.index(a.dtype), a.ndim, *a.shape))
            f.write(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes())


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a `save_arrays` file into writable arrays; any fault is a FormatError.

    Each payload is read once, straight into its own array. Each header is
    checked against the bytes left in the file before its array is made, so
    a corrupt shape cannot size an allocation.
    """
    try:
        with open(path, "rb") as f:
            return _read_arrays(path, f, os.fstat(f.fileno()).st_size)
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e


def _read_arrays(path, f, size: int) -> dict[str, np.ndarray]:
    pos = 0

    def claim(n: int, what: str) -> None:
        """Count the next n bytes as read, once the file is known to hold them."""
        nonlocal pos
        if n > size - pos:
            raise FormatError(f"{path}: truncated {what}: needs {n} bytes, {size - pos} left")
        pos += n

    def take(n: int, what: str) -> bytes:
        claim(n, what)
        raw = f.read(n)
        if len(raw) != n:
            raise FormatError(f"{path}: shrank while {what} was read")
        return raw

    if take(len(ARRAYS_MAGIC), "magic") != ARRAYS_MAGIC:
        raise FormatError(f"{path}: bad magic")
    (count,) = struct.unpack("<I", take(4, "array count"))
    arrays = {}
    for _ in range(count):
        (n,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(n, "name").decode()
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: undecodable name ({e})") from e
        code, ndim = take(2, f"header of {name!r}")
        if code >= len(_DTYPES) or name in arrays:
            raise FormatError(f"{path}: array {name!r} repeats or has unknown dtype code {code}")
        dtype = _DTYPES[code]
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"shape of {name!r}"))
        what = f"array {name!r} of shape {shape}"
        claim(dtype.itemsize * math.prod(shape), what)
        a = np.empty(shape, dtype.newbyteorder("<"))
        if f.readinto(a.reshape(-1).view(np.uint8)) != a.nbytes:
            raise FormatError(f"{path}: shrank while {what} was read")
        arrays[name] = a.astype(dtype, copy=False)
    if pos != size:
        raise FormatError(f"{path}: {size - pos} trailing bytes after the last array")
    return arrays


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
    """Most frequent label per block, as uint8; ties go to the smallest class id."""
    blocks = _block_view(labels, factor)
    counts = np.stack([(blocks == c).sum(axis=3) for c in range(n_classes)], axis=3)
    return argmax_last(counts)


def downsample_mean(vol: np.ndarray, factor: tuple[int, int, int]) -> np.ndarray:
    """Block-average a scalar field."""
    return _block_view(vol, factor).mean(axis=3)
