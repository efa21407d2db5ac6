"""The two-level encoder-decoder segmentation model.

Layout (channels-last, half-resolution bottleneck):

    image -> conv3 -> relu -> conv3 -> relu -> conv3/stride2 -> relu
                                                  |-> 1x1x1 projection head (F-dim embeddings)
             nearest-up x2 <- bottleneck
          -> conv3 -> relu -> dropout -> 1x1x1 head -> softmax

The nearest-up x2 and the decoder conv3 are one op, `conv3d(..., up=2)`,
which runs the conv at half resolution: 8 parity convs of the bottleneck
(one merged weight), then a depth-to-space shuffle to full resolution.

Dropout lives only in front of the segmentation head, so the trunk is a
deterministic function of (params, image). Monte-Carlo passes exploit
that: one trunk evaluation serves any number of stochastic head passes.

Teacher maintenance (exponential moving average) and the SGD-with-momentum
optimizer operate directly on parameter dicts; the teacher is never
touched by the optimizer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape, conv3d_raw, relu_raw, softmax_raw
from .errors import FormatError, TrainingAbort

CHECKPOINT_MAGIC = b"pacedseg-ckpt-v1"
CHECKPOINT_VERSION = 1

PARAM_NAMES = (
    "enc1_w", "enc1_b",
    "enc2_w", "enc2_b",
    "down_w", "down_b",
    "dec_w", "dec_b",
    "seg_w", "seg_b",
    "proj_w", "proj_b",
)


@dataclass(eq=False)
class ModelParams:
    tensors: dict[str, np.ndarray]
    n_classes: int
    embed_dim: int
    dropout_rate: float
    widths: tuple[int, int, int, int]
    dtype: np.dtype

    def copy(self) -> "ModelParams":
        return ModelParams(
            {k: v.copy() for k, v in self.tensors.items()},
            self.n_classes, self.embed_dim, self.dropout_rate, self.widths, self.dtype,
        )

    def finite(self) -> bool:
        return all(np.isfinite(v).all() for v in self.tensors.values())


def _param_shapes(n_classes, widths, embed_dim):
    c1, c2, c3, c4 = widths
    return {
        "enc1_w": (1, 3, 3, 3, c1), "enc1_b": (c1,),
        "enc2_w": (c1, 3, 3, 3, c2), "enc2_b": (c2,),
        "down_w": (c2, 3, 3, 3, c3), "down_b": (c3,),
        "dec_w": (c3, 3, 3, 3, c4), "dec_b": (c4,),
        "seg_w": (c4, 1, 1, 1, n_classes), "seg_b": (n_classes,),
        "proj_w": (c3, 1, 1, 1, embed_dim), "proj_b": (embed_dim,),
    }


def init_params(
    n_classes=2,
    widths=(4, 8, 8, 8),
    embed_dim=16,
    dropout_rate=0.3,
    seed=0,
    dtype=np.float64,
) -> ModelParams:
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization."""
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    rng = np.random.default_rng(seed)
    shapes = _param_shapes(n_classes, widths, embed_dim)
    tensors = {}
    for name in PARAM_NAMES:
        shape = shapes[name]
        if name.endswith("_w"):
            fan_in = int(np.prod(shape[:-1]))
        else:
            wshape = shapes[name[:-2] + "_w"]
            fan_in = int(np.prod(wshape[:-1]))
        bound = 1.0 / np.sqrt(fan_in)
        tensors[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return ModelParams(tensors, n_classes, embed_dim, dropout_rate, tuple(widths), np.dtype(dtype))


def _check_dims(shape):
    h, w, d = shape
    if min(h, w, d) < 2 or h % 2 or w % 2 or d % 2:
        raise ValueError(f"image dims {shape} must be positive and divisible by 2")


def make_dropout_mask(shape, rate, rng) -> np.ndarray:
    """Inverted dropout: zero with probability `rate`, scale keepers by 1/(1-rate)."""
    if rate == 0.0:
        return np.ones(shape, dtype=np.float32)
    draws = rng.random(shape, dtype=np.float32)
    return (draws >= rate) / np.float32(1.0 - rate)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def forward_graph(tape: Tape, pnodes: dict[str, Node], image: np.ndarray, dropout_mask=None):
    """Differentiable forward; returns (prob_node, feature_node).

    The engine runs channels-first internally; the returned probability and
    feature nodes are channels-last, (H, W, D, C) and (h, w, d, F).
    """
    _check_dims(image.shape)
    x = tape.input(image[None])
    h1 = tape.relu(tape.conv3d(x, pnodes["enc1_w"], pnodes["enc1_b"]))
    h2 = tape.relu(tape.conv3d(h1, pnodes["enc2_w"], pnodes["enc2_b"]))
    hd = tape.relu(tape.conv3d(h2, pnodes["down_w"], pnodes["down_b"], stride=2))
    feats = tape.chw_to_hwc(tape.conv3d(hd, pnodes["proj_w"], pnodes["proj_b"], pad=0))
    hdec = tape.relu(tape.conv3d(hd, pnodes["dec_w"], pnodes["dec_b"], up=2))
    if dropout_mask is not None:
        hdec = tape.mul_const(hdec, dropout_mask)
    logits = tape.chw_to_hwc(tape.conv3d(hdec, pnodes["seg_w"], pnodes["seg_b"], pad=0))
    return tape.softmax(logits), feats


def param_nodes(tape: Tape, params: ModelParams) -> dict[str, Node]:
    return {name: tape.input(params.tensors[name]) for name in PARAM_NAMES}


def forward_parts(params: ModelParams, image: np.ndarray):
    """Tape-free trunk evaluation; returns (pre-dropout decoder activations,
    channels-last feature grid)."""
    _check_dims(image.shape)
    t = params.tensors
    x = np.asarray(image, dtype=params.dtype)[None]
    h1 = relu_raw(conv3d_raw(x, t["enc1_w"], t["enc1_b"])[0])
    h2 = relu_raw(conv3d_raw(h1, t["enc2_w"], t["enc2_b"])[0])
    hd = relu_raw(conv3d_raw(h2, t["down_w"], t["down_b"], stride=2)[0])
    feats = np.moveaxis(conv3d_raw(hd, t["proj_w"], t["proj_b"], pad=0)[0], 0, 3)
    hdec = relu_raw(conv3d_raw(hd, t["dec_w"], t["dec_b"], up=2)[0])
    return hdec, feats


def head_forward(params: ModelParams, hdec: np.ndarray, dropout_mask=None) -> np.ndarray:
    """Segmentation head on (possibly dropout-gated) decoder activations.

    Returns channels-last (H, W, D, C) probabilities.
    """
    t = params.tensors
    a = hdec * dropout_mask if dropout_mask is not None else hdec
    logits = np.ascontiguousarray(
        np.moveaxis(conv3d_raw(a, t["seg_w"], t["seg_b"], pad=0)[0], 0, 3)
    )
    return softmax_raw(logits)


# ---------------------------------------------------------------------------
# teacher / optimizer
# ---------------------------------------------------------------------------

def ema_update(teacher: ModelParams, student: ModelParams, decay: float) -> ModelParams:
    """teacher <- decay * teacher + (1 - decay) * student, coordinatewise."""
    if not 0.0 <= decay < 1.0:
        raise ValueError("EMA decay must be in [0, 1)")
    for name in PARAM_NAMES:
        t, s = teacher.tensors[name], student.tensors[name]
        if t.shape != s.shape:
            raise ValueError(f"shape mismatch for {name}: {t.shape} vs {s.shape}")
        teacher.tensors[name] = decay * t + (1.0 - decay) * s
    return teacher


class SGDState:
    """Momentum velocity buffers, persisted across steps."""

    def __init__(self, params: ModelParams):
        self.velocity = {k: np.zeros_like(v) for k, v in params.tensors.items()}


def sgd_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    state: SGDState,
) -> ModelParams:
    """Classical momentum update: v <- momentum*v + g; p <- p - lr*v."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    for name in PARAM_NAMES:
        g = grads[name]
        if not np.isfinite(g).all():
            raise TrainingAbort(f"non-finite gradient in {name}")
        v = state.velocity[name] = momentum * state.velocity[name] + g
        params.tensors[name] = params.tensors[name] - lr * v
    return params


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_CODE_DTYPES = {v: np.dtype(k) for k, v in _DTYPE_CODES.items()}


def _write_str(f, s: str):
    raw = s.encode()
    f.write(struct.pack("<H", len(raw)))
    f.write(raw)


def _read_str(f) -> str:
    (n,) = struct.unpack("<H", f.read(2))
    return f.read(n).decode()


def save_checkpoint(path, sections: dict[str, ModelParams], meta: dict[str, float]):
    """Versioned binary layout: header, named parameter sets, scalar metadata."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(sections)))
        for name, params in sections.items():
            _write_str(f, name)
            f.write(struct.pack("<II", params.n_classes, params.embed_dim))
            f.write(struct.pack("<d", params.dropout_rate))
            f.write(struct.pack("<4I", *params.widths))
            f.write(struct.pack("<B", _DTYPE_CODES[np.dtype(params.dtype)]))
            f.write(struct.pack("<I", len(PARAM_NAMES)))
            for tname in PARAM_NAMES:
                arr = params.tensors[tname]
                _write_str(f, tname)
                f.write(struct.pack("<B", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        f.write(struct.pack("<I", len(meta)))
        for key, value in meta.items():
            _write_str(f, key)
            f.write(struct.pack("<d", float(value)))


def load_checkpoint(path):
    try:
        with open(path, "rb") as f:
            magic = f.read(len(CHECKPOINT_MAGIC))
            if magic != CHECKPOINT_MAGIC:
                raise FormatError(f"{path}: bad checkpoint magic")
            version, n_sections = struct.unpack("<II", f.read(8))
            if version != CHECKPOINT_VERSION:
                raise FormatError(f"{path}: unsupported checkpoint version {version}")
            sections = {}
            for _ in range(n_sections):
                name = _read_str(f)
                n_classes, embed_dim = struct.unpack("<II", f.read(8))
                (dropout_rate,) = struct.unpack("<d", f.read(8))
                widths = struct.unpack("<4I", f.read(16))
                (dtype_code,) = struct.unpack("<B", f.read(1))
                if dtype_code not in _CODE_DTYPES:
                    raise FormatError(f"{path}: unknown dtype code {dtype_code}")
                dtype = _CODE_DTYPES[dtype_code]
                expected = _param_shapes(n_classes, widths, embed_dim)
                (n_tensors,) = struct.unpack("<I", f.read(4))
                if n_tensors != len(expected):
                    raise FormatError(f"{path}: section {name!r} has {n_tensors} tensors")
                tensors = {}
                for _ in range(n_tensors):
                    tname = _read_str(f)
                    (ndim,) = struct.unpack("<B", f.read(1))
                    shape = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
                    # checked before the payload is read: a corrupt shape
                    # must not size the read
                    if expected.pop(tname, None) != shape:
                        raise FormatError(f"{path}: unexpected tensor {tname!r} {shape}")
                    count = int(np.prod(shape))
                    raw = f.read(count * 8)
                    if len(raw) != count * 8:
                        raise FormatError(f"{path}: truncated tensor {tname}")
                    tensor = np.frombuffer(raw, dtype="<f8").reshape(shape)
                    if not np.isfinite(tensor).all():
                        raise FormatError(f"{path}: non-finite values in tensor {tname}")
                    tensors[tname] = tensor.astype(dtype)
                sections[name] = ModelParams(
                    tensors, n_classes, embed_dim, dropout_rate, widths, dtype
                )
            (n_meta,) = struct.unpack("<I", f.read(4))
            meta = {}
            for _ in range(n_meta):
                key = _read_str(f)
                (meta[key],) = struct.unpack("<d", f.read(8))
            if f.read(1):
                raise FormatError(f"{path}: trailing bytes after the metadata")
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    except struct.error as e:
        raise FormatError(f"{path}: truncated checkpoint ({e})") from e
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: undecodable name ({e})") from e
    return sections, meta
