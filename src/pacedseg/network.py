"""The two-level encoder-decoder segmentation model.

Layout (channels-last, half-resolution bottleneck):

    image -> conv3+relu -> conv3+relu -> conv3/stride2+relu
                                              |-> 1x1x1 projection head (F-dim, where read)
             nearest-up x2 <- bottleneck
          -> conv3+relu -> dropout -> 1x1x1 head -> softmax

The image is a float32 volume (`grids.Volume`), cast to the model's dtype
on entry. Each conv3+relu is one op, `conv3d(..., relu=True)`: the conv
applies its relu in place on its own result frame, so no layer keeps a
pre-relu copy of its output. The nearest-up x2 and the decoder conv3 are
one op, `conv3d(..., up=2)`, which runs the conv at half resolution: one
2x2x2 conv of the bottleneck whose weight holds the 8 output parities,
then a depth-to-space shuffle of their shifted crops to full resolution.

Dropout lives only in front of the segmentation head, so the trunk is a
deterministic function of (params, image). Monte-Carlo passes exploit
that: one trunk evaluation serves any number of stochastic head passes.
The head is `_head`'s tape ops in the training graph and in every MC,
teacher and eval pass (`head_forward`). `LAYERS` names the layers, and
`model_fault` holds the size rules of every model made or read.

Teacher maintenance (exponential moving average) and the SGD-with-momentum
optimizer operate directly on parameter dicts; the teacher is never
touched by the optimizer.

A checkpoint is a named-array file (`grids.save_arrays`) of parameter sets
and scalar metadata; the model sizes are read back off the tensor shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape, conv3d_raw
from .errors import FormatError, TrainingAbort
from .grids import MAX_CLASSES, load_arrays, save_arrays, valid_n_classes

# the four trunk convs, then the segmentation and projection heads
LAYERS = ("enc1", "enc2", "down", "dec", "seg", "proj")
PARAM_NAMES = tuple(f"{layer}_{kind}" for layer in LAYERS for kind in "wb")


@dataclass(eq=False)
class ModelParams:
    """The parameter tensors and the dropout rate; sizes and dtype are read
    off the tensors."""

    tensors: dict[str, np.ndarray]
    dropout_rate: float

    @property
    def n_classes(self) -> int:
        return self.tensors["seg_w"].shape[-1]

    @property
    def dtype(self) -> np.dtype:
        return self.tensors["enc1_w"].dtype

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.tensors.items()}, self.dropout_rate)

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


def model_fault(n_classes, widths, embed_dim, dropout_rate) -> str | None:
    """The size rule a model of these sizes breaks, or None; NaN is no rate."""
    if not valid_n_classes(n_classes):
        return (f"n_classes {n_classes}, but n_classes must be in [2, {MAX_CLASSES}]: "
                "a label is one byte")
    if len(widths) != 4 or min(widths) < 1:
        return f"widths {tuple(widths)}, not 4 positive channel counts"
    if embed_dim < 1:
        return f"embed_dim {embed_dim}, not >= 1"
    if not 0.0 <= dropout_rate < 1.0:
        return f"dropout_rate {dropout_rate}, not in [0, 1)"
    return None


def init_params(
    n_classes=2,
    widths=(4, 8, 8, 8),
    embed_dim=16,
    dropout_rate=0.3,
    seed=0,
    dtype=np.float64,
) -> ModelParams:
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization."""
    if fault := model_fault(n_classes, widths, embed_dim, dropout_rate):
        raise ValueError(fault)
    rng = np.random.default_rng(seed)
    shapes = _param_shapes(n_classes, widths, embed_dim)
    tensors = {}
    for name in PARAM_NAMES:
        bound = 1.0 / np.sqrt(math.prod(shapes[name[:-2] + "_w"][:-1]))  # a bias shares its fan-in
        tensors[name] = rng.uniform(-bound, bound, size=shapes[name]).astype(dtype)
    return ModelParams(tensors, dropout_rate)


def _check_dims(shape):
    h, w, d = shape
    if min(h, w, d) < 2 or h % 2 or w % 2 or d % 2:
        raise ValueError(f"image dims {shape} must be positive and divisible by 2")


def draw_dropout(shape, rate, seed, dtype):
    """Inverted dropout as (keep bits, scale): an entry is zeroed with
    probability `rate`, and a kept one is scaled by the 0-d `dtype` scale,
    1/(1 - rate) formed in float32 and cast to `dtype`, the model's.

    The bool keep bits are those of `default_rng(seed).random(shape,
    dtype=float32) >= rate`, read off the raw generator words without
    forming the floats: numpy turns each 32-bit half of a 64-bit PCG64 word,
    low half first, into the float32 (u >> 8) * 2**-24, and a float32 rate r
    compares with it as the integer test u >= ceil(r * 2**24) << 8. The
    float mask is `keep * scale`; a step holds the bits, a byte per entry,
    and forms the mask only where it multiplies (`Tape.dropout`).
    """
    scale = np.asarray(np.float32(1.0) / np.float32(1.0 - rate), dtype=dtype)
    if rate == 0.0:
        return np.ones(shape, dtype=bool), scale
    n = math.prod(shape)
    cut = math.ceil(float(np.float32(rate)) * 2**24)  # exact: a float32 times a power of 2
    if cut >= 2**24:  # a rate that rounds to 1.0 in float32 keeps nothing
        return np.zeros(shape, dtype=bool), scale
    words = np.random.PCG64(seed).random_raw((n + 1) // 2).astype("<u8", copy=False)
    return (words.view("<u4")[:n] >= np.uint32(cut << 8)).reshape(shape), scale


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _trunk(tape: Tape, pnodes: dict[str, Node], image: np.ndarray):
    """The deterministic layers; returns the channels-first (pre-dropout
    decoder, down-sampled) nodes, (C, H, W, D) and (C3, h, w, d)."""
    _check_dims(image.shape)
    x = tape.input(image[None], grad=False)
    h1 = tape.conv3d(x, pnodes["enc1_w"], pnodes["enc1_b"], relu=True)
    h2 = tape.conv3d(h1, pnodes["enc2_w"], pnodes["enc2_b"], relu=True)
    hd = tape.conv3d(h2, pnodes["down_w"], pnodes["down_b"], stride=2, relu=True)
    return tape.conv3d(hd, pnodes["dec_w"], pnodes["dec_b"], up=2, relu=True), hd


def _head(tape: Tape, pnodes: dict[str, Node], hdec: Node, dropout) -> Node:
    """The segmentation head on a decoder node, gated by a `draw_dropout` pair
    unless None: (H, W, D, C) probabilities over the conv's class-major result."""
    if dropout is not None:
        hdec = tape.dropout(hdec, *dropout)
    logits = tape.chw_to_hwc(tape.conv3d(hdec, pnodes["seg_w"], pnodes["seg_b"], pad=0))
    return tape.softmax(logits)


def forward_graph(tape: Tape, pnodes: dict[str, Node], image: np.ndarray, dropout=None):
    """Differentiable forward; returns (prob_node, down-sampled node).

    `dropout` is a `draw_dropout` (keep bits, scale) pair for the decoder
    activations, or None for none. The engine runs channels-first
    internally; the probability node is `_head`'s channels-last view. A
    caller that reads the features records the projection head on the
    (C3, h, w, d) down-sampled node with `feature_node`, so a graph whose
    features nobody reads records none.
    """
    hdec, hd = _trunk(tape, pnodes, image)
    return _head(tape, pnodes, hdec, dropout), hd


def feature_node(tape: Tape, pnodes: dict[str, Node], hd: Node) -> Node:
    """The projection head on a down-sampled node; an (h, w, d, F) view node,
    laid out as `feature_grid`'s."""
    return tape.chw_to_hwc(tape.conv3d(hd, pnodes["proj_w"], pnodes["proj_b"], pad=0))


def param_nodes(tape: Tape, params: ModelParams) -> dict[str, Node]:
    return {name: tape.input(params.tensors[name]) for name in PARAM_NAMES}


def forward_parts(params: ModelParams, image: np.ndarray):
    """The trunk's values, recorded on a tape that is then dropped; returns
    (pre-dropout decoder activations, down-sampled activations)."""
    tape = Tape(params.dtype)
    hdec, hd = _trunk(tape, param_nodes(tape, params), image)
    return hdec.value, hd.value


def feature_grid(params: ModelParams, hd: np.ndarray) -> np.ndarray:
    """The projection head on down-sampled activations, as an (h, w, d, F) view."""
    t = params.tensors
    return np.moveaxis(conv3d_raw(hd, t["proj_w"], t["proj_b"], pad=0), 0, 3)


def head_forward(params: ModelParams, hdec: np.ndarray, dropout=None) -> np.ndarray:
    """`_head`'s value on decoder activations, recorded on a tape that is
    then dropped; the (H, W, D, C) probabilities of `forward_graph`'s
    layout, gated by a `draw_dropout` pair unless `dropout` is None."""
    tape = Tape(params.dtype)
    return _head(tape, param_nodes(tape, params), tape.input(hdec, grad=False), dropout).value


# ---------------------------------------------------------------------------
# teacher / optimizer
# ---------------------------------------------------------------------------

def ema_update(teacher: ModelParams, student: ModelParams, decay: float) -> ModelParams:
    """teacher <- decay * teacher + (1 - decay) * student, coordinatewise. It needs
    decay in [0, 1), which `TrainConfig.validate` enforces on ema_decay."""
    for name in PARAM_NAMES:
        t, s = teacher.tensors[name], student.tensors[name]
        if (t.dtype, t.shape) != (s.dtype, s.shape):
            raise ValueError(f"mismatch for {name}: {t.dtype} {t.shape} vs {s.dtype} {s.shape}")
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
    """Classical momentum update: v <- momentum*v + g; p <- p - lr*v.

    Every new velocity and tensor is computed and checked before any is
    stored, so a ValueError or TrainingAbort leaves the parameters and
    velocities as they were. A gradient must match its tensor's dtype and
    shape: numpy would otherwise promote or broadcast it into the update.
    It needs lr > 0, which `TrainConfig.validate` enforces on every
    iteration's `TrainConfig.lr_at`.
    """
    velocity, tensors = {}, {}
    for name in PARAM_NAMES:
        g, p = grads[name], params.tensors[name]
        if (g.dtype, g.shape) != (p.dtype, p.shape):
            raise ValueError(f"gradient of {name} is {g.dtype} {g.shape}, "
                             f"its tensor {p.dtype} {p.shape}")
        if not np.isfinite(g).all():
            raise TrainingAbort(f"non-finite gradient in {name}")
        v = velocity[name] = momentum * state.velocity[name] + g
        p = tensors[name] = p - lr * v
        if not np.isfinite(p).all():
            raise TrainingAbort(f"non-finite update of {name}")
    state.velocity.update(velocity)
    params.tensors.update(tensors)
    return params


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, sections: dict[str, ModelParams], meta: dict[str, float]):
    """Each section's tensors as `<section>/<param>` in the section's dtype,
    its `<section>/dropout_rate`, and `meta/<key>`, both float64 scalars."""
    arrays = {}
    for name, params in sections.items():
        arrays |= {f"{name}/{t}": params.tensors[t] for t in PARAM_NAMES}
        arrays[f"{name}/dropout_rate"] = np.float64(params.dropout_rate)
    arrays |= {f"meta/{key}": np.float64(value) for key, value in meta.items()}
    save_arrays(path, arrays)


def load_checkpoint(path):
    """(sections, meta) of a `save_checkpoint` file; any fault is a FormatError.

    A section's sizes are read off its `seg_w`, `proj_w` and conv weight
    shapes; every tensor must then have the shape `_param_shapes` gives,
    and the sizes and dropout rate must pass `model_fault`.
    """
    groups: dict[str, dict[str, np.ndarray]] = {}
    for key, a in load_arrays(path).items():
        group, _, name = key.rpartition("/")
        groups.setdefault(group, {})[name] = a
    meta = {}
    for key, a in groups.pop("meta", {}).items():
        if a.shape != ():
            raise FormatError(f"{path}: metadata {key!r} has shape {a.shape}, not ()")
        meta[key] = float(a)
    sections = {}
    for name, arrays in groups.items():
        last = {tname: a.shape[-1] for tname, a in arrays.items() if a.ndim}
        widths = tuple(last.get(f"{layer}_w", 0) for layer in LAYERS[:4])
        n_classes, embed_dim = last.get("seg_w", 0), last.get("proj_w", 0)
        expected = _param_shapes(n_classes, widths, embed_dim) | {"dropout_rate": ()}
        got = {tname: a.shape for tname, a in arrays.items()}
        wrong = sorted(t for t in got.keys() | expected.keys() if got.get(t) != expected.get(t))
        if wrong:
            raise FormatError(f"{path}: section {name!r} has missing or misshapen tensors {wrong}")
        dropout_rate, dtype = float(arrays.pop("dropout_rate")), arrays["enc1_w"].dtype
        if fault := model_fault(n_classes, widths, embed_dim, dropout_rate):
            raise FormatError(f"{path}: section {name!r} has {fault}")
        for tname, a in arrays.items():
            if a.dtype != dtype or dtype not in (np.float32, np.float64):
                raise FormatError(f"{path}: section {name!r} holds a {a.dtype} {tname}")
            if not np.isfinite(a).all():
                raise FormatError(f"{path}: non-finite values in tensor {tname}")
        sections[name] = ModelParams(arrays, dropout_rate)
    return sections, meta
