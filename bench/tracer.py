"""Outside-in tracer: span timers around calls into the package's modules.

Nothing in `src/` is changed. For the life of a run the tracer replaces
module attributes (and two methods) named in WRAPS with timing wrappers,
and restores them afterwards. A wrapped name that no longer exists marks
its layer absent; it is never an error, so refactors of the package do not
break a traced run.

Spans are kept in memory as [name, start, end, parent, counts] and written
once when the run ends. A span's self time is its duration minus that of
its direct children, so self times of everything under a step add up to
the step's duration.

`Trainer.step` toggles the "step" scope: in a traced run every other step
is traced and the rest run bare, which gives the tracing overhead from one
process. Untraced runs install only the "timing" scope (the step timer),
which the end-to-end step latencies are taken from.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

from pacedseg.network import init_params

STEP = "training.step"
SETUP = "bench.setup"
CONV_LAYERS = ("enc1", "enc2", "down", "dec", "seg", "proj")
CONV_STRIDES = {"down": 2}


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def conv_layer_table(n_classes, widths, embed_dim) -> dict:
    """(weight shape, stride) -> conv layer name, for every conv of the model."""
    shapes = init_params(n_classes=n_classes, widths=widths, embed_dim=embed_dim).tensors
    table = {}
    for layer in CONV_LAYERS:
        key = (shapes[f"{layer}_w"].shape, CONV_STRIDES.get(layer, 1))
        if key in table:
            raise ValueError(f"conv layers {table[key]} and {layer} share weight shape and stride")
        table[key] = layer
    return table


def _conv_namer(prefix, w_pos, stride_pos):
    def namer(tracer, args, kwargs):
        w = _arg(args, kwargs, w_pos, "w")
        stride = _arg(args, kwargs, stride_pos, "stride", 1)
        return f"{prefix}.{tracer.conv_table.get((w.shape, stride), 'other')}"
    return namer


def _count_step(args, kwargs, report):
    return {"mask_count": report.mask_count}


def _count_im2col(args, kwargs, result):
    cols = result[1]
    return {"im2col_bytes": 0 if cols is None else cols.nbytes}


def _count_gate(args, kwargs, result):
    gate = _arg(args, kwargs, 4, "gate_idx")
    return {"gated_rows": 0 if gate is None else int(gate.size)}


def _count_mine(args, kwargs, batch):
    counts = batch.neg_counts
    return {
        "positives": batch.n_positives,
        "negatives_per_anchor": float(counts.mean()) if counts.size else 0.0,
        "fired": bool(counts.size and counts.max() > 0),
    }


# (module, attribute, layer, scope, namer, counter)
WRAPS = (
    ("pacedseg.training", "Trainer.step", STEP, "timing", None, _count_step),
    ("pacedseg.training", "evaluate_params", "training.eval", "run", None, None),
    ("pacedseg.training", "evaluate_case", "metrics.evaluate_case", "run", None, None),
    ("pacedseg.training", "save_checkpoint", "network.save_checkpoint", "run", None, None),
    ("pacedseg.network", "save_checkpoint", "network.save_checkpoint", "run", None, None),
    ("pacedseg.training", "generate_dataset", "synthdata.generate", "run", None, None),
    ("pacedseg.synthdata", "generate_dataset", "synthdata.generate", "run", None, None),
    ("pacedseg.synthdata", "attach_registration", "synthdata.register", "run", None, None),
    ("pacedseg.ablation", "generate_dataset", "synthdata.generate", "run", None, None),
    ("pacedseg.ablation", "attach_registration", "synthdata.register", "run", None, None),
    ("pacedseg.ablation", "run_training", "training.run", "run", None, None),
    ("pacedseg.training", "forward_parts", "network.teacher_trunk", "step", None, None),
    ("pacedseg.training", "head_forward", "network.head", "step", None, None),
    ("pacedseg.training", "forward_graph", "network.student_graph", "step", None, None),
    ("pacedseg.training", "sgd_step", "network.sgd_ema", "step", None, None),
    ("pacedseg.training", "ema_update", "network.sgd_ema", "step", None, None),
    ("pacedseg.training", "mc_uncertainty_from_trunk", "uncertainty.mc", "step", None, None),
    ("pacedseg.training", "select_mask", "uncertainty.select", "step", None, None),
    ("pacedseg.training", "dice_ce_node", "losses.dice_ce", "step", None, _count_gate),
    ("pacedseg.training", "mine_pairs", "contrastive.mine", "step", None, _count_mine),
    ("pacedseg.training", "contrast_loss_node", "contrastive.loss_fwd", "step", None, None),
    ("pacedseg.training", "sample_flips", "perturb", "step", None, None),
    ("pacedseg.training", "weak_perturb", "perturb", "step", None, None),
    ("pacedseg.training", "apply_flips", "perturb", "step", None, None),
    ("pacedseg.training", "sample_box", "perturb", "step", None, None),
    ("pacedseg.training", "cutmix_with_box", "perturb", "step", None, None),
    ("pacedseg.training", "downsample_mask", "grids.downsample", "step", None, None),
    ("pacedseg.training", "downsample_labels_majority", "grids.downsample", "step", None, None),
    ("pacedseg.training", "downsample_mean", "grids.downsample", "step", None, None),
    ("pacedseg.training", "fuse_with_weight_map", "synthdata.fuse", "step", None, None),
    ("pacedseg.autodiff", "Tape.backward", "autodiff.backward", "step", None, None),
    ("pacedseg.autodiff", "conv3d_raw", "autodiff.conv_fwd", "step",
     _conv_namer("autodiff.conv_fwd", 1, 3), _count_im2col),
    ("pacedseg.network", "conv3d_raw", "autodiff.conv_fwd", "step",
     _conv_namer("autodiff.conv_fwd", 1, 3), _count_im2col),
    ("pacedseg.autodiff", "conv3d_backward", "autodiff.conv_bwd", "step",
     _conv_namer("autodiff.conv_bwd", 3, 4), None),
)


def _resolve(module_name, attr):
    """(owner object, attribute name), or None when the name no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if callable(getattr(owner, name, None)) else None


class Tracer:
    """Installs WRAPS entries for one run; `traced` adds the run and step scopes."""

    def __init__(self, traced: bool, conv_table: dict, after_step=None):
        self.traced = traced
        self.conv_table = conv_table
        self.after_step = after_step  # called between steps, outside every span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: dict[str, list] = {"timing": [], "run": [], "step": []}
        found = [(f"{m}.{a}", layer, _resolve(m, a) is not None) for m, a, layer, *_ in WRAPS]
        self.missing_names = [name for name, _, ok in found if not ok]
        self.absent = sorted({layer for _, layer, _ in found}
                             - {layer for _, layer, ok in found if ok})
        self._n_steps = 0

    # -- install / restore ---------------------------------------------------

    def __enter__(self):
        self._install("timing")
        if self.traced:
            self._install("run")
        return self

    def __exit__(self, *exc):
        for scope in ("step", "run", "timing"):
            self._uninstall(scope)
        return False

    def _install(self, scope):
        for module_name, attr, layer, sc, namer, counter in WRAPS:
            if sc != scope:
                continue
            target = _resolve(module_name, attr)
            if target is None:
                continue
            owner, name = target
            orig = getattr(owner, name)
            make = self._step_wrapper if layer == STEP else self._wrapper
            setattr(owner, name, make(orig, layer, namer, counter))
            self._installed[scope].append((owner, name, orig))

    def _uninstall(self, scope):
        for owner, name, orig in reversed(self._installed[scope]):
            setattr(owner, name, orig)
        self._installed[scope].clear()

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _wrapper(self, orig, layer, namer, counter):
        def wrapped(*args, **kwargs):
            rec = self._open(namer(self, args, kwargs) if namer else layer)
            rec[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, result)
            return result
        return wrapped

    def _step_wrapper(self, orig, layer, namer, counter):
        def wrapped(*args, **kwargs):
            traced = self.traced and self._n_steps % 2 == 0
            self._n_steps += 1
            rec = self._open(layer)
            rec[4] = {"traced": traced, "mask_count": None}
            if traced:
                self._install("step")
            rec[1] = perf_counter()
            try:
                report = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
                if traced:
                    self._uninstall("step")
            rec[4].update(counter(args, kwargs, report))
            if self.after_step is not None:
                self.after_step()
            return report
        return wrapped

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code, such as one set-up."""
        rec = self._open(name)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def step_ms(self) -> list[float]:
        return [1000.0 * (r[2] - r[1]) for r in self.spans if r[0] == STEP]


# ---------------------------------------------------------------------------
# per-layer table
# ---------------------------------------------------------------------------

def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_table(spans: list[list], n_voxels: int) -> dict:
    """Per-layer metrics, self times per traced step, and the accounting error."""
    n = len(spans)
    dur = [r[2] - r[1] for r in spans]
    child_sum = [0.0] * n
    for i, r in enumerate(spans):
        if r[3] >= 0:
            child_sum[r[3]] += dur[i]
    # index of the traced step each span runs under, or -1
    step_of = [-1] * n
    for i, r in enumerate(spans):
        if r[0] == STEP:
            step_of[i] = i if r[4]["traced"] else -1
        elif r[3] >= 0:
            step_of[i] = step_of[r[3]]

    steps = [i for i, r in enumerate(spans) if r[0] == STEP]
    traced = [i for i in steps if spans[i][4]["traced"]]
    nt = len(traced)
    inclusive, self_ms, counts = {}, {}, {}
    for i, r in enumerate(spans):
        if step_of[i] < 0:
            continue
        inclusive[r[0]] = inclusive.get(r[0], 0.0) + dur[i]
        self_ms[r[0]] = self_ms.get(r[0], 0.0) + dur[i] - child_sum[i]
        for key, value in (r[4] or {}).items():
            counts.setdefault(f"{r[0]}:{key}", []).append(value)

    def per_step(total):
        return total / nt if nt else 0.0

    def per_step_ms(name):
        return per_step(1000.0 * inclusive.get(name, 0.0))

    def calls(name, scale=1000.0):
        return _mean([scale * dur[i] for i, r in enumerate(spans) if r[0] == name])

    def per_setup(name):
        setups = [i for i, r in enumerate(spans) if r[0] == SETUP]
        if not setups:
            return 0.0
        within = {i: 0.0 for i in setups}
        for i, r in enumerate(spans):
            j = r[3]
            while j >= 0 and j not in within:
                j = spans[j][3]
            if r[0] == name and j >= 0:
                within[j] += dur[i]
        return statistics.median(within.values())

    metrics = {}
    # the projection head's backward runs only when the contrast has positives,
    # so it reads 0 on early; elsewhere it is under 0.1 ms and counted in backward
    for kind, layers in (("conv_fwd", CONV_LAYERS), ("conv_bwd", CONV_LAYERS[:-1])):
        for layer in layers:
            name = f"autodiff.{kind}.{layer}"
            metrics[f"{name}.ms_per_step"] = per_step_ms(name)
    conv_bwd = sum(per_step_ms(f"autodiff.conv_bwd.{layer}") for layer in CONV_LAYERS + ("other",))
    im2col = sum(sum(v) for k, v in counts.items() if k.endswith(":im2col_bytes"))
    metrics["autodiff.im2col_bytes_per_step"] = per_step(im2col)
    metrics["autodiff.backward.ms_per_step"] = per_step_ms("autodiff.backward")
    metrics["autodiff.backward_nonconv.ms_per_step"] = per_step_ms("autodiff.backward") - conv_bwd
    for layer in ("network.teacher_trunk", "network.head", "network.student_graph",
                  "network.sgd_ema", "uncertainty.mc", "uncertainty.select", "losses.dice_ce",
                  "contrastive.mine", "contrastive.loss_fwd", "perturb", "grids.downsample",
                  "synthdata.fuse"):
        metrics[f"{layer}.ms_per_step"] = per_step_ms(layer)
    metrics["network.save_checkpoint.ms_per_call"] = calls("network.save_checkpoint")
    metrics["uncertainty.mask_frac"] = _mean(
        [spans[i][4]["mask_count"] / n_voxels for i in steps
         if spans[i][4]["mask_count"] is not None])
    metrics["losses.gated_rows_per_step"] = per_step(
        sum(counts.get("losses.dice_ce:gated_rows", [])))
    negs = [v for v, p in zip(counts.get("contrastive.mine:negatives_per_anchor", []),
                              counts.get("contrastive.mine:positives", [])) if p]
    metrics["contrastive.positives_per_step"] = per_step(
        sum(counts.get("contrastive.mine:positives", [])))
    metrics["contrastive.negatives_per_anchor"] = _mean(negs)
    metrics["contrastive.fired_frac"] = per_step(
        sum(counts.get("contrastive.mine:fired", [])))
    step_total = per_step(1000.0 * sum(dur[i] for i in traced))
    metrics["training.step.ms_per_step"] = step_total
    metrics["training.step.self_ms"] = per_step(1000.0 * self_ms.get(STEP, 0.0))
    metrics["training.eval.ms_per_call"] = calls("training.eval")
    metrics["metrics.evaluate_case.ms_per_case"] = calls("metrics.evaluate_case")
    metrics["training.run.s_per_run"] = calls("training.run", scale=1.0)
    metrics["synthdata.generate.s"] = per_setup("synthdata.generate")
    metrics["synthdata.register.s"] = per_setup("synthdata.register")
    on = [1000.0 * dur[i] for i in traced]
    off = [1000.0 * dur[i] for i in steps if not spans[i][4]["traced"]]
    metrics["trace.overhead_frac"] = (
        statistics.median(on) / statistics.median(off) - 1.0 if on and off else 0.0)

    self_per_step = {k: per_step(1000.0 * v) for k, v in sorted(self_ms.items())}
    accounted = sum(self_per_step.values())
    error = abs(accounted - step_total) / step_total if step_total else 0.0
    return {"metrics": metrics, "self_ms_per_step": self_per_step,
            "traced_steps": nt, "accounting_error": error}
