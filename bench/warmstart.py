"""The warm-start fixture behind the `late` workload.

The fixture is the student and teacher of an `sc`-variant run (selection
off, contrast on) trained for FIXTURE_STEPS steps on the seed-2 dataset.
Tensors are stored as plain numpy arrays keyed `student/<name>` and
`teacher/<name>` over `PARAM_NAMES`, not in the package's checkpoint
format, so a change to that format cannot break the benchmark.

Rebuild it with `python3 bench/run.py --build-fixture`; a benchmark run
only ever loads it.
"""

from __future__ import annotations

import hashlib
import io
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from pacedseg import synthdata
from pacedseg.network import PARAM_NAMES, ModelParams, init_params
from pacedseg.training import TrainConfig, Trainer

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "late_warm_start.npz"
FIXTURE_SEED = 2
FIXTURE_STEPS = 200
SECTIONS = ("student", "teacher")


def fixture_config() -> TrainConfig:
    return TrainConfig(
        iterations=FIXTURE_STEPS, decay_period=FIXTURE_STEPS,
        enable_su=False, enable_sc=True, seed=FIXTURE_SEED,
    ).validate()


def make_dataset(config: TrainConfig, seed: int) -> synthdata.Dataset:
    """Training data for one seed, as the ablation harness builds it."""
    ds = synthdata.generate_dataset(
        config.n_labeled, config.n_unlabeled, config.dims, seed=seed,
        noise_amp=config.noise_amp, radius_range=(config.radius_lo, config.radius_hi),
        center_jitter=config.center_jitter, edge_width=config.edge_width,
    )
    return synthdata.attach_registration(ds, config.reg_sigma, config.reg_beta, seed=seed)


def train_fixture() -> dict[str, ModelParams]:
    config = fixture_config()
    trainer = Trainer(config, make_dataset(config, FIXTURE_SEED))
    for t in range(FIXTURE_STEPS):
        trainer.step(*trainer.batch_for(t))
    return {"student": trainer.student, "teacher": trainer.teacher}


def save_fixture(params: dict[str, ModelParams], path) -> None:
    """Write an .npz with fixed member timestamps, so equal tensors give equal bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for section in SECTIONS:
            for name in PARAM_NAMES:
                buf = io.BytesIO()
                np.lib.format.write_array(buf, np.ascontiguousarray(params[section].tensors[name]))
                info = zipfile.ZipInfo(f"{section}/{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
                zf.writestr(info, buf.getvalue())


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_fixture(config: TrainConfig, path=FIXTURE_PATH) -> dict[str, ModelParams]:
    """Load student and teacher, checking every tensor shape against init_params."""
    ref = init_params(
        n_classes=config.n_classes, widths=config.widths, embed_dim=config.embed_dim,
        dropout_rate=config.dropout_rate, dtype=config.np_dtype,
    )
    out = {}
    with np.load(path) as data:
        for section in SECTIONS:
            tensors = {}
            for name in PARAM_NAMES:
                key = f"{section}/{name}"
                if key not in data:
                    raise ValueError(f"{path}: fixture has no tensor {key}")
                arr = data[key]
                if arr.shape != ref.tensors[name].shape:
                    raise ValueError(
                        f"{path}: {key} has shape {arr.shape}, "
                        f"init_params gives {ref.tensors[name].shape}"
                    )
                if not np.isfinite(arr).all():
                    raise ValueError(f"{path}: {key} holds non-finite values")
                tensors[name] = arr.astype(config.np_dtype)
            out[section] = replace(ref, tensors=tensors)
    return out
