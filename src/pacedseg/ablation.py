"""Four-variant ablation harness: baseline, +SU, +SC, and the full model.

All variants of a seed train on the same dataset and are scored on the
same held-out evaluation set, so differences isolate the selection and
contrastive components. That dataset comes from `dataset_for_seed`, the
one recipe of a run's training data, which `gen-data` and `train` use too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .metrics import METRICS
from .synthdata import Dataset, attach_registration, generate_dataset
from .training import TrainConfig, run_training

# each variant is a name and the TrainConfig overrides it runs with, in run order
VARIANTS = (
    ("baseline", {"enable_su": False, "enable_sc": False}),
    ("su", {"enable_su": True, "enable_sc": False}),
    ("sc", {"enable_su": False, "enable_sc": True}),
    ("full", {"enable_su": True, "enable_sc": True}),
)

RUNS_CSV = "ablation_runs.csv"
SUMMARY_CSV = "ablation_summary.csv"
TABLE_TXT = "ablation_table.txt"


@dataclass
class AblationResult:
    runs: dict            # (variant, seed) -> final summary dict
    table: str


def _refuse_eval_seed(config: TrainConfig, seeds) -> None:
    """A run on eval_seed would train on its eval cases: case i of a seed is drawn alike."""
    if config.eval_seed in seeds:
        raise ConfigError(f"seed {config.eval_seed} is eval_seed, whose cases are the eval cases")


def dataset_for_seed(config: TrainConfig, seed: int) -> Dataset:
    """The training data of a run with this config and seed: the generated
    cases, the labeled ones with registration labels. A seed equal to eval_seed,
    or a config whose class count the generator does not make, is a ConfigError."""
    _refuse_eval_seed(config, (seed,))
    ds = generate_dataset(
        config.n_labeled, config.n_unlabeled, config.dims, seed=seed, **config.generator_options
    )
    if ds.n_classes != config.n_classes:
        raise ConfigError(f"n_classes is {config.n_classes}, the generator makes {ds.n_classes}")
    return attach_registration(ds, config.reg_sigma, config.reg_beta, seed=seed)


def _aggregate(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    defined = arr[np.isfinite(arr)]
    if defined.size == 0:
        return float("nan"), float("nan")
    std = float(defined.std(ddof=1)) if defined.size > 1 else 0.0
    return float(defined.mean()), std


def format_table(aggregate: dict) -> str:
    header = f"{'variant':<10}" + "".join(f"{m.upper():>18}" for m in METRICS)
    lines = [header, "-" * len(header)]
    for name, stats in aggregate.items():
        cells = []
        for metric in METRICS:
            mean, std = stats[metric]
            cells.append(f"{mean:9.4f} +-{std:6.4f}")
        lines.append(f"{name:<10}" + "".join(f"{c:>18}" for c in cells))
    return "\n".join(lines)


def run_ablation(config: TrainConfig, seeds, out_dir, progress=None) -> AblationResult:
    """Train every variant for every seed; aggregate mean +- std per variant."""
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) < 3 or len(set(seeds)) != len(seeds) or min(seeds) < 0:
        raise ConfigError(f"ablation needs at least 3 distinct non-negative seeds, got {seeds}")
    _refuse_eval_seed(config, seeds)  # before the first run writes a file
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    runs = {}
    for seed in seeds:
        dataset = dataset_for_seed(config, seed)
        for name, overrides in VARIANTS:
            cfg = replace(config, **overrides, seed=seed)
            summary = run_training(cfg, dataset, out / "runs" / f"{name}_seed{seed}")
            runs[(name, seed)] = summary
            if progress is not None:
                progress(name, seed, summary)
        del dataset  # so the next seed's dataset is not built beside this one

    aggregate = {
        name: {
            metric: _aggregate([runs[(name, s)][metric] for s in seeds])
            for metric in METRICS
        }
        for name, _ in VARIANTS
    }

    with open(out / RUNS_CSV, "w") as f:
        f.write("variant,seed," + ",".join(METRICS) + "\n")
        for name in aggregate:
            for seed in seeds:
                summary = runs[(name, seed)]
                f.write(f"{name},{seed}," + ",".join(repr(summary[m]) for m in METRICS) + "\n")
    with open(out / SUMMARY_CSV, "w") as f:
        f.write("variant," + ",".join(f"{m}_mean,{m}_std" for m in METRICS) + ",n_runs\n")
        for name, stats in aggregate.items():
            cells = []
            for metric in METRICS:
                mean, std = stats[metric]
                cells.extend([repr(mean), repr(std)])
            f.write(f"{name}," + ",".join(cells) + f",{len(seeds)}\n")
    table = format_table(aggregate)
    (out / TABLE_TXT).write_text(table + "\n")

    return AblationResult(runs, table)
