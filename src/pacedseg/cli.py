"""Command-line entry points.

Verbs: gen-data, train, eval, ablate, schedule-dump. Global flags
--config / --seed / --out-dir apply to every verb; all but schedule-dump
create --out-dir. --data-dir and --checkpoint read the named-array files
that gen-data and train write; a dataset directory always holds its
registration labels and truths. A run takes at least one step. The config
is checked once, when it is read, before any verb writes a file; gen-data
writes it beside its dataset, and `run_training` writes each run's
config.txt (train's, and each of ablate's) once the run is accepted.
Exit codes: 0 on success, 2 on configuration errors and unusable files or
directories, 3 on a numeric training abort.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .ablation import dataset_for_seed, run_ablation
from .errors import ConfigError, FormatError, TrainingAbort
from .losses import v_cell
from .metrics import format_summary, summarize, write_records
from .network import load_checkpoint
from .synthdata import load_dataset, save_dataset
from .training import CONFIG_NAME, TrainConfig, evaluate_params, load_config, parse_setting
from .training import run_training, save_config
from .uncertainty import admitted, admitted_count, warmup_xi

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacedseg",
        description="Barely-supervised segmentation with self-paced pseudo-label selection.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out-dir", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-data", help="generate a synthetic dataset directory: "
                                    "images, slices, registration labels and truths")

    train = sub.add_parser("train", help="run one training job")
    train.add_argument("--data-dir", help="existing dataset directory (default: generate)")

    ev = sub.add_parser("eval", help="score a checkpoint on a dataset with truths")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data-dir", required=True)
    ev.add_argument("--section", default="student", help="checkpoint section to evaluate")

    ab = sub.add_parser("ablate", help="baseline / +SU / +SC / full comparison")
    ab.add_argument("--seeds", help="comma-separated run seeds, read as the config's "
                                    "ablation_seeds (default: that setting)")

    sd = sub.add_parser("schedule-dump",
                        help="emit (t, xi, lambda, R_conf, v, K) per iteration as CSV under "
                             "a constant L_u; a run's own schedule is in its train_log.csv")
    sd.add_argument("--lu-const", type=float, default=0.05,
                    help="constant unsupervised loss fed to the schedule")
    return parser


def _load_cfg(args) -> TrainConfig:
    cfg = load_config(args.config) if args.config else TrainConfig()
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def cmd_gen_data(cfg: TrainConfig, args) -> int:
    ds = dataset_for_seed(cfg, cfg.seed)
    save_dataset(ds, args.out_dir)
    save_config(cfg, Path(args.out_dir) / CONFIG_NAME)
    print(f"wrote {ds.n_labeled} labeled + {ds.n_unlabeled} unlabeled cases to {args.out_dir}")
    return EXIT_OK


def cmd_train(cfg: TrainConfig, args) -> int:
    if args.data_dir:
        ds = load_dataset(args.data_dir)
    else:
        ds = dataset_for_seed(cfg, cfg.seed)
    print(f"final: {format_summary(run_training(cfg, ds, args.out_dir))}")
    print(f"artifacts in {Path(args.out_dir)}")
    return EXIT_OK


def cmd_eval(cfg: TrainConfig, args) -> int:
    sections, _ = load_checkpoint(args.checkpoint)
    if args.section not in sections:
        raise ConfigError(
            f"checkpoint has sections {sorted(sections)}, not {args.section!r}"
        )
    params = sections[args.section]
    ds = load_dataset(args.data_dir, include_truth=True)
    if params.n_classes != ds.n_classes:
        raise ConfigError(f"checkpoint section {args.section!r} has {params.n_classes} classes, "
                          f"dataset {args.data_dir} has {ds.n_classes}")
    records = evaluate_params(params, ds.labeled + ds.unlabeled, ds.n_classes)
    write_records(Path(args.out_dir) / "metrics.csv", records)
    s = summarize(records)
    print(f"{len(records)} cases: {format_summary(s)} (undefined: {int(s['n_undefined'])})")
    return EXIT_OK


def cmd_ablate(cfg: TrainConfig, args) -> int:
    seeds = parse_setting("ablation_seeds", args.seeds) if args.seeds else cfg.ablation_seeds
    def progress(name, seed, summary):
        print(f"  {name:<9} seed={seed}  DSC={summary['dsc']:.4f}", flush=True)
    result = run_ablation(cfg, seeds, args.out_dir, progress=progress)
    print(result.table)
    return EXIT_OK


def cmd_schedule_dump(cfg: TrainConfig, args) -> int:
    if not args.lu_const >= 0:
        raise ConfigError(f"--lu-const must be >= 0, got {args.lu_const!r}")
    n_vox = cfg.dim_h * cfg.dim_w * cfg.dim_d
    schedule = cfg.new_schedule()
    print("t,xi,lambda,R_conf,v,K")
    for t in range(cfg.iterations):
        r_conf, v = admitted(schedule, cfg.enable_su)
        xi = warmup_xi(t, schedule.t_max)
        print(f"{t},{xi!r},{schedule.lam!r},{r_conf!r},{v_cell(v)},{admitted_count(r_conf, n_vox)}")
        schedule.advance(args.lu_const)
    return EXIT_OK


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "schedule-dump": cmd_schedule_dump,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_cfg(args)
        if args.command != "schedule-dump":
            try:
                Path(args.out_dir).mkdir(parents=True, exist_ok=True)
            except OSError as e:
                raise ConfigError(f"cannot create --out-dir {args.out_dir}: {e}") from e
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, FormatError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingAbort as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
