"""Command-line entry points.

Verbs: gen-data, train, eval, ablate, schedule-dump. Global flags
--config / --seed / --out-dir apply to every verb. Exit codes: 0 on
success, 2 on configuration errors, 3 on a numeric training abort.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .ablation import run_ablation
from .errors import ConfigError, FormatError, TrainingAbort
from .grids import argmax_labels
from .metrics import MetricsRecord, evaluate_case, summarize
from .network import forward, load_checkpoint
from .synthdata import attach_registration, generate_dataset, load_dataset, save_dataset
from .training import TrainConfig, load_config, run_training, save_config
from .uncertainty import confident_ratio, make_schedule, warmup_xi

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

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    gen.add_argument("--no-registration", action="store_true",
                     help="skip the registration surrogate")

    train = sub.add_parser("train", help="run one training job")
    train.add_argument("--data-dir", help="existing dataset directory (default: generate)")

    ev = sub.add_parser("eval", help="score a checkpoint on a dataset with truths")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data-dir", required=True)
    ev.add_argument("--section", default="student", help="checkpoint section to evaluate")

    ab = sub.add_parser("ablate", help="baseline / +SU / +SC / full comparison")
    ab.add_argument("--seeds", help="comma-separated run seeds (default from config)")

    sd = sub.add_parser("schedule-dump",
                        help="emit (t, xi, lambda, R_conf, v, K) per iteration as CSV")
    sd.add_argument("--lu-const", type=float,
                    help="constant unsupervised loss fed to the schedule")
    sd.add_argument("--lu-csv", help="train_log.csv whose L_u column drives the schedule")
    return parser


def _load_cfg(args) -> TrainConfig:
    cfg = load_config(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg.validate()


def _generate(cfg: TrainConfig, with_registration: bool):
    ds = generate_dataset(
        cfg.n_labeled, cfg.n_unlabeled, cfg.dims, seed=cfg.seed,
        noise_amp=cfg.noise_amp, radius_range=(cfg.radius_lo, cfg.radius_hi),
        center_jitter=cfg.center_jitter, edge_width=cfg.edge_width,
    )
    if with_registration:
        attach_registration(ds, cfg.reg_sigma, cfg.reg_beta, seed=cfg.seed)
    return ds


def cmd_gen_data(cfg: TrainConfig, args) -> int:
    ds = _generate(cfg, not args.no_registration)
    save_dataset(ds, args.out_dir)
    save_config(cfg, Path(args.out_dir) / "config.txt")
    print(f"wrote {ds.n_labeled} labeled + {ds.n_unlabeled} unlabeled cases to {args.out_dir}")
    return EXIT_OK


def cmd_train(cfg: TrainConfig, args) -> int:
    if args.data_dir:
        ds = load_dataset(args.data_dir)
    else:
        ds = _generate(cfg, with_registration=True)
    result = run_training(cfg, ds, args.out_dir)
    save_config(cfg, Path(args.out_dir) / "config.txt")
    if result.final_summary:
        print(
            f"final: DSC={result.final_summary['dsc']:.4f} "
            f"Jaccard={result.final_summary['jaccard']:.4f} "
            f"ASD={result.final_summary['asd']:.4f} HD={result.final_summary['hd']:.4f}"
        )
    print(f"artifacts in {result.out_dir}")
    return EXIT_OK


def cmd_eval(cfg: TrainConfig, args) -> int:
    sections, meta = load_checkpoint(args.checkpoint)
    if args.section not in sections:
        raise ConfigError(
            f"checkpoint has sections {sorted(sections)}, not {args.section!r}"
        )
    params = sections[args.section]
    ds = load_dataset(args.data_dir, include_truth=True)
    cases = [c for c in ds.labeled + ds.unlabeled if c.truth is not None]
    if not cases:
        raise ConfigError(f"{args.data_dir} has no truth volumes to score against")
    records = []
    for case in cases:
        probs, _ = forward(params, case.image, dropout_on=False, rng_seed=0)
        records.append(evaluate_case(case.case_id, argmax_labels(probs), case.truth))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.csv", "w") as f:
        f.write(MetricsRecord.CSV_HEADER + "\n")
        for rec in records:
            f.write(rec.csv_row() + "\n")
    s = summarize(records)
    print(
        f"{len(records)} cases: DSC={s['dsc']:.4f} Jaccard={s['jaccard']:.4f} "
        f"ASD={s['asd']:.4f} HD={s['hd']:.4f} (undefined: {int(s['n_undefined'])})"
    )
    return EXIT_OK


def cmd_ablate(cfg: TrainConfig, args) -> int:
    if args.seeds:
        try:
            seeds = tuple(int(s) for s in args.seeds.replace(",", " ").split())
        except ValueError as e:
            raise ConfigError(f"bad --seeds value {args.seeds!r}") from e
    else:
        seeds = cfg.ablation_seeds
    def progress(name, seed, summary):
        print(f"  {name:<9} seed={seed}  DSC={summary['dsc']:.4f}", flush=True)
    result = run_ablation(cfg, seeds, args.out_dir, progress=progress)
    print(result.table)
    return EXIT_OK


def cmd_schedule_dump(cfg: TrainConfig, args) -> int:
    lu_series = None
    if args.lu_csv:
        lines = Path(args.lu_csv).read_text().splitlines()
        header = lines[0].split(",")
        if "L_u" not in header:
            raise ConfigError(f"{args.lu_csv}: no L_u column")
        col = header.index("L_u")
        lu_series = [float(row.split(",")[col]) for row in lines[1:] if row]
        if len(lu_series) > cfg.iterations:
            raise ConfigError(
                f"{args.lu_csv}: {len(lu_series)} L_u rows but iterations is {cfg.iterations}"
            )
    lu_const = args.lu_const if args.lu_const is not None else 0.05
    n_vox = cfg.dim_h * cfg.dim_w * cfg.dim_d
    # as in Trainer: a zero-iteration run still has a valid (empty) schedule
    state = make_schedule(max(cfg.iterations, 1), cfg.alpha, cfg.delta, cfg.tau_sched)
    last_lu = math.inf
    print("t,xi,lambda,R_conf,v,K")
    steps = len(lu_series) if lu_series is not None else cfg.iterations
    from .uncertainty import advance_age  # local to keep the module surface tidy

    for t in range(steps):
        xi = warmup_xi(state.t, state.t_max)
        r_conf, v = confident_ratio(state, last_lu)
        k = int(math.floor(r_conf * n_vox))
        v_str = "" if v is None else repr(v)
        print(f"{t},{xi!r},{state.lam!r},{r_conf!r},{v_str},{k}")
        last_lu = lu_series[t] if lu_series is not None else lu_const
        state = advance_age(state)
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
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, FormatError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingAbort as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
