"""pacedseg benchmark: one workload per process, metrics as one JSON line.

    python3 bench/run.py --workload early|late|ablate --seed N --seconds S --trace 0|1
    python3 bench/run.py --build-fixture

Run from the repository root. The package is imported from `src/` next to
this directory, never from site-packages. `--trace 0` prints the
end-to-end metrics; `--trace 1` prints the per-layer metrics of a traced
run. The last line of stdout is the result object; a record of the run
(and, when traced, its spans) is written under `.bench_runs/`. The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("early", "late", "ablate"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--build-fixture", action="store_true",
                   help="retrain the late workload's warm-start fixture and exit")
    args = p.parse_args(argv)
    if not args.build_fixture and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    # one BLAS thread per process; must be set before numpy loads BLAS
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "pacedseg" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    import warmstart

    if args.build_fixture:
        warmstart.save_fixture(warmstart.train_fixture(), warmstart.FIXTURE_PATH)
        print(f"{warmstart.FIXTURE_PATH} sha256 {warmstart.sha256_of(warmstart.FIXTURE_PATH)}")
        return 0

    out_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  out_dir)
    details, spans = result.pop("details"), result.pop("spans")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    (out_dir / "result.json").write_text(json.dumps({**result, "details": details}, indent=1))
    if spans is not None:
        (out_dir / "spans.json").write_text(json.dumps(spans))

    for key in ("environment", "config", "fixture_sha256", "trained_dsc", "host_factors",
                "raw_metrics", "step_samples", "eval_case_samples", "setup_samples",
                "absent_layers", "failures"):
        print(f"{key}: {json.dumps(details.get(key))}")
    for name, ms in details.get("self_ms_per_step", {}).items():
        print(f"self {name:<36} {ms:9.3f} ms/step")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
