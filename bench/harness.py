"""Workloads, set-up, correctness checks and metrics of the pacedseg benchmark.

`run_workload` is the whole benchmark for one (workload, seed) pair: it
builds the inputs from the seed, sets up several times, runs the measured
phase, checks the program's outputs and returns the result record that
run.py prints. See README.md in this directory for why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import csv
import math
import os
import platform
import resource
import shutil
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import pacedseg
from pacedseg import ablation, network, synthdata, training
from pacedseg.metrics import summarize
from pacedseg.training import TrainConfig, Trainer

import tracer
import warmstart

SETUP_REPEATS = 5
# median HostProbe time on the 2-core x86 host the bounds were set on, in a calm period
PROBE_REFERENCE_MS = 9.0
MIN_TAIL_SAMPLES = 10
MIN_STEP_SAMPLES = 100
ABLATION_SEEDS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "eval_ms_per_case": "ms",
    "peak_rss_mb": "MB",
    "final_dsc": "ratio",
}


class CheckFailed(Exception):
    """An output of the program broke one of the benchmark's checks."""


class HostProbe:
    """A fixed numpy kernel, timed between steps, that tracks the host's speed.

    It is shaped like the decoder conv, the largest layer of a step: 27
    strided copies into a 14 MB im2col buffer, then one float32 sgemm. It
    runs no package code. On a shared 2-core host, step times moved by up
    to 45% between calm and loaded periods and the probe's time by a
    quarter to two thirds as much; dividing by `factor` halved the spread
    of step times between runs in a loaded period.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((8, 34, 34, 18), dtype=np.float32)
        self._w = rng.random((8, 216), dtype=np.float32)
        self._cols = np.empty((8, 27, 32, 32, 16), dtype=np.float32)
        self.ms: list[float] = []

    def __call__(self) -> None:
        t0 = perf_counter()
        m = 0
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    self._cols[:, m] = self._x[:, i:i + 32, j:j + 32, k:k + 16]
                    m += 1
        self._w @ self._cols.reshape(216, -1)
        self.ms.append(1000.0 * (perf_counter() - t0))

    def factor(self, start: int, stop: int | None = None) -> float:
        """Host slowness over probes [start, stop); 1.0 at the reference speed."""
        return statistics.median(self.ms[start:stop]) / PROBE_REFERENCE_MS


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than ten samples beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; need {MIN_TAIL_SAMPLES}"
        )
    return sorted(values)[rank - 1]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# nominal Trainer.step rate of a 2-core x86 host; with --seconds it sets run lengths
STEPS_PER_SECOND = 4.0
# allowed mask fraction on steps t >= 1 (step 0 always takes the warm branch)
MASK_BANDS = {"early": (0.0, 0.1), "late": (0.9, 1.0), "ablate": (0.0, 1.0)}


def workload_steps(seconds: float) -> int:
    """Timed steps of early/late: enough for a p90 with ten samples beyond it."""
    return max(MIN_STEP_SAMPLES, round(seconds * STEPS_PER_SECOND))


def ablation_iterations(seconds: float) -> int:
    """Iterations per ablation run; 4 variants x 3 seeds share the step budget."""
    runs = 4 * ABLATION_SEEDS
    return max(math.ceil(MIN_STEP_SAMPLES / runs), round(seconds * STEPS_PER_SECOND / runs))


def workload_config(name: str, seed: int, seconds: float) -> TrainConfig:
    """The config each workload hands the program; decay_period <= iterations."""
    if name == "early":
        # the opening steps of a default-length run with the default schedule
        return TrainConfig(seed=seed, n_eval=16).validate()
    if name == "late":
        # confident regime from step 1: lambda far above L_u, ramp cap at 1
        return TrainConfig(seed=seed, n_eval=16, alpha=100.0, tau_sched=2000.0).validate()
    if name == "ablate":
        iters = ablation_iterations(seconds)
        seeds = tuple(ABLATION_SEEDS * seed + i for i in range(ABLATION_SEEDS))
        return TrainConfig(
            seed=seed, iterations=iters, decay_period=iters,
            eval_period=max(1, iters // 2), ablation_seeds=seeds,
        ).validate()
    raise ValueError(f"unknown workload {name!r}")


def eval_cases(config: TrainConfig):
    return synthdata.generate_dataset(
        config.n_eval, 0, config.dims, seed=config.eval_seed,
        noise_amp=config.noise_amp, radius_range=(config.radius_lo, config.radius_hi),
        center_jitter=config.center_jitter, edge_width=config.edge_width,
    ).labeled


@dataclass
class Setup:
    trainer: Trainer
    eval_set: list


def set_up(name: str, config: TrainConfig, seed: int) -> Setup:
    """Everything before the first timed step: data, registration, eval set, trainer."""
    # late resumes the fixture's run on its own data; the seed drives the step RNG
    data_seed = {"ablate": config.ablation_seeds[0],
                 "late": warmstart.FIXTURE_SEED}.get(name, seed)
    trainer_cfg = replace(config, seed=data_seed) if name == "ablate" else config
    trainer = Trainer(trainer_cfg, warmstart.make_dataset(config, data_seed))
    cases = eval_cases(config)
    if name == "late":
        params = warmstart.load_fixture(config)
        trainer.student, trainer.teacher = params["student"], params["teacher"]
        trainer.opt = network.SGDState(trainer.student)
    return Setup(trainer, cases)


# ---------------------------------------------------------------------------
# measured phases
# ---------------------------------------------------------------------------

def _train_and_eval(setup: Setup, steps: int, out_dir: Path):
    """The early/late measured phase: steps, final eval, final checkpoint."""
    trainer, reports, errors = setup.trainer, [], []
    for t in range(steps):
        try:
            reports.append(trainer.step(*trainer.batch_for(t)))
        except Exception as e:  # a failed step is counted, never fatal
            errors.append(f"step {t}: {e!r}")
    records = training.evaluate_params(trainer.student, setup.eval_set, trainer.config.n_classes)
    network.save_checkpoint(
        out_dir / "final.ckpt", {"student": trainer.student, "teacher": trainer.teacher},
        {"iteration": trainer.t},
    )
    return reports, errors, summarize(records)["dsc"]


class FixtureEval:
    """`evaluate_params` on the fixture's student, one eval case per call.

    Called after every step, it spreads the eval-time samples over the run
    like the step samples, so host drift cannot land on all of them at
    once. A fixed model does the same eval work on every seed, which the
    workloads' own models, some collapsed, do not.
    """

    def __init__(self, config: TrainConfig, cases):
        self.student = warmstart.load_fixture(config)["student"]
        self.cases = cases
        self.n_classes = config.n_classes
        self.ms: list[float] = []

    def __call__(self) -> None:
        case = self.cases[len(self.ms) % len(self.cases)]
        t0 = perf_counter()
        training.evaluate_params(self.student, [case], self.n_classes)
        self.ms.append(1000.0 * (perf_counter() - t0))

    def dsc(self) -> float:
        """Mean DSC over one untimed pass of the eval set."""
        return summarize(training.evaluate_params(self.student, self.cases, self.n_classes))["dsc"]


def _ablate(config: TrainConfig, out_dir: Path):
    done, errors = [], []
    try:
        result = ablation.run_ablation(
            config, config.ablation_seeds, out_dir,
            progress=lambda name, seed, summary: done.append((name, seed)),
        )
    except Exception as e:  # counted as the runs that did not finish
        errors.append(f"ablation stopped after {len(done)} runs: {e!r}")
        return done, errors, None
    return done, errors, statistics.fmean(s["dsc"] for s in result.runs.values())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_reports(rows, n_voxels: int, band=(0.0, 1.0), where="") -> None:
    """rows: (t, l_s, l_u, l_bf, total, r_conf, mask_count) per logged step."""
    lo, hi = band
    for t, l_s, l_u, l_bf, total, r_conf, k in rows:
        if not all(math.isfinite(x) for x in (l_s, l_u, l_bf, total)):
            raise CheckFailed(f"{where}step {t}: non-finite loss {(l_s, l_u, l_bf, total)}")
        if k != math.floor(r_conf * n_voxels):
            raise CheckFailed(f"{where}step {t}: mask count {k} != floor({r_conf!r} * {n_voxels})")
        if t >= 1 and not lo <= k / n_voxels <= hi:
            raise CheckFailed(f"{where}step {t}: mask fraction {k / n_voxels:.4f} outside {band}")


def _report_rows(reports):
    return [(r.t, r.l_s, r.l_u, r.l_bf, r.total, r.r_conf, r.mask_count) for r in reports]


def check_ablation_files(config: TrainConfig, out_dir: Path, n_voxels: int) -> None:
    seeds = config.ablation_seeds
    variants = [v[0] for v in ablation.VARIANTS]
    for fname in (ablation.RUNS_CSV, ablation.SUMMARY_CSV, ablation.TABLE_TXT):
        if not (out_dir / fname).is_file():
            raise CheckFailed(f"ablation wrote no {fname}")
    with open(out_dir / ablation.RUNS_CSV) as f:
        runs = list(csv.DictReader(f))
    expected = {(v, str(s)) for v in variants for s in seeds}
    if len(runs) != len(expected) or {(r["variant"], r["seed"]) for r in runs} != expected:
        raise CheckFailed(f"{ablation.RUNS_CSV} has {len(runs)} rows, want {len(expected)}")
    for r in runs:
        if not 0.0 <= float(r["dsc"]) <= 1.0:
            raise CheckFailed(f"{ablation.RUNS_CSV}: dsc {r['dsc']} outside [0, 1]")
    with open(out_dir / ablation.SUMMARY_CSV) as f:
        if sorted(r["variant"] for r in csv.DictReader(f)) != sorted(variants):
            raise CheckFailed(f"{ablation.SUMMARY_CSV} does not list the 4 variants")
    for v in variants:
        for s in seeds:
            log = out_dir / "runs" / f"{v}_seed{s}" / training.TRAIN_LOG_NAME
            with open(log) as f:
                rows = [(int(r["t"]), float(r["L_s"]), float(r["L_u"]), float(r["L_bf"]),
                         float(r["L_total"]), float(r["R_conf"]), int(r["K"]))
                        for r in csv.DictReader(f)]
            if len(rows) != config.iterations:
                raise CheckFailed(f"{log.name} of {v}/{s} has {len(rows)} rows")
            check_reports(rows, n_voxels, where=f"{v}_seed{s} ")


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "pacedseg": os.path.dirname(pacedseg.__file__),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload; returns the result record (metrics, checks, details)."""
    config = workload_config(name, seed, seconds)
    n_voxels = math.prod(config.dims)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    fixture_eval, probe = FixtureEval(config, eval_cases(config)), HostProbe()
    fixture_dsc = fixture_eval.dsc()

    def between_steps():
        fixture_eval()
        probe()

    # a traced run reports no end-to-end times, so it runs nothing between steps
    tr = tracer.Tracer(trace, tracer.conv_layer_table(config.n_classes, config.widths,
                                                      config.embed_dim),
                       after_step=None if trace else between_steps)
    setup_s, failures = [], []
    with tr:
        for _ in range(SETUP_REPEATS):
            with tr.span(tracer.SETUP):
                t0 = perf_counter()
                setup = set_up(name, config, seed)
                setup_s.append(perf_counter() - t0)
            probe()
        n_setup_probes = len(probe.ms)
        t0 = perf_counter()
        if name == "ablate":
            done, errors, trained_dsc = _ablate(config, out_dir)
            attempted, completed = 4 * ABLATION_SEEDS, len(done)
        else:
            steps = workload_steps(seconds)
            with tr.span("training.run"):
                reports, errors, trained_dsc = _train_and_eval(setup, steps, out_dir)
            attempted, completed = steps, len(reports)
        between_s = (sum(fixture_eval.ms) + sum(probe.ms[n_setup_probes:])) / 1000.0
        run_s = perf_counter() - t0 - between_s
    # early and ablate train collapsed models at these lengths, so their DSC
    # only says which collapse happened; they report the fixture's instead
    final_dsc = trained_dsc if name == "late" else fixture_dsc

    failures += errors
    try:
        if name == "ablate":
            if not errors:
                check_ablation_files(config, out_dir, n_voxels)
        else:
            check_reports(_report_rows(reports), n_voxels, MASK_BANDS[name])
            if name == "late":
                fired = sum(r.l_bf > 0 for r in reports) / len(reports)
                if fired < 0.5:
                    raise CheckFailed(f"contrast fired on {fired:.0%} of late steps; need 50%")
        for dsc in (trained_dsc, final_dsc):
            if dsc is not None and not 0.0 <= dsc <= 1.0:
                raise CheckFailed(f"DSC {dsc} outside [0, 1]")
    except CheckFailed as e:
        failures.append(str(e))
    # once checked, the checkpoints and per-run logs are not kept
    shutil.rmtree(out_dir / "runs", ignore_errors=True)
    (out_dir / "final.ckpt").unlink(missing_ok=True)

    step_ms = tr.step_ms()
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "config": {k: getattr(config, k) for k in
                   ("iterations", "decay_period", "alpha", "tau_sched", "enable_su",
                    "enable_sc", "n_eval", "eval_period", "ablation_seeds", "dtype")},
        "environment": environment(seed),
        "fixture_sha256": warmstart.sha256_of(warmstart.FIXTURE_PATH),
        "trained_dsc": trained_dsc,
        "probe_samples": len(probe.ms),
        "step_samples": len(step_ms),
        "eval_case_samples": len(fixture_eval.ms),
        "setup_samples": len(setup_s),
        "failures": failures,
        "absent_layers": tr.absent,
        "missing_names": tr.missing_names,
    }
    if trace:
        table = tracer.layer_table(tr.spans, n_voxels)
        metrics = {k: (v, layer_unit(k)) for k, v in table["metrics"].items()}
        details["self_ms_per_step"] = table["self_ms_per_step"]
        details["traced_steps"] = table["traced_steps"]
        if table["accounting_error"] > 1e-9:
            failures.append(f"self times miss the step time by {table['accounting_error']:.3g}")
    else:
        raw = {
            "setup_s": statistics.median(setup_s),
            "run_s": run_s,
            "step_ms_p50": percentile(step_ms, 50),
            "step_ms_p90": percentile(step_ms, 90),
            "eval_ms_per_case": statistics.median(fixture_eval.ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_dsc": final_dsc,
        }
        # times are scaled to the reference host speed by the probes of their phase
        factors = {"setup": probe.factor(0, n_setup_probes), "run": probe.factor(n_setup_probes)}
        phase = {"setup_s": "setup", "run_s": "run", "step_ms_p50": "run",
                 "step_ms_p90": "run", "eval_ms_per_case": "run"}
        metrics = {k: (v / factors[phase[k]] if k in phase else v, END_TO_END_UNITS[k])
                   for k, v in raw.items()}
        details["raw_metrics"], details["host_factors"] = raw, factors
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": metrics,
        "details": details,
        "spans": tr.spans if trace else None,
    }


def layer_unit(name: str) -> str:
    if name.endswith(("ms_per_step", "ms_per_call", "ms_per_case", "self_ms")):
        return "ms"
    if name.endswith((".s", "s_per_run")):
        return "s"
    if name.endswith("bytes_per_step"):
        return "bytes"
    if name.endswith("frac"):
        return "fraction"
    return "count"
