import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pacedseg import training
from pacedseg.errors import ConfigError, TrainingAbort
from pacedseg.network import PARAM_NAMES
from pacedseg.synthdata import Dataset, attach_registration, generate_dataset
from pacedseg.training import (
    StepTrace,
    TrainConfig,
    Trainer,
    config_from_dict,
    load_config,
    run_training,
    save_config,
)
from pacedseg.uncertainty import Schedule


def tiny_config(**overrides):
    base = dict(
        iterations=12, decay_period=6, eval_period=6, n_eval=2,
        dim_h=16, dim_w=16, dim_d=8, n_labeled=3, n_unlabeled=4,
        widths=(2, 3, 4, 3), embed_dim=4, mc_passes=2, k_neg=8,
        dtype="float32", seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base).validate()


def tiny_dataset(cfg, seed=None):
    seed = cfg.seed if seed is None else seed
    ds = generate_dataset(
        cfg.n_labeled, cfg.n_unlabeled, cfg.dims, seed=seed, noise_amp=cfg.noise_amp
    )
    return attach_registration(ds, cfg.reg_sigma, cfg.reg_beta, seed=seed)


class TestConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    def test_file_roundtrip(self, tmp_path):
        cfg = tiny_config(lr0=0.02, enable_sc=False, ablation_seeds=(7, 8, 9))
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"not_a_knob": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"iterations": "twelve"})
        with pytest.raises(ConfigError):
            config_from_dict({"enable_su": "maybe"})

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(decay_period=100)  # exceeds iterations
        with pytest.raises(ConfigError):
            tiny_config(dim_h=15)
        with pytest.raises(ConfigError):
            tiny_config(dtype="float16")

    def test_comments_and_spacing_parsed(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\niterations = 40  # trailing\n\nlr0=0.5\n")
        cfg = load_config(path)
        assert cfg.iterations == 40 and cfg.lr0 == 0.5

    def test_unset_decay_period_roundtrips(self, tmp_path):
        cfg = tiny_config(decay_period=None)
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        assert "decay_period" not in path.read_text()
        loaded = load_config(path)
        assert loaded == cfg and loaded.decay_period is None
        assert loaded.effective_decay_period == 5  # 12 * 5 // 12

    def test_explicit_decay_period_roundtrips(self, tmp_path):
        cfg = tiny_config(decay_period=4)
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg and loaded.decay_period == 4

    def test_derived_decay_period_bounds(self):
        assert TrainConfig().validate().effective_decay_period == 625
        for iterations in (0, 1):
            assert TrainConfig(iterations=iterations).validate().effective_decay_period == 1
        for iterations in range(1, 2000):
            period = TrainConfig(iterations=iterations).effective_decay_period
            assert 1 <= period <= iterations

    def test_replace_rederives_decay_period(self):
        cfg = replace(TrainConfig(), iterations=40).validate()
        assert cfg.decay_period is None and cfg.effective_decay_period == 16
        explicit = replace(TrainConfig(decay_period=30), iterations=40).validate()
        assert explicit.effective_decay_period == 30

    def test_decay_period_parses_as_int(self):
        cfg = config_from_dict({"iterations": "40", "decay_period": "7"})
        assert cfg.decay_period == 7 and type(cfg.decay_period) is int
        for bad in ("x", "7.5"):
            with pytest.raises(ConfigError):
                config_from_dict({"iterations": "40", "decay_period": bad})


class TestTrainerMechanics:
    def test_requires_registration_labels(self):
        cfg = tiny_config()
        ds = generate_dataset(cfg.n_labeled, cfg.n_unlabeled, cfg.dims, seed=0)
        with pytest.raises(ValueError):
            Trainer(cfg, ds)

    def test_empty_case_set_raises_config_error(self):
        cfg = tiny_config()
        ds = tiny_dataset(cfg)
        for labeled, unlabeled in (([], ds.unlabeled), (ds.labeled, [])):
            with pytest.raises(ConfigError, match="at least one labeled and one unlabeled"):
                Trainer(cfg, Dataset(labeled, unlabeled, ds.dims, ds.n_classes))

    def test_lambda_follows_geometric_schedule(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, tiny_dataset(cfg))
        for t in range(8):
            report = trainer.step(*trainer.batch_for(t))
            assert report.lam == pytest.approx(0.1 * 1.01**t, rel=1e-12)

    def test_lr_decays_stepwise(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, tiny_dataset(cfg))
        reports = [trainer.step(*trainer.batch_for(t)) for t in range(8)]
        assert reports[0].lr == pytest.approx(0.01)
        assert reports[cfg.decay_period].lr == pytest.approx(0.01 * 0.1)

    def test_lr_decays_at_derived_period(self):
        cfg = tiny_config(decay_period=None)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        trainer.schedule.t = cfg.effective_decay_period - 1
        assert trainer.current_lr() == pytest.approx(0.01)
        trainer.schedule.t = cfg.effective_decay_period
        assert trainer.current_lr() == pytest.approx(0.01 * 0.1)

    def test_first_step_is_warm_branch(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, tiny_dataset(cfg))
        report = trainer.step(*trainer.batch_for(0))
        assert report.branch == "warm"
        assert report.v is None

    def test_su_disabled_gives_full_mask(self):
        cfg = tiny_config(enable_su=False, enable_sc=False)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        report = trainer.step(*trainer.batch_for(0))
        assert report.mask_count == 16 * 16 * 8
        assert report.r_conf == 1.0
        assert report.l_bf == 0.0

    def test_loss_report_total_identity(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, tiny_dataset(cfg))
        for t in range(4):
            rep = trainer.step(*trainer.batch_for(t))
            assert rep.total == (rep.l_s + rep.l_u) + rep.l_bf
            assert rep.l_s >= 0 and rep.l_u >= 0 and rep.l_bf >= 0

    @pytest.mark.parametrize("enable_su", [True, False])
    def test_step_past_schedule_end_raises_config_error(self, enable_su):
        cfg = tiny_config(iterations=2, decay_period=2, enable_su=enable_su)
        trainer = Trainer(cfg, tiny_dataset(cfg))
        for t in range(3):  # t = 0..t_max is inside the schedule
            trainer.step(*trainer.batch_for(t))
        with pytest.raises(ConfigError, match="past the schedule's end"):
            trainer.step(*trainer.batch_for(3))

    def test_nonfinite_params_abort_with_schedule_dump(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, tiny_dataset(cfg))
        trainer.student.tensors["seg_b"] = np.array([np.inf, 0.0], dtype=np.float32)
        with pytest.raises(TrainingAbort, match="schedule"):
            trainer.step(*trainer.batch_for(0))

    def test_teacher_matches_ema_closed_form_over_five_steps(self):
        """theta_t = d^t theta_0 + (1-d) sum_i d^(t-1-i) student_{i+1}."""
        cfg = tiny_config(dtype="float64")
        trainer = Trainer(cfg, tiny_dataset(cfg))
        theta0 = {k: v.copy() for k, v in trainer.teacher.tensors.items()}
        students = []
        for t in range(5):
            trainer.step(*trainer.batch_for(t))
            students.append({k: v.copy() for k, v in trainer.student.tensors.items()})
        d = cfg.ema_decay
        for name in PARAM_NAMES:
            expected = theta0[name] * d**5
            for i, snap in enumerate(students):
                expected = expected + (1 - d) * d ** (5 - 1 - i) * snap[name]
            np.testing.assert_allclose(
                trainer.teacher.tensors[name], expected, rtol=1e-10, atol=1e-12
            )

    def test_step_determinism_across_trainers(self):
        cfg = tiny_config()
        ds = tiny_dataset(cfg)
        a, b = Trainer(cfg, ds), Trainer(cfg, ds)
        for t in range(5):
            ra = a.step(*a.batch_for(t))
            rb = b.step(*b.batch_for(t))
            assert ra.csv_row() == rb.csv_row()

    def test_step_draws_depend_on_t_alone(self):
        """A trainer set to iteration 3 draws what one that stepped 0..2 draws."""
        cfg = tiny_config()
        ds = tiny_dataset(cfg)
        stepped, fresh = Trainer(cfg, ds), Trainer(cfg, ds)
        for t in range(3):
            stepped.step(*stepped.batch_for(t))
        fresh.schedule.t = 3
        a, b = StepTrace(), StepTrace()
        stepped.step(*stepped.batch_for(3), capture=a)
        fresh.step(*fresh.batch_for(3), capture=b)
        np.testing.assert_array_equal(a.labeled_strong, b.labeled_strong)
        np.testing.assert_array_equal(a.unlabeled_strong, b.unlabeled_strong)


def flat_dice_ce(probs, labels, idx=None):
    """Independent minimal loss path: direct formulas on flat arrays."""
    p2 = probs.reshape(-1, 2)
    lab = labels.reshape(-1)
    if idx is not None:
        p2, lab = p2[idx], lab[idx]
    g = (lab == 1).astype(np.float64)
    pc = p2[:, 1]
    dice = 1.0 - (2.0 * np.dot(pc, g) + 1e-5) / (pc.sum() + g.sum() + 1e-5)
    picked = np.maximum(p2[np.arange(lab.size), lab], 1e-7)
    return dice + float(np.mean(-np.log(picked)))


class TestStepMemory:
    def test_default_float32_step_allocates_under_30_mib(self):
        """A conv keeps no im2col matrix for backward, so the traced peak of
        one default-size step stays low (48.5 MiB when each student conv
        kept its full cols on the tape)."""
        cfg = TrainConfig(n_labeled=2, n_unlabeled=2, seed=1).validate()
        trainer = Trainer(cfg, tiny_dataset(cfg))
        for t in range(3):
            trainer.step(*trainer.batch_for(t))
        tracemalloc.start()
        try:
            trainer.step(*trainer.batch_for(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestBaselineDegeneration:
    def test_three_steps_match_minimal_mean_teacher_oracle(self):
        """With selection and contrast off, per-step losses must equal an
        independently coded mean-teacher-with-fusion computation."""
        cfg = tiny_config(enable_su=False, enable_sc=False, dtype="float64")
        trainer = Trainer(cfg, tiny_dataset(cfg))
        for t in range(3):
            trace = StepTrace()
            report = trainer.step(*trainer.batch_for(t), capture=trace)
            ls = flat_dice_ce(trace.labeled_probs, trace.labeled_fused)
            lu = flat_dice_ce(trace.unlabeled_probs, trace.unlabeled_pseudo)
            assert abs(report.l_s - ls) < 1e-9
            assert abs(report.l_u - lu) < 1e-9
            assert report.l_bf == 0.0

    def test_masked_step_matches_subset_oracle(self):
        cfg = tiny_config(dtype="float64")
        trainer = Trainer(cfg, tiny_dataset(cfg))
        for t in range(3):
            trace = StepTrace()
            report = trainer.step(*trainer.batch_for(t), capture=trace)
            idx = np.flatnonzero(trace.mask.ravel())
            assert idx.size == report.mask_count
            if idx.size:
                lu = flat_dice_ce(trace.unlabeled_probs, trace.unlabeled_pseudo, idx)
                assert abs(report.l_u - lu) < 1e-9


class TestRunTraining:
    def test_zero_iterations_checkpoints_only(self, tmp_path):
        cfg = tiny_config(iterations=0)
        result = run_training(cfg, tiny_dataset(cfg), tmp_path)
        assert (tmp_path / "final.ckpt").exists()
        assert (tmp_path / "best.ckpt").exists()
        train_log = (tmp_path / "train_log.csv").read_text().splitlines()
        assert len(train_log) == 1  # header only
        assert result.final_summary == {}

    def test_run_produces_logs_and_checkpoints(self, tmp_path):
        cfg = tiny_config()
        result = run_training(cfg, tiny_dataset(cfg), tmp_path)
        train_log = (tmp_path / "train_log.csv").read_text().splitlines()
        assert len(train_log) == 1 + cfg.iterations
        assert train_log[0].startswith("t,L_s,L_u,L_bf,L_total")
        eval_log = (tmp_path / "eval_log.csv").read_text().splitlines()
        assert len(eval_log) == 1 + cfg.iterations // cfg.eval_period
        assert 0.0 <= result.final_summary["dsc"] <= 1.0
        assert (tmp_path / "eval_final.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        """Identical config + seed -> byte-identical logs."""
        cfg = tiny_config()
        run_training(cfg, tiny_dataset(cfg), tmp_path / "a")
        run_training(cfg, tiny_dataset(cfg), tmp_path / "b")
        for name in ("train_log.csv", "eval_log.csv", "eval_final.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_last_eval_point_is_scored_once(self, tmp_path, monkeypatch):
        """With eval_period dividing iterations, eval_final.csv reuses the
        scores of the periodic eval at the last iteration."""
        calls = []
        scored = training.evaluate_params

        def counting(*args):
            calls.append(args)
            return scored(*args)

        monkeypatch.setattr(training, "evaluate_params", counting)
        cfg = tiny_config(iterations=4, eval_period=2, decay_period=2)
        result = run_training(cfg, tiny_dataset(cfg), tmp_path)
        assert len(calls) == 2
        last = (tmp_path / "eval_log.csv").read_text().splitlines()[-1].split(",")
        assert last[:2] == ["4", repr(result.final_summary["dsc"])]

    def test_logged_l_u_replays_the_logged_schedule(self, tmp_path):
        """A Schedule fed the log's own L_u column reproduces its lambda,
        R_conf, v and K columns, over both branches (alpha = 100 leaves the
        warm branch after step 0)."""
        cfg = tiny_config(alpha=100.0, tau_sched=2000.0)
        run_training(cfg, tiny_dataset(cfg), tmp_path)
        rows = (tmp_path / "train_log.csv").read_text().splitlines()
        header = rows[0].split(",")
        cells = [dict(zip(header, row.split(","))) for row in rows[1:]]
        assert len(cells) == cfg.iterations
        assert {c["branch"] for c in cells} == {"warm", "confident"}
        schedule = Schedule(cfg.iterations, cfg.alpha, cfg.delta, cfg.tau_sched)
        n_vox = cfg.dim_h * cfg.dim_w * cfg.dim_d
        for c in cells:
            r_conf, v = schedule.ratio()
            replayed = (repr(schedule.lam), repr(r_conf), "" if v is None else repr(v),
                        str(math.floor(r_conf * n_vox)))
            assert (c["lambda"], c["R_conf"], c["v"], c["K"]) == replayed, c["t"]
            schedule.advance(float(c["L_u"]))

    def test_logged_lambda_column_matches_growth_law(self, tmp_path):
        cfg = tiny_config()
        run_training(cfg, tiny_dataset(cfg), tmp_path)
        rows = (tmp_path / "train_log.csv").read_text().splitlines()[1:]
        for t, row in enumerate(rows):
            lam = float(row.split(",")[7])
            assert lam == pytest.approx(0.1 * 1.01**t, rel=1e-12)
