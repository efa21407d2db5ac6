import gc
import math
import re
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
import step_peaks

from pacedseg import autodiff, network, training
from pacedseg.ablation import dataset_for_seed
from pacedseg.errors import ConfigError, TrainingAbort
from pacedseg.grids import downsample_mask
from pacedseg.metrics import summarize
from pacedseg.network import PARAM_NAMES, load_checkpoint
from pacedseg.synthdata import Dataset, generate_dataset
from pacedseg.training import (
    StepTrace,
    TrainConfig,
    Trainer,
    load_config,
    parse_setting,
    run_training,
    save_config,
)


def tiny_config(**overrides):
    base = dict(
        iterations=12, decay_period=6, eval_period=6, n_eval=2,
        dim_h=16, dim_w=16, dim_d=8, n_labeled=3, n_unlabeled=4,
        widths=(2, 3, 4, 3), embed_dim=4, mc_passes=2, k_neg=8,
        dtype="float32", seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base).validate()


class TestConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    def test_file_roundtrip(self, tmp_path):
        cfg = tiny_config(lr0=0.02, enable_sc=False, ablation_seeds=(7, 8, 9), dtype="float64")
        default = TrainConfig()
        moved = {f.type for f in fields(cfg) if getattr(cfg, f.name) != getattr(default, f.name)}
        assert moved == set(training._PARSERS)  # a field of each kind is off its default
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_every_annotation_has_a_parser(self):
        kinds = {f.type for f in fields(TrainConfig)}
        assert kinds <= set(training._PARSERS) and kinds <= set(training._TYPES)

    def test_replace_checks_the_new_config(self):
        with pytest.raises(ConfigError, match="k_neg must be >= 0"):
            replace(TrainConfig(), k_neg=-1)

    def test_fields_cannot_be_assigned(self):
        cfg = TrainConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.k_neg = -1
        assert cfg.k_neg == 64

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_setting("not_a_knob", "1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_setting("iterations", "twelve")
        with pytest.raises(ConfigError):
            parse_setting("enable_su", "maybe")

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
        for iterations in (1, 2):
            assert TrainConfig(iterations=iterations).validate().effective_decay_period == 1
        with pytest.raises(ConfigError, match="iterations must be >= 1"):
            TrainConfig(iterations=0).validate()
        for iterations in range(1, 2000):
            period = TrainConfig(iterations=iterations).effective_decay_period
            assert 1 <= period <= iterations

    def test_replace_rederives_decay_period(self):
        cfg = replace(TrainConfig(), iterations=40).validate()
        assert cfg.decay_period is None and cfg.effective_decay_period == 16
        explicit = replace(TrainConfig(decay_period=30), iterations=40).validate()
        assert explicit.effective_decay_period == 30

    def test_list_settings_take_commas_or_blanks(self):
        assert parse_setting("ablation_seeds", "1, 2, 3") == (1, 2, 3)
        assert parse_setting("widths", "4 8 8 8") == (4, 8, 8, 8)
        assert parse_setting("ablation_seeds", " 1 ,2 3 ") == (1, 2, 3)
        assert parse_setting("ablation_seeds", "") == ()  # what save_config writes for ()
        for bad in ("1,,2,3", ",1,2,3,", "1, ,2", ","):
            with pytest.raises(ConfigError, match="bad value for 'ablation_seeds'"):
                parse_setting("ablation_seeds", bad)

    @pytest.mark.parametrize("key,value", [
        ("widths", [4, 8, 8, 8]), ("iterations", 3.0), ("decay_period", 2.5),
        ("ablation_seeds", (1, 2, 3.0)), ("enable_su", 1), ("lr0", True), ("dtype", np.float32),
    ], ids=["widths_list", "iterations_float", "decay_period_float", "ablation_seeds_float",
            "enable_su_int", "lr0_bool", "dtype_numpy"])
    def test_a_value_not_of_its_annotation_is_refused(self, key, value):
        """A config made in Python is held to the annotations the file parser
        reads by, so it writes a config.txt that reads back and runs."""
        kind = {f.name: f.type for f in fields(TrainConfig)}[key]
        message = rf"^{key} is {re.escape(repr(value))}, not {re.escape(kind)}$"
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**{key: value})
        with pytest.raises(ConfigError, match=message):
            replace(TrainConfig(), **{key: value})

    def test_an_int_is_a_float_and_numpy_scalars_pass(self):
        cfg = TrainConfig(lr0=1, alpha=np.float32(0.5), seed=np.int64(4), decay_period=None)
        assert (cfg.lr0, cfg.alpha, cfg.seed) == (1, 0.5, 4)

    def test_decay_period_parses_as_int(self):
        period = parse_setting("decay_period", "7")
        assert period == 7 and type(period) is int
        for bad in ("x", "7.5"):
            with pytest.raises(ConfigError):
                parse_setting("decay_period", bad)


class TestTrainerMechanics:
    def test_requires_registration_labels(self):
        cfg = tiny_config()
        ds = generate_dataset(cfg.n_labeled, cfg.n_unlabeled, cfg.dims, seed=0)
        with pytest.raises(ValueError):
            Trainer(cfg, ds)

    def test_empty_case_set_raises_config_error(self):
        cfg = tiny_config()
        ds = dataset_for_seed(cfg, cfg.seed)
        for labeled, unlabeled in (([], ds.unlabeled), (ds.labeled, [])):
            with pytest.raises(ConfigError, match="at least one labeled and one unlabeled"):
                Trainer(cfg, Dataset(labeled, unlabeled, ds.dims, ds.n_classes))

    def test_lambda_follows_geometric_schedule(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        for t in range(8):
            report = trainer.step(*trainer.batch_for(t))
            assert report.lam == pytest.approx(0.1 * 1.01**t, rel=1e-12)

    def test_lr_decays_stepwise(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        reports = [trainer.step(*trainer.batch_for(t)) for t in range(8)]
        assert reports[0].lr == pytest.approx(0.01)
        assert reports[cfg.decay_period].lr == pytest.approx(0.01 * 0.1)

    def test_lr_decays_at_derived_period(self):
        cfg = tiny_config(decay_period=None)
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        trainer.schedule.t = cfg.effective_decay_period - 1
        assert cfg.lr_at(trainer.t) == pytest.approx(0.01)
        trainer.schedule.t = cfg.effective_decay_period
        assert cfg.lr_at(trainer.t) == pytest.approx(0.01 * 0.1)

    def test_first_step_is_warm_branch(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        report = trainer.step(*trainer.batch_for(0))
        assert report.branch == "warm"
        assert report.v is None

    def test_su_disabled_gives_full_mask(self):
        cfg = tiny_config(enable_su=False, enable_sc=False)
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        report = trainer.step(*trainer.batch_for(0))
        assert report.mask_count == 16 * 16 * 8
        assert report.r_conf == 1.0
        assert report.l_bf == 0.0

    def test_su_at_ratio_one_admits_every_voxel_without_mc(self, monkeypatch):
        """With SU on, a last L_u of 0 on the confident schedule gives a ratio
        of 1, which admits every voxel whatever the entropies, so the step
        runs no MC pass."""
        cfg = tiny_config(alpha=100.0, tau_sched=2000.0)
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        trainer.schedule.last_lu = 0.0
        passes = []
        monkeypatch.setattr(training, "mc_uncertainty_from_trunk", lambda *a: passes.append(a))
        report = trainer.step(*trainer.batch_for(0))
        assert (report.branch, report.r_conf, report.v) == ("confident", 1.0, 1.0)
        assert report.mask_count == 16 * 16 * 8 and passes == []

    def test_loss_report_total_identity(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        for t in range(4):
            rep = trainer.step(*trainer.batch_for(t))
            assert rep.total == (rep.l_s + rep.l_u) + rep.l_bf
            assert rep.l_s >= 0 and rep.l_u >= 0 and rep.l_bf >= 0

    @pytest.mark.parametrize("enable_su", [True, False])
    def test_step_past_schedule_end_raises_config_error(self, enable_su):
        cfg = tiny_config(iterations=2, decay_period=2, enable_su=enable_su)
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        for t in range(3):  # t = 0..t_max is inside the schedule
            trainer.step(*trainer.batch_for(t))
        with pytest.raises(ConfigError, match="past the schedule's end"):
            trainer.step(*trainer.batch_for(3))

    def test_nonfinite_params_abort_with_schedule_dump(self):
        cfg = tiny_config()
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        trainer.student.tensors["seg_b"] = np.array([np.inf, 0.0], dtype=np.float32)
        with pytest.raises(TrainingAbort, match="schedule"):
            trainer.step(*trainer.batch_for(0))

    @pytest.mark.parametrize("branch", ["labeled", "unlabeled"])
    def test_nonfinite_loss_aborts_before_any_update(self, branch, monkeypatch):
        """A NaN loss in either branch aborts the step, naming every loss and
        the schedule, and leaves student, teacher, velocity and schedule as
        they were, though that branch's graph was already swept."""
        cfg = tiny_config()
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        trainer.step(*trainer.batch_for(0))  # a nonzero velocity and a finite last L_u
        real = training.dice_ce_node

        def poisoned(tape, probs, labels, gate_idx=None):
            node = real(tape, probs, labels, gate_idx=gate_idx)
            hit = (gate_idx is None) == (branch == "labeled")  # the labeled loss is ungated
            return tape.mul_const(node, np.nan) if hit else node

        monkeypatch.setattr(training, "dice_ce_node", poisoned)

        def state():
            return ({k: v.tobytes() for k, v in trainer.student.tensors.items()},
                    {k: v.tobytes() for k, v in trainer.teacher.tensors.items()},
                    {k: v.tobytes() for k, v in trainer.opt.velocity.items()},
                    (trainer.schedule.t, trainer.schedule.lam, trainer.schedule.last_lu))

        before = state()
        with pytest.raises(TrainingAbort, match="non-finite loss at iteration 1") as err:
            trainer.step(*trainer.batch_for(1))
        msg = str(err.value)
        assert ("Ls=nan" in msg) == (branch == "labeled")
        assert ("Lu=nan" in msg) == (branch == "unlabeled")
        assert "Lbf=" in msg and "schedule=Schedule(" in msg
        assert state() == before

    def test_teacher_matches_ema_closed_form_over_five_steps(self):
        """theta_t = d^t theta_0 + (1-d) sum_i d^(t-1-i) student_{i+1}."""
        cfg = tiny_config(dtype="float64")
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
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
        ds = dataset_for_seed(cfg, cfg.seed)
        a, b = Trainer(cfg, ds), Trainer(cfg, ds)
        for t in range(5):
            ra = a.step(*a.batch_for(t))
            rb = b.step(*b.batch_for(t))
            assert ra.csv_row() == rb.csv_row()

    def test_step_draws_depend_on_t_alone(self):
        """A trainer set to iteration 3 draws what one that stepped 0..2 draws."""
        cfg = tiny_config()
        ds = dataset_for_seed(cfg, cfg.seed)
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
    # The traced peak of one warm default-size step, set up and measured as
    # the rows of tools/step_peaks.py are: 18-22% above the 4.23 MiB
    # (float32), 8.38 MiB (float64) and, on the confident schedule, 4.67 MiB
    # (float32) it prints with the student's class and feature maps held as
    # channels-last views over their conv's result. Copying them to C order
    # made it 4.36, 8.63 and 4.92 MiB; one tape swept once at the end peaked
    # at 11.04 and 19.13 MiB, and 48.5 MiB in float32 when each student conv
    # kept its full cols on the tape.
    PEAK_MIB = {"float32, default schedule": 5.0, "float64, default schedule": 9.9,
                "float32, alpha=100, tau_sched=2000": 5.7}

    @pytest.mark.parametrize("row", list(PEAK_MIB),
                             ids=["float32-default", "float64-default", "float32-confident"])
    def test_default_step_traced_peak_is_bounded(self, row):
        cfg = TrainConfig(**step_peaks.BASE, **dict(step_peaks.ROWS)[row]).validate()
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        for t in range(step_peaks.WARM_STEPS):
            trainer.step(*trainer.batch_for(t))
        tracemalloc.start()
        try:
            trainer.step(*trainer.batch_for(step_peaks.WARM_STEPS))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_MIB[row] * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_step_keeps_one_cols_arena(self, dtype, monkeypatch):
        """Every conv of a step, whatever its geometry, takes its tiles of
        cols and of column gradients from one arena, and its phase frame and
        gradient frame from one kept buffer each."""
        monkeypatch.setattr(autodiff, "_kept", {})
        cfg = tiny_config(dtype=dtype)
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        trainer.step(*trainer.batch_for(0))
        assert sorted(autodiff._kept) == [(role, np.dtype(dtype)) for role in ("cols", "gframe", "phases")]

    def test_labeled_tape_is_freed_before_the_unlabeled_graph(self, monkeypatch):
        """The labeled branch sweeps its own tape, so no node of it is alive
        when the unlabeled student graph is recorded, by reference counting
        alone."""
        cfg = tiny_config()
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        labeled, alive = [], []
        real_backward, real_graph = autodiff.Tape.backward, training.forward_graph

        def backward(tape, loss):
            if not labeled:  # the first sweep of a step is the labeled branch's
                labeled.extend([weakref.ref(tape), *map(weakref.ref, tape.nodes)])
            return real_backward(tape, loss)

        def forward_graph(tape, *args, **kwargs):
            if labeled:
                alive.append(sum(ref() is not None for ref in labeled))
            return real_graph(tape, *args, **kwargs)

        monkeypatch.setattr(autodiff.Tape, "backward", backward)
        monkeypatch.setattr(training, "forward_graph", forward_graph)
        gc.disable()
        try:
            trainer.step(*trainer.batch_for(0))
        finally:
            gc.enable()
        # the tape and its 10 nodes: the image, 4 trunk convs, dropout, the
        # head conv, its layout, softmax and Dice + CE
        assert len(labeled) == 11 and alive == [0]


class TestStepArrays:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_views_in_model_dtype_and_labels_one_byte(self, dtype):
        """The strong views a step feeds the student are in the model's dtype,
        and its pseudo and fused labels hold one byte per class id."""
        cfg = tiny_config(dtype=dtype)
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        trace = StepTrace()
        trainer.step(*trainer.batch_for(0), capture=trace)
        assert trace.labeled_strong.dtype == trace.unlabeled_strong.dtype == np.dtype(dtype)
        assert trace.labeled_fused.dtype == trace.unlabeled_pseudo.dtype == np.uint8
        assert trace.labeled_fused.shape == trace.unlabeled_pseudo.shape == cfg.dims

    @staticmethod
    def _mining(monkeypatch, t, **overrides):
        """(mine_pairs calls, the mask grid, the report) of step t of a fresh
        trainer, after the steps before it."""
        cfg = tiny_config(**overrides)
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        for step in range(t):
            trainer.step(*trainer.batch_for(step))
        calls, real = [], training.mine_pairs

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(training, "mine_pairs", spy)
        trace = StepTrace()
        report = trainer.step(*trainer.batch_for(t), capture=trace)
        return calls, downsample_mask(trace.mask, (2, 2, 2)), report

    def test_contrast_mines_nothing_from_an_empty_mask_grid(self, monkeypatch):
        """A warm step admits at most a tenth of the voxels; where no 2x2x2
        block is half admitted, no anchor can exist, so no pair is mined."""
        calls, mask_ds, report = self._mining(monkeypatch, 2)
        assert report.branch == "warm" and report.mask_count > 0
        assert not mask_ds.any()
        assert calls == [] and report.l_bf == 0.0

    def test_contrast_mines_pairs_from_an_admitting_mask_grid(self, monkeypatch):
        calls, mask_ds, report = self._mining(monkeypatch, 1, alpha=100.0, tau_sched=2000.0)
        assert report.branch == "confident" and mask_ds.any()
        assert len(calls) == 1


class TestFeatureHead:
    @staticmethod
    def _step(monkeypatch, enable_sc, unread_heads):
        """(projection-head convs, loss report, parameter gradients) of one
        step; with unread_heads every student graph also records the
        projection head, which nothing reads. With a zero seg bias the
        fresh model predicts both classes, so the contrast fires."""
        cfg = tiny_config(enable_su=False, enable_sc=enable_sc, seed=1)
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        trainer.student.tensors["seg_b"][:] = 0.0
        trainer.teacher = trainer.student.copy()
        proj_shape = trainer.student.tensors["proj_w"].shape
        convs, grads = [], {}

        def counting(conv):
            def wrapped(x, w, *args, **kwargs):
                convs.append(w.shape == proj_shape)
                return conv(x, w, *args, **kwargs)
            return wrapped

        def recording(tape, pnodes, image, dropout=None):
            probs, hd = real_graph(tape, pnodes, image, dropout)
            if unread_heads:
                network.feature_node(tape, pnodes, hd)
            return probs, hd

        def keeping(params, step_grads, *args):
            grads.update({k: v.copy() for k, v in step_grads.items()})
            return real_sgd(params, step_grads, *args)

        real_graph, real_sgd = training.forward_graph, training.sgd_step
        with monkeypatch.context() as m:
            m.setattr(autodiff, "conv3d_raw", counting(autodiff.conv3d_raw))
            m.setattr(network, "conv3d_raw", counting(network.conv3d_raw))
            m.setattr(training, "forward_graph", recording)
            m.setattr(training, "sgd_step", keeping)
            report = trainer.step(*trainer.batch_for(0))
        return sum(convs), report, grads

    @pytest.mark.parametrize("enable_sc", [True, False])
    def test_only_feature_readers_run_the_projection_head(self, enable_sc, monkeypatch):
        """Of the six views a step runs (three per branch), only the
        unlabeled student graph and its two teacher views feed the contrast,
        so only they run the projection head, and with SC off none does.
        Every student graph recording the head as well, unread, as the model
        once did, changes no gradient bit."""
        n_proj, report, grads = self._step(monkeypatch, enable_sc, unread_heads=False)
        n_wide, wide_report, wide_grads = self._step(monkeypatch, enable_sc, unread_heads=True)
        assert n_proj == (3 if enable_sc else 0)
        assert n_wide == n_proj + 2
        assert (report.l_bf != 0) == enable_sc
        assert (grads["proj_w"] != 0).any() == enable_sc
        assert report.csv_row() == wide_report.csv_row()
        assert grads.keys() == wide_grads.keys() == set(PARAM_NAMES)
        for name in PARAM_NAMES:
            assert grads[name].tobytes() == wide_grads[name].tobytes(), name


class TestBaselineDegeneration:
    def test_three_steps_match_minimal_mean_teacher_oracle(self):
        """With selection and contrast off, per-step losses must equal an
        independently coded mean-teacher-with-fusion computation."""
        cfg = tiny_config(enable_su=False, enable_sc=False, dtype="float64")
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
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
        trainer = Trainer(cfg, dataset_for_seed(cfg, cfg.seed))
        for t in range(3):
            trace = StepTrace()
            report = trainer.step(*trainer.batch_for(t), capture=trace)
            idx = np.flatnonzero(trace.mask.ravel())
            assert idx.size == report.mask_count
            if idx.size:
                lu = flat_dice_ce(trace.unlabeled_probs, trace.unlabeled_pseudo, idx)
                assert abs(report.l_u - lu) < 1e-9


class TestRunTraining:
    def test_zero_iterations_is_refused_before_any_file(self, tmp_path):
        cfg = tiny_config()
        with pytest.raises(ConfigError, match="iterations must be >= 1"):
            run_training(replace(cfg, iterations=0), dataset_for_seed(cfg, cfg.seed),
                         tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_run_writes_only_the_last_student_files(self, tmp_path):
        """A run leaves its logs, the last student's scores and final.ckpt,
        and no other checkpoint; the one step of a one-step run is scored."""
        for iterations, eval_period in ((2, 1), (1, 2)):
            cfg = tiny_config(iterations=iterations, eval_period=eval_period, decay_period=1)
            out = tmp_path / str(iterations)
            summary = run_training(cfg, dataset_for_seed(cfg, cfg.seed), out)
            assert {p.name for p in out.iterdir()} == {"config.txt", "train_log.csv",
                                                       "eval_log.csv", "eval_final.csv",
                                                       "final.ckpt"}
            assert load_config(out / "config.txt") == cfg
            rows = (out / "eval_final.csv").read_text().splitlines()
            assert len(rows) == 1 + cfg.n_eval and 0.0 <= summary["dsc"] <= 1.0

    def test_run_produces_logs_and_checkpoints(self, tmp_path):
        cfg = tiny_config()
        summary = run_training(cfg, dataset_for_seed(cfg, cfg.seed), tmp_path)
        train_log = (tmp_path / "train_log.csv").read_text().splitlines()
        assert len(train_log) == 1 + cfg.iterations
        assert train_log[0].startswith("t,L_s,L_u,L_bf,L_total")
        eval_log = (tmp_path / "eval_log.csv").read_text().splitlines()
        assert len(eval_log) == 1 + cfg.iterations // cfg.eval_period
        assert 0.0 <= summary["dsc"] <= 1.0
        assert (tmp_path / "eval_final.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        """Identical config + seed -> byte-identical logs and checkpoint."""
        cfg = tiny_config()
        run_training(cfg, dataset_for_seed(cfg, cfg.seed), tmp_path / "a")
        run_training(cfg, dataset_for_seed(cfg, cfg.seed), tmp_path / "b")
        for name in ("train_log.csv", "eval_log.csv", "eval_final.csv", "final.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_last_eval_point_is_scored_once(self, tmp_path, monkeypatch):
        """The student is scored once at each periodic point and once after the
        last iteration, which is one of them when eval_period divides
        iterations; eval_final.csv holds that last student's scores."""
        calls = []
        scored = training.evaluate_params

        def counting(*args):
            calls.append(args)
            return scored(*args)

        monkeypatch.setattr(training, "evaluate_params", counting)
        for iterations, n_calls in ((4, 2), (5, 3)):
            calls.clear()
            cfg = tiny_config(iterations=iterations, eval_period=2, decay_period=2)
            out = tmp_path / str(iterations)
            summary = run_training(cfg, dataset_for_seed(cfg, cfg.seed), out)
            assert len(calls) == n_calls
            eval_log = [row.split(",") for row in
                        (out / "eval_log.csv").read_text().splitlines()[1:]]
            assert [row[0] for row in eval_log] == ["2", "4"]
            final_student = load_checkpoint(out / "final.ckpt")[0]["student"]
            records = scored(final_student, calls[-1][1], cfg.n_classes)
            assert ((out / "eval_final.csv").read_text().splitlines()[1:]
                    == [rec.csv_row() for rec in records])
            assert summary["dsc"] == summarize(records)["dsc"]
            if iterations == 4:  # the periodic point at 4 is the final one
                assert eval_log[-1][1] == repr(summary["dsc"])

    def test_logged_l_u_replays_the_logged_schedule(self, tmp_path):
        """The config's schedule fed the log's own L_u column reproduces its lambda,
        R_conf, v and K columns, over both branches (alpha = 100 leaves the
        warm branch after step 0)."""
        cfg = tiny_config(alpha=100.0, tau_sched=2000.0)
        run_training(cfg, dataset_for_seed(cfg, cfg.seed), tmp_path)
        rows = (tmp_path / "train_log.csv").read_text().splitlines()
        header = rows[0].split(",")
        cells = [dict(zip(header, row.split(","))) for row in rows[1:]]
        assert len(cells) == cfg.iterations
        assert {c["branch"] for c in cells} == {"warm", "confident"}
        schedule = cfg.new_schedule()
        n_vox = cfg.dim_h * cfg.dim_w * cfg.dim_d
        for c in cells:
            r_conf, v = schedule.ratio()
            replayed = (repr(schedule.lam), repr(r_conf), "" if v is None else repr(v),
                        str(math.floor(r_conf * n_vox)))
            assert (c["lambda"], c["R_conf"], c["v"], c["K"]) == replayed, c["t"]
            schedule.advance(float(c["L_u"]))

    def test_logged_lambda_column_matches_growth_law(self, tmp_path):
        cfg = tiny_config()
        run_training(cfg, dataset_for_seed(cfg, cfg.seed), tmp_path)
        rows = (tmp_path / "train_log.csv").read_text().splitlines()[1:]
        for t, row in enumerate(rows):
            lam = float(row.split(",")[7])
            assert lam == pytest.approx(0.1 * 1.01**t, rel=1e-12)
