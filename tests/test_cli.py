import re
import shutil
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest

from pacedseg import cli, losses
from pacedseg.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from pacedseg.grids import load_arrays, save_arrays
from pacedseg.metrics import summarize
from pacedseg.network import init_params, load_checkpoint, save_checkpoint
from pacedseg.synthdata import load_dataset
from pacedseg.training import TrainConfig, evaluate_params, load_config


def test_schedule_dump_with_only_iterations_set(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 40\n")
    assert main(["--config", str(cfg), "schedule-dump"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "t,xi,lambda,R_conf,v,K" and len(rows) == 1 + 40


def test_explicit_decay_period_over_iterations_exits_config(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 12\ndecay_period = 100\n")
    assert main(["--config", str(cfg), "schedule-dump"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "decay_period (100)" in err and "iterations (12)" in err


@pytest.mark.parametrize("verb", [
    ["gen-data"], ["train"], ["eval", "--checkpoint", "c", "--data-dir", "d"], ["ablate"],
    ["schedule-dump"],
], ids=lambda verb: verb[0])
def test_zero_iterations_exits_config(tmp_path, capsys, verb):
    """A run takes at least one step, so each run has its last student's
    scores, which ablate's progress line reads."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 0\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), *verb]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "iterations must be >= 1" in captured.err and captured.out == ""
    assert not out.exists()


def test_negative_or_nan_loss_exits_config(capsys):
    for value in ("-1", "nan"):
        assert main(["schedule-dump", "--lu-const", value]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("--lu-const must be >= 0") == 2


@pytest.mark.parametrize("text,where", [
    ("iterations = 12\nlr0 = 0.5\niterations = 5\n",
     ":3: 'iterations' is set again, first on line 1"),
    ("iterations = 12\niteration = 3\n", ":2: unknown config key 'iteration'"),
    ("# a comment\niterations = twelve\n", ":2: bad value for 'iterations': 'twelve'"),
], ids=["repeated_key", "unknown_key", "bad_value"])
def test_config_file_error_names_its_line(tmp_path, capsys, text, where):
    """Each key is set once in a file, and a line's error names the line."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "train"]) == EXIT_CONFIG
    assert f"config error: {cfg}{where}" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_config_exits_config(tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    assert main(["--config", str(binary), "schedule-dump"]) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_more_classes_than_a_byte_holds_exits_config(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_classes = 257\n")
    assert main(["--config", str(cfg), "schedule-dump"]) == EXIT_CONFIG
    assert "n_classes must be in [2, 256]" in capsys.readouterr().err


def test_lu_csv_is_an_unknown_flag(capsys):
    """schedule-dump reads no log: a run's schedule is in its own train_log.csv."""
    with pytest.raises(SystemExit) as exc:
        main(["schedule-dump", "--lu-csv", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lu-csv x" in capsys.readouterr().err


SMALL_CFG = (
    "dim_h = 8\ndim_w = 8\ndim_d = 4\n"
    "iterations = 2\nn_labeled = 1\nn_unlabeled = 1\nn_eval = 1\n"
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """gen-data then train on an 8x8x4 config; returns (cfg, data dir, run dir)."""
    root = tmp_path_factory.mktemp("cli_run")
    cfg = root / "c.cfg"
    cfg.write_text(SMALL_CFG)
    data, run = root / "data", root / "run"
    assert main(["--config", str(cfg), "--out-dir", str(data), "gen-data"]) == EXIT_OK
    assert main(["--config", str(cfg), "--out-dir", str(run), "train",
                 "--data-dir", str(data)]) == EXIT_OK
    return cfg, data, run


@pytest.mark.parametrize("section", ["student", "teacher"])
def test_eval_matches_evaluate_params(trained, tmp_path, capsys, section):
    cfg, data, run = trained
    ckpt = run / "final.ckpt"
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "eval",
                 "--checkpoint", str(ckpt), "--data-dir", str(data),
                 "--section", section]) == EXIT_OK
    sections, _ = load_checkpoint(ckpt)
    ds = load_dataset(data, include_truth=True)
    records = evaluate_params(sections[section], ds.labeled + ds.unlabeled, ds.n_classes)
    rows = (tmp_path / "metrics.csv").read_text().splitlines()
    assert rows == ["case_id,dsc,jaccard,asd,hd"] + [r.csv_row() for r in records]
    assert len(rows) == 1 + 2
    s = summarize(records)
    assert capsys.readouterr().out.splitlines() == [
        f"2 cases: DSC={s['dsc']:.4f} Jaccard={s['jaccard']:.4f} ASD={s['asd']:.4f} "
        f"HD={s['hd']:.4f} (undefined: {int(s['n_undefined'])})"
    ]


def test_train_writes_the_eval_formats(tmp_path, capsys):
    """The eval file headers and the CLI's final line, spelled out."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_CFG + "eval_period = 1\n")
    run = tmp_path / "run"
    assert main(["--config", str(cfg), "--out-dir", str(run), "train"]) == EXIT_OK
    eval_log = (run / "eval_log.csv").read_text().splitlines()
    assert eval_log[0] == "iteration,mean_dsc,mean_jaccard,mean_asd,mean_hd,n_undefined"
    assert [row.split(",")[0] for row in eval_log[1:]] == ["1", "2"]
    assert (run / "eval_final.csv").read_text().splitlines()[0] == "case_id,dsc,jaccard,asd,hd"
    dsc, jaccard, asd, hd = (float(x) for x in eval_log[-1].split(",")[1:5])
    assert capsys.readouterr().out.splitlines() == [
        f"final: DSC={dsc:.4f} Jaccard={jaccard:.4f} ASD={asd:.4f} HD={hd:.4f}",
        f"artifacts in {run}",
    ]


def test_eval_class_mismatch_exits_config(trained, tmp_path, capsys):
    cfg, data, _ = trained
    ckpt = tmp_path / "three.ckpt"
    save_checkpoint(ckpt, {"student": init_params(n_classes=3)}, {"iteration": 0})
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "eval",
            "--checkpoint", str(ckpt), "--data-dir", str(data)]
    assert main(argv) == EXIT_CONFIG
    assert "has 3 classes, dataset" in capsys.readouterr().err


def test_eval_on_odd_dims_exits_config(trained, tmp_path, capsys):
    """A dataset the model cannot take is refused when it is read, before a
    forward pass."""
    cfg, _, run = trained
    data = tmp_path / "odd"
    data.mkdir()
    save_arrays(data / "data.arr", {
        "classes": np.int64(2), "images": np.zeros((1, 7, 8, 4), dtype=np.float32),
        "k": np.array([2]), "slices": np.zeros((1, 7, 8), dtype=np.uint8),
        "reg": np.zeros((1, 7, 8, 4), dtype=np.uint8),
    })
    save_arrays(data / "truth.arr", {"truth": np.zeros((1, 7, 8, 4), dtype=np.uint8)})
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "eval",
            "--checkpoint", str(run / "final.ckpt"), "--data-dir", str(data)]
    assert main(argv) == EXIT_CONFIG
    assert "image dims (7, 8, 4) must be >= 4 and divisible by 2" in capsys.readouterr().err


def test_eval_missing_section_exits_config(trained, tmp_path, capsys):
    cfg, data, run = trained
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path), "eval",
            "--checkpoint", str(run / "final.ckpt"), "--data-dir", str(data),
            "--section", "ema"]
    assert main(argv) == EXIT_CONFIG
    assert "'ema'" in capsys.readouterr().err


def test_eval_corrupt_checkpoint_exits_config(trained, tmp_path, capsys):
    cfg, data, run = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes((run / "final.ckpt").read_bytes() + b"\0")
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path), "eval",
            "--checkpoint", str(bad), "--data-dir", str(data)]
    assert main(argv) == EXIT_CONFIG
    assert "trailing bytes" in capsys.readouterr().err


def test_eval_dropout_rate_outside_unit_interval_exits_config(trained, tmp_path, capsys):
    cfg, data, run = trained
    arrays = load_arrays(run / "final.ckpt")
    arrays["student/dropout_rate"] = np.float64(1.5)
    bad = tmp_path / "bad.ckpt"
    save_arrays(bad, arrays)
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "eval",
            "--checkpoint", str(bad), "--data-dir", str(data)]
    assert main(argv) == EXIT_CONFIG
    assert "section 'student' has dropout_rate 1.5, not in [0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_eval_zero_width_layer_exits_config(trained, tmp_path, capsys):
    """A checkpoint no config could make is refused as it is read, not in
    the conv engine."""
    cfg, data, run = trained
    arrays = load_arrays(run / "final.ckpt")
    arrays["student/enc1_w"] = arrays["student/enc1_w"][..., :0]
    arrays["student/enc1_b"] = arrays["student/enc1_b"][:0]
    arrays["student/enc2_w"] = arrays["student/enc2_w"][:0]
    bad = tmp_path / "bad.ckpt"
    save_arrays(bad, arrays)
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "eval",
            "--checkpoint", str(bad), "--data-dir", str(data)]
    assert main(argv) == EXIT_CONFIG
    assert "section 'student' has widths (0, " in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()


TINY_CFG = (
    "dim_h = 4\ndim_w = 4\ndim_d = 4\n"
    "iterations = 1\nn_labeled = 1\nn_unlabeled = 1\nn_eval = 1\n"
)


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    """A 4x4x4 gen-data directory and its config; returns (cfg, data dir)."""
    root = tmp_path_factory.mktemp("cli_tiny")
    cfg = root / "c.cfg"
    cfg.write_text(TINY_CFG)
    data = root / "data"
    assert main(["--config", str(cfg), "--out-dir", str(data), "gen-data"]) == EXIT_OK
    return cfg, data


def _train_on(cfg, data, out):
    return main(["--config", str(cfg), "--out-dir", str(out), "train", "--data-dir", str(data)])


@pytest.mark.parametrize("fname,name,edit,message", [
    ("data.arr", "k", lambda k: k + 97, "k=[99] outside depth 4"),
    # images twice as tall: the stored slices no longer match them
    ("data.arr", "images", lambda a: np.concatenate([a, a], axis=1),
     "slices is uint8 (1, 4, 4), expected uint8 (1, 8, 4)"),
    ("data.arr", "slices", lambda a: a[:, :2], "slices is uint8 (1, 2, 4), expected"),
    ("data.arr", "reg", lambda a: a[..., :2], "reg is uint8 (1, 4, 4, 2), expected"),
    ("data.arr", "reg", lambda a: a.astype(np.float64), "reg is float64"),
    # class ids are one byte on disk, as in memory: int64 ids are refused
    ("data.arr", "reg", lambda a: a.astype(np.int64),
     "reg is int64 (1, 4, 4, 4), expected uint8 (1, 4, 4, 4)"),
    ("truth.arr", "truth", lambda a: a[:1], "truth is uint8 (1, 4, 4, 4), expected"),
    # the config keeps its default n_classes = 2
    ("data.arr", "classes", lambda c: np.int64(3), "dataset has 3 classes, config n_classes is 2"),
    # a byte holds class id 255, which two classes do not have
    ("data.arr", "reg", lambda a: np.full(a.shape, 255, dtype=np.uint8),
     "labels outside [0, n_classes)"),
    ("data.arr", "classes", lambda c: np.int64(300), "classes=300 is outside [2, 256]"),
], ids=["k_past_depth", "images", "slices", "reg", "reg_dtype", "reg_int64", "truth", "classes",
        "reg_label_255", "classes_300"])
def test_malformed_data_exits_config(tiny_data, trained, tmp_path, capsys,
                                     fname, name, edit, message):
    cfg, data = tiny_data
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    arrays = load_arrays(bad / fname)
    arrays[name] = edit(arrays[name])
    save_arrays(bad / fname, arrays)
    if fname == "truth.arr":  # only eval reads the truth
        argv = ["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "eval",
                "--checkpoint", str(trained[2] / "final.ckpt"), "--data-dir", str(bad)]
        assert main(argv) == EXIT_CONFIG
    else:
        assert _train_on(cfg, bad, tmp_path / "run") == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_manifest_layout_is_not_read(tmp_path, capsys):
    """A directory in the older manifest + one-file-per-case layout is refused."""
    old = tmp_path / "old"
    (old / "images").mkdir(parents=True)
    (old / "manifest.txt").write_text("# pacedseg dataset manifest v1\ndims = 4 4 4\n")
    argv = ["--out-dir", str(tmp_path / "run"), "train", "--data-dir", str(old)]
    assert main(argv) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err
    (old / "data.arr").write_text("# pacedseg dataset manifest v1\n")
    assert main(argv) == EXIT_CONFIG
    assert "data.arr: bad magic" in capsys.readouterr().err


def test_train_without_registration_exits_config(tiny_data, tmp_path, capsys):
    """gen-data always writes registration labels; a data.arr without them,
    written by hand, is refused when it is read."""
    cfg, data = tiny_data
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    arrays = load_arrays(bad / "data.arr")
    del arrays["reg"]
    save_arrays(bad / "data.arr", arrays)
    assert _train_on(cfg, bad, tmp_path / "run") == EXIT_CONFIG
    assert "data.arr holds ['classes', 'images', 'k', 'slices']" in capsys.readouterr().err
    assert not (tmp_path / "run" / "config.txt").exists()


def test_no_registration_is_an_unknown_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), "gen-data", "--no-registration"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-registration" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [
    ["--seed", "777", "gen-data"], ["--seed", "777", "train"],
    ["ablate", "--seeds", "1,2,777"],
], ids=["gen-data", "train", "ablate"])
def test_training_on_the_eval_seed_exits_config(tmp_path, capsys, verb):
    """No verb trains on, or writes, cases drawn from the eval seed (default
    777), whose first labeled cases would be the eval cases. ablate refuses
    before its first seed's runs."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), *verb]) == EXIT_CONFIG
    assert "seed 777 is eval_seed" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("verb", ["gen-data", "train", "ablate"])
def test_class_count_the_generator_does_not_make_exits_config(tmp_path, capsys, verb):
    """The generator makes two classes, so no verb that generates data writes
    a dataset or a run whose class count its config denies."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG + "n_classes = 3\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), verb]) == EXIT_CONFIG
    assert "n_classes is 3, the generator makes 2" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_train_on_other_dims_exits_config(tiny_data, tmp_path, capsys):
    _, data = tiny_data
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG.replace("dim_d = 4", "dim_d = 6"))
    assert _train_on(cfg, data, tmp_path / "run") == EXIT_CONFIG
    assert "dataset dims (4, 4, 4) != config dims (4, 4, 6)" in capsys.readouterr().err
    assert not (tmp_path / "run" / "config.txt").exists()


@pytest.mark.parametrize("cfg_text,extra", [
    ("seed = -1\n", []),
    ("", ["--seed", "-5"]),
    ("eval_seed = -1\n", []),
    ("ablation_seeds = 1,-2,3\n", []),
], ids=["seed", "seed_flag", "eval_seed", "ablation_seeds"])
def test_negative_seed_exits_config(tmp_path, capsys, cfg_text, extra):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 3\n" + cfg_text)
    assert main(["--config", str(cfg), *extra, "schedule-dump"]) == EXIT_CONFIG
    assert "must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["1,2", "1,1,2", "1,2,-3"])
def test_bad_ablation_seeds_exit_config(tmp_path, capsys, seeds):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG)  # keeps a wrongly accepted seed list to a short run
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path), "ablate", "--seeds", seeds]
    assert main(argv) == EXIT_CONFIG
    assert "at least 3 distinct non-negative seeds" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_malformed_ablation_seeds_exit_config(tmp_path, capsys):
    """--seeds is read as the config's ablation_seeds is."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG)
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path), "ablate", "--seeds", "1,x,3"]
    assert main(argv) == EXIT_CONFIG
    assert "bad value for 'ablation_seeds': '1,x,3'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_eval_directory_as_checkpoint_exits_config(tiny_data, tmp_path, capsys):
    _, data = tiny_data
    argv = ["--out-dir", str(tmp_path / "out"), "eval",
            "--checkpoint", str(tmp_path), "--data-dir", str(data)]
    assert main(argv) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


# inf has a meaning for these float settings only
INF_ALLOWED = ("fuse_half_life", "tau_sched")
FLOAT_KEYS = [f.name for f in fields(TrainConfig) if get_type_hints(TrainConfig)[f.name] is float]
OUT_OF_RANGE = [
    ("edge_width", "0"), ("edge_width", "-0.1"), ("noise_amp", "-1"), ("weak_sigma", "-1"),
    ("loss_w_s", "-1"), ("loss_w_u", "-1"), ("loss_w_bf", "-1"), ("center_jitter", "0.6"),
    ("center_jitter", "-0.1"), ("delta", "0.5"), ("delta", "nan"), ("alpha", "0"),
    ("mc_passes", "0"), ("k_neg", "-1"), ("tau_contrast", "0"), ("ema_decay", "1"),
    ("lr0", "0"), ("fuse_w0", "1.5"), ("fuse_half_life", "0"), ("noise_amp", "1e38"),
] + [(key, "inf") for key in FLOAT_KEYS if key not in INF_ALLOWED]


@pytest.mark.parametrize("key,value", OUT_OF_RANGE, ids=[f"{k}={v}" for k, v in OUT_OF_RANGE])
def test_out_of_range_config_exits_config(tmp_path, capsys, key, value):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{SMALL_CFG}{key} = {value}\n")
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path / "run"), "train"]
    assert main(argv) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_learning_rate_underflow_exits_config(tmp_path, capsys):
    """lr0 * lr_decay ** 65 is 0.0 in float64: a learning rate that reaches
    0 before the last iteration is refused before any run file is written."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_CFG.replace("iterations = 2", "iterations = 80")
                   + "decay_period = 1\nlr_decay = 0.00001\n")
    run = tmp_path / "run"
    assert main(["--config", str(cfg), "--out-dir", str(run), "train"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "learning rate underflows to 0" in captured.err and "lr_decay" in captured.err
    assert captured.out == "" and not run.exists()


@pytest.mark.parametrize("key", INF_ALLOWED)
def test_infinite_setting_with_a_meaning_is_accepted(tmp_path, capsys, key):
    assert key in FLOAT_KEYS
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"iterations = 4\n{key} = inf\n")
    assert main(["--config", str(cfg), "schedule-dump"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4


@pytest.mark.parametrize("verb", [
    ["gen-data"], ["train"], ["eval", "--checkpoint", "c", "--data-dir", "d"], ["ablate"],
], ids=lambda verb: verb[0])
def test_unusable_out_dir_exits_config(tmp_path, capsys, verb):
    taken = tmp_path / "file"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert main(["--out-dir", str(out), *verb]) == EXIT_CONFIG
        assert "cannot create --out-dir" in capsys.readouterr().err


def _su_off_run(tmp_path):
    """(config path, train_log.csv rows as dicts) of a 4-step SU-off run whose
    schedule, with SU on, would leave the warm branch at t = 1."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_CFG.replace("iterations = 2", "iterations = 4")
                   + "alpha = 100\ntau_sched = 2000\nenable_su = false\n")
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "run"), "train"]) == EXIT_OK
    return cfg, _csv_cells((tmp_path / "run" / "train_log.csv").read_text())


def _csv_cells(text):
    rows = text.splitlines()
    header = rows[0].split(",")
    return [dict(zip(header, row.split(","))) for row in rows[1:]]


def test_su_off_steps_log_branch_off(tmp_path):
    _, cells = _su_off_run(tmp_path)
    assert len(cells) == 4
    # R_conf = 1 and every voxel (8 * 8 * 4) selected, from the warm step on
    assert ([(c["branch"], c["R_conf"], c["v"], c["K"]) for c in cells]
            == [("off", "1.0", "", "256")] * 4)


def test_su_off_schedule_dump_matches_the_run_log(tmp_path, capsys):
    cfg, cells = _su_off_run(tmp_path)
    capsys.readouterr()
    assert main(["--config", str(cfg), "schedule-dump"]) == EXIT_OK
    columns = ("lambda", "R_conf", "v", "K")
    assert ([tuple(c[k] for k in columns) for c in _csv_cells(capsys.readouterr().out)]
            == [tuple(c[k] for k in columns) for c in cells])


def test_schedule_dump_writes_v_through_the_run_logs_formatter(tmp_path, capsys, monkeypatch):
    """The v column of `schedule-dump` and of train_log.csv has one writer,
    `losses.v_cell`, so the two cannot disagree."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_CFG)
    assert cli.v_cell is losses.v_cell
    monkeypatch.setattr(cli, "v_cell", lambda v: "cell")
    assert main(["--config", str(cfg), "schedule-dump"]) == EXIT_OK
    assert [c["v"] for c in _csv_cells(capsys.readouterr().out)] == ["cell"] * 2


def test_aborted_run_leaves_its_config(tmp_path, capsys):
    """A run stopped by a numeric abort still says what it ran: its
    config.txt is written before the first step, and train_log.csv holds
    one row for each step that finished before the abort."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_CFG + "lr0 = 1e38\n")
    run = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["--config", str(cfg), "--out-dir", str(run), "train"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric abort" in err
    aborted_at = int(re.search(r"at iteration (\d+)", err).group(1))
    assert aborted_at == 1  # the first step finished, the second diverged
    assert load_config(run / "config.txt") == load_config(cfg)
    cells = _csv_cells((run / "train_log.csv").read_text())
    assert [c["t"] for c in cells] == [str(t) for t in range(aborted_at)]
    assert not (run / "final.ckpt").exists()


def test_divergent_last_step_exits_numeric(tmp_path, capsys):
    # the one step's update overflows float32; no checkpoint of it is written
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_CFG.replace("iterations = 2", "iterations = 1") + "lr0 = 1e300\n")
    run = tmp_path / "run"
    with np.errstate(over="ignore"):
        assert main(["--config", str(cfg), "--out-dir", str(run), "train"]) == EXIT_NUMERIC
    assert "non-finite update" in capsys.readouterr().err
    assert not (run / "final.ckpt").exists()
