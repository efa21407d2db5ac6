import shutil

import numpy as np
import pytest

from pacedseg.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from pacedseg.grids import load_arrays, save_arrays
from pacedseg.metrics import MetricsRecord
from pacedseg.network import load_checkpoint
from pacedseg.synthdata import load_dataset
from pacedseg.training import evaluate_params


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


def test_schedule_dump_with_zero_iterations_prints_header_only(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 0\n")
    assert main(["--config", str(cfg), "schedule-dump"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["t,xi,lambda,R_conf,v,K"]


def test_negative_or_nan_loss_exits_config(capsys):
    for value in ("-1", "nan"):
        assert main(["schedule-dump", "--lu-const", value]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("--lu-const must be >= 0") == 2


def test_unreadable_config_exits_config(tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    assert main(["--config", str(binary), "schedule-dump"]) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


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


def test_eval_matches_evaluate_params(trained, tmp_path):
    cfg, data, run = trained
    ckpt = run / "final.ckpt"
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "eval",
                 "--checkpoint", str(ckpt), "--data-dir", str(data)]) == EXIT_OK
    sections, _ = load_checkpoint(ckpt)
    ds = load_dataset(data, include_truth=True)
    cases = [c for c in ds.labeled + ds.unlabeled if c.truth is not None]
    records = evaluate_params(sections["student"], cases, ds.n_classes)
    rows = (tmp_path / "metrics.csv").read_text().splitlines()
    assert rows == [MetricsRecord.CSV_HEADER] + [r.csv_row() for r in records]
    assert len(rows) == 1 + 2


def test_eval_missing_section_exits_config(trained, tmp_path, capsys):
    cfg, data, run = trained
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path), "eval",
            "--checkpoint", str(run / "best.ckpt"), "--data-dir", str(data),
            "--section", "teacher"]
    assert main(argv) == EXIT_CONFIG
    assert "'teacher'" in capsys.readouterr().err


def test_eval_corrupt_checkpoint_exits_config(trained, tmp_path, capsys):
    cfg, data, run = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes((run / "best.ckpt").read_bytes() + b"\0")
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path), "eval",
            "--checkpoint", str(bad), "--data-dir", str(data)]
    assert main(argv) == EXIT_CONFIG
    assert "trailing bytes" in capsys.readouterr().err


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
     "slices is int64 (1, 4, 4), expected int64 (1, 8, 4)"),
    ("data.arr", "slices", lambda a: a[:, :2], "slices is int64 (1, 2, 4), expected"),
    ("data.arr", "reg", lambda a: a[..., :2], "reg is int64 (1, 4, 4, 2), expected"),
    ("data.arr", "reg", lambda a: a.astype(np.float64), "reg is float64"),
    ("truth.arr", "truth", lambda a: a[:1], "truth is int64 (1, 4, 4, 4), expected"),
], ids=["k_past_depth", "images", "slices", "reg", "reg_dtype", "truth"])
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
    cfg, _ = tiny_data
    data = tmp_path / "data"
    argv = ["--config", str(cfg), "--out-dir", str(data), "gen-data", "--no-registration"]
    assert main(argv) == EXIT_OK
    assert _train_on(cfg, data, tmp_path / "run") == EXIT_CONFIG
    assert "has no registration label" in capsys.readouterr().err


def test_train_on_other_dims_exits_config(tiny_data, tmp_path, capsys):
    _, data = tiny_data
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG.replace("dim_d = 4", "dim_d = 6"))
    assert _train_on(cfg, data, tmp_path / "run") == EXIT_CONFIG
    assert "dataset dims (4, 4, 4) != config dims (4, 4, 6)" in capsys.readouterr().err


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


def test_eval_directory_as_checkpoint_exits_config(tiny_data, tmp_path, capsys):
    _, data = tiny_data
    argv = ["--out-dir", str(tmp_path / "out"), "eval",
            "--checkpoint", str(tmp_path), "--data-dir", str(data)]
    assert main(argv) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


OUT_OF_RANGE = [
    ("edge_width", "0"), ("edge_width", "-0.1"), ("noise_amp", "-1"), ("weak_sigma", "-1"),
    ("loss_w_s", "-1"), ("loss_w_u", "-1"), ("loss_w_bf", "-1"), ("center_jitter", "0.6"),
    ("center_jitter", "-0.1"), ("delta", "0.5"), ("lr0", "inf"), ("noise_amp", "inf"),
    ("alpha", "inf"), ("delta", "inf"), ("tau_contrast", "inf"), ("loss_w_s", "inf"),
]


@pytest.mark.parametrize("key,value", OUT_OF_RANGE, ids=[f"{k}={v}" for k, v in OUT_OF_RANGE])
def test_out_of_range_config_exits_config(tmp_path, capsys, key, value):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{SMALL_CFG}{key} = {value}\n")
    argv = ["--config", str(cfg), "--out-dir", str(tmp_path / "run"), "train"]
    assert main(argv) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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


def test_divergent_last_step_exits_numeric(tmp_path, capsys):
    # the one step's update overflows float32; no checkpoint of it is written
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_CFG.replace("iterations = 2", "iterations = 1") + "lr0 = 1e300\n")
    run = tmp_path / "run"
    with np.errstate(over="ignore"):
        assert main(["--config", str(cfg), "--out-dir", str(run), "train"]) == EXIT_NUMERIC
    assert "non-finite update" in capsys.readouterr().err
    assert not (run / "final.ckpt").exists()
