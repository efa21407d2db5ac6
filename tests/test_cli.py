import pytest

from pacedseg.cli import EXIT_CONFIG, EXIT_OK, main
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


def test_lu_csv_longer_than_iterations_exits_config(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 3\n")
    log = tmp_path / "train_log.csv"
    log.write_text("t,L_u\n" + "".join(f"{t},0.5\n" for t in range(5)))
    assert main(["--config", str(cfg), "schedule-dump", "--lu-csv", str(log)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "5 L_u rows" in err and "iterations is 3" in err


def _dump_with_lu_csv(tmp_path, text):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 3\n")
    log = tmp_path / "train_log.csv"
    log.write_text(text)
    return main(["--config", str(cfg), "schedule-dump", "--lu-csv", str(log)])


def test_lu_csv_non_numeric_cell_exits_config(tmp_path, capsys):
    assert _dump_with_lu_csv(tmp_path, "t,L_u\n0,abc\n") == EXIT_CONFIG
    assert "'0,abc'" in capsys.readouterr().err


def test_lu_csv_short_row_exits_config(tmp_path, capsys):
    assert _dump_with_lu_csv(tmp_path, "t,L_u\n0\n") == EXIT_CONFIG
    assert ":2:" in capsys.readouterr().err


def test_lu_csv_empty_file_exits_config(tmp_path, capsys):
    assert _dump_with_lu_csv(tmp_path, "") == EXIT_CONFIG
    assert "no L_u column" in capsys.readouterr().err


def test_negative_or_nan_loss_exits_config(tmp_path, capsys):
    for cell in ("-0.5", "nan"):
        assert _dump_with_lu_csv(tmp_path, f"t,L_u\n0,{cell}\n") == EXIT_CONFIG
    assert main(["schedule-dump", "--lu-const", "-1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("L_u must be >= 0") == 2 and "--lu-const must be >= 0" in err


def test_unreadable_config_or_lu_csv_exits_config(tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    assert main(["--config", str(binary), "schedule-dump"]) == EXIT_CONFIG
    for bad in (binary, tmp_path):
        argv = ["schedule-dump", "--lu-csv", str(bad)]
        assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.count("cannot read") == 3


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
