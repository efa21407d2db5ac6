"""tools/identity_runs.py on a tiny config: the runs it makes and the files they write."""

import os

import identity_runs
import pytest

from test_quality_pin import REG_RUN

from pacedseg.training import load_config

TINY = {"dim_h": "16", "dim_w": "16", "dim_d": "8", "n_labeled": "2", "n_unlabeled": "2",
        "widths": "2 3 4 3", "embed_dim": "4", "mc_passes": "2", "k_neg": "8"}
TRAIN_FILES = ["config.txt", "eval_final.csv", "eval_log.csv", "final.ckpt", "train_log.csv"]


def test_runs_pin_blas_to_one_thread_and_import_the_checkout(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    env = identity_runs.run_env(tmp_path)
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"] == os.pathsep.join([str(tmp_path / "src"), str(tmp_path / "bench")])


def test_tiny_config_writes_every_run_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(identity_runs, "TRAIN", {"iterations": "6", "eval_period": "3",
                                                 "n_eval": "1"})
    monkeypatch.setattr(identity_runs, "ABLATE", {"iterations": "2", "n_eval": "1"})
    monkeypatch.setattr(identity_runs, "REG", {**identity_runs.REG, "iterations": "4",
                                               "decay_period": "2"})
    out = tmp_path / "out"
    identity_runs.write_runs(out, base=TINY, late_steps=2)
    printed = capsys.readouterr().out.splitlines()
    names = [name for name, _ in identity_runs.runs(tmp_path, TINY, 2)]
    assert [line.split(":")[0] for line in printed] == names
    assert names == ["data", "train_float32_default", "train_float32_confident",
                     "train_float64_default", "train_float64_confident",
                     "train_float32_generated", "train_reg", "eval_float32", "eval_float64",
                     "schedule_default", "schedule_confident",
                     "ablate", "late_float32", "late_float64"]
    for name in names[1:6]:
        assert sorted(p.name for p in (out / name).iterdir()) == TRAIN_FILES
        assert len((out / name / "train_log.csv").read_text().splitlines()) == 7
        config = (out / name / "config.txt").read_text()
        assert f"dtype = {name.split('_')[1]}" in config and "dim_d = 8" in config
        assert ("alpha = 100.0" in config) == name.endswith("confident")
    # the generated run trains on the seed-0 cases that gen-data wrote
    default, generated = out / "train_float32_default", out / "train_float32_generated"
    for fname in TRAIN_FILES:
        assert (generated / fname).read_bytes() == (default / fname).read_bytes()
    reg = out / "train_reg"
    assert sorted(p.name for p in reg.iterdir()) == TRAIN_FILES
    assert "fuse_w0 = 1.0" in (reg / "config.txt").read_text()
    assert len((reg / "train_log.csv").read_text().splitlines()) == 1 + 4
    for name in names[7:9]:  # every case of the 2 + 2 has a truth
        assert [p.name for p in (out / name).iterdir()] == ["metrics.csv"]
        rows = (out / name / "metrics.csv").read_text().splitlines()
        assert rows[0].startswith("case_id,dsc,") and len(rows) == 1 + 4
    for name in names[9:11]:
        assert [p.name for p in (out / name).iterdir()] == ["schedule.csv"]
        rows = (out / name / "schedule.csv").read_text().splitlines()
        assert rows[0] == "t,xi,lambda,R_conf,v,K" and len(rows) == 1 + 6
    ablate_runs = list((out / "ablate" / "runs").iterdir())
    assert len(ablate_runs) == 4 * 3
    for run in ablate_runs:
        assert sorted(p.name for p in run.iterdir()) == TRAIN_FILES
        assert load_config(run / "config.txt").seed == int(run.name.rsplit("seed", 1)[1])
    for name, rows in (("train_float32_default", 1), ("train_reg", 4), ("eval_float32", 4),
                       ("ablate", 12)):  # each scoring run counts its eval rows
        line = printed[names.index(name)]
        assert line.endswith(f" of {rows} eval rows"), line
        assert identity_runs.defined_rows(out / name)[1] == rows
    for name in names[-2:]:
        assert sorted(p.name for p in (out / name).iterdir()) == ["final.ckpt", "train_log.csv"]
        assert len((out / name / "train_log.csv").read_text().splitlines()) == 3
        assert printed[names.index(name)].endswith("of 2 steps")


def test_a_failed_run_names_itself(tmp_path):
    with pytest.raises(RuntimeError, match="^data exited with 1"):
        identity_runs.write_runs(tmp_path / "out", root=tmp_path, base=TINY, late_steps=1)


def test_defined_rows_counts_rows_with_every_cell_filled(tmp_path):
    (tmp_path / "runs" / "a").mkdir(parents=True)
    (tmp_path / "runs" / "a" / "eval_final.csv").write_text("case_id,x,y\nc0,1.0,2.0\nc1,0.0,\n")
    (tmp_path / "metrics.csv").write_text("case_id,x,y\nc0,0.5,1.5\n")
    (tmp_path / "train_log.csv").write_text("t,x\n0,\n")  # not a per-case file
    assert identity_runs.defined_rows(tmp_path) == (2, 3)
    assert identity_runs.defined_rows(tmp_path / "runs" / "b") == (0, 0)


def test_reg_run_is_the_quality_pins_config(tmp_path):
    reg = identity_runs.write_config(tmp_path / "reg.cfg", identity_runs.REG)
    assert load_config(reg) == REG_RUN
