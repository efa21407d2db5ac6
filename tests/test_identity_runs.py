"""tools/identity_runs.py on a tiny config: the runs it makes and the files they write."""

import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("identity_runs", ROOT / "tools" / "identity_runs.py")
identity_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity_runs)

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
    out = tmp_path / "out"
    identity_runs.write_runs(out, base=TINY, late_steps=2)
    printed = capsys.readouterr().out.splitlines()
    names = [name for name, _ in identity_runs.runs(tmp_path, TINY, 2)]
    assert [line.split(":")[0] for line in printed] == names
    assert names == ["data", "train_float32_default", "train_float32_confident",
                     "train_float64_default", "train_float64_confident",
                     "train_float32_generated", "eval_float32", "eval_float64",
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
    for name in names[6:8]:  # every case of the 2 + 2 has a truth
        assert [p.name for p in (out / name).iterdir()] == ["metrics.csv"]
        rows = (out / name / "metrics.csv").read_text().splitlines()
        assert rows[0].startswith("case_id,dsc,") and len(rows) == 1 + 4
    for name in names[8:10]:
        assert [p.name for p in (out / name).iterdir()] == ["schedule.csv"]
        rows = (out / name / "schedule.csv").read_text().splitlines()
        assert rows[0] == "t,xi,lambda,R_conf,v,K" and len(rows) == 1 + 6
    assert len(list((out / "ablate" / "runs").iterdir())) == 4 * 3
    for name in names[-2:]:
        assert sorted(p.name for p in (out / name).iterdir()) == ["final.ckpt", "train_log.csv"]
        assert len((out / name / "train_log.csv").read_text().splitlines()) == 3
        assert printed[names.index(name)].endswith("of 2 steps")


def test_a_failed_run_names_itself(tmp_path):
    with pytest.raises(RuntimeError, match="^data exited with 1"):
        identity_runs.write_runs(tmp_path / "out", root=tmp_path, base=TINY, late_steps=1)
