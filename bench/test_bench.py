"""Tests of the benchmark's own machinery: tracer, percentiles, fixture, checks."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pacedseg import training

import harness
import tracer
import warmstart


def _late_reports(tracing, steps=3):
    config = harness.workload_config("late", seed=3, seconds=1)
    setup = harness.set_up("late", config, seed=3)
    tr = tracer.Tracer(tracing, tracer.conv_layer_table(2, config.widths, config.embed_dim))
    with tr:
        rows = [setup.trainer.step(*setup.trainer.batch_for(t)).csv_row() for t in range(steps)]
    return rows, tr


@pytest.fixture(scope="module")
def late_runs():
    """Three late steps run bare and run traced (steps 0 and 2 traced)."""
    originals = (training.forward_parts, training.Trainer.step, training.evaluate_params)
    plain, _ = _late_reports(tracing=False)
    traced, tr = _late_reports(tracing=True)
    restored = (training.forward_parts, training.Trainer.step, training.evaluate_params)
    return plain, traced, tr, restored == originals


def test_tracing_leaves_loss_reports_bit_identical(late_runs):
    plain, traced, tr, restored = late_runs
    assert traced == plain
    assert [r[4]["traced"] for r in tr.spans if r[0] == tracer.STEP] == [True, False, True]
    assert restored


def test_per_conv_attribution_maps_all_six_layers(late_runs):
    table = tracer.conv_layer_table(2, (4, 8, 8, 8), 16)
    assert sorted(table.values()) == sorted(tracer.CONV_LAYERS)
    names = {r[0] for r in late_runs[2].spans}
    for kind in ("conv_fwd", "conv_bwd"):
        assert {f"autodiff.{kind}.{layer}" for layer in tracer.CONV_LAYERS} <= names
        assert f"autodiff.{kind}.other" not in names


def test_self_times_account_for_the_step(late_runs):
    table = tracer.layer_table(late_runs[2].spans, n_voxels=32 * 32 * 16)
    assert table["traced_steps"] == 2
    assert table["accounting_error"] < 1e-9
    assert table["metrics"]["trace.overhead_frac"] != 0.0


def test_declared_metrics_match_the_emitted_ones(late_runs):
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == harness.END_TO_END_UNITS
    emitted = tracer.layer_table(late_runs[2].spans, n_voxels=32 * 32 * 16)["metrics"]
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: harness.layer_unit(name) for name in emitted}


def test_ambiguous_conv_shapes_are_refused():
    with pytest.raises(ValueError, match="share weight shape"):
        tracer.conv_layer_table(2, (8, 8, 8, 8), 16)


def test_missing_wrapped_name_marks_layer_absent(monkeypatch):
    gone = ("pacedseg.training", "no_such_function", "gone.layer", "step", None, None)
    monkeypatch.setattr(tracer, "WRAPS", tracer.WRAPS + (gone,))
    tr = tracer.Tracer(True, {})
    assert tr.absent == ["gone.layer"]
    assert tr.missing_names == ["pacedseg.training.no_such_function"]
    with tr:
        pass


def test_percentile_refuses_short_tails():
    assert harness.percentile(list(range(100)), 90) == 89
    assert harness.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError, match="beyond"):
        harness.percentile(list(range(99)), 90)
    with pytest.raises(ValueError, match="beyond"):
        harness.percentile(list(range(19)), 50)


def test_fixture_round_trips(tmp_path):
    config = harness.workload_config("late", seed=0, seconds=1)
    params = warmstart.load_fixture(config)
    for name in ("a.npz", "b.npz"):
        warmstart.save_fixture(params, tmp_path / name)
    assert warmstart.sha256_of(tmp_path / "a.npz") == warmstart.sha256_of(tmp_path / "b.npz")
    again = warmstart.load_fixture(config, tmp_path / "a.npz")
    for section in warmstart.SECTIONS:
        for name, arr in params[section].tensors.items():
            assert again[section].tensors[name].dtype == arr.dtype
            assert (again[section].tensors[name] == arr).all()


def test_fixture_shapes_are_checked():
    config = harness.workload_config("late", seed=0, seconds=1)
    wide = training.TrainConfig(widths=(4, 8, 8, 16), embed_dim=config.embed_dim)
    with pytest.raises(ValueError, match="init_params gives"):
        warmstart.load_fixture(wide)


def test_report_check_catches_a_wrong_mask_count():
    good = [(1, 0.5, 0.4, 0.0, 0.9, 0.5, 8)]
    harness.check_reports(good, n_voxels=16)
    with pytest.raises(harness.CheckFailed, match="mask count"):
        harness.check_reports([(1, 0.5, 0.4, 0.0, 0.9, 0.5, 7)], n_voxels=16)
    with pytest.raises(harness.CheckFailed, match="outside"):
        harness.check_reports(good, n_voxels=16, band=(0.9, 1.0))
    with pytest.raises(harness.CheckFailed, match="non-finite"):
        harness.check_reports([(1, float("nan"), 0.4, 0.0, 0.9, 0.5, 8)], n_voxels=16)
