"""tools/step_peaks.py on a tiny config: the rows it prints and how it fails."""

import re

import pytest
import step_peaks

TINY = {"dim_h": 16, "dim_w": 16, "dim_d": 8, "n_labeled": 2, "n_unlabeled": 2,
        "widths": [2, 3, 4, 3], "embed_dim": 4, "mc_passes": 2, "k_neg": 8, "seed": 1}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(step_peaks, "BASE", TINY)
    monkeypatch.setattr(step_peaks, "ROWS", (("f32", {}), ("f64", {"dtype": "float64"})))
    # each `late` row with its own keys, over fewer steps
    monkeypatch.setattr(step_peaks, "LATE_ROWS",
                        tuple((name, keys, (1, 2)) for name, keys, _ in step_peaks.LATE_ROWS))


def test_prints_one_peak_per_row_from_its_own_process(tiny, capsys):
    assert step_peaks.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    late = [name for name, _, _ in step_peaks.LATE_ROWS]
    assert [line.split(":")[0] for line in lines] == ["f32", "f64", *late]
    fields = [re.fullmatch(r"[^:]+: (\d+\.\d\d) MiB, kept (\d+\.\d\d) MiB", line).groups()
              for line in lines]
    mib, kept = ([float(f[i]) for f in fields] for i in (0, 1))
    assert all(m > 0 for m in mib)
    assert mib[1] > mib[0]  # float64 activations take twice the bytes
    assert mib[3] > mib[2]  # 64x64x32 against the late workload's 32x32x16
    assert kept[3] > kept[2] > 0  # so do its conv work buffers


def test_float64_keeps_twice_the_conv_bytes_of_float32(tiny, monkeypatch):
    # the kept buffers and the tiles are sized in elements, so the same
    # config in float64 keeps exactly twice the bytes
    monkeypatch.setattr(step_peaks, "LATE_ROWS", ())
    (_, _, kept32), (_, _, kept64) = step_peaks.measure()
    assert kept32 > 0 and kept64 == 2 * kept32


def test_rows_and_their_order():
    names = [name for name, _ in step_peaks.commands()]
    assert names == [name for name, _ in step_peaks.ROWS] + [
        "float32, late fixture, highest of steps 3-12",
        "float32, late fixture, 64x64x32, 4 + 4 cases, highest of steps 2-7",
    ]
    assert [steps for _, _, steps in step_peaks.LATE_ROWS] == [(3, 12), (2, 7)]
    assert step_peaks.WARM_STEPS == 3


def test_a_failed_row_names_itself(tiny, tmp_path, capsys):
    with pytest.raises(RuntimeError, match="^f32 exited with 1"):
        step_peaks.measure(tmp_path)
    assert step_peaks.main(["--root", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("f32 exited with 1")
