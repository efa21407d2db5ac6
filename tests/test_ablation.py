import filecmp
import gc
import weakref
from dataclasses import fields

from pacedseg import ablation
from pacedseg.cli import EXIT_OK, main
from pacedseg.training import TrainConfig, load_config

RUN_FILES = ("config.txt", "train_log.csv", "eval_log.csv", "eval_final.csv", "final.ckpt")


def test_a_seeds_dataset_is_freed_before_the_next_is_built(tmp_path, monkeypatch):
    """Only one seed's dataset is alive while the next is generated."""
    config = TrainConfig(
        iterations=1, decay_period=1, eval_period=1, n_eval=2,
        dim_h=16, dim_w=16, dim_d=8, n_labeled=2, n_unlabeled=2,
        widths=(2, 3, 4, 3), embed_dim=4, mc_passes=2, k_neg=8,
    ).validate()
    built, alive_at_call = [], []
    real = ablation.dataset_for_seed

    def tracked(config, seed):
        alive_at_call.append(sum(ref() is not None for ref in built))
        dataset = real(config, seed)
        built.append(weakref.ref(dataset))
        return dataset

    monkeypatch.setattr(ablation, "dataset_for_seed", tracked)
    gc.disable()  # a dataset must die by reference counting alone
    try:
        ablation.run_ablation(config, (1, 2, 3), tmp_path)
    finally:
        gc.enable()
    assert alive_at_call == [0, 0, 0]


def test_a_variant_is_a_train_with_its_overrides(tmp_path):
    """Each variant's run files equal, byte for byte, those of `train` on the
    ablation's config file with the variant's overrides appended, and the
    variants run in the order baseline, su, sc, full."""
    names = {f.name for f in fields(TrainConfig)}
    assert all(set(overrides) <= names for _, overrides in ablation.VARIANTS)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim_h = 8\ndim_w = 8\ndim_d = 4\nn_labeled = 2\nn_unlabeled = 2\n"
                   "n_eval = 2\niterations = 6\neval_period = 3\n")
    ran = []
    ablation.run_ablation(load_config(cfg), (1, 2, 3), tmp_path / "ablate",
                          progress=lambda name, seed, summary: ran.append((name, seed)))
    assert ran == [(name, seed) for seed in (1, 2, 3) for name in ("baseline", "su", "sc", "full")]
    for name, overrides in ablation.VARIANTS:
        variant_cfg = tmp_path / f"{name}.cfg"
        variant_cfg.write_text(cfg.read_text()
                               + "".join(f"{key} = {value}\n" for key, value in overrides.items()))
        out = tmp_path / name
        assert main(["--config", str(variant_cfg), "--seed", "2", "--out-dir", str(out),
                     "train"]) == EXIT_OK
        for fname in RUN_FILES:
            assert filecmp.cmp(tmp_path / "ablate" / "runs" / f"{name}_seed2" / fname,
                               out / fname, shallow=False), (name, fname)
