import gc
import weakref

from pacedseg import ablation
from pacedseg.training import TrainConfig


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
