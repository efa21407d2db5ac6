"""Weak and strong input perturbations.

Weak: independent axis flips (p = 0.5 each) plus additive Gaussian
intensity noise scaled to 5% of the image's intensity range by default.
Label maps ride along through the identical flip.

Strong: CutMix between the two weak views of a case; an axis-aligned box
with side lengths uniform in [1/4, 1/2] of each axis extent is pasted
from the donor into the recipient, identically for images and labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import LabelMap, Volume

FlipSpec = tuple[bool, bool, bool]


@dataclass(frozen=True)
class Box:
    corner: tuple[int, int, int]
    size: tuple[int, int, int]

    @property
    def slices(self) -> tuple[slice, slice, slice]:
        return tuple(slice(c, c + s) for c, s in zip(self.corner, self.size))


def _rng_of(rng_or_seed) -> np.random.Generator:
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return np.random.default_rng(rng_or_seed)


def sample_flips(rng_or_seed) -> FlipSpec:
    rng = _rng_of(rng_or_seed)
    return tuple(bool(b) for b in rng.random(3) < 0.5)


def apply_flips(data: np.ndarray, flips: FlipSpec) -> np.ndarray:
    axes = [i for i, f in enumerate(flips) if f]
    return np.flip(data, axis=axes).copy() if axes else data.copy()


def weak_perturb(
    image: Volume,
    rng_or_seed,
    labels: tuple[LabelMap, ...] = (),
    sigma_scale: float = 0.05,
    flips: FlipSpec | None = None,
):
    """Flip + noise; returns (volume, flipped labels, flips actually used).

    Draw order is pinned (flips, then noise) so runs are seed-reproducible.
    Passing `flips` skips the flip draw; labeled cases use this to push both
    weak views of a case through one shared frame.
    """
    rng = _rng_of(rng_or_seed)
    if flips is None:
        flips = sample_flips(rng)
    data = apply_flips(image.data, flips)
    span = float(image.data.max() - image.data.min())
    if sigma_scale > 0 and span > 0:
        data = data + rng.standard_normal(data.shape) * (sigma_scale * span)
    flipped = tuple(LabelMap(apply_flips(lm.data, flips), lm.n_classes) for lm in labels)
    return Volume(data), flipped, flips


def sample_box(dims, rng_or_seed) -> Box:
    """Side lengths uniform in [ceil(ext/4), ext//2], position uniform."""
    rng = _rng_of(rng_or_seed)
    corner, size = [], []
    for ext in dims:
        lo, hi = max(1, -(-ext // 4)), max(1, ext // 2)
        side = int(rng.integers(lo, hi + 1))
        size.append(side)
        corner.append(int(rng.integers(0, ext - side + 1)))
    return Box(tuple(corner), tuple(size))


def cutmix_with_box(
    recipient: tuple[Volume, LabelMap],
    donor: tuple[Volume, LabelMap],
    box: Box,
):
    """Paste the donor's box into the recipient, images and labels alike."""
    r_img, r_lab = recipient
    d_img, d_lab = donor
    if r_img.dims != d_img.dims or r_lab.dims != d_lab.dims or r_img.dims != r_lab.dims:
        raise ValueError("cutmix inputs must share dims")
    img = r_img.data.copy()
    lab = r_lab.data.copy()
    sel = box.slices
    img[sel] = d_img.data[sel]
    lab[sel] = d_lab.data[sel]
    return Volume(img), LabelMap(lab, r_lab.n_classes), box
