"""Weak and strong input perturbations.

Weak: independent axis flips (p = 0.5 each) plus additive Gaussian
intensity noise scaled to 5% of the image's intensity range by default.
A label map rides along by taking `apply_flips` with the same flips.

Strong: CutMix between the two weak views of a case; an axis-aligned box
with side lengths uniform in [1/4, 1/2] of each axis extent is pasted
from the donor into the recipient, identically for images and labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FlipSpec = tuple[bool, bool, bool]


@dataclass(frozen=True)
class Box:
    corner: tuple[int, int, int]
    size: tuple[int, int, int]

    @property
    def slices(self) -> tuple[slice, slice, slice]:
        return tuple(slice(c, c + s) for c, s in zip(self.corner, self.size))


def sample_flips(rng: np.random.Generator) -> FlipSpec:
    return tuple(bool(b) for b in rng.random(3) < 0.5)


def apply_flips(data: np.ndarray, flips: FlipSpec) -> np.ndarray:
    axes = [i for i, f in enumerate(flips) if f]
    return np.flip(data, axis=axes).copy() if axes else data.copy()


def weak_perturb(
    image: np.ndarray,
    rng: np.random.Generator,
    sigma_scale: float = 0.05,
    flips: FlipSpec | None = None,
    dtype=np.float64,
) -> np.ndarray:
    """Flip + noise; returns the weak view as a new `dtype` array.

    The noise is drawn and added in float64, and the sum is cast to `dtype`
    once: a trainer passes its model's dtype, the one its input leaf would
    cast the view to. Draw order is pinned (flips, then noise) so runs are
    seed-reproducible. Passing `flips` skips the flip draw; labeled cases
    use this to push both weak views of a case, and its registration label,
    through one shared frame.
    """
    if flips is None:
        flips = sample_flips(rng)
    data = apply_flips(image, flips)
    span = float(image.max() - image.min())
    if sigma_scale > 0 and span > 0:
        noise = rng.standard_normal(data.shape)
        noise *= sigma_scale * span
        noise += data
        data = noise
    return data.astype(dtype, copy=False)


def sample_box(dims, rng: np.random.Generator) -> Box:
    """Side lengths uniform in [ceil(ext/4), ext//2], position uniform."""
    corner, size = [], []
    for ext in dims:
        lo, hi = max(1, -(-ext // 4)), max(1, ext // 2)
        side = int(rng.integers(lo, hi + 1))
        size.append(side)
        corner.append(int(rng.integers(0, ext - side + 1)))
    return Box(tuple(corner), tuple(size))


def cutmix_with_box(
    recipient: tuple[np.ndarray, np.ndarray],
    donor: tuple[np.ndarray, np.ndarray],
    box: Box,
) -> tuple[np.ndarray, np.ndarray]:
    """Paste the donor's box into the recipient, images and labels alike."""
    r_img, r_lab = recipient
    d_img, d_lab = donor
    if not r_img.shape == r_lab.shape == d_img.shape == d_lab.shape:
        raise ValueError("cutmix inputs must share dims")
    img = r_img.copy()
    lab = r_lab.copy()
    sel = box.slices
    img[sel] = d_img[sel]
    lab[sel] = d_lab[sel]
    return img, lab
