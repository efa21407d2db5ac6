"""Overlap and surface-distance segmentation metrics.

Foreground is every non-background voxel (label != 0). Surfaces are
foreground voxels with at least one six-connected background neighbor;
voxels on the volume border count as surface. Distances are Euclidean
between voxel centers in voxel units (isotropic unit spacing).

Work per case. `evaluate_case` forms each foreground once. DSC and
Jaccard come from the two foreground counts and one count of their
intersection. Each foreground's surface is found by one pass of six
shifted ANDs over its flat voxels, and the two surfaces go to the
distance kernel. Nothing is cached between calls: at 32x32x16 a surface
costs about 50 us, a tenth of a case, so a run's repeated truths would
save little.

Nearest surface distances come from one dense kernel. Each surface voxel
x of one set becomes the row [-2x, 1, |x|^2] and each voxel y of the other
the row [y, |y|^2, 1], so one matmul of the two row sets gives |x - y|^2
for every pair. Every product and partial sum there is an integer of
magnitude at most |x|^2 + |y|^2 + 2|x||y| <= 4 max |x|^2. Float32 holds
every integer up to 2^24 exactly, so while max |x|^2 <= 2^22
(`F32_EXACT_SQ`, which every cube up to 1,183 voxels a side meets) the
kernel runs in float32; beyond it, in float64, exact below 2^53. Either
way each squared distance is exact, whatever order or fused multiply-adds
the BLAS uses, and its float64 sqrt is the correctly rounded distance. The
pair matrix is built PAIR_CHUNK pairs at a time: a row-min per block and a
running column-min give both directions.

The work grows with |Sa|·|Sb|, the product of the two surface sizes, where
a k-d tree's grows with (|Sa|+|Sb|) log n. At the default 32x32x16 (at most
3,784 surface voxels) the kernel is the faster of the two, and that is the
only size the benchmark times. Larger volumes are scored exactly and in
bounded memory, but slowly; ROADMAP item 10 holds the measured times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import LabelMap

# pairs of surface voxels per block of the distance matrix (256 KiB in
# float32, 512 KiB in float64)
PAIR_CHUNK = 1 << 16
# the largest max |x|^2 at which the distance kernel is exact in float32
F32_EXACT_SQ = 1 << 22


# each metric's MetricsRecord attribute and its label on the CLI's summary
# lines, in the column order of every eval file; the surface metrics are
# None on a case where either foreground is empty
METRICS = {"dsc": "DSC", "jaccard": "Jaccard", "asd": "ASD", "hd": "HD"}


@dataclass
class MetricsRecord:
    """Per-case metric row; asd/hd are None when a foreground was empty."""

    case_id: str
    dsc: float
    jaccard: float
    asd: float | None
    hd: float | None

    CSV_HEADER = ",".join(["case_id", *METRICS])

    def csv_row(self) -> str:
        cells = (getattr(self, m) for m in METRICS)
        return ",".join([self.case_id, *("" if v is None else repr(v) for v in cells)])


def surface_voxels(fg: np.ndarray) -> np.ndarray:
    """Coordinates, in C order, of the foreground voxels with a six-connected
    background neighbor; every foreground voxel on the volume border is one."""
    h, w, d = fg.shape
    flat = np.ravel(fg)
    interior = np.zeros(fg.shape, dtype=bool)
    # The inner voxels lie in the flat run from (1, 1, 1) to (h-2, w-2, d-2),
    # where a voxel's six neighbors are the flat shifts by 1, d and w*d. The
    # run's voxels on a w or d border plane read wrapped neighbors, so they
    # are cleared after.
    lo = (w + 1) * d + 1
    n = fg.size - 2 * lo
    if n > 0:
        run = interior.reshape(-1)[lo:lo + n]
        np.logical_and(flat[lo - 1:lo - 1 + n], flat[lo + 1:lo + 1 + n], out=run)
        for step in (d, w * d):
            run &= flat[lo - step:lo - step + n]
            run &= flat[lo + step:lo + step + n]
        interior[:, [0, -1]] = False
        interior[:, :, [0, -1]] = False
    surface = fg & ~interior
    return np.column_stack(np.unravel_index(np.flatnonzero(surface), fg.shape))


def nearest_distances(sa: np.ndarray, sb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distance from each row of sa to its nearest row of sb, and the reverse)
    in float64, for two nonempty sets of integer voxel coordinates; the kernel
    runs in float32 when max |x|^2 over both sets is at most F32_EXACT_SQ."""
    sq_a, sq_b = np.einsum("ij,ij->i", sa, sa), np.einsum("ij,ij->i", sb, sb)
    dtype = np.float32 if max(sq_a.max(), sq_b.max()) <= F32_EXACT_SQ else np.float64
    # [-2x, 1, |x|^2] . [y, |y|^2, 1] = |x - y|^2
    lhs = np.empty((len(sa), 5), dtype)
    lhs[:, :3] = -2 * sa
    lhs[:, 3] = 1
    lhs[:, 4] = sq_a
    rhs = np.empty((5, len(sb)), dtype)  # C order runs the thin GEMMs faster
    rhs[:3] = sb.T
    rhs[3] = sq_b
    rhs[4] = 1
    rows = max(1, PAIR_CHUNK // len(sb))
    sq_ab = np.empty(len(sa), dtype)
    sq_ba = np.full(len(sb), np.inf, dtype)
    for i in range(0, len(sa), rows):
        block = lhs[i:i + rows] @ rhs
        block.min(axis=1, out=sq_ab[i:i + rows])
        np.minimum(sq_ba, block.min(axis=0), out=sq_ba)
    return np.sqrt(sq_ab, dtype=np.float64), np.sqrt(sq_ba, dtype=np.float64)


def evaluate_case(case_id: str, pred: LabelMap, truth: LabelMap) -> MetricsRecord:
    """One case's scores, foreground A of pred against B of truth.

    DSC is 2|A&B|/(|A|+|B|) and Jaccard |A&B|/|A|B|; both-empty counts as
    perfect. ASD is the mean of the nearest surface distances pooled over
    both directions, and HD their maximum; both are None when A or B is empty.
    """
    if pred.dims != truth.dims:
        raise ValueError(f"dims mismatch: {pred.dims} vs {truth.dims}")
    a, b = pred.data != 0, truth.data != 0
    na, nb, inter = (int(np.count_nonzero(m)) for m in (a, b, a & b))
    if na == 0 and nb == 0:
        dsc = jaccard = 1.0
    else:
        dsc, jaccard = 2.0 * inter / (na + nb), inter / (na + nb - inter)
    if na == 0 or nb == 0:
        return MetricsRecord(case_id, dsc, jaccard, None, None)
    d_ab, d_ba = nearest_distances(surface_voxels(a), surface_voxels(b))
    asd = (d_ab.sum() + d_ba.sum()) / (len(d_ab) + len(d_ba))
    return MetricsRecord(case_id, dsc, jaccard, float(asd), float(max(d_ab.max(), d_ba.max())))


def summarize(records: list[MetricsRecord]) -> dict[str, float]:
    """Mean of each metric over the cases where it is defined (nan where it is
    defined on none), and n_undefined, the count of cases with an undefined one."""
    out = {}
    for m in METRICS:
        values = [v for r in records if (v := getattr(r, m)) is not None]
        out[m] = float(np.mean(values)) if values else float("nan")
    undefined = [r for r in records if any(getattr(r, m) is None for m in METRICS)]
    out["n_undefined"] = float(len(undefined))
    return out


def format_summary(summary: dict[str, float]) -> str:
    """`DSC=... Jaccard=... ASD=... HD=...`, each mean to 4 decimals."""
    return " ".join(f"{label}={summary[m]:.4f}" for m, label in METRICS.items())


def write_records(path, records: list[MetricsRecord]) -> None:
    """The per-case CSV: a header, then one row per case."""
    with open(path, "w") as f:
        f.write(MetricsRecord.CSV_HEADER + "\n")
        for rec in records:
            f.write(rec.csv_row() + "\n")


def write_eval_log(path, points: list[tuple[int, dict[str, float]]]) -> None:
    """The periodic-eval CSV: one row of summary means per (iteration, summary)."""
    with open(path, "w") as f:
        f.write(",".join(["iteration", *(f"mean_{m}" for m in METRICS), "n_undefined"]) + "\n")
        for iteration, summary in points:
            means = (repr(summary[m]) for m in METRICS)
            f.write(",".join([str(iteration), *means, str(int(summary["n_undefined"]))]) + "\n")
