import numpy as np
import pytest

from pacedseg import metrics
from pacedseg.grids import LabelMap
from pacedseg.metrics import (
    F32_EXACT_SQ,
    evaluate_case,
    nearest_distances,
    summarize,
    surface_voxels,
)


def lm(bits):
    return LabelMap(np.asarray(bits, dtype=np.int64), 2)


def dsc_jaccard(pred, truth):
    rec = evaluate_case("case", pred, truth)
    return rec.dsc, rec.jaccard


def surface_distances(pred, truth):
    """(ASD, HD) of the case, (None, None) where a foreground is empty."""
    rec = evaluate_case("case", pred, truth)
    return rec.asd, rec.hd


def brute_force_surface(fg):
    """Independent O(n) surface extraction via explicit neighbor loops."""
    coords = []
    h, w, d = fg.shape
    for x in range(h):
        for y in range(w):
            for z in range(d):
                if not fg[x, y, z]:
                    continue
                for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    nx, ny, nz = x + dx, y + dy, z + dz
                    outside = not (0 <= nx < h and 0 <= ny < w and 0 <= nz < d)
                    if outside or not fg[nx, ny, nz]:
                        coords.append((x, y, z))
                        break
    return np.asarray(coords, dtype=np.float64)


def brute_force_distances(fg_a, fg_b):
    """All-pairs O(n^2) surface distance oracle."""
    sa, sb = brute_force_surface(fg_a), brute_force_surface(fg_b)
    d_ab = np.array([np.sqrt(((sb - p) ** 2).sum(axis=1)).min() for p in sa])
    d_ba = np.array([np.sqrt(((sa - p) ** 2).sum(axis=1)).min() for p in sb])
    asd = (d_ab.sum() + d_ba.sum()) / (len(d_ab) + len(d_ba))
    return asd, max(d_ab.max(), d_ba.max())


class TestOverlap:
    def test_identical_nonempty(self):
        rng = np.random.default_rng(0)
        a = lm(rng.random((4, 4, 4)) < 0.4)
        assert dsc_jaccard(a, a) == (1.0, 1.0)

    def test_disjoint_nonempty(self):
        a = np.zeros((4, 4, 2), dtype=np.int64)
        b = np.zeros((4, 4, 2), dtype=np.int64)
        a[0], b[2] = 1, 1
        assert dsc_jaccard(lm(a), lm(b)) == (0.0, 0.0)

    def test_counting_example(self):
        """|A| = |B| = 8, |A&B| = 4 -> DSC 0.5, Jaccard 4/12."""
        a = np.zeros((4, 4, 2), dtype=np.int64)
        b = np.zeros((4, 4, 2), dtype=np.int64)
        a.reshape(-1)[:8] = 1
        b.reshape(-1)[4:12] = 1
        dsc, jac = dsc_jaccard(lm(a), lm(b))
        assert dsc == pytest.approx(0.5, abs=0)
        assert jac == pytest.approx(4 / 12, rel=1e-12)

    def test_both_empty_is_perfect(self):
        z = lm(np.zeros((2, 2, 2)))
        assert dsc_jaccard(z, z) == (1.0, 1.0)

    def test_jaccard_dsc_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = lm(rng.random((4, 4, 4)) < rng.uniform(0.2, 0.8))
            b = lm(rng.random((4, 4, 4)) < rng.uniform(0.2, 0.8))
            dsc, jac = dsc_jaccard(a, b)
            if dsc > 0:
                assert abs(jac - dsc / (2 - dsc)) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = lm(rng.random((4, 4, 4)) < 0.5)
        b = lm(rng.random((4, 4, 4)) < 0.5)
        assert dsc_jaccard(a, b) == dsc_jaccard(b, a)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            dsc_jaccard(lm(np.zeros((2, 2, 2))), lm(np.zeros((2, 2, 4))))


class TestSurfaceDistances:
    def test_identical_shapes_zero(self):
        rng = np.random.default_rng(3)
        bits = rng.random((5, 5, 5)) < 0.3
        bits[2, 2, 2] = True
        a = lm(bits)
        assert surface_distances(a, a) == (0.0, 0.0)

    def test_two_singletons_three_apart(self):
        a = np.zeros((8, 4, 4), dtype=np.int64)
        b = np.zeros((8, 4, 4), dtype=np.int64)
        a[1, 1, 1], b[4, 1, 1] = 1, 1
        assert surface_distances(lm(a), lm(b)) == (3.0, 3.0)

    def test_empty_foreground_is_undefined(self):
        a = lm(np.zeros((3, 3, 3)))
        b = np.zeros((3, 3, 3), dtype=np.int64)
        b[1, 1, 1] = 1
        assert surface_distances(a, lm(b)) == (None, None)
        assert surface_distances(lm(b), a) == (None, None)
        assert surface_distances(a, a) == (None, None)

    def test_surface_extraction_matches_loop_oracle(self):
        """Random maps, and all-foreground, empty, single-voxel and random maps
        at extents down to 1 and 2, where no voxel is inner."""
        rng = np.random.default_rng(4)
        maps = [rng.random((5, 4, 4)) < 0.5 for _ in range(10)]
        for dims in ((1, 1, 1), (1, 4, 5), (4, 2, 3), (2, 2, 2), (3, 1, 6), (5, 4, 4), (3, 3, 3)):
            one = np.zeros(dims, dtype=bool)
            one[tuple(rng.integers(0, dims))] = True
            maps += [np.ones(dims, dtype=bool), np.zeros(dims, dtype=bool), one,
                     rng.random(dims) < 0.6]
        for bits in maps:
            got = surface_voxels(bits)
            assert got.shape[1:] == (3,) and got.dtype == np.int64
            got = got.astype(np.float64)
            expected = brute_force_surface(bits)
            if expected.size == 0:
                assert got.size == 0
            else:
                np.testing.assert_array_equal(got, expected)

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            a = rng.random((6, 6, 5)) < rng.uniform(0.2, 0.6)
            b = rng.random((6, 6, 5)) < rng.uniform(0.2, 0.6)
            if not a.any() or not b.any():
                continue
            got = surface_distances(lm(a.astype(np.int64)), lm(b.astype(np.int64)))
            assert got == brute_force_distances(a, b)

    def test_non_cubic_dims_match_all_pairs_oracle_exactly(self):
        rng = np.random.default_rng(8)
        for dims in ((2, 7, 3), (9, 2, 5), (3, 4, 11), (13, 6, 2), (5, 17, 4)):
            for _ in range(4):
                a = rng.random(dims) < rng.uniform(0.1, 0.9)
                b = rng.random(dims) < rng.uniform(0.1, 0.9)
                if a.any() and b.any():
                    got = surface_distances(lm(a.astype(np.int64)), lm(b.astype(np.int64)))
                    assert got == brute_force_distances(a, b), dims

    def test_single_voxel_sets_match_all_pairs_oracle_exactly(self):
        rng = np.random.default_rng(9)
        dims = (7, 5, 6)
        for _ in range(10):
            one = np.zeros(dims, dtype=bool)
            one[tuple(rng.integers(0, dims))] = True
            other = rng.random(dims) < 0.3
            for a, b in ((one, other), (other, one), (one, one)):
                got = surface_distances(lm(a.astype(np.int64)), lm(b.astype(np.int64)))
                assert got == brute_force_distances(a, b)

    def test_all_foreground_against_sphere_crosses_chunk_seams(self):
        """A collapsed all-foreground prediction has more surface rows than
        one block of PAIR_CHUNK pairs holds, so the block seams are crossed."""
        full = np.ones((32, 32, 16), dtype=bool)
        x, y, z = np.indices(full.shape)
        sphere = (x - 15.5) ** 2 + (y - 15.5) ** 2 + (z - 7.5) ** 2 < 49
        rows_per_block = metrics.PAIR_CHUNK // len(surface_voxels(sphere))
        assert len(surface_voxels(full)) > 10 * rows_per_block
        for a, b in ((full, sphere), (sphere, full)):
            got = surface_distances(lm(a.astype(np.int64)), lm(b.astype(np.int64)))
            assert got == brute_force_distances(a, b)

    def test_ragged_blocks_match_one_block(self, monkeypatch):
        """Blocks of a few pairs, the last one short, give the distances of one
        block holding every pair."""
        rng = np.random.default_rng(10)
        a = surface_voxels(rng.random((6, 9, 5)) < 0.5)
        b = surface_voxels(rng.random((6, 9, 5)) < 0.5)
        assert len(a) * len(b) <= metrics.PAIR_CHUNK
        whole = nearest_distances(a, b)
        monkeypatch.setattr(metrics, "PAIR_CHUNK", 4 * len(b) + 1)
        assert len(a) % 4
        blocked = nearest_distances(a, b)
        for got, expected in zip(blocked, whole):
            np.testing.assert_array_equal(got, expected)

    def test_kernel_at_the_float32_bound_matches_all_pairs_oracle(self):
        """Points with max |x|^2 = F32_EXACT_SQ, where the kernel runs in
        float32, and one more, where it runs in float64, both match the
        float64 all-pairs oracle bit for bit. Past the bound, (2048, 1, 0) and
        (-2048, 0, 0) lie 2^24 + 1 apart squared, which float32 would round
        to 2^24."""
        rng = np.random.default_rng(11)
        cloud = rng.integers(-2048, 2049, (2000, 3))
        cloud = cloud[(cloud * cloud).sum(axis=1) <= F32_EXACT_SQ]
        for past in (0, 1):
            far = np.array([[2048, past, 0]])
            assert (far * far).sum() == F32_EXACT_SQ + past
            sets = ((far, np.array([[-2048, 0, 0]])),
                    (np.concatenate([far, cloud[:300]]), cloud[300:700]))
            for a, b in sets:
                sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2).astype(np.float64)
                expected = (np.sqrt(sq.min(axis=1)), np.sqrt(sq.min(axis=0)))
                for got, want in zip(nearest_distances(a, b), expected):
                    assert got.dtype == np.float64
                    np.testing.assert_array_equal(got, want)

    def test_hd_at_least_asd_and_order_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.random((5, 5, 4)) < 0.4
            b = rng.random((5, 5, 4)) < 0.4
            if not a.any() or not b.any():
                continue
            asd, hd = surface_distances(lm(a.astype(int)), lm(b.astype(int)))
            assert hd >= asd
            asd2, hd2 = surface_distances(lm(b.astype(int)), lm(a.astype(int)))
            assert asd == pytest.approx(asd2, abs=1e-12)
            assert hd == pytest.approx(hd2, abs=1e-12)


class TestRecords:
    def test_record_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = lm(rng.random((4, 4, 4)) < 0.4)
            b = lm(rng.random((4, 4, 4)) < 0.4)
            rec = evaluate_case("case", a, b)
            assert 0.0 <= rec.jaccard <= rec.dsc <= 1.0
            if rec.asd is not None:
                assert 0.0 <= rec.asd <= rec.hd

    def test_undefined_excluded_from_summary(self):
        empty = lm(np.zeros((3, 3, 3)))
        full = lm(np.ones((3, 3, 3)))
        records = [evaluate_case("a", full, full), evaluate_case("b", empty, full)]
        assert records[1].asd is None
        summary = summarize(records)
        assert summary["asd"] == 0.0 and summary["n_undefined"] == 1.0

