import numpy as np
import pytest

from mmtseg.metrics import (
    aggregate_reports,
    boundary_voxels,
    containment_violation,
    dice_score,
    evaluate_volume,
    hd95,
)
from mmtseg.phantom import LabelVolume, generate_phantom

from oracles import oracle_dice, oracle_hausdorff_max, oracle_hd95


def random_mask(rng, shape=(8, 8, 8), fill=0.3):
    return rng.random(shape) < fill


class TestDice:
    def test_identical_masks(self, rng):
        m = random_mask(rng)
        m[0, 0, 0] = True
        assert dice_score(m, m) == 1.0

    def test_half_overlap(self):
        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a[0, 0, :4] = True
        a[0, 1, :4] = True  # |A| = 8
        b[0, 1, :4] = True
        b[0, 2, :4] = True  # |B| = 8, overlap 4
        assert dice_score(a, b) == 0.5

    def test_disjoint_masks(self):
        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a[0] = True
        b[2] = True
        assert dice_score(a, b) == 0.0

    def test_both_empty_is_one(self):
        z = np.zeros((4, 4, 4), dtype=bool)
        assert dice_score(z, z) == 1.0

    def test_symmetry_exact(self, rng):
        a, b = random_mask(rng), random_mask(rng)
        assert dice_score(a, b) == dice_score(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dice_score(np.zeros((4, 4, 4), dtype=bool), np.zeros((4, 4, 5), dtype=bool))


class TestHd95:
    def test_identical_masks_zero(self, rng):
        m = random_mask(rng)
        m[3, 3, 3] = True
        assert hd95(m, m) == 0.0

    def test_offset_unit_cubes_match_oracle(self):
        a = np.zeros((16, 16, 16), dtype=bool)
        b = np.zeros((16, 16, 16), dtype=bool)
        a[5, 8, 8] = True
        b[8, 8, 8] = True
        expected = oracle_hd95(a, b)
        assert hd95(a, b) == pytest.approx(expected, abs=1e-12)
        assert hd95(a, b) == pytest.approx(3.0, abs=1e-12)

    def test_empty_mask_sentinel(self, rng):
        m = random_mask(rng)
        m[0, 0, 0] = True
        empty = np.zeros_like(m)
        assert hd95(m, empty) is None
        assert hd95(empty, m) is None
        assert hd95(empty, empty) is None

    def test_symmetry_exact(self, rng):
        a, b = random_mask(rng), random_mask(rng)
        a[0, 0, 0] = b[7, 7, 7] = True
        assert hd95(a, b) == hd95(b, a)

    def test_bounded_by_exact_hausdorff(self, rng):
        for seed in range(6):
            r = np.random.default_rng(seed)
            a, b = random_mask(r, fill=0.2), random_mask(r, fill=0.2)
            if not (a.any() and b.any()):
                continue
            assert hd95(a, b) <= oracle_hausdorff_max(a, b) + 1e-12

    def test_matches_oracle_on_random_pairs(self):
        for seed in range(30):
            r = np.random.default_rng(seed)
            fill = r.choice([0.0, 0.05, 0.3, 0.7])
            a = random_mask(r, fill=fill)
            b = random_mask(r, fill=r.choice([0.0, 0.05, 0.3, 0.7]))
            expected = oracle_hd95(a, b)
            got = hd95(a, b)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-9)
            assert dice_score(a, b) == oracle_dice(a, b)

    def test_boundary_includes_volume_border(self):
        m = np.ones((4, 4, 4), dtype=bool)
        surf = boundary_voxels(m)
        assert surf[0, 0, 0] and surf[3, 3, 3]
        assert not surf[1:3, 1:3, 1:3].any()

    def test_rejects_masks_that_are_not_3d(self):
        flat = np.ones((4, 4), dtype=bool)
        with pytest.raises(ValueError, match="3-D"):
            hd95(flat, flat)
        with pytest.raises(ValueError, match="3-D"):
            hd95(np.zeros((4, 4), dtype=bool), np.zeros((4, 4), dtype=bool))
        with pytest.raises(ValueError, match="3-D"):
            boundary_voxels(flat)
        with pytest.raises(ValueError, match="3-D"):
            boundary_voxels(np.ones((2, 2, 2, 2), dtype=bool))


def _mask(shape, *boxes):
    m = np.zeros(shape, dtype=bool)
    for box in boxes:
        m[box] = True
    return m


# (a, b) pairs off the 8³ random-cube path: the transform crops to the
# joint boundary box and runs per axis, so shape, placement and extent vary
GEOMETRY_PAIRS = {
    "line_1x1xN": (
        _mask((1, 1, 23), np.s_[:, :, 2:5], np.s_[:, :, 9]),
        _mask((1, 1, 23), np.s_[:, :, 15:22]),
    ),
    "line_Nx1x1": (
        _mask((19, 1, 1), np.s_[0]),
        _mask((19, 1, 1), np.s_[7:12]),
    ),
    "non_cubic_5x17x9": (
        np.random.default_rng(5).random((5, 17, 9)) < 0.3,
        np.random.default_rng(6).random((5, 17, 9)) < 0.1,
    ),
    "opposite_corners": (
        _mask((9, 13, 11), np.s_[:2, :3, :2]),
        _mask((9, 13, 11), np.s_[-3:, -2:, -4:]),
    ),
    "opposite_corner_voxels": (
        _mask((6, 7, 8), np.s_[0, 0, 0]),
        _mask((6, 7, 8), np.s_[5, 6, 7]),
    ),
    "touching_border": (
        _mask((10, 12, 9), np.s_[:, 3:7, 0:4]),
        _mask((10, 12, 9), np.s_[2:8, :, 5:]),
    ),
    "full_volume_vs_ball": (
        np.ones((11, 9, 13), dtype=bool),
        np.sum((np.indices((11, 9, 13)) - np.reshape([5, 4, 6], (3, 1, 1, 1))) ** 2, axis=0) <= 6,
    ),
    "single_voxel_vs_slab": (
        _mask((7, 9, 8), np.s_[3, 4, 5]),
        _mask((7, 9, 8), np.s_[:, :, 1:3]),
    ),
    "single_voxels": (
        _mask((7, 9, 8), np.s_[1, 7, 2]),
        _mask((7, 9, 8), np.s_[6, 0, 5]),
    ),
    "one_slab_each_axis": (
        _mask((8, 10, 12), np.s_[3], np.s_[:, 2:4, 5:9]),
        _mask((8, 10, 12), np.s_[:, :, 10]),
    ),
    "slab_vs_random": (
        _mask((12, 6, 10), np.s_[:, 4]),
        np.random.default_rng(7).random((12, 6, 10)) < 0.05,
    ),
}


class TestHd95Geometry:
    @pytest.mark.parametrize("name", sorted(GEOMETRY_PAIRS))
    def test_equals_oracle_exactly(self, name):
        a, b = GEOMETRY_PAIRS[name]
        assert a.any() and b.any()
        expected = oracle_hd95(a, b)
        assert hd95(a, b) == expected
        assert hd95(b, a) == expected

    @pytest.mark.parametrize("extent", [48, 64])
    def test_phantom_vs_near_full_cube_matches_scipy(self, extent):
        ndimage = pytest.importorskip("scipy.ndimage")
        _, labels = generate_phantom(3, (extent,) * 3)
        pred = np.ones((extent,) * 3, dtype=bool)
        pred[0, 0, 0] = False  # the never-background prediction of an undertrained model
        structure = ndimage.generate_binary_structure(3, 1)
        for region in (labels.data > 0, labels.data == 3):
            ba = pred & ~ndimage.binary_erosion(pred, structure, border_value=0)
            bb = region & ~ndimage.binary_erosion(region, structure, border_value=0)
            pooled = np.concatenate([
                ndimage.distance_transform_edt(~bb)[ba],
                ndimage.distance_transform_edt(~ba)[bb],
            ])
            assert hd95(pred, region) == pytest.approx(np.percentile(pooled, 95), abs=1e-9)


class TestContainment:
    def test_nested_masks_zero(self):
        outer = np.zeros((6, 6, 6), dtype=bool)
        inner = np.zeros((6, 6, 6), dtype=bool)
        outer[1:5, 1:5, 1:5] = True
        inner[2:4, 2:4, 2:4] = True
        assert containment_violation(outer, inner) == 0.0

    def test_half_outside(self):
        outer = np.zeros((6, 6, 6), dtype=bool)
        inner = np.zeros((6, 6, 6), dtype=bool)
        outer[0:3] = True
        inner[2:4, 0, 0] = True  # one voxel in, one out
        assert containment_violation(outer, inner) == 0.5

    def test_empty_inner_zero(self):
        outer = np.ones((4, 4, 4), dtype=bool)
        assert containment_violation(outer, np.zeros_like(outer)) == 0.0


class TestEvaluateVolume:
    def test_perfect_prediction(self):
        _, labels = generate_phantom(4, (16, 16, 16))
        report = evaluate_volume(labels, labels)
        for region in ("wt", "tc", "et"):
            assert report.dice[region] == 1.0
            assert report.hd95[region] == 0.0
            assert report.pred_voxels[region] == report.true_voxels[region] > 0

    def test_all_background_prediction(self):
        _, labels = generate_phantom(4, (16, 16, 16))
        empty = LabelVolume(np.zeros_like(labels.data))
        report = evaluate_volume(empty, labels)
        for region in ("wt", "tc", "et"):
            assert report.dice[region] == 0.0
            assert report.hd95[region] is None
            assert report.pred_voxels[region] == 0
            assert report.true_voxels[region] > 0

    def test_random_label_pair_matches_oracle(self):
        r = np.random.default_rng(77)
        pred = LabelVolume(r.integers(0, 4, (8, 8, 8)).astype(np.uint8))
        gt = LabelVolume(r.integers(0, 4, (8, 8, 8)).astype(np.uint8))
        report = evaluate_volume(pred, gt)
        from mmtseg.phantom import derive_regions

        pr, gr = derive_regions(pred), derive_regions(gt)
        for region in ("wt", "tc", "et"):
            p, g = pr.as_dict()[region], gr.as_dict()[region]
            assert report.dice[region] == oracle_dice(p, g)
            assert (report.pred_voxels[region], report.true_voxels[region]) == (
                int(p.sum()), int(g.sum()))
            expected = oracle_hd95(p, g)
            if expected is None:
                assert report.hd95[region] is None
            else:
                assert report.hd95[region] == pytest.approx(expected, abs=1e-9)

    def test_extent_mismatch(self):
        a = LabelVolume(np.zeros((8, 8, 8), dtype=np.uint8))
        b = LabelVolume(np.zeros((8, 8, 9), dtype=np.uint8))
        with pytest.raises(ValueError):
            evaluate_volume(a, b)


class TestAggregation:
    def test_sentinels_excluded(self):
        _, labels = generate_phantom(4, (16, 16, 16))
        perfect = evaluate_volume(labels, labels)
        miss = evaluate_volume(LabelVolume(np.zeros_like(labels.data)), labels)
        rows = aggregate_reports([perfect, miss])
        assert rows["hd95_wt"]["undefined"] == 1
        assert rows["hd95_wt"]["mean"] == 0.0  # only the perfect case counts
        assert rows["dice_wt"]["mean"] == 0.5
