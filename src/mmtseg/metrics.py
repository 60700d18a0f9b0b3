"""Evaluation: region Dice, 95th-percentile surface distance, voxel counts,
and the containment of one mask in another (used on the branch heads).

HD95 pools the directed boundary-to-boundary Euclidean distances in both
directions and takes the 95th percentile with linear interpolation, so it
is symmetric by construction. A voxel is boundary if it is foreground with
at least one six-connected background neighbor; the volume border counts
as background. Distances are in voxel units (phantom spacing is isotropic).

The distance from each boundary voxel of A to the nearest boundary voxel of
B is read off an exact squared Euclidean distance transform of B's boundary,
and likewise the other way. The transform is separable (the decomposition
of Felzenszwalb & Huttenlocher 2012, "Distance Transforms of Sampled
Functions"): one pass per axis sets each entry to the min over offsets d of
g[x ± d] + d², in int64. That is O(N·L) for N voxels and a longest axis L,
where comparing every pair of boundary voxels costs O(|∂A|·|∂B|). Both
masks are first cropped to the bounding box of ∂A ∪ ∂B: every boundary
voxel of either mask lies inside it, so the crop drops no candidate
nearest point. Squared distances stay integers throughout, so each
directed distance is `sqrt` of the same integer the pairwise definition
computes, the pooled values are identical, and so is their percentile,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phantom import LabelVolume, derive_regions

REGIONS = ("wt", "tc", "et")


def _as_bool(mask):
    arr = np.asarray(mask)
    if arr.dtype != bool:
        arr = arr != 0
    return arr


def _check_same_shape(a, b):
    if a.shape != b.shape:
        raise ValueError(f"mask shape mismatch: {a.shape} vs {b.shape}")


def dice_score(a, b) -> float:
    """2|A∩B| / (|A|+|B|); defined as 1.0 when both masks are empty."""
    a = _as_bool(a)
    b = _as_bool(b)
    _check_same_shape(a, b)
    na, nb = int(a.sum()), int(b.sum())
    if na + nb == 0:
        return 1.0
    return 2.0 * int(np.sum(a & b)) / (na + nb)


def _volume_mask(mask):
    arr = _as_bool(mask)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-D mask, got shape {arr.shape}")
    return arr


def boundary_voxels(mask) -> np.ndarray:
    """Foreground voxels with a six-connected background neighbor."""
    m = _volume_mask(mask)
    p = np.pad(m, 1, constant_values=False)
    interior = (
        p[:-2, 1:-1, 1:-1]
        & p[2:, 1:-1, 1:-1]
        & p[1:-1, :-2, 1:-1]
        & p[1:-1, 2:, 1:-1]
        & p[1:-1, 1:-1, :-2]
        & p[1:-1, 1:-1, 2:]
    )
    return m & ~interior


def _parabola_min(g, axis):
    """Along `axis`: out[x] = min over offsets d of g[x ± d] + d², exactly."""
    g = np.moveaxis(g, axis, 0)
    out = g.copy()
    for d in range(1, len(g)):
        dd = d * d
        np.minimum(out[d:], g[:-d] + dd, out=out[d:])
        np.minimum(out[:-d], g[d:] + dd, out=out[:-d])
    return np.moveaxis(out, 0, axis)


def _sq_distances(feature, points):
    """Squared Euclidean distance from each point to the nearest `feature` voxel.

    One pass along axis 0, then one along axis 1, over the grid; the pass
    along axis 2 runs only on the rows that hold `points`. `feature` must
    not be empty.
    """
    far = sum(n * n for n in feature.shape)  # above any squared distance in the grid
    g = np.where(feature, 0, far).astype(np.int64)
    g = _parabola_min(_parabola_min(g, 0), 1)
    rows = g[points[:, 0], points[:, 1]]
    rows += (points[:, 2:] - np.arange(feature.shape[2])) ** 2
    return rows.min(axis=1)


def hd95(a, b):
    """95th percentile of pooled bidirectional surface distances.

    Returns None when either mask is empty; never NaN.
    """
    a = _volume_mask(a)
    b = _volume_mask(b)
    _check_same_shape(a, b)
    if not a.any() or not b.any():
        return None
    ba = boundary_voxels(a)
    bb = boundary_voxels(b)
    both = np.argwhere(ba | bb)
    box = tuple(slice(lo, hi + 1) for lo, hi in zip(both.min(axis=0), both.max(axis=0)))
    ba, bb = ba[box], bb[box]
    sq = np.concatenate(
        [_sq_distances(bb, np.argwhere(ba)), _sq_distances(ba, np.argwhere(bb))]
    )
    return float(np.percentile(np.sqrt(sq.astype(np.float64)), 95))


def containment_violation(outer, inner) -> float:
    """Fraction of inner-mask voxels lying outside the outer mask."""
    outer = _as_bool(outer)
    inner = _as_bool(inner)
    _check_same_shape(outer, inner)
    n_inner = int(inner.sum())
    if n_inner == 0:
        return 0.0
    return int(np.sum(inner & ~outer)) / n_inner


@dataclass
class RegionReport:
    """Per-volume metrics, per region: Dice, HD95, and the predicted and true
    voxel counts, whose ratio shows over- or under-segmentation."""

    dice: dict = field(default_factory=dict)
    hd95: dict = field(default_factory=dict)
    pred_voxels: dict = field(default_factory=dict)
    true_voxels: dict = field(default_factory=dict)


def evaluate_volume(pred_labels: LabelVolume, gt_labels: LabelVolume) -> RegionReport:
    """Score a predicted label volume against ground truth, per region."""
    if pred_labels.data.shape != gt_labels.data.shape:
        raise ValueError(
            f"extent mismatch: {pred_labels.data.shape} vs {gt_labels.data.shape}"
        )
    pred = derive_regions(pred_labels).as_dict()
    gt = derive_regions(gt_labels).as_dict()
    report = RegionReport()
    for region in REGIONS:
        p, g = pred[region], gt[region]
        report.dice[region] = dice_score(p, g)
        report.hd95[region] = hd95(p, g)
        report.pred_voxels[region] = int(p.sum())
        report.true_voxels[region] = int(g.sum())
    return report


def _summary(values):
    """Mean, median and quartiles of the values that are not None, plus
    how many are None; the statistics are None when no value is defined."""
    defined = [v for v in values if v is not None]
    row = dict.fromkeys(("mean", "median", "q25", "q75"))
    if defined:
        arr = np.asarray(defined, dtype=np.float64)
        row = {
            "mean": float(arr.mean()),
            "median": float(np.percentile(arr, 50)),
            "q25": float(np.percentile(arr, 25)),
            "q75": float(np.percentile(arr, 75)),
        }
    row["undefined"] = len(values) - len(defined)
    return row


def aggregate_reports(reports):
    """Mean / median / 25 and 75 quantile rows over per-case metrics.

    Undefined HD95 entries are excluded from aggregation; the count of
    excluded cases is reported alongside.
    """
    return {
        f"{metric}_{region}": _summary([getattr(r, metric)[region] for r in reports])
        for metric in ("dice", "hd95", "pred_voxels", "true_voxels")
        for region in REGIONS
    }
