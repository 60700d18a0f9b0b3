"""Preprocessing, sliding-window patching, reassembly, and augmentation.

The patch grid uses stride equal to the patch size, with the last window
per axis shifted flush against the volume boundary, so every voxel is
covered and the grid for a 240×240×155 volume with 64×64×48 patches has
exactly 4×4×4 origins. Overlapping predictions are averaged on reassembly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .phantom import LabelVolume, MultiModalVolume


class PipelineError(ValueError):
    pass


def normalize(volume: MultiModalVolume) -> MultiModalVolume:
    """Z-score each channel over its nonzero (head) voxels.

    Background voxels stay exactly 0. A channel whose head region is empty
    or constant has no meaningful scale and is rejected.
    """
    out = np.zeros_like(volume.data)
    for ch in range(volume.data.shape[0]):
        channel = volume.data[ch]
        head = channel != 0.0
        if not head.any():
            raise PipelineError(f"channel {ch}: no nonzero voxels to normalize")
        vals = channel[head].astype(np.float64)
        std = vals.std()
        if std == 0.0:
            raise PipelineError(f"channel {ch}: zero variance over head voxels")
        out[ch][head] = ((vals - vals.mean()) / std).astype(np.float32)
    return MultiModalVolume(data=out)


@dataclass
class PatchGrid:
    """Sliding-window origins covering a volume with fixed-size patches."""

    patch_extents: tuple
    volume_extents: tuple
    origins: list


def _axis_starts(extent, patch):
    starts = list(range(0, extent - patch + 1, patch))
    if starts[-1] != extent - patch:
        starts.append(extent - patch)
    return starts


def build_grid(volume_extents, patch_extents) -> PatchGrid:
    volume_extents = tuple(int(e) for e in volume_extents)
    patch_extents = tuple(int(e) for e in patch_extents)
    if len(patch_extents) != 3 or len(volume_extents) != 3:
        raise PipelineError("extents must be three values")
    if any(p > v for p, v in zip(patch_extents, volume_extents)):
        raise PipelineError(
            f"patch {patch_extents} larger than volume {volume_extents}"
        )
    if any(p < 1 for p in patch_extents):
        raise PipelineError(f"patch extents must be positive, got {patch_extents}")
    per_axis = [_axis_starts(v, p) for v, p in zip(volume_extents, patch_extents)]
    origins = list(itertools.product(*per_axis))
    return PatchGrid(
        patch_extents=patch_extents,
        volume_extents=volume_extents,
        origins=origins,
    )


def extract_patches(volume: MultiModalVolume, labels, grid: PatchGrid):
    """List of (image patch, label patch) pairs in deterministic grid order.

    `labels` may be None at inference time; the label slot is then None.
    """
    if volume.extents != grid.volume_extents:
        raise PipelineError(
            f"grid built for {grid.volume_extents}, volume is {volume.extents}"
        )
    pd, ph, pw = grid.patch_extents
    pairs = []
    for d, h, w in grid.origins:
        img = volume.data[:, d : d + pd, h : h + ph, w : w + pw]
        lbl = None
        if labels is not None:
            lbl = labels.data[d : d + pd, h : h + ph, w : w + pw]
        pairs.append((img, lbl))
    return pairs


def reassemble(prob_patches, grid: PatchGrid) -> np.ndarray:
    """Average per-patch probability maps back into a full volume."""
    if len(prob_patches) != len(grid.origins):
        raise PipelineError(
            f"got {len(prob_patches)} patches for {len(grid.origins)} origins"
        )
    pd, ph, pw = grid.patch_extents
    channels = prob_patches[0].shape[0]
    acc = np.zeros((channels,) + grid.volume_extents, dtype=np.float64)
    count = np.zeros(grid.volume_extents, dtype=np.float64)
    for patch, (d, h, w) in zip(prob_patches, grid.origins):
        if patch.shape != (channels, pd, ph, pw):
            raise PipelineError(
                f"patch shape {patch.shape} does not match grid {(channels, pd, ph, pw)}"
            )
        acc[:, d : d + pd, h : h + ph, w : w + pw] += patch
        count[d : d + pd, h : h + ph, w : w + pw] += 1.0
    return (acc / count).astype(np.float32)


def probs_to_labels(probs) -> LabelVolume:
    return LabelVolume(data=np.argmax(probs, axis=0).astype(np.uint8))


def _gamma_correct(img, gamma):
    out = img.copy()
    for ch in range(img.shape[0]):
        lo = float(img[ch].min())
        hi = float(img[ch].max())
        if hi == lo:
            continue
        unit = (img[ch] - lo) / (hi - lo)
        out[ch] = (unit**gamma) * (hi - lo) + lo
    return out


def augment(patch, label_patch, seed):
    """Seeded augmentation: gamma correction, axial 90° rotation, axis flips.

    Each transform fires independently with probability 0.5. Geometric
    transforms are applied identically to the labels; gamma touches only
    intensities. Odd quarter-turns are only drawn when the axial plane is
    square, otherwise the rotation falls back to 180° so shapes persist.
    """
    rng = np.random.default_rng(seed)
    img = np.asarray(patch, dtype=np.float32).copy()
    lbl = np.asarray(label_patch).copy()

    if rng.random() < 0.5:
        gamma = float(rng.uniform(0.7, 1.5))
        img = _gamma_correct(img, gamma)

    if rng.random() < 0.5:
        k = int(rng.integers(1, 4))
        if img.shape[1] != img.shape[2] and k % 2 == 1:
            k = 2
        img = np.rot90(img, k, axes=(1, 2)).copy()
        lbl = np.rot90(lbl, k, axes=(0, 1)).copy()

    for axis in range(3):
        if rng.random() < 0.5:
            img = np.flip(img, axis=axis + 1).copy()
            lbl = np.flip(lbl, axis=axis).copy()

    return img, lbl
