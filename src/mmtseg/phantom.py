"""Deterministic synthetic multi-modal volumes with nested tumor regions.

Each phantom is a head-shaped ellipsoid of base tissue containing three
strictly nested tumor ellipsoids: whole tumor (WT) around tumor core (TC)
around enhancing tumor (ET). Intensities follow the usual MR contrast
behaviour: the whole tumor, and edema especially, is bright in T2/Flair;
the core is hypointense in T1; only T1c enhances the ET region.

Label codes: 0 background, 1 necrotic/non-enhancing core, 2 edema,
3 enhancing tumor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODALITIES = ("t1", "t1c", "t2", "flair")

CLASS_BACKGROUND = 0
CLASS_NECROTIC = 1
CLASS_EDEMA = 2
CLASS_ENHANCING = 3

MIN_EXTENT = 16

_MAGIC = "MMTSVOL1"
_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}

# base tissue intensity per modality and the tumor/tissue contrast step
_TISSUE = {"t1": 100.0, "t1c": 95.0, "t2": 90.0, "flair": 85.0}
_CONTRAST = 40.0
_NOISE_SIGMA = 0.05 * _CONTRAST


class GenerationError(ValueError):
    """Phantom geometry cannot be realized for the requested extents."""


class LabelError(ValueError):
    """Label volume contains values outside the class table."""


class VolumeFormatError(ValueError):
    """Volume file is malformed or inconsistent with its header."""


@dataclass
class MultiModalVolume:
    """4-channel image, channel order (T1, T1c, T2, Flair), float32."""

    data: np.ndarray  # 4×D×H×W

    def __post_init__(self):
        if self.data.ndim != 4 or self.data.shape[0] != len(MODALITIES):
            raise ValueError(f"expected 4×D×H×W data, got {self.data.shape}")

    @property
    def extents(self):
        return self.data.shape[1:]


@dataclass
class LabelVolume:
    """Per-voxel class labels, D×H×W, uint8."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"expected D×H×W labels, got {self.data.shape}")


@dataclass
class RegionMasks:
    """Nested binary regions: et ⊆ tc ⊆ wt."""

    wt: np.ndarray
    tc: np.ndarray
    et: np.ndarray

    def as_dict(self):
        return {"wt": self.wt, "tc": self.tc, "et": self.et}


def derive_regions(labels: LabelVolume) -> RegionMasks:
    """Build WT/TC/ET masks from class labels.

    WT is every tumor class, TC drops the edema, ET is the enhancing class
    alone, so the three masks nest by construction.
    """
    data = labels.data
    if data.max(initial=0) > CLASS_ENHANCING or data.min(initial=0) < 0:
        bad = sorted(int(v) for v in np.unique(data) if v > CLASS_ENHANCING or v < 0)
        raise LabelError(f"unknown label classes: {bad}")
    wt = data > CLASS_BACKGROUND
    tc = (data == CLASS_NECROTIC) | (data == CLASS_ENHANCING)
    et = data == CLASS_ENHANCING
    return RegionMasks(wt=wt, tc=tc, et=et)


def _ellipsoid_mask(extents, center, radii):
    grids = np.ogrid[tuple(slice(0, e) for e in extents)]
    q = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii))
    return q <= 1.0


def _nested_ellipsoid(rng, outer_center, outer_radii, ratio_lo, ratio_hi):
    """Sample an ellipsoid strictly inside the given one.

    Containment holds because the center offset is bounded, in the norm
    induced by the outer radii, by the margin 1 - max(radius ratio).
    """
    ratios = rng.uniform(ratio_lo, ratio_hi, size=3)
    radii = outer_radii * ratios
    margin = 1.0 - float(np.max(radii / outer_radii))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    frac = rng.uniform(0.0, 0.8)
    center = outer_center + direction * frac * margin * outer_radii
    return center, radii


def generate_phantom(seed: int, extents) -> tuple[MultiModalVolume, LabelVolume]:
    """Generate one multi-modal phantom; pure function of (seed, extents)."""
    extents = tuple(int(e) for e in extents)
    if len(extents) != 3 or min(extents) < MIN_EXTENT:
        raise GenerationError(
            f"extents must be three values >= {MIN_EXTENT}, got {extents}"
        )
    rng = np.random.default_rng(seed)
    ext = np.asarray(extents, dtype=np.float64)

    head_center = ext / 2.0 + rng.uniform(-0.02, 0.02, size=3) * ext
    head_radii = 0.44 * ext
    head = _ellipsoid_mask(extents, head_center, head_radii)

    # sized so even the innermost region keeps a two-digit voxel count at
    # the minimum extents; tiny targets make the dice terms needlessly stiff
    wt_radii = rng.uniform(0.27, 0.33, size=3) * float(min(extents))
    wt_margin = 1.0 - float(np.max(wt_radii / head_radii))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    wt_center = head_center + direction * rng.uniform(0.0, 0.6) * wt_margin * head_radii

    tc_center, tc_radii = _nested_ellipsoid(rng, wt_center, wt_radii, 0.64, 0.72)
    et_center, et_radii = _nested_ellipsoid(rng, tc_center, tc_radii, 0.58, 0.66)

    wt = _ellipsoid_mask(extents, wt_center, wt_radii)
    tc = _ellipsoid_mask(extents, tc_center, tc_radii) & wt
    et = _ellipsoid_mask(extents, et_center, et_radii) & tc

    labels = np.zeros(extents, dtype=np.uint8)
    labels[wt] = CLASS_EDEMA
    labels[tc] = CLASS_NECROTIC
    labels[et] = CLASS_ENHANCING
    for cls in (CLASS_NECROTIC, CLASS_EDEMA, CLASS_ENHANCING):
        if not np.any(labels == cls):
            raise GenerationError(
                f"seed {seed}, extents {extents}: class {cls} voxelized to empty"
            )

    edema = labels == CLASS_EDEMA
    core = tc  # classes 1 and 3
    data = np.zeros((len(MODALITIES),) + extents, dtype=np.float32)
    for ch, name in enumerate(MODALITIES):
        img = np.zeros(extents, dtype=np.float64)
        img[head] = _TISSUE[name]
        if name in ("t2", "flair"):
            img[edema] += _CONTRAST
            img[core] += 0.75 * _CONTRAST
        elif name == "t1":
            img[core] -= 0.75 * _CONTRAST
            img[edema] -= 0.25 * _CONTRAST
        else:  # t1c: only the enhancing region lights up
            img[core] -= 0.75 * _CONTRAST
            img[edema] -= 0.25 * _CONTRAST
            img[et] += 2.0 * _CONTRAST  # overrides the core dip, net bright
        noise = rng.normal(0.0, _NOISE_SIGMA, size=extents)
        img[head] += noise[head]
        data[ch] = img.astype(np.float32)

    return MultiModalVolume(data=data), LabelVolume(data=labels)


# -- volume file format ------------------------------------------------------
#
# one text header line:  MMTSVOL1 <C> <D> <H> <W> <dtype>\n
# then the row-major little-endian payload (f32 images, u8 labels)


def _write_array(path, array, dtype_token):
    dtype = _DTYPES[dtype_token]
    arr = np.ascontiguousarray(array, dtype=dtype)
    if arr.ndim != 4:
        raise ValueError(f"payload must be C×D×H×W, got {arr.shape}")
    header = f"{_MAGIC} {arr.shape[0]} {arr.shape[1]} {arr.shape[2]} {arr.shape[3]} {dtype_token}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(arr.tobytes(order="C"))


def _read_array(path):
    with open(path, "rb") as fh:
        header = fh.readline(128)
        parts = header.decode("ascii", errors="replace").split()
        if len(parts) != 6 or parts[0] != _MAGIC:
            raise VolumeFormatError(f"{path}: bad header {header!r}")
        try:
            shape = tuple(int(p) for p in parts[1:5])
        except ValueError:
            raise VolumeFormatError(f"{path}: non-integer extents in header") from None
        if any(n < 0 for n in shape):
            raise VolumeFormatError(f"{path}: negative extents {shape} in header")
        if parts[5] not in _DTYPES:
            raise VolumeFormatError(f"{path}: unknown dtype {parts[5]!r}")
        dtype = _DTYPES[parts[5]]
        payload = fh.read()
    expected = math.prod(shape) * dtype.itemsize
    if len(payload) != expected:
        raise VolumeFormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape), parts[5]


def write_volume(path, volume: MultiModalVolume):
    _write_array(path, volume.data, "f32")


def read_volume(path) -> MultiModalVolume:
    arr, token = _read_array(path)
    if token != "f32":
        raise VolumeFormatError(f"{path}: expected f32 image payload, got {token}")
    if not np.isfinite(arr).all():
        raise VolumeFormatError(f"{path}: non-finite voxel values (NaN or Inf)")
    return MultiModalVolume(data=np.array(arr, dtype=np.float32))


def write_labels(path, labels: LabelVolume):
    _write_array(path, labels.data[np.newaxis], "u8")


def read_labels(path) -> LabelVolume:
    arr, token = _read_array(path)
    if token != "u8" or arr.shape[0] != 1:
        raise VolumeFormatError(f"{path}: expected single-channel u8 labels")
    return LabelVolume(data=arr[0].copy())
