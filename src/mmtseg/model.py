"""Segmentation graphs: three modality-specific branches fused into a main
branch through spatial-channel attention, plus the comparison topologies.

Variants:
  MMTSN          three sub-branches + attention-fused main branch
  UNET_PRE       one U-shape on all four modalities (input-level fusion)
  UNET_POST      one U-shape per modality, class logits added (decision-level)
  MMTSN_NO_SCFB  MMTSN topology with plain concat+conv fusion

Every U-shape reads its own modality subset of the patch: the whole-tumor
branch T2/Flair, the tumor-core branch T1/T1c, the enhancing-tumor branch
T1c, the pre-fusion U-Net all four and each post-fusion U-Net one. The
main branch fuses same-scale sub-branch encoder features with its own at
every encoder scale. Upsampling is nearest-neighbor followed by
convolution.

The sub-branch decoders and sigmoid heads are training-only supervision:
they feed the branch Dice and containment losses, and the segmentation
is the main branch's output. `ModelGraph.forward` computes every output
for training; `ModelGraph.predict` runs only the encoders, the fusion
blocks and the main decoder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat_channels,
    conv3d,
    global_avg_pool,
    max_pool3d,
    mul_broadcast,
    nearest_upsample,
    relu,
    sigmoid,
    softmax_channels,
)

VARIANTS = ("MMTSN", "UNET_PRE", "UNET_POST", "MMTSN_NO_SCFB")

MODALITY_INDEX = {"t1": 0, "t1c": 1, "t2": 2, "flair": 3}
BRANCH_MODALITIES = {
    "wt": ("t2", "flair"),
    "tc": ("t1", "t1c"),
    "et": ("t1c",),
}
NUM_CLASSES = 4


@dataclass
class ModelConfig:
    depth: int = 3
    base_channels: int = 8

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError(f"depth must be >= 2, got {self.depth}")
        if self.base_channels < 2:
            raise ValueError(f"base_channels must be >= 2, got {self.base_channels}")


@dataclass
class ForwardOutputs:
    main_probs: Tensor
    wt_prob: Tensor | None = None
    tc_prob: Tensor | None = None
    et_prob: Tensor | None = None


class ParamStore:
    """Registers uniquely named trainable tensors; `rng` draws their init."""

    def __init__(self, rng):
        self.rng = rng
        self.params = {}

    def register(self, name, array):
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(array, requires_grad=True)
        self.params[name] = t
        return t


class Conv3d:
    """Same-padding convolution layer; odd kernels only (see `conv3d`).

    The kernel is He-initialized from `store.rng` and the bias is zero;
    both are registered, kernel first.
    """

    def __init__(self, store, name, in_ch, out_ch, k=3):
        std = np.sqrt(2.0 / (in_ch * k**3))  # He: fan-in of one output voxel
        kernel = store.rng.standard_normal((out_ch, in_ch, k, k, k)) * std
        self.kernel = store.register(f"{name}.kernel", kernel.astype(np.float32))
        self.bias = store.register(f"{name}.bias", np.zeros(out_ch, dtype=np.float32))

    def __call__(self, x):
        return conv3d(x, self.kernel, self.bias)


class SCFB:
    """Spatial-channel attention fusion of same-scale feature maps.

    The concatenated input is reweighted twice: per channel, by a weight
    vector squeezed through average pooling and two 1×1×1 convolutions,
    and per voxel, by a single-channel 1×1×1 convolution. Both reweighted
    maps are added and mixed by a 3×3×3 convolution with ReLU.
    """

    def __init__(self, store, name, in_ch, out_ch):
        self.squeeze = Conv3d(store, f"{name}.squeeze", in_ch, in_ch, k=1)
        self.excite = Conv3d(store, f"{name}.excite", in_ch, in_ch, k=1)
        self.spatial = Conv3d(store, f"{name}.spatial", in_ch, 1, k=1)
        self.fuse = Conv3d(store, f"{name}.fuse", in_ch, out_ch, k=3)

    def __call__(self, parts):
        f_concat = concat_channels(parts)
        w_c, w_s = self._weights(f_concat)
        mixed = add(mul_broadcast(f_concat, w_c), mul_broadcast(f_concat, w_s))
        return relu(self.fuse(mixed))

    def attention_weights(self, parts):
        """(channel weights, spatial weights) for inspection and tests."""
        return self._weights(concat_channels(parts))

    def _weights(self, f_concat):
        w_c = sigmoid(self.excite(relu(self.squeeze(global_avg_pool(f_concat)))))
        w_s = sigmoid(self.spatial(f_concat))
        return w_c, w_s


class ConcatFuse:
    """Fusion fallback: channel concat followed by a 3×3×3 convolution."""

    def __init__(self, store, name, in_ch, out_ch):
        self.fuse = Conv3d(store, f"{name}.fuse", in_ch, out_ch, k=3)

    def __call__(self, parts):
        return relu(self.fuse(concat_channels(parts)))


class Decoder:
    """Decoder half of a U-shape: upsample, concat the same-scale skip,
    convolve, up to full resolution; then a 1×1×1 head to `out_ch` logits."""

    def __init__(self, store, name, out_ch, depth, base):
        self.convs = []
        for i in range(depth - 2, -1, -1):
            c_in = base * 2 ** (i + 1) + base * 2**i  # upsampled + skip
            self.convs.append(Conv3d(store, f"{name}.dec{i}", c_in, base * 2**i))
        self.head = Conv3d(store, f"{name}.head", base, out_ch, k=1)

    def __call__(self, feats):
        """Logits from per-scale features, finest first."""
        h = feats[-1]
        for conv, skip in zip(self.convs, reversed(feats[:-1])):
            h = relu(conv(concat_channels([nearest_upsample(h), skip])))
        return self.head(h)


class UNet:
    """U-shape over a modality subset: per-scale encoder features and a decoder."""

    def __init__(self, store, name, modalities, out_ch, depth, base):
        self.channels = [MODALITY_INDEX[m] for m in modalities]
        self.enc = []
        for i in range(depth):
            c_in = len(modalities) if i == 0 else base * 2 ** (i - 1)
            self.enc.append(Conv3d(store, f"{name}.enc{i}", c_in, base * 2**i))
        self.decoder = Decoder(store, name, out_ch, depth, base)

    def encode(self, patch_np):
        """Per-scale encoder features of this U-shape's modalities, finest first."""
        feats = []
        h = Tensor(patch_np[self.channels])
        for i, conv in enumerate(self.enc):
            h = relu(conv(max_pool3d(h) if i else h))
            feats.append(h)
        return feats

    def __call__(self, patch_np):
        return self.decoder(self.encode(patch_np))


class UNetSum:
    """The U-Net baselines: class logits of their U-shapes, summed."""

    def __init__(self, unets):
        self.unets = unets

    def predict(self, patch_np):
        return softmax_channels(reduce(add, (unet(patch_np) for unet in self.unets)))

    def forward(self, patch_np):
        # the U-shapes have no sub-branch outputs
        return ForwardOutputs(main_probs=self.predict(patch_np))


class FusedNet:
    """Main branch whose encoder fuses sub-branch features at every scale.

    `forward` and `predict` share `encode` and the main branch; `forward`
    adds the sub-branch decoders.
    """

    def __init__(self, store, depth, base, fusion_cls):
        self.branches = {
            region: UNet(store, f"branch_{region}", mods, 1, depth, base)
            for region, mods in BRANCH_MODALITIES.items()
        }
        self.enc = []
        self.fusions = []
        for i in range(depth):
            c_in = len(MODALITY_INDEX) if i == 0 else base * 2 ** (i - 1)
            c_scale = base * 2**i
            self.enc.append(Conv3d(store, f"main.enc{i}", c_in, c_scale))
            self.fusions.append(fusion_cls(store, f"main.fusion{i}", 4 * c_scale, c_scale))
        self.decoder = Decoder(store, "main", NUM_CLASSES, depth, base)

    def predict(self, patch_np):
        return self._main(patch_np, self.encode(patch_np))

    def forward(self, patch_np):
        feats = self.encode(patch_np)
        probs = {f"{region}_prob": sigmoid(self.branches[region].decoder(f))
                 for region, f in feats.items()}
        return ForwardOutputs(main_probs=self._main(patch_np, feats), **probs)

    def encode(self, patch_np):
        """Per-scale encoder features of every sub-branch, by region."""
        return {region: branch.encode(patch_np) for region, branch in self.branches.items()}

    def _main(self, patch_np, branch_feats):
        """Main-branch class probabilities: the main encoder's own features
        fused with `branch_feats` (by region, as `encode` returns them) at
        every scale, then decoded."""
        fused = []
        h = Tensor(patch_np)
        for i, (conv, fusion) in enumerate(zip(self.enc, self.fusions)):
            own = relu(conv(max_pool3d(h) if i else h))
            h = fusion([feats[i] for feats in branch_feats.values()] + [own])
            fused.append(h)
        return softmax_channels(self.decoder(fused))


class ModelGraph:
    """Named parameter set plus the net that runs one variant's topology."""

    def __init__(self, config, params, net):
        self.config = config
        self.params = params
        self.net = net

    def forward(self, patch) -> ForwardOutputs:
        """Every output the training losses read."""
        return self.net.forward(self._checked(patch))

    def predict(self, patch) -> Tensor:
        """Main-branch class probabilities, equal to `forward(patch).main_probs`.

        The sub-branch decoders and heads are training-only supervision, so
        prediction runs the encoders, the fusion blocks and the main decoder,
        and skips every `branch_*.dec*` and `branch_*.head` convolution.
        """
        return self.net.predict(self._checked(patch))

    def _checked(self, patch):
        patch_np = patch.data if isinstance(patch, Tensor) else np.asarray(patch)
        if patch_np.ndim != 4 or patch_np.shape[0] != len(MODALITY_INDEX):
            raise ShapeError(f"patch must be 4×D×H×W, got {patch_np.shape}")
        divisor = 2 ** (self.config.depth - 1)
        for e in patch_np.shape[1:]:
            if e % divisor:
                raise ShapeError(
                    f"extents {patch_np.shape[1:]} not divisible by {divisor} "
                    f"(depth {self.config.depth})"
                )
        return patch_np.astype(np.float32, copy=False)

    def zero_grads(self):
        for t in self.params.values():
            t.zero_grad()


def build_model(variant, config: ModelConfig, seed: int) -> ModelGraph:
    """Construct a variant with seeded He initialization (zero biases)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    store = ParamStore(np.random.default_rng(seed))
    depth, base = config.depth, config.base_channels
    if variant == "UNET_PRE":
        net = UNetSum([UNet(store, "unet", MODALITY_INDEX, NUM_CLASSES, depth, base)])
    elif variant == "UNET_POST":
        net = UNetSum([UNet(store, f"unet_{m}", (m,), NUM_CLASSES, depth, base)
                       for m in MODALITY_INDEX])
    else:
        net = FusedNet(store, depth, base, SCFB if variant == "MMTSN" else ConcatFuse)
    return ModelGraph(config, store.params, net)


# -- checkpoint blobs ---------------------------------------------------------
#
# <path>.json  manifest: meta plus name/shape/offset per entry
# <path>.bin   little-endian float32 payload, entries concatenated


def save_blob(path, named_arrays, meta):
    path = str(path)
    entries = []
    offset = 0
    with open(path + ".bin", "wb") as fh:
        for name in sorted(named_arrays):
            arr = np.ascontiguousarray(named_arrays[name], dtype="<f4")
            entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
            fh.write(arr.tobytes(order="C"))
            offset += arr.nbytes
    manifest = {"meta": meta, "entries": entries}
    with open(path + ".json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_blob(path):
    path = str(path)
    with open(path + ".json", "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("meta"), dict)
        and isinstance(manifest.get("entries"), list)
        and all(
            isinstance(e, dict) and {"name", "shape", "offset"} <= set(e)
            and isinstance(e["name"], str)
            for e in manifest["entries"]
        )
    ):
        raise ValueError(
            f"checkpoint manifest {path}.json needs 'meta' and 'entries' "
            "with a string name, shape and offset per entry"
        )
    # entries tile the blob from byte 0 in manifest order, as save_blob writes them;
    # `type(...) is int` keeps JSON floats and booleans out
    blob = np.fromfile(path + ".bin", dtype=np.uint8)
    named = {}
    end = 0
    for entry in manifest["entries"]:
        shape, offset = entry["shape"], entry["offset"]
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError(f"checkpoint entry {entry['name']!r}: shape {shape!r} is not "
                             "a list of non-negative integers")
        if entry["name"] in named:
            raise ValueError(f"checkpoint entry {entry['name']!r} is listed twice")
        if type(offset) is not int or offset != end:
            raise ValueError(f"checkpoint entry {entry['name']!r}: offset {offset!r}, "
                             f"expected {end} (entries must be contiguous from 0)")
        end += 4 * math.prod(shape)
        if end > blob.size:
            raise ValueError(f"checkpoint blob truncated at entry {entry['name']!r}")
        named[entry["name"]] = blob[offset:end].view("<f4").reshape(shape).copy()
    if end != blob.size:
        raise ValueError(f"checkpoint blob {path}.bin holds {blob.size} bytes, "
                         f"its entries {end}")
    return named, manifest["meta"]

