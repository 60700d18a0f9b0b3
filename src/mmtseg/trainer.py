"""Training loop: Adam over the weighted objective, with deterministic
logs and resumable checkpoints.

Every per-step decision (patch order, augmentation draws) is a pure
function of (seed, step), so a resumed run reproduces the exact loss
trace of an unbroken one. Batch size is one patch per step.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .losses import LOSS_COLUMNS, LOSS_CSV_HEADER, LossWeights, total_loss
from .model import VARIANTS, ModelConfig, ModelGraph, build_model, load_blob, save_blob
from .phantom import LabelVolume, derive_regions
from .pipeline import augment, build_grid, extract_patches, normalize


class TrainingError(RuntimeError):
    pass


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class TrainConfig:
    variant: str = "MMTSN"
    patch_extents: tuple = (16, 16, 16)
    depth: int = 3
    base_channels: int = 8
    weights: LossWeights = field(default_factory=LossWeights)
    steps: int = 300
    seed: int = 0
    augment: bool = False
    checkpoint_interval: int = 100  # 0 = final checkpoint only

    def __post_init__(self):
        # every run setting is checked here, before any data is read
        at_least = lambda v, lo: _is_int(v) and v >= lo
        # extents divide by 2^shift when their low `shift` bits are zero; the
        # power itself is never formed, so a huge depth fails fast
        shift = self.depth - 1 if at_least(self.depth, 2) else 0
        extents = self.patch_extents
        ranges = {
            "variant": (f"one of {VARIANTS}", self.variant in VARIANTS),
            "depth": ("an integer >= 2", at_least(self.depth, 2)),
            "base_channels": ("an integer >= 2", at_least(self.base_channels, 2)),
            "patch_extents": (
                f"three positive integers divisible by 2^{shift} (2^(depth - 1))",
                isinstance(extents, (list, tuple)) and len(extents) == 3
                and all(at_least(e, 1) and e >> shift << shift == e for e in extents),
            ),
            "seed": ("an integer >= 0", at_least(self.seed, 0)),
            "augment": ("true or false", isinstance(self.augment, bool)),
            "steps": ("an integer >= 1", at_least(self.steps, 1)),
            "checkpoint_interval": ("an integer >= 0", at_least(self.checkpoint_interval, 0)),
        }
        for name, (rule, ok) in ranges.items():
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        self.patch_extents = tuple(extents)

    def model_config(self):
        return ModelConfig(depth=self.depth, base_channels=self.base_channels)

    def to_dict(self):
        d = asdict(self)
        d["patch_extents"] = list(self.patch_extents)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "weights" in d:
            if not isinstance(d["weights"], dict):
                raise ValueError(f"weights must be an object, got {d['weights']!r}")
            d["weights"] = LossWeights(**d["weights"])
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def init_like(cls, params):
        return cls(
            m={k: np.zeros_like(t.data) for k, t in params.items()},
            v={k: np.zeros_like(t.data) for k, t in params.items()},
        )


# Adam at the Kingma & Ba defaults, after clipping the global gradient norm
LEARNING_RATE = 1e-3
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_NORM = 5.0


def adam_step(params, state: AdamState):
    """One clipped Adam update with bias correction; gradients are consumed."""
    grads = {}
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in parameter {name!r}")
        grads[name] = g

    norm = float(np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values())))
    if norm > GRAD_CLIP_NORM:
        scale = np.float32(GRAD_CLIP_NORM / norm)
        grads = {k: g * scale for k, g in grads.items()}

    state.step += 1
    bc1 = 1.0 - BETA1**state.step
    bc2 = 1.0 - BETA2**state.step
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data -= LEARNING_RATE * update
        p.zero_grad()


def _schedule(seed, step, n_slots):
    """Slot index for a step under per-epoch shuffled enumeration."""
    epoch, idx = divmod(step, n_slots)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, epoch)))
    return int(rng.permutation(n_slots)[idx])


def _augment_seed(seed, step):
    return (seed * 1_000_003 + step) % (2**63)


def _checkpoint_entries(graph: ModelGraph, state: AdamState):
    """Entry name -> the live array a checkpoint saves from and loads into.

    Parameters keep their names; Adam moments are `adam.m.<name>` and
    `adam.v.<name>`.
    """
    entries = {name: t.data for name, t in graph.params.items()}
    for key, moments in (("adam.m", state.m), ("adam.v", state.v)):
        entries.update((f"{key}.{name}", arr) for name, arr in moments.items())
    return entries


def save_checkpoint(path, graph: ModelGraph, state: AdamState, config: TrainConfig):
    save_blob(path, _checkpoint_entries(graph, state), dict(config.to_dict(), step=state.step))


def load_checkpoint(path):
    """Rebuild graph, optimizer state and the config the file was saved with.

    The meta must hold every `TrainConfig` field and the Adam `step`; a file
    written before the meta held the loss weights is refused, not loaded
    with defaults. The saved entries must be exactly the rebuilt graph's
    parameters and Adam moments, each with its shape and finite values.
    """
    named, meta = load_blob(path)
    missing = [k for k in (*TrainConfig.__dataclass_fields__, "step") if k not in meta]
    if missing:
        raise ValueError(f"checkpoint {path} meta lacks {missing}")
    step = meta.pop("step")
    if not (_is_int(step) and step >= 0):
        raise ValueError(f"checkpoint {path} meta step must be an integer >= 0, got {step!r}")
    try:
        config = TrainConfig.from_dict(meta)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path} meta: {exc}") from exc
    graph = build_model(config.variant, config.model_config(), seed=config.seed)
    state = AdamState.init_like(graph.params)
    state.step = step
    targets = _checkpoint_entries(graph, state)
    missing = sorted(set(targets) - set(named))
    extra = sorted(set(named) - set(targets))
    if missing or extra:
        raise ValueError(
            f"checkpoint {path} does not match the {config.variant} graph and Adam state: "
            f"{len(missing)} missing {missing[:3]}, {len(extra)} unexpected {extra[:3]}"
        )
    for name, arr in targets.items():
        if named[name].shape != arr.shape:
            raise ValueError(
                f"checkpoint entry {name!r}: shape {named[name].shape} != {arr.shape}"
            )
        if not np.isfinite(named[name]).all():
            raise ValueError(f"checkpoint entry {name!r} holds non-finite values")
    for name, arr in targets.items():
        arr[...] = named[name]
    return graph, state, config


def _format_row(step, components):
    return ",".join([str(step)] + [repr(float(components[k])) for k in LOSS_COLUMNS])


@dataclass
class TrainResult:
    checkpoint_path: str
    log_path: str
    steps_run: int
    final_components: dict


def train(config: TrainConfig, cases, out_dir, resume_from=None) -> TrainResult:
    """Optimize on a phantom set; returns paths to checkpoint and loss log.

    `cases` is a sequence of (MultiModalVolume, LabelVolume). Volumes are
    intensity-normalized once, then patches are enumerated per the sliding
    grid and visited in per-epoch shuffled order. A non-finite loss aborts
    with the last periodic checkpoint left in place.
    """
    os.makedirs(out_dir, exist_ok=True)
    checkpoint_path = os.path.join(out_dir, "checkpoint")
    log_path = os.path.join(out_dir, "loss_log.csv")

    slots = []
    for volume, labels in cases:
        norm = normalize(volume)
        grid = build_grid(norm.extents, config.patch_extents)
        for img, lbl in extract_patches(norm, labels, grid):
            slots.append((img, lbl))
    if not slots:
        raise TrainingError("no training patches available")

    if resume_from is None:
        graph = build_model(config.variant, config.model_config(), seed=config.seed)
        state = AdamState.init_like(graph.params)
    else:
        graph, state, saved = load_checkpoint(resume_from)
        for key in TrainConfig.__dataclass_fields__:
            have, want = getattr(saved, key), getattr(config, key)
            # only the run length and the save cadence leave the trained values alone
            if have != want and key not in ("steps", "checkpoint_interval"):
                raise TrainingError(
                    f"checkpoint {key}={have!r} does not match config {key}={want!r}"
                )

    components = {}
    saved_at = None
    with open(log_path, "w", encoding="ascii") as log:
        log.write(LOSS_CSV_HEADER + "\n")
        while state.step < config.steps:
            step = state.step  # 0-based position of the upcoming update
            img, lbl = slots[_schedule(config.seed, step, len(slots))]
            if config.augment:
                img, lbl = augment(img, lbl, _augment_seed(config.seed, step))
            regions = derive_regions(LabelVolume(lbl))

            outputs = graph.forward(img)
            loss, components = total_loss(outputs, lbl, regions, config.weights)
            if not np.isfinite(components["total"]):
                raise TrainingError(
                    f"non-finite loss at step {step}; last checkpoint retained"
                )
            loss.backward()
            adam_step(graph.params, state)

            log.write(_format_row(state.step, components) + "\n")
            if config.checkpoint_interval and state.step % config.checkpoint_interval == 0:
                save_checkpoint(checkpoint_path, graph, state, config)
                saved_at = state.step

    if saved_at != state.step:  # the last step's periodic save is the final one
        save_checkpoint(checkpoint_path, graph, state, config)
    return TrainResult(
        checkpoint_path=checkpoint_path,
        log_path=log_path,
        steps_run=state.step,
        final_components=components,
    )
