"""Training objectives: soft region Dice, multi-class Dice, and the spatial
containment constraint between nested tumor regions.

All losses are differentiable functions of probability maps. The
containment loss penalizes inner-region probability mass that falls
outside its enclosing region; it is exactly zero under containment and
defined as zero when the inner prediction carries no mass at all (no mass,
no violation). At evaluation time hard thresholded masks replace the soft
maps; during training the soft relaxation keeps gradients alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .tensor import ShapeError, Tensor, mul_broadcast, slice_channels, tensor_sum

EPSILON = 1e-5

TUMOR_CLASSES = (1, 2, 3)

# loss-log columns after the step, in order; `total_loss` reports each of them
LOSS_COLUMNS = ("loss_bt", "loss_wt", "loss_tc", "loss_et", "loss_sc", "total")
LOSS_CSV_HEADER = ",".join(("step",) + LOSS_COLUMNS)


@dataclass
class LossWeights:
    """Weights of the branch and constraint terms in the total objective."""

    lambda_wt: float = 0.5
    lambda_tc: float = 0.6
    lambda_et: float = 0.6
    lambda_sc: float = 0.5

    def __post_init__(self):
        for name, value in vars(self).items():
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (real and isfinite(value) and value >= 0):
                raise ValueError(f"weights.{name} must be a finite number >= 0, got {value!r}")


def _as_target(target, shape):
    arr = target.data if isinstance(target, Tensor) else np.asarray(target)
    t = Tensor(arr.astype(np.float32, copy=False))
    if t.data.shape != shape:
        raise ShapeError(f"target shape {t.data.shape} != prediction shape {shape}")
    return t


def soft_dice_loss(pred: Tensor, target) -> Tensor:
    """1 - (2·Σ(p·g) + ε) / (Σp + Σg + ε), differentiable in `pred`."""
    t = _as_target(target, pred.data.shape)
    intersection = tensor_sum(mul_broadcast(pred, t))
    denom = tensor_sum(pred) + tensor_sum(t) + EPSILON
    return 1.0 - (2.0 * intersection + EPSILON) / denom


def multiclass_dice_loss(main_probs: Tensor, labels) -> Tensor:
    """Mean soft Dice loss over the three tumor classes (background excluded)."""
    label_arr = np.asarray(getattr(labels, "data", labels))
    if main_probs.data.shape[1:] != label_arr.shape:
        raise ShapeError(
            f"probs spatial shape {main_probs.data.shape[1:]} != labels {label_arr.shape}"
        )
    total = None
    for cls in TUMOR_CLASSES:
        pred_c = slice_channels(main_probs, cls, cls + 1)
        target_c = (label_arr == cls)[np.newaxis]
        term = soft_dice_loss(pred_c, target_c)
        total = term if total is None else total + term
    return total * (1.0 / len(TUMOR_CLASSES))


def spatial_constraint_loss(outer_prob: Tensor, inner_prob: Tensor) -> Tensor:
    """1 - Σ(outer·inner) / (Σinner + ε); zero when inner carries no mass."""
    if outer_prob.data.shape != inner_prob.data.shape:
        raise ShapeError(
            f"shape mismatch: {outer_prob.data.shape} vs {inner_prob.data.shape}"
        )
    inner_mass = tensor_sum(inner_prob)
    if inner_mass.item() < EPSILON:
        return Tensor(0.0)
    overlap = tensor_sum(mul_broadcast(outer_prob, inner_prob))
    return 1.0 - overlap / (inner_mass + EPSILON)


def _detached(t: Tensor) -> Tensor:
    return Tensor(t.data)


def total_loss(outputs, labels, regions, weights: LossWeights, outer=_detached):
    """Weighted objective plus a per-component float breakdown.

    Variants without branch heads contribute only the main-branch term;
    their branch and constraint components are reported as 0.

    Both containment terms apply `outer` to the enclosing region. The
    default detaches it from the graph, as training needs: gradients pull
    stray inner mass back inside, but never inflate the outer prediction to
    cover it. With gradients on both sides the outer branches blow up to
    all-foreground within a few steps (the upward force on a diffuse outer
    prediction provably exceeds the Dice restoring force at these weights)
    and saturate unrecoverably. A gradient check passes the identity, so
    that its finite differences and its analytic gradient see the same paths.
    """
    loss_bt = multiclass_dice_loss(outputs.main_probs, labels)
    total = loss_bt
    components = dict.fromkeys(LOSS_COLUMNS, 0.0)
    components["loss_bt"] = loss_bt.item()

    if outputs.wt_prob is not None:
        branch_losses = {
            "wt": soft_dice_loss(outputs.wt_prob, regions.wt[np.newaxis]),
            "tc": soft_dice_loss(outputs.tc_prob, regions.tc[np.newaxis]),
            "et": soft_dice_loss(outputs.et_prob, regions.et[np.newaxis]),
        }
        loss_sc = spatial_constraint_loss(
            outer(outputs.wt_prob), outputs.tc_prob
        ) + spatial_constraint_loss(outer(outputs.tc_prob), outputs.et_prob)
        for region, lam in (
            ("wt", weights.lambda_wt),
            ("tc", weights.lambda_tc),
            ("et", weights.lambda_et),
        ):
            components[f"loss_{region}"] = branch_losses[region].item()
            total = total + lam * branch_losses[region]
        components["loss_sc"] = loss_sc.item()
        total = total + weights.lambda_sc * loss_sc

    components["total"] = total.item()
    return total, components
