"""Finite-difference verification of every differentiable op, the fusion
block, and a whole tiny model.

Per-op and fusion-block checks probe every coordinate at step 1e-3 against
a 1e-3 bound. The whole-model check samples seeded coordinates from every
parameter tensor and uses a looser 1e-2 bound to absorb composition depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .losses import (
    LossWeights,
    multiclass_dice_loss,
    soft_dice_loss,
    spatial_constraint_loss,
)
from .model import SCFB, ModelConfig, ParamStore, build_model
from .phantom import derive_regions, generate_phantom
from .pipeline import normalize

OP_TOL = 1e-3
MODEL_TOL = 1e-2
STEP = 1e-3


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self):
        return self.max_err < self.tol

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<28} max_rel_err={self.max_err:.3e}  tol={self.tol:.0e}"


def _rand(rng, shape, lo=-1.0, hi=1.0):
    return T.Tensor(rng.uniform(lo, hi, shape).astype(np.float32), requires_grad=True)


def _probe(t, seed):
    w = T.Tensor(np.random.default_rng(seed).choice([-1.0, 1.0], t.data.shape).astype(np.float32))
    return T.tensor_sum(T.mul_broadcast(t, w))


def op_checks(seed=0):
    """Gradient-check each engine op on seeded random inputs in [-1, 1]."""
    rng = np.random.default_rng(seed)
    results = []

    def run(name, f, x, tol=OP_TOL):
        results.append(CheckResult(name, T.grad_check(f, x, step=STEP), tol))

    # modest output counts keep float32 forward rounding well under the bound
    x = _rand(rng, (2, 3, 3, 3))
    k = _rand(rng, (2, 2, 3, 3, 3))
    b = _rand(rng, (2,))
    run("conv3d/input", lambda t: _probe(T.conv3d(t, k, b), 10), x)
    run("conv3d/kernel", lambda t: _probe(T.conv3d(x, t, b), 11), k)
    run("conv3d/bias", lambda t: _probe(T.conv3d(x, k, t), 12), b)

    # keep relu inputs away from its kink
    mag = rng.uniform(0.2, 1.0, (2, 3, 3, 3)) * rng.choice([-1, 1], (2, 3, 3, 3))
    run("relu", lambda t: _probe(T.relu(t), 14), T.Tensor(mag.astype(np.float32), requires_grad=True))
    run("sigmoid", lambda t: _probe(T.sigmoid(t), 15), _rand(rng, (2, 3, 3, 3)))
    run("softmax_channels", lambda t: _probe(T.softmax_channels(t), 16), _rand(rng, (4, 3, 3, 3)))
    run("global_avg_pool", lambda t: _probe(T.global_avg_pool(t), 17), _rand(rng, (3, 3, 3, 3)))
    run("max_pool3d", lambda t: _probe(T.max_pool3d(t), 18), _rand(rng, (2, 4, 4, 4)))
    run("nearest_upsample", lambda t: _probe(T.nearest_upsample(t), 19), _rand(rng, (2, 2, 2, 2)))

    a = _rand(rng, (2, 3, 3, 3))
    other = _rand(rng, (2, 3, 3, 3))
    run("add", lambda t: _probe(T.add(t, other), 20), a)
    run("mul/equal", lambda t: _probe(T.mul_broadcast(t, other), 21), a)
    wc = _rand(rng, (2, 1, 1, 1))
    run("mul/channel-weight", lambda t: _probe(T.mul_broadcast(a, t), 22), wc)
    ws = _rand(rng, (1, 3, 3, 3))
    run("mul/spatial-weight", lambda t: _probe(T.mul_broadcast(a, t), 23), ws)

    cpart = _rand(rng, (2, 3, 3, 3))
    run(
        "concat_channels",
        lambda t: _probe(T.concat_channels([t, other]), 24),
        cpart,
    )
    run("slice_channels", lambda t: _probe(T.slice_channels(t, 1, 3), 25), _rand(rng, (4, 3, 3, 3)))

    pos = _rand(rng, (2, 3, 3, 3), lo=0.1, hi=1.0)
    run(
        "sum-div composite",
        lambda t: T.tensor_sum(T.mul_broadcast(t, other)) / (T.tensor_sum(t) + 5.0),
        pos,
    )
    return results


def scfb_checks(seed=0):
    """Gradient-check the fusion block end to end, per parameter tensor."""
    rng = np.random.default_rng(seed)
    store = ParamStore(np.random.default_rng(seed + 1))
    block = SCFB(store, "scfb", in_ch=4, out_ch=2)
    parts = [_rand(rng, (1, 3, 3, 3)) for _ in range(4)]

    # grad_check perturbs the tensor it is handed in place, and the block
    # reads the live parameter objects, so the closure ignores its argument
    results = []
    for name, param in store.params.items():
        err = T.grad_check(lambda _: _probe(block(parts), 30), param, step=STEP)
        results.append(CheckResult(f"scfb/{name}", err, OP_TOL))
    err = T.grad_check(lambda _: _probe(block(parts), 31), parts[0], step=STEP)
    results.append(CheckResult("scfb/input", err, OP_TOL))
    return results


def model_check(seed=0, coords_per_tensor=8):
    """Sampled finite-difference check of a whole tiny model's parameters.

    The probe objective composes every loss term with full two-sided
    gradients (the training objective detaches the containment outer side
    on purpose, which a finite-difference comparison would flag).
    """
    vol, labels = generate_phantom(seed, (16, 16, 16))
    patch = normalize(vol).data[:, 4:12, 4:12, 4:12]
    lbl = labels.data[4:12, 4:12, 4:12]
    regions = derive_regions(type(labels)(lbl))
    w = LossWeights()
    graph = build_model("MMTSN", ModelConfig(depth=2, base_channels=2), seed=seed)

    def loss_value():
        out = graph.forward(patch)
        total = multiclass_dice_loss(out.main_probs, lbl)
        total = total + w.lambda_wt * soft_dice_loss(out.wt_prob, regions.wt[np.newaxis])
        total = total + w.lambda_tc * soft_dice_loss(out.tc_prob, regions.tc[np.newaxis])
        total = total + w.lambda_et * soft_dice_loss(out.et_prob, regions.et[np.newaxis])
        sc = spatial_constraint_loss(out.wt_prob, out.tc_prob) + spatial_constraint_loss(
            out.tc_prob, out.et_prob
        )
        return total + w.lambda_sc * sc

    graph.zero_grads()
    loss_value().backward()
    analytic = {name: t.grad.copy() for name, t in graph.params.items()}
    graph.zero_grads()

    rng = np.random.default_rng(seed + 99)
    worst = 0.0
    for name, param in graph.params.items():
        flat = param.data.reshape(-1)
        coords = rng.choice(flat.size, size=min(coords_per_tensor, flat.size), replace=False)
        numeric = T._central_differences(lambda: loss_value().item(), flat, coords, STEP)
        worst = max(worst, T.max_rel_err(analytic[name].reshape(-1)[coords], numeric))
    return CheckResult("full-model (tiny MMTSN)", worst, MODEL_TOL)


def run_suite(seed=0, coords_per_tensor=8):
    results = op_checks(seed)
    results.extend(scfb_checks(seed))
    results.append(model_check(seed, coords_per_tensor))
    return results
