"""Finite-difference verification of every differentiable op, the fusion
block, and a whole tiny model.

Per-op and fusion-block checks probe every coordinate at step 1e-3 against
a 1e-3 bound. The whole-model check samples 8 seeded coordinates from every
parameter tensor and uses a looser 1e-2 bound to absorb composition depth.

Every check records its objective, takes the analytic gradient from one
backward pass over it, and takes its central differences from replays of
that recording that run only the array kernels of the ops the checked
tensor reaches (`T.replayer`); every other value comes from the recording.
A replay stacks all ± perturbations of a tensor as lanes, and each kernel
runs once for all of them. A lane's perturbed entry is the float32 value a
one-at-a-time check would write, and each lane is bitwise its own forward
pass, so every difference is the one a full forward pass per perturbation
gives. The per-op and fusion-block checks go through `T.grad_check`, whose
extra guard lane must match the objective evaluated again; in a fusion-block
check only the checked tensor requires grad. The whole-model check records
one objective for all its parameter tensors.
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
COORDS_PER_TENSOR = 8  # whole-model check: coordinates sampled per parameter tensor


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


def _probe(seed):
    """Objective of one check: a ±1-weighted sum of its op's output.

    The weights depend only on `seed` and the output's shape, so they are
    drawn once, on the first call, and reused by every evaluation after it.
    """
    w = None

    def probe(t):
        nonlocal w
        if w is None:
            w = T.Tensor(np.random.default_rng(seed).choice([-1.0, 1.0], t.data.shape)
                         .astype(np.float32))
        return T.tensor_sum(T.mul_broadcast(t, w))

    return probe


def op_checks(seed=0):
    """Gradient-check each engine op on seeded random inputs in [-1, 1]."""
    rng = np.random.default_rng(seed)
    results = []

    def run(name, f, x, probe_seed):
        probe = _probe(probe_seed)
        err = T.grad_check(lambda t: probe(f(t)), x, step=STEP)
        results.append(CheckResult(name, err, OP_TOL))

    # in the float32 forward pass, modest output counts keep rounding well
    # under the bound
    x = _rand(rng, (2, 3, 3, 3))
    k = _rand(rng, (2, 2, 3, 3, 3))
    b = _rand(rng, (2,))
    run("conv3d/input", lambda t: T.conv3d(t, k, b), x, 10)
    run("conv3d/kernel", lambda t: T.conv3d(x, t, b), k, 11)
    run("conv3d/bias", lambda t: T.conv3d(x, k, t), b, 12)

    # keep relu inputs away from its kink
    mag = rng.uniform(0.2, 1.0, (2, 3, 3, 3)) * rng.choice([-1, 1], (2, 3, 3, 3))
    run("relu", T.relu, T.Tensor(mag.astype(np.float32), requires_grad=True), 14)
    run("sigmoid", T.sigmoid, _rand(rng, (2, 3, 3, 3)), 15)
    run("softmax_channels", T.softmax_channels, _rand(rng, (4, 3, 3, 3)), 16)
    run("global_avg_pool", T.global_avg_pool, _rand(rng, (3, 3, 3, 3)), 17)
    run("max_pool3d", T.max_pool3d, _rand(rng, (2, 4, 4, 4)), 18)
    run("nearest_upsample", T.nearest_upsample, _rand(rng, (2, 2, 2, 2)), 19)

    a = _rand(rng, (2, 3, 3, 3))
    other = _rand(rng, (2, 3, 3, 3))
    run("add", lambda t: T.add(t, other), a, 20)
    run("mul/equal", lambda t: T.mul_broadcast(t, other), a, 21)
    wc = _rand(rng, (2, 1, 1, 1))
    run("mul/channel-weight", lambda t: T.mul_broadcast(a, t), wc, 22)
    ws = _rand(rng, (1, 3, 3, 3))
    run("mul/spatial-weight", lambda t: T.mul_broadcast(a, t), ws, 23)

    cpart = _rand(rng, (2, 3, 3, 3))
    run("concat_channels", lambda t: T.concat_channels([t, other]), cpart, 24)
    run("slice_channels", lambda t: T.slice_channels(t, 1, 3), _rand(rng, (4, 3, 3, 3)), 25)

    pos = _rand(rng, (2, 3, 3, 3), lo=0.1, hi=1.0)
    err = T.grad_check(
        lambda t: T.tensor_sum(T.mul_broadcast(t, other)) / (T.tensor_sum(t) + 5.0),
        pos,
        step=STEP,
    )
    results.append(CheckResult("sum-div composite", err, OP_TOL))
    return results


def scfb_checks(seed=0):
    """Gradient-check the fusion block end to end, per parameter tensor."""
    rng = np.random.default_rng(seed)
    store = ParamStore(np.random.default_rng(seed + 1))
    block = SCFB(store, "scfb", in_ch=4, out_ch=2)
    parts = [_rand(rng, (1, 3, 3, 3)) for _ in range(4)]

    # grad_check moves the tensor it is handed in place, and the block reads
    # the live tensors, so the objective ignores its argument. Only that tensor
    # requires grad during its check, so the recording, the backward pass and
    # the replay cover just what it reaches.
    leaves = [*store.params.values(), *parts]
    results = []
    checks = [(f"scfb/{name}", param, 30) for name, param in store.params.items()]
    for name, x, probe_seed in [*checks, ("scfb/input", parts[0], 31)]:
        probe = _probe(probe_seed)
        for t in leaves:
            t.requires_grad = t is x
        try:
            err = T.grad_check(lambda _: probe(block(parts)), x, step=STEP)
        finally:
            for t in leaves:
                t.requires_grad = True
        results.append(CheckResult(name, err, OP_TOL))
    return results


def tiny_mmtsn(seed):
    """The whole-model check's inputs: a depth-2, base-2 MMTSN, an 8³ patch
    of a 16³ phantom, and its probe objective of `ForwardOutputs`.

    The objective composes every loss term with full two-sided gradients
    (the training objective detaches the containment outer side on purpose,
    which a finite-difference comparison would flag), added left to right:
    the main Dice, λ·Dice per region, and λsc·containment over all three
    regions.
    """
    vol, labels = generate_phantom(seed, (16, 16, 16))
    patch = normalize(vol).data[:, 4:12, 4:12, 4:12]
    lbl = labels.data[4:12, 4:12, 4:12]
    regions = derive_regions(type(labels)(lbl))
    w = LossWeights()
    graph = build_model("MMTSN", ModelConfig(depth=2, base_channels=2), seed=seed)

    def objective(out):
        total = multiclass_dice_loss(out.main_probs, lbl)
        for region, lam in (("wt", w.lambda_wt), ("tc", w.lambda_tc), ("et", w.lambda_et)):
            target = getattr(regions, region)[np.newaxis]
            total = total + lam * soft_dice_loss(getattr(out, f"{region}_prob"), target)
        sc = spatial_constraint_loss(out.wt_prob, out.tc_prob) + spatial_constraint_loss(
            out.tc_prob, out.et_prob
        )
        return total + w.lambda_sc * sc

    return graph, patch, objective


def model_check(seed=0):
    """Sampled finite-difference check of a whole tiny model's parameters.

    The analytic gradients come from one backward pass over the recorded
    objective of `graph.forward`. The central differences of a parameter
    tensor replay only the kernels of the ops it reaches (`T.replayer`),
    once, with its 2·k perturbations as lanes, and read the rest from that
    recording, so every value is bitwise the one a full forward pass gives.
    It evaluates the objective once, so unlike `T.grad_check` no lane of it
    is tested against a second evaluation.
    """
    graph, patch, objective = tiny_mmtsn(seed)
    graph.zero_grads()
    root = objective(graph.forward(patch))
    root.backward()
    analytic = {name: t.grad.copy() for name, t in graph.params.items()}
    graph.zero_grads()

    rng = np.random.default_rng(seed + 99)
    worst = 0.0
    for name, param in graph.params.items():
        n = param.data.size
        coords = rng.choice(n, size=min(COORDS_PER_TENSOR, n), replace=False)
        numeric, _ = T._central_differences(T.replayer(root, param), param.data, coords, STEP)
        worst = max(worst, T.max_rel_err(analytic[name].reshape(-1)[coords], numeric))
    return CheckResult("full-model (tiny MMTSN)", worst, MODEL_TOL)


def run_suite(seed=0):
    results = op_checks(seed)
    results.extend(scfb_checks(seed))
    results.append(model_check(seed))
    return results
