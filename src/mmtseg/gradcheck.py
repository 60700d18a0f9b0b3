"""Finite-difference verification of every differentiable op, the fusion
block, and a whole tiny model.

Every check records its objective, takes the analytic gradient from one
backward pass over it, and takes its finite differences from one replay of
that recording that runs only the array kernels of the ops the checked
tensors reach (`T.replayer`), with every perturbation a lane; each lane is
bitwise its own forward pass. One more lane must match the objective
evaluated again under `no_grad`, or the check fails.

Per-op and fusion-block checks (`T.grad_check`) difference every
coordinate in float32 at step 1e-3 against a 1e-3 bound; in a fusion-block
check only the checked tensor requires grad. The whole-model check
differences along random directions over all parameters at once, in
float64, against a 1e-4 bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .losses import LossWeights, total_loss
from .model import SCFB, ModelConfig, ParamStore, build_model
from .phantom import derive_regions, generate_phantom
from .pipeline import normalize

OP_TOL = 1e-3
MODEL_TOL = 1e-4
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
    """The whole-model check's inputs: a depth-2, base-2 MMTSN with biases
    drawn from U(-0.1, 0.1), so no ReLU input sits exactly at its kink, an 8³
    patch of a 16³ phantom, and its probe objective of `ForwardOutputs`.

    The objective is the training objective `total_loss` at the default
    weights, except that the containment terms keep the outer region in the
    graph: the finite differences see every path, and a detached outer
    region would make the guard lane fail.
    """
    vol, labels = generate_phantom(seed, (16, 16, 16))
    patch = normalize(vol).data[:, 4:12, 4:12, 4:12]
    lbl = labels.data[4:12, 4:12, 4:12]
    regions = derive_regions(type(labels)(lbl))
    graph = build_model("MMTSN", ModelConfig(depth=2, base_channels=2), seed=seed)
    rng = np.random.default_rng(seed + 98)
    for name, t in graph.params.items():
        if name.endswith(".bias"):
            t.data[...] = rng.uniform(-0.1, 0.1, t.data.shape)

    def objective(out):
        return total_loss(out, lbl, regions, LossWeights(), outer=lambda t: t)[0]

    return graph, patch, objective


def model_check(seed=0):
    """Directional finite-difference check of a whole tiny model's gradient.

    One backward pass over the recorded objective f gives its gradient g.
    One float64 replay from every parameter p gives (f(p + εv) - f(p - εv))
    / 2ε at ε = 1e-7 for 4 random normal tangents v, compared with v·g. A
    float32 lane of it with p moved by `STEP`·v[0] must equal a `no_grad`
    forward pass bitwise, or the error is `inf` (see `T.grad_check`).
    """
    graph, patch, objective = tiny_mmtsn(seed)
    params = list(graph.params.values())
    graph.zero_grads()
    root = objective(graph.forward(patch))
    root.backward()
    grads = [np.zeros(t.data.shape) if t.grad is None else t.grad for t in params]  # f may not reach t
    graph.zero_grads()

    rng = np.random.default_rng(seed + 99)
    tangents = [rng.standard_normal((4, *t.data.shape)) for t in params]
    slope = sum((v * g).reshape(4, -1).sum(1) for v, g in zip(tangents, grads))
    value = T.replayer(root, *params)
    moved = [(t.data + STEP * v[0]).astype(np.float32) for t, v in zip(params, tangents)]
    guard = T._evaluate(lambda: objective(graph.forward(patch)), params, moved)
    err = np.inf
    if value(*[m[np.newaxis] for m in moved])[0].tobytes() == guard.tobytes():
        ends = value(*[np.concatenate([t.data + 1e-7 * v, t.data - 1e-7 * v])
                       for t, v in zip(params, tangents)])
        err = T.max_rel_err(slope, (ends[:4] - ends[4:]) / 2e-7)
    return CheckResult("full-model (tiny MMTSN)", err, MODEL_TOL)


def run_suite(seed=0):
    results = op_checks(seed)
    results.extend(scfb_checks(seed))
    results.append(model_check(seed))
    return results
