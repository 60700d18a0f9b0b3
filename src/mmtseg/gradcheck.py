"""Finite-difference verification of every differentiable op, the fusion
block, and a whole tiny model.

Per-op and fusion-block checks probe every coordinate at step 1e-3 against
a 1e-3 bound. The whole-model check samples 8 seeded coordinates from every
parameter tensor and uses a looser 1e-2 bound to absorb composition depth.

The checks' central differences re-run only what a perturbed parameter
reaches and reuse the rest from one unperturbed pass:
- the whole-model objective is a sum of loss terms, each reading some of
  the model's outputs (`Objective`). Each stage of the net (`stage_of`)
  recomputes only its outputs and the terms that read them; a main-branch
  decoder or head weight re-runs only the decoder and softmax over the
  cached fused maps (`staged_objective`);
- the fusion block's `fuse` kernel and bias are checked on `fuse` over the
  block's cached `SCFB.mixed` input (`staged_block`).
Every op depends only on its operands, and each perturbed entry is
restored bit for bit, so every staged value is bitwise the one a full
forward pass gives.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import tensor as T
from .losses import (
    LossWeights,
    multiclass_dice_loss,
    soft_dice_loss,
    spatial_constraint_loss,
)
from .model import BRANCH_MODALITIES, SCFB, ForwardOutputs, ModelConfig, ParamStore, build_model
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


def staged_block(block, parts):
    """`output_of(param)`: a function giving `block(parts)` after a change to
    `param`, a parameter of the SCFB `block`.

    `fuse` is the last layer, so a change to its kernel or bias re-runs only
    `fuse` and relu over `block.mixed(parts)`, computed once, here. While
    every other parameter keeps its present value, `output_of(param)()` is
    bitwise `block(parts)`.
    """
    with T.no_grad():
        mixed = block.mixed(parts)

    def output_of(param):
        if param is block.fuse.kernel or param is block.fuse.bias:
            return lambda: T.relu(block.fuse(mixed))
        return lambda: block(parts)

    return output_of


def scfb_checks(seed=0):
    """Gradient-check the fusion block end to end, per parameter tensor."""
    rng = np.random.default_rng(seed)
    store = ParamStore(np.random.default_rng(seed + 1))
    block = SCFB(store, "scfb", in_ch=4, out_ch=2)
    parts = [_rand(rng, (1, 3, 3, 3)) for _ in range(4)]

    # grad_check perturbs the tensor it is handed in place, and the block
    # reads the live parameter objects, so the closures ignore their argument
    results = []
    output_of = staged_block(block, parts)
    probe = _probe(30)
    for name, param in store.params.items():
        output = output_of(param)
        err = T.grad_check(lambda _: probe(output()), param, step=STEP)
        results.append(CheckResult(f"scfb/{name}", err, OP_TOL))
    probe = _probe(31)
    err = T.grad_check(lambda _: probe(block(parts)), parts[0], step=STEP)
    results.append(CheckResult("scfb/input", err, OP_TOL))
    return results


class Objective:
    """A sum of loss terms of `ForwardOutputs`, added left to right.

    `terms` holds one (reads, loss) pair per term: the `ForwardOutputs`
    fields the term reads, and the function of the outputs that computes it.
    """

    def __init__(self, terms):
        self.terms = terms

    def __call__(self, out):
        return self.total([loss(out) for _, loss in self.terms])

    @staticmethod
    def total(values):
        return reduce(operator.add, values)


def tiny_mmtsn(seed):
    """The whole-model check's inputs: a depth-2, base-2 MMTSN, an 8³ patch
    of a 16³ phantom, and its probe `Objective` of `ForwardOutputs`.

    The objective composes every loss term with full two-sided gradients
    (the training objective detaches the containment outer side on purpose,
    which a finite-difference comparison would flag): the main Dice, λ·Dice
    per region, and λsc·containment over all three regions.
    """
    vol, labels = generate_phantom(seed, (16, 16, 16))
    patch = normalize(vol).data[:, 4:12, 4:12, 4:12]
    lbl = labels.data[4:12, 4:12, 4:12]
    regions = derive_regions(type(labels)(lbl))
    w = LossWeights()
    graph = build_model("MMTSN", ModelConfig(depth=2, base_channels=2), seed=seed)

    def region_dice(region, lam):
        target = getattr(regions, region)[np.newaxis]
        return lambda out: lam * soft_dice_loss(getattr(out, f"{region}_prob"), target)

    def containment(out):
        sc = spatial_constraint_loss(out.wt_prob, out.tc_prob) + spatial_constraint_loss(
            out.tc_prob, out.et_prob
        )
        return w.lambda_sc * sc

    objective = Objective((
        (("main_probs",), lambda out: multiclass_dice_loss(out.main_probs, lbl)),
        (("wt_prob",), region_dice("wt", w.lambda_wt)),
        (("tc_prob",), region_dice("tc", w.lambda_tc)),
        (("et_prob",), region_dice("et", w.lambda_et)),
        (("wt_prob", "tc_prob", "et_prob"), containment),
    ))
    return graph, patch, objective


# stage, and the names of the parameters in it
_STAGES = (
    ("encoder", rf"branch_(?P<region>{'|'.join(BRANCH_MODALITIES)})\.enc\d+\.\w+"),
    ("decoder", rf"branch_(?P<region>{'|'.join(BRANCH_MODALITIES)})\.(dec\d+|head)\.\w+"),
    ("main", r"main\.(enc|fusion)\d+\..+"),
    ("main_decoder", r"main\.(dec\d+|head)\.\w+"),
)


def stage_of(name):
    """(stage, region) of an MMTSN parameter: the part of the net it feeds.

    `encoder`: a sub-branch encoder, read by that branch's decoder and by
    the main branch; `decoder`: a sub-branch decoder or head; `main`: the
    main encoder and fusion blocks, read by the main decoder;
    `main_decoder`: the main decoder and head. Region is None for the main
    branch. A name in no stage, or in more than one, raises, so a new
    parameter cannot be staged wrong unseen.
    """
    hits = [(stage, m.groupdict().get("region")) for stage, pattern in _STAGES
            if (m := re.fullmatch(pattern, name))]
    if len(hits) != 1:
        raise ValueError(f"parameter {name!r} falls in {len(hits)} stages, expected one")
    return hits[0]


def staged_objective(graph, patch, objective):
    """`value_of(name)`: a function giving the `Objective`'s value after a
    change to parameter `name`, re-running only what that parameter reaches.

    The sub-branch features and probabilities, the fused maps, the
    main-branch probabilities and every loss term are computed once, here.
    A stage recomputes its outputs and the terms that read one of them, and
    reuses the rest. While every other parameter keeps its present value,
    `value_of(name)()` is bitwise `objective(graph.forward(patch)).item()`.
    """
    net = graph.net
    with T.no_grad():
        feats = net.encode(patch)
        probs = {f"{region}_prob": net.branch_prob(region, f) for region, f in feats.items()}
        fused = net.fused_maps(patch, feats)
        out = ForwardOutputs(main_probs=net.main_probs(fused), **probs)
        terms = [loss(out) for _, loss in objective.terms]

    def value_of(name):
        stage, region = stage_of(name)

        def value():
            changed = {}
            f = feats
            if stage == "encoder":
                f = {**feats, region: net.branches[region].encode(patch)}
            if stage in ("encoder", "decoder"):
                changed[f"{region}_prob"] = net.branch_prob(region, f[region])
            if stage != "decoder":
                maps = fused if stage == "main_decoder" else net.fused_maps(patch, f)
                changed["main_probs"] = net.main_probs(maps)
            new = replace(out, **changed)
            return objective.total([
                loss(new) if changed.keys() & reads else term
                for (reads, loss), term in zip(objective.terms, terms)
            ]).item()

        return value

    return value_of


def model_check(seed=0):
    """Sampled finite-difference check of a whole tiny model's parameters.

    The analytic gradients come from one backward pass over `graph.forward`.
    Each central difference re-runs only the part of the net the perturbed
    parameter feeds (`stage_of`) and the loss terms that read it, and reuses
    the rest from one unperturbed pass (`staged_objective`). Ops depend only
    on their operands and each perturbed entry is restored bit for bit, so
    every value is bitwise the one a full forward pass gives.
    """
    graph, patch, objective = tiny_mmtsn(seed)
    graph.zero_grads()
    objective(graph.forward(patch)).backward()
    analytic = {name: t.grad.copy() for name, t in graph.params.items()}
    graph.zero_grads()

    value_of = staged_objective(graph, patch, objective)
    rng = np.random.default_rng(seed + 99)
    worst = 0.0
    for name, param in graph.params.items():
        flat = param.data.reshape(-1)
        coords = rng.choice(flat.size, size=min(COORDS_PER_TENSOR, flat.size), replace=False)
        numeric = T._central_differences(value_of(name), flat, coords, STEP)
        worst = max(worst, T.max_rel_err(analytic[name].reshape(-1)[coords], numeric))
    return CheckResult("full-model (tiny MMTSN)", worst, MODEL_TOL)


def run_suite(seed=0):
    results = op_checks(seed)
    results.extend(scfb_checks(seed))
    results.append(model_check(seed))
    return results
