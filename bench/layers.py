"""Per-layer metrics from a traced run.

Times and counts are per unit (training step, evaluated case, gradient
check): totals over the traced episodes, including spans between units,
divided by the units those episodes completed. The ``phantom.*`` times are
per set-up instead, because phantoms are made during set-up. Op times are
self times (``div`` by a scalar calls ``mul_broadcast``); the other layer
times include their children. Work counters marked ``computed`` come from
shapes and masks, not from measurement.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import SETUP_UNIT

MAIN_CONV_MODULES = (
    ["main.enc0", "main.enc1", "main.enc2"]
    + [f"main.fusion{i}.{part}" for i in range(3) for part in ("squeeze", "excite", "spatial", "fuse")]
    + ["main.dec1", "main.dec0", "main.head"]
)
BRANCHES = ["branch_wt", "branch_tc", "branch_et"]
OPS = [
    "relu", "sigmoid", "softmax_channels", "max_pool3d", "nearest_upsample", "concat_channels",
    "slice_channels", "mul_broadcast", "add", "div", "global_avg_pool", "tensor_sum",
]

# metric name -> unit, in report order
PER_LAYER = {
    "tensor.conv3d.fwd_ms": "ms",
    "tensor.conv3d.bwd_ms": "ms",
    "tensor.conv3d.calls": "count",
    "tensor.conv3d.gflop": "GFLOP-computed",
    "tensor.conv3d.fwd_gflops": "GFLOP/s",
    "tensor.conv3d.bwd_gflops": "GFLOP/s",
    "tensor.conv3d.mbytes": "MB-computed",
    **{f"tensor.conv3d.{m}.{d}_ms": "ms" for m in MAIN_CONV_MODULES + BRANCHES for d in ("fwd", "bwd")},
    **{f"tensor.{op}.{d}_ms": "ms" for op in OPS for d in ("fwd", "bwd")},
    "tensor.backward_ms": "ms",
    "tensor.backward_self_ms": "ms",
    "tensor.graph_nodes": "count",
    "model.forward_ms": "ms",
    "model.save_blob_ms": "ms",
    "model.load_blob_ms": "ms",
    "model.blob_bytes": "bytes-computed",
    "losses.total_loss_ms": "ms",
    "trainer.adam_step_ms": "ms",
    "trainer.save_checkpoint_ms": "ms",
    "trainer.checkpoints": "count",
    "trainer.load_checkpoint_ms": "ms",
    "pipeline.normalize_ms": "ms",
    "pipeline.extract_patches_ms": "ms",
    "pipeline.reassemble_ms": "ms",
    "pipeline.augment_ms": "ms",
    "metrics.evaluate_volume_ms": "ms",
    "metrics.hd95_ms": "ms",
    "metrics.dice_score_ms": "ms",
    "metrics.hd95_pairs": "pairs-computed",
    "phantom.generate_phantom_ms": "ms",
    "phantom.write_ms": "ms",
    "phantom.read_ms": "ms",
    "gradcheck.op_checks_ms": "ms",
    "gradcheck.scfb_checks_ms": "ms",
    "gradcheck.model_check_ms": "ms",
    "cli.self_ms": "ms",
    "mem.tracemalloc_peak_mib": "MiB",
    "trace.unit_ms_traced": "ms",
    "trace.unit_ms_untraced": "ms",
    "trace.overhead_pct": "%",
}

# layer metric -> span names whose inclusive time it sums
_INCLUSIVE = {
    "tensor.backward_ms": ["tensor.Tensor.backward"],
    "model.forward_ms": ["model.ModelGraph.forward"],
    "model.save_blob_ms": ["model.save_blob"],
    "model.load_blob_ms": ["model.load_blob"],
    "losses.total_loss_ms": ["losses.total_loss"],
    "trainer.adam_step_ms": ["trainer.adam_step"],
    "trainer.save_checkpoint_ms": ["trainer.save_checkpoint"],
    "trainer.load_checkpoint_ms": ["trainer.load_checkpoint"],
    "pipeline.normalize_ms": ["pipeline.normalize"],
    "pipeline.extract_patches_ms": ["pipeline.extract_patches"],
    "pipeline.reassemble_ms": ["pipeline.reassemble"],
    "pipeline.augment_ms": ["pipeline.augment"],
    "metrics.evaluate_volume_ms": ["metrics.evaluate_volume"],
    "metrics.hd95_ms": ["metrics.hd95"],
    "metrics.dice_score_ms": ["metrics.dice_score"],
    "gradcheck.op_checks_ms": ["gradcheck.op_checks"],
    "gradcheck.scfb_checks_ms": ["gradcheck.scfb_checks"],
    "gradcheck.model_check_ms": ["gradcheck.model_check"],
}
_SETUP = {
    "phantom.generate_phantom_ms": ["phantom.generate_phantom"],
    "phantom.write_ms": ["phantom.write_volume", "phantom.write_labels"],
    "phantom.read_ms": ["phantom.read_volume", "phantom.read_labels"],
}


def per_layer_metrics(tracer, units, setups, traced_unit_ms, untraced_unit_ms,
                      tracemalloc_peak_mib):
    """{metric: (value, unit, "")} for every name in PER_LAYER."""
    dur, self_t = tracer.self_times()
    incl = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    setup = defaultdict(float)
    names, labels = tracer.names, tracer.labels
    for i in range(len(dur)):
        name = names[tracer.sp_name[i]]
        if tracer.sp_unit[i] == SETUP_UNIT:
            setup[name] += dur[i]
            continue
        label = labels[tracer.sp_label[i]]
        incl[name] += dur[i]
        own[name] += self_t[i]
        calls[name] += 1
        if label:
            # the three sub-branches are summed per branch, main modules kept apart
            module = label.split(".", 1)[0] if label.startswith("branch_") else label
            incl[f"{name}@{module}"] += dur[i]
    counters = defaultdict(float, tracer.counters)

    per_unit = 1.0 / units
    ms = 1e3 * per_unit
    values = {
        "tensor.conv3d.fwd_ms": incl["tensor.conv3d"] * ms,
        "tensor.conv3d.bwd_ms": incl["tensor.conv3d.bwd"] * ms,
        "tensor.conv3d.calls": calls["tensor.conv3d"] * per_unit,
        "tensor.conv3d.gflop": (counters["conv_fwd_flop"] + counters["conv_bwd_flop"]) * 1e-9 * per_unit,
        "tensor.conv3d.fwd_gflops": _rate(counters["conv_fwd_flop"], incl["tensor.conv3d"]),
        "tensor.conv3d.bwd_gflops": _rate(counters["conv_bwd_flop"], incl["tensor.conv3d.bwd"]),
        "tensor.conv3d.mbytes": counters["conv_bytes"] * 1e-6 * per_unit,
        "tensor.backward_self_ms": own["tensor.Tensor.backward"] * ms,
        "tensor.graph_nodes": counters["graph_nodes"] * per_unit,
        "model.blob_bytes": counters["blob_bytes"] * per_unit,
        "trainer.checkpoints": calls["trainer.save_checkpoint"] * per_unit,
        "metrics.hd95_pairs": counters["hd95_pairs"] * per_unit,
        "cli.self_ms": sum(v for k, v in own.items() if k.startswith("cli.")) * ms,
        "mem.tracemalloc_peak_mib": tracemalloc_peak_mib,
        "trace.unit_ms_traced": traced_unit_ms,
        "trace.unit_ms_untraced": untraced_unit_ms,
        "trace.overhead_pct": 100.0 * (traced_unit_ms - untraced_unit_ms) / untraced_unit_ms,
    }
    for m in MAIN_CONV_MODULES + BRANCHES:
        values[f"tensor.conv3d.{m}.fwd_ms"] = incl[f"tensor.conv3d@{m}"] * ms
        values[f"tensor.conv3d.{m}.bwd_ms"] = incl[f"tensor.conv3d.bwd@{m}"] * ms
    for op in OPS:
        values[f"tensor.{op}.fwd_ms"] = own[f"tensor.{op}"] * ms
        values[f"tensor.{op}.bwd_ms"] = own[f"tensor.{op}.bwd"] * ms
    for metric, spans in _INCLUSIVE.items():
        values[metric] = sum(incl[s] for s in spans) * ms
    for metric, spans in _SETUP.items():
        values[metric] = sum(setup[s] for s in spans) * 1e3 / setups
    return {name: (values[name], unit, "") for name, unit in PER_LAYER.items()}


def _rate(flop, seconds):
    return flop / seconds * 1e-9 if seconds > 0 else 0.0
