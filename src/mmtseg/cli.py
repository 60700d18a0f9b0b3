"""Command-line entry point for reproducible phantom experiments.

Subcommands: generate, train, eval, infer, gradcheck, compare. Every
command is deterministic under a fixed --seed; reruns produce bitwise
identical artifacts. Exit codes: 0 success, 1 runtime failure,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .gradcheck import run_suite
from .metrics import aggregate_reports, evaluate_volume
from .phantom import (
    GenerationError,
    generate_phantom,
    read_labels,
    read_volume,
    write_labels,
    write_volume,
)
from .pipeline import build_grid, extract_patches, normalize, probs_to_labels, reassemble
from .tensor import no_grad
from .trainer import TrainConfig, TrainingError, load_checkpoint, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

TABLE_COLUMNS = ("dice_et", "dice_tc", "dice_wt", "hd95_et", "hd95_tc", "hd95_wt")

COMPARE_METHODS = (
    ("MMTSN", "MMTSN", None),
    ("3D Unet-pre", "UNET_PRE", None),
    ("3D Unet-post", "UNET_POST", None),
    ("MMTSN-no-SCFB", "MMTSN_NO_SCFB", None),
    ("MMTSN-no-SC", "MMTSN", 0.0),  # containment weight zeroed
)


class UsageError(ValueError):
    pass


def _config_hash(config_dict):
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()[:16]


def _run_manifest(command, config_dict, seed):
    return {
        "command": command,
        "config_hash": _config_hash(config_dict),
        "seed": seed,
        "build": f"mmtseg {__version__}",
    }


def _write_json(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _parse_extents(text):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"extents must be comma-separated integers, got {text!r}")
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise UsageError(f"extents need one or three values, got {text!r}")
    return parts


def _load_config(path, overrides):
    data = {}
    if path is not None:
        if not os.path.isfile(path):
            raise UsageError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
                raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError(f"config file {path} holds a {type(data).__name__}, not an object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return TrainConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config: {exc}") from exc


def _case_name(seed, index):
    return f"case_{seed}_{index}"


def _load_cases(data_dir, labels=True):
    """(name, volume, label volume or None) per `<name>_img.mmts`, by name."""
    if not os.path.isdir(data_dir):
        raise UsageError(f"data directory not found: {data_dir}")
    names = sorted(f[: -len("_img.mmts")] for f in os.listdir(data_dir) if f.endswith("_img.mmts"))
    if not names:
        raise UsageError(f"no cases found in {data_dir}")
    stems = [os.path.join(data_dir, name) for name in names]
    for name, stem in zip(names, stems):
        if labels and not os.path.isfile(stem + "_lbl.mmts"):
            raise UsageError(f"case {name}: label file missing")
    cases = [
        (name, read_volume(stem + "_img.mmts"), read_labels(stem + "_lbl.mmts") if labels else None)
        for name, stem in zip(names, stems)
    ]
    for name, volume, lbl in cases:
        if lbl is not None and lbl.data.shape != volume.extents:
            raise UsageError(f"case {name}: label extents {lbl.data.shape} differ from "
                             f"image extents {volume.extents}")
    return cases


def cmd_generate(args):
    extents = _parse_extents(args.extents)
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    os.makedirs(args.out_dir, exist_ok=True)
    for i in range(args.count):
        try:
            volume, labels = generate_phantom(args.seed + i, extents)
        except GenerationError as exc:
            raise UsageError(str(exc)) from exc
        stem = os.path.join(args.out_dir, _case_name(args.seed, i))
        write_volume(stem + "_img.mmts", volume)
        write_labels(stem + "_lbl.mmts", labels)
    manifest = _run_manifest(
        "generate", {"extents": list(extents), "count": args.count}, args.seed
    )
    _write_json(os.path.join(args.out_dir, "run_manifest.json"), manifest)
    print(f"wrote {args.count} cases to {args.out_dir}")
    return EXIT_OK


def cmd_train(args):
    config = _load_config(
        args.config,
        {"variant": args.variant and args.variant.upper(), "seed": args.seed, "steps": args.steps},
    )
    cases = [(vol, lbl) for _, vol, lbl in _load_cases(args.data_dir)]
    result = train(config, cases, args.out_dir)
    manifest = _run_manifest("train", config.to_dict(), config.seed)
    _write_json(os.path.join(args.out_dir, "run_manifest.json"), manifest)
    print(f"trained {result.steps_run} steps; checkpoint at {result.checkpoint_path}")
    return EXIT_OK


def _predict_labels(graph, patch_extents, volume):
    norm = normalize(volume)
    grid = build_grid(norm.extents, patch_extents)
    with no_grad():
        probs = [graph.predict(img).data for img, _ in extract_patches(norm, None, grid)]
    return probs_to_labels(reassemble(probs, grid))


def _load_checkpoint(path):
    if not os.path.isfile(path + ".json"):
        raise UsageError(f"checkpoint not found: {path}")
    return load_checkpoint(path)


def _report(command, config_dict, seed, named_cases, predict):
    """Score `predict(volume, labels)` against the labels of every case: the
    report payload of `eval` and `compare`."""
    reports = {
        name: evaluate_volume(predict(volume, labels), labels)
        for name, volume, labels in named_cases
    }
    return {
        "run": _run_manifest(command, config_dict, seed),
        "cases": {name: asdict(r) for name, r in reports.items()},
        "aggregates": aggregate_reports(list(reports.values())),
    }


def cmd_eval(args):
    if args.self_check and args.checkpoint is not None:
        raise UsageError("--self-check scores ground truth, not --checkpoint; give one of them")
    named_cases = _load_cases(args.data_dir)
    if args.self_check:
        predict = lambda volume, labels: labels  # ground truth against itself
        config_dict = {"self_check": True}
        seed = 0
    else:
        if args.checkpoint is None:
            raise UsageError("--checkpoint is required unless --self-check is given")
        graph, _, config = _load_checkpoint(args.checkpoint)
        predict = lambda volume, labels: _predict_labels(
            graph, config.patch_extents, volume
        )
        config_dict = config.to_dict()
        seed = config.seed

    payload = _report("eval", config_dict, seed, named_cases, predict)
    _write_json(args.report, payload)
    print(f"evaluated {len(named_cases)} cases; report at {args.report}")
    return EXIT_OK


def cmd_infer(args):
    graph, _, config = _load_checkpoint(args.checkpoint)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, volume, _ in _load_cases(args.data_dir, labels=False):
        pred = _predict_labels(graph, config.patch_extents, volume)
        write_labels(os.path.join(args.out_dir, name + "_pred.mmts"), pred)
    manifest = _run_manifest("infer", config.to_dict(), config.seed)
    _write_json(os.path.join(args.out_dir, "run_manifest.json"), manifest)
    print(f"wrote predictions to {args.out_dir}")
    return EXIT_OK


def cmd_gradcheck(args):
    results = run_suite(seed=args.seed if args.seed is not None else 0)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_RUNTIME


def _format_table(rows, seed):
    heads = ["Dice ET", "Dice TC", "Dice WT", "HD95 ET", "HD95 TC", "HD95 WT"]
    lines = ["Phantom benchmark (desk scale; not comparable to any clinical result)"]
    lines.append(f"{'Method':<16}" + "".join(f"{h:>10}" for h in heads))
    for name, values in rows:
        cells = "".join(
            f"{'n/a':>10}" if np.isnan(values[c]) else f"{values[c]:>10.4f}"
            for c in TABLE_COLUMNS
        )
        lines.append(f"{name:<16}" + cells)
    lines.append(f"shared seed: {seed}")
    return "\n".join(lines) + "\n"


def cmd_compare(args):
    base = _load_config(args.config, {"seed": args.seed, "steps": args.steps})
    named_cases = _load_cases(args.data_dir)
    cases = [(vol, lbl) for _, vol, lbl in named_cases]
    os.makedirs(args.out_dir, exist_ok=True)

    table_rows = []
    for method, variant, lambda_sc in COMPARE_METHODS:
        weights = base.weights
        if lambda_sc is not None:
            weights = replace(weights, lambda_sc=lambda_sc)
        config = replace(base, variant=variant, weights=weights)
        run_dir = os.path.join(args.out_dir, method.lower().replace(" ", "_"))
        result = train(config, cases, run_dir)
        graph, _, _ = load_checkpoint(result.checkpoint_path)
        predict = lambda volume, labels, g=graph: _predict_labels(
            g, config.patch_extents, volume
        )
        payload = _report("compare", config.to_dict(), config.seed, named_cases, predict)
        _write_json(os.path.join(run_dir, "report.json"), payload)
        means = {c: payload["aggregates"][c]["mean"] for c in TABLE_COLUMNS}
        values = {c: float("nan") if m is None else m for c, m in means.items()}
        table_rows.append((method, values))
        print(f"{method}: trained {result.steps_run} steps, evaluated {len(named_cases)} cases")

    table = _format_table(table_rows, base.seed)
    with open(os.path.join(args.out_dir, "table.txt"), "w", encoding="ascii") as fh:
        fh.write(table)
    with open(os.path.join(args.out_dir, "table.csv"), "w", encoding="ascii") as fh:
        fh.write("method," + ",".join(TABLE_COLUMNS) + "\n")
        for name, values in table_rows:
            fh.write(name + "," + ",".join(repr(values[c]) for c in TABLE_COLUMNS) + "\n")
    manifest = _run_manifest("compare", base.to_dict(), base.seed)
    _write_json(os.path.join(args.out_dir, "run_manifest.json"), manifest)
    print(table, end="")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmtseg",
        description="Multi-modal tumor segmentation experiments on synthetic phantoms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write deterministic phantom cases")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extents", default="32,32,32")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one variant on a phantom set")
    p.add_argument("--config", help="JSON file mirroring the training config")
    p.add_argument("--variant", help="override the config variant")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="sliding-window inference plus metrics report")
    p.add_argument("--checkpoint", help="checkpoint path prefix (no extension)")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--report", required=True)
    p.add_argument(
        "--self-check",
        action="store_true",
        help="score ground truth against itself instead of running a model",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="write predicted label volumes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("compare", help="train and evaluate all method variants")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # one rule for every --seed, checked before a command writes anything
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError(f"--seed must be an integer >= 0, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
