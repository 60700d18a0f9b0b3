"""Print digests of the outputs the engine must keep bitwise, to compare two trees.

Run it from a checkout, once per tree, and compare the printed lines:

    PYTHONPATH=src python tests/bitwise_digests.py

It prints, one per line:

- the sha256 of the `name<TAB>max_err!r<TAB>tol!r` lines of the op and
  fusion-block checks of `gradcheck.run_suite(N)` for N = 0-19, and the
  sha256 of its full-model lines, so a change to one shows the other kept;
- the sha256 of the stdout and the exit code of `mmtseg gradcheck --seed N`
  for the seeds in `CLI_SEEDS`;
- the sha256 of `loss_log.csv`, every `checkpoint.*` file and the `eval`
  report of a fixed 20-step augmented run on generated phantoms;
- the sha256 of every file that `generate` wrote for that run, that `infer`
  writes from its checkpoint, and of an `eval --self-check` report;
- the sha256 of every file of a 3-step run of each variant with a periodic
  checkpoint every 2 steps, and of a 2-step `compare` at depth 2, base 2,
  8³ patches.

The runs are made in a temporary directory that is removed afterwards.

It is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from mmtseg.cli import main
from mmtseg.gradcheck import run_suite
from mmtseg.model import VARIANTS

SUITE_SEEDS = range(20)
CLI_SEEDS = (0, 1, 2, 3, 5, 12, 14, 17)
TRAIN_CONFIG = {"steps": 20, "seed": 3, "augment": True, "checkpoint_interval": 10}
VARIANT_CONFIG = {"steps": 3, "seed": 5, "checkpoint_interval": 2}
COMPARE_CONFIG = {"depth": 2, "base_channels": 2, "patch_extents": [8, 8, 8], "steps": 2}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def suite_digests():
    checks, model = hashlib.sha256(), hashlib.sha256()
    for seed in SUITE_SEEDS:
        *units, full = run_suite(seed)
        for digest, results in ((checks, units), (model, [full])):
            digest.update("".join(f"{r.name}\t{r.max_err!r}\t{r.tol!r}\n" for r in results).encode())
    yield "op and fusion-block checks, seeds 0-19", checks.hexdigest()
    yield "full-model check, seeds 0-19", model.hexdigest()


def cli_digests():
    for seed in CLI_SEEDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["gradcheck", "--seed", str(seed)])
        yield f"gradcheck --seed {seed}", f"{sha256(out.getvalue().encode())} exit {code}"


def mmtseg(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        if main([str(a) for a in argv]) != 0:
            raise SystemExit(f"mmtseg {argv[0]} failed")


def tree_digests(label, directory):
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        yield f"{label} {path.relative_to(directory)}", sha256(path.read_bytes())


def write_config(path, config):
    path.write_text(json.dumps(config))
    return path


def run_digests():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, run, report = tmp / "data", tmp / "run", tmp / "report.json"
        config = write_config(tmp / "config.json", TRAIN_CONFIG)
        mmtseg("generate", "--seed", 11, "--count", 2, "--out-dir", data)
        mmtseg("train", "--config", config, "--data-dir", data, "--out-dir", run)
        mmtseg("eval", "--checkpoint", run / "checkpoint", "--data-dir", data, "--report", report)
        for path in [run / "loss_log.csv", *sorted(run.glob("checkpoint.*")), report]:
            yield path.name, sha256(path.read_bytes())

        yield from tree_digests("generate", data)
        mmtseg("infer", "--checkpoint", run / "checkpoint", "--data-dir", data,
               "--out-dir", tmp / "infer")
        yield from tree_digests("infer", tmp / "infer")
        mmtseg("eval", "--self-check", "--data-dir", data, "--report", tmp / "self_check.json")
        yield "eval --self-check", sha256((tmp / "self_check.json").read_bytes())
        config = write_config(tmp / "variant.json", VARIANT_CONFIG)
        for variant in VARIANTS:
            mmtseg("train", "--config", config, "--variant", variant, "--data-dir", data,
                   "--out-dir", tmp / variant)
            yield from tree_digests(f"train {variant}", tmp / variant)
        config = write_config(tmp / "compare.json", COMPARE_CONFIG)
        mmtseg("compare", "--config", config, "--data-dir", data, "--out-dir", tmp / "compare")
        yield from tree_digests("compare", tmp / "compare")


def main_digests():
    for name, digest in (*suite_digests(), *cli_digests(), *run_digests()):
        print(f"{name}\t{digest}", flush=True)


if __name__ == "__main__":
    main_digests()
