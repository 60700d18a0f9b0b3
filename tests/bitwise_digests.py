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
  report of a fixed 20-step augmented run on generated phantoms, made in a
  temporary directory that is removed afterwards.

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

SUITE_SEEDS = range(20)
CLI_SEEDS = (0, 1, 2, 3, 5, 12, 14, 17)
TRAIN_CONFIG = {"steps": 20, "seed": 3, "augment": True, "checkpoint_interval": 10}


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


def run_digests():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, run, report = tmp / "data", tmp / "run", tmp / "report.json"
        config = tmp / "config.json"
        config.write_text(json.dumps(TRAIN_CONFIG))
        with contextlib.redirect_stdout(io.StringIO()):
            steps = [
                ["generate", "--seed", "11", "--count", "2", "--out-dir", str(data)],
                ["train", "--config", str(config), "--data-dir", str(data), "--out-dir", str(run)],
                ["eval", "--checkpoint", str(run / "checkpoint"), "--data-dir", str(data),
                 "--report", str(report)],
            ]
            for argv in steps:
                if main(argv) != 0:
                    raise SystemExit(f"mmtseg {argv[0]} failed")
        for path in [run / "loss_log.csv", *sorted(run.glob("checkpoint.*")), report]:
            yield path.name, sha256(path.read_bytes())


def main_digests():
    for name, digest in (*suite_digests(), *cli_digests(), *run_digests()):
        print(f"{name}\t{digest}", flush=True)


if __name__ == "__main__":
    main_digests()
