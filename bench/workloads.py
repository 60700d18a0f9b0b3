"""The benchmark's three workloads.

Each workload runs one ``mmtseg`` command in-process, over and over, as a
closed loop: the next episode (one command invocation) starts when the
previous one has returned. An episode is made of units (training steps,
evaluated cases, gradient checks). A unit clock hooks one public function
at the unit boundary; that is the only instrumentation in an untraced run.

Import this module only after ``run.locate_program`` has put the
checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from mmtseg import cli, gradcheck, phantom, tensor, trainer

from tracer import NO_UNIT


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (set-up failed or was not repeatable)."""


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def derived_seed(seed, role, index):
    """Phantom seed for the index-th input of a role; a pure function of the workload seed."""
    return int(np.random.SeedSequence((seed, role, index)).generate_state(1)[0])


def program_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_program(root):
    """Start a fresh interpreter that imports the CLI: the command's start-up cost."""
    subprocess.run(
        [sys.executable, "-c", "import mmtseg.cli"],
        env=program_env(root), check=True, timeout=120,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


def write_phantoms(directory, seeds, extent):
    """Generate, write and read back one phantom per seed; returns a digest of the files."""
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256()
    for i, s in enumerate(seeds):
        volume, labels = phantom.generate_phantom(s, (extent,) * 3)
        stem = os.path.join(directory, f"case{i:02d}")
        phantom.write_volume(stem + "_img.mmts", volume)
        phantom.write_labels(stem + "_lbl.mmts", labels)
        back_v = phantom.read_volume(stem + "_img.mmts")
        back_l = phantom.read_labels(stem + "_lbl.mmts")
        if not (np.array_equal(back_v.data, volume.data) and np.array_equal(back_l.data, labels.data)):
            raise BenchError(f"phantom {stem} does not read back as written")
        for suffix in ("_img.mmts", "_lbl.mmts"):
            digest.update(sha256_file(stem + suffix).encode("ascii"))
    return digest.hexdigest()


class UnitClock:
    """Wall time of each unit in an episode; also tells the tracer the current unit."""

    def __init__(self, unit_ref, first_unit):
        self.ref = unit_ref
        self.next_unit = first_unit
        self.times = []
        self._t0 = None

    def start(self):
        now = perf_counter()
        if self._t0 is not None:
            self.times.append(now - self._t0)
        self._t0 = now
        self.ref.current = self.next_unit
        self.next_unit += 1

    def end(self):
        if self._t0 is not None:
            self.times.append(perf_counter() - self._t0)
            self._t0 = None
        self.ref.current = NO_UNIT


def _before(mark, fn):
    def hook(*args, **kwargs):
        mark()
        return fn(*args, **kwargs)

    return hook


def _around(clock, fn):
    def hook(*args, **kwargs):
        clock.start()
        try:
            return fn(*args, **kwargs)
        finally:
            clock.end()

    return hook


def _end_after(clock, fn, tap):
    def hook(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        finally:
            clock.end()
        tap(args, out)
        return out

    return hook


def _tap(fn, tap):
    def hook(*args, **kwargs):
        out = fn(*args, **kwargs)
        tap(args, out)
        return out

    return hook


@contextlib.contextmanager
def patched(bindings):
    """Replace owner.name by make(current value) for each binding, restoring on exit."""
    saved = []
    try:
        for owner, name, make in bindings:
            prev = getattr(owner, name)
            saved.append((owner, name, prev))
            setattr(owner, name, make(prev))
        yield
    finally:
        for owner, name, prev in reversed(saved):
            setattr(owner, name, prev)


@dataclass
class Episode:
    wall_s: float
    unit_s: list
    failed: list  # one flag per attempted unit
    traced: bool
    digest: str | None = None
    quality: float | None = None
    notes: list = field(default_factory=list)

    @property
    def attempted(self):
        return len(self.failed)


@dataclass
class SetupState:
    paths: dict
    digest: str


class Workload:
    name = ""
    # unit_ms_tail is the tail_rank-th slowest unit of an episode: the tail
    # percentile sits in the middle of that rank's samples, one per episode,
    # so it does not jump between kinds of unit as the episode count changes
    tail_rank = 3
    quality_label = ""
    digest_of = ""
    setup_repeats = 5

    def __init__(self, seed):
        self.seed = seed
        self.expected_units = None

    @property
    def tail_pct(self):
        return 100.0 * (1.0 - (self.tail_rank - 0.5) / (self.expected_units or 10))

    def setup(self, directory, root) -> SetupState:
        raise NotImplementedError

    def argv(self, state, episode_dir):
        raise NotImplementedError

    def hooks(self, clock, capture):
        raise NotImplementedError

    def check(self, episode_dir, capture):
        """(per-unit failed flags, digest, quality, notes) for a finished episode."""
        raise NotImplementedError

    def post_check(self, capture):
        """Checks run once after the timed loop, outside timing: (failed units, notes)."""
        return 0, []

    def run_episode(self, state, episode_dir, unit_ref, first_unit, tracer=None):
        clock = UnitClock(unit_ref, first_unit)
        capture = {}
        out, err = io.StringIO(), io.StringIO()
        rc, crash = None, None
        if tracer is not None:
            tracer.install()
        try:
            with patched(self.hooks(clock, capture)), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                t0 = perf_counter()
                try:
                    rc = cli.main(self.argv(state, episode_dir))
                except Exception:  # the loop must go on; the episode counts as failed
                    crash = traceback.format_exc()
                wall = perf_counter() - t0
                clock.end()
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.forget_kernels()
        unit_ref.current = NO_UNIT
        traced = tracer is not None
        if crash is not None or rc != 0:
            note = f"command failed (exit {rc}): {(crash or err.getvalue()).strip()[-400:]}"
            return self._failed_episode(wall, clock, traced, note), capture
        try:
            failed, digest, quality, notes = self.check(episode_dir, capture)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return self._failed_episode(wall, clock, traced, f"unreadable output: {exc!r}"), capture
        if self.expected_units is None and failed and len(failed) == len(clock.times):
            self.expected_units = len(failed)
        if len(clock.times) != len(failed) or len(failed) != self.expected_units:
            note = (f"unit clock saw {len(clock.times)} units, output has {len(failed)}, "
                    f"expected {self.expected_units}")
            return self._failed_episode(wall, clock, traced, note), capture
        return Episode(wall, clock.times, failed, traced, digest, quality, notes), capture

    def _failed_episode(self, wall, clock, traced, note):
        n = self.expected_units or max(len(clock.times), 1)
        return Episode(wall, clock.times, [True] * n, traced, notes=[note])


class TrainMMTSN(Workload):
    """`mmtseg train`, default MMTSN config with augmentation, on seeded 32³ phantoms."""

    name = "train-mmtsn"
    quality_label = "final total loss"
    digest_of = "loss_log.csv"

    def __init__(self, seed, n_cases=4, extent=32, steps=16, checkpoint_interval=4):
        super().__init__(seed)
        self.n_cases = n_cases
        self.extent = extent
        self.steps = steps
        self.checkpoint_interval = checkpoint_interval
        self.expected_units = steps

    def setup(self, directory, root):
        data = os.path.join(directory, "data")
        seeds = [derived_seed(self.seed, 1, i) for i in range(self.n_cases)]
        digest = write_phantoms(data, seeds, self.extent)
        config = os.path.join(directory, "train.json")
        with open(config, "w", encoding="ascii") as fh:
            json.dump({"augment": True, "steps": self.steps,
                       "checkpoint_interval": self.checkpoint_interval}, fh)
        return SetupState({"data": data, "config": config}, digest)

    def argv(self, state, episode_dir):
        return ["train", "--config", state.paths["config"], "--data-dir", state.paths["data"],
                "--out-dir", episode_dir]

    def hooks(self, clock, capture):
        # augment runs first in every step when augmentation is on
        return [(trainer, "augment", lambda fn: _before(clock.start, fn))]

    def check(self, episode_dir, capture):
        path = os.path.join(episode_dir, "loss_log.csv")
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        failed = []
        for row in rows:
            values = [float(v) for k, v in row.items() if k != "step"]
            failed.append(not all(math.isfinite(v) for v in values))
        notes = [] if not any(failed) else [f"{sum(failed)} logged losses are not finite"]
        quality = float(rows[-1]["total"]) if rows else None
        return failed, sha256_file(path), quality, notes


CHECKPOINT_SEED = 0


class EvalSliding(Workload):
    """`mmtseg eval` of a set-up-trained checkpoint over seeded phantoms that need overlapping windows."""

    name = "eval-sliding"
    quality_label = "1 - mean Dice WT"
    digest_of = "eval report"
    setup_repeats = 3  # each one trains the checkpoint

    def __init__(self, seed, n_cases=6, extent=30, n_train=2, train_extent=32, checkpoint_steps=12):
        super().__init__(seed)
        self.n_cases = n_cases
        self.extent = extent
        self.n_train = n_train
        self.train_extent = train_extent
        self.checkpoint_steps = checkpoint_steps
        self.expected_units = n_cases

    def setup(self, directory, root):
        train_data = os.path.join(directory, "train")
        cases = os.path.join(directory, "cases")
        digest = hashlib.sha256()
        # The checkpoint is part of the workload, not of its seeded input: a
        # checkpoint trained per seed made HD95 work, time and memory swing
        # with whether those few steps happened to learn any background.
        digest.update(write_phantoms(
            train_data, [derived_seed(CHECKPOINT_SEED, 2, i) for i in range(self.n_train)],
            self.train_extent).encode("ascii"))
        digest.update(write_phantoms(
            cases, [derived_seed(self.seed, 3, i) for i in range(self.n_cases)],
            self.extent).encode("ascii"))
        config = os.path.join(directory, "checkpoint.json")
        with open(config, "w", encoding="ascii") as fh:
            json.dump({"steps": self.checkpoint_steps, "checkpoint_interval": 0}, fh)
        out_dir = os.path.join(directory, "run")
        # a child process, so that training does not set this process's peak RSS
        proc = subprocess.run(
            [sys.executable, "-m", "mmtseg.cli", "train", "--config", config,
             "--data-dir", train_data, "--out-dir", out_dir],
            env=program_env(root), timeout=150, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise BenchError(f"checkpoint training failed: {proc.stderr.strip()[-400:]}")
        checkpoint = os.path.join(out_dir, "checkpoint")
        for suffix in (".bin", ".json"):
            digest.update(sha256_file(checkpoint + suffix).encode("ascii"))
        return SetupState({"cases": cases, "checkpoint": checkpoint}, digest.hexdigest())

    def argv(self, state, episode_dir):
        return ["eval", "--checkpoint", state.paths["checkpoint"], "--data-dir",
                state.paths["cases"], "--report", os.path.join(episode_dir, "report.json")]

    def hooks(self, clock, capture):
        masks = capture.setdefault("masks", [])

        def keep(args, out):
            pred, gt = args[0], args[1]
            masks.append((pred.data.copy(), gt.data.copy()))

        # one case = _predict_labels (which starts with normalize) then evaluate_volume
        return [
            (cli, "normalize", lambda fn: _before(clock.start, fn)),
            (cli, "evaluate_volume", lambda fn: _end_after(clock, fn, keep)),
        ]

    def check(self, episode_dir, capture):
        path = os.path.join(episode_dir, "report.json")
        with open(path, encoding="ascii") as fh:
            report = json.load(fh)
        failed, notes = [], []
        for name in sorted(report["cases"]):
            case = report["cases"][name]
            ok = all(0.0 <= d <= 1.0 for d in case["dice"].values()) and all(
                h is None or h >= 0.0 for h in case["hd95"].values()
            )
            failed.append(not ok)
            if not ok:
                notes.append(f"{name}: Dice outside [0, 1] or negative HD95")
        capture["report"] = report
        quality = 1.0 - report["aggregates"]["dice_wt"]["mean"]
        return failed, sha256_file(path), quality, notes

    def post_check(self, capture):
        """Cross-check every case's HD95 against scipy's exact distance transform."""
        try:
            from scipy import ndimage
        except ImportError:
            return 0, ["HD95 cross-check against scipy: skipped (scipy not importable)"]
        structure = ndimage.generate_binary_structure(3, 1)

        def hd95_edt(a, b):
            if not a.any() or not b.any():
                return None
            ba = a & ~ndimage.binary_erosion(a, structure, border_value=0)
            bb = b & ~ndimage.binary_erosion(b, structure, border_value=0)
            pooled = np.concatenate([
                ndimage.distance_transform_edt(~bb)[ba],
                ndimage.distance_transform_edt(~ba)[bb],
            ])
            return float(np.percentile(pooled, 95))

        report = capture["report"]
        names = sorted(report["cases"])
        bad, worst = 0, 0.0
        for name, (pred, gt) in zip(names, capture["masks"]):
            ok = True
            for region, fn in (("wt", lambda lab: lab > 0), ("tc", lambda lab: (lab == 1) | (lab == 3)),
                               ("et", lambda lab: lab == 3)):
                want = hd95_edt(fn(pred), fn(gt))
                got = report["cases"][name]["hd95"][region]
                if (want is None) != (got is None):
                    ok = False
                elif want is not None:
                    worst = max(worst, abs(want - got))
                    ok = ok and abs(want - got) <= 1e-9
            bad += not ok
        if len(capture["masks"]) != len(names):
            bad = max(bad, 1)
        return bad, [f"HD95 cross-check against scipy distance_transform_edt: "
                     f"{len(names) - bad}/{len(names)} cases within 1e-9 (max |diff| {worst:.3g})"]


class GradcheckSuite(Workload):
    """`mmtseg gradcheck`: the finite-difference suite at the command's default seed."""

    name = "gradcheck-suite"
    quality_label = "worst max_rel_err / tol"
    digest_of = "check results"

    def setup(self, directory, root):
        return SetupState({}, "")

    def argv(self, state, episode_dir):
        # The suite's inputs stay at the command's default seed: other seeds put
        # ReLU pre-activations of the fusion-block checks inside the
        # finite-difference step, and those checks then fail (see README.md).
        return ["gradcheck"]

    def hooks(self, clock, capture):
        def keep(args, out):
            capture["results"] = out

        return [
            (tensor, "grad_check", lambda fn: _around(clock, fn)),
            (gradcheck, "model_check", lambda fn: _around(clock, fn)),
            (cli, "run_suite", lambda fn: _tap(fn, keep)),
        ]

    def check(self, episode_dir, capture):
        results = capture.get("results") or []
        failed = [not r.passed for r in results]
        notes = [f"{r.name}: max_rel_err {r.max_err:.3e} >= tol {r.tol:.0e}" for r in results if not r.passed]
        lines = "".join(f"{r.name}\t{r.max_err!r}\t{r.tol!r}\n" for r in results)
        quality = max((r.max_err / r.tol for r in results), default=None)
        return failed, hashlib.sha256(lines.encode("utf-8")).hexdigest(), quality, notes


WORKLOADS = {w.name: w for w in (TrainMMTSN, EvalSliding, GradcheckSuite)}
