"""mmtseg benchmark: one workload, one process, closed loop.

    python3 bench/run.py --workload train-mmtsn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory. With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run, whose spans are written under ``.bench_build/traces``.
The lines before it give the environment, sample counts, percentiles and
output digests. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


class Refused(RuntimeError):
    """The environment would make the timings meaningless."""


def locate_program(root=ROOT):
    """Put the checkout's src directory first on sys.path and import mmtseg from it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mmtseg", "cli.py")):
        raise FileNotFoundError(f"no mmtseg sources under {src}")
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)
    import mmtseg

    if os.path.dirname(os.path.abspath(mmtseg.__file__)) != os.path.join(src, "mmtseg"):
        raise FileNotFoundError(f"mmtseg was imported from {mmtseg.__file__}, not from {src}")
    return src


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MMTS_THREADS": os.environ.get("MMTS_THREADS"),
        "MMTS_DEBUG_CHECKS": os.environ.get("MMTS_DEBUG_CHECKS"),
    }


def refuse_untimeable(env):
    """Refuse to time a run whose settings distort the numbers."""
    from mmtseg import tensor

    if env["MMTS_DEBUG_CHECKS"] not in (None, "", "0") or tensor._debug_checks:
        raise Refused("MMTS_DEBUG_CHECKS is on; per-op finiteness checks roughly double step time")
    if env["MMTS_THREADS"] not in (None, ""):
        raise Refused("MMTS_THREADS is set; the workloads are defined with it unset")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = env[var]
        if value not in (None, "") and (not value.isdigit() or int(value) > env["nproc"]):
            raise Refused(f"{var}={value} asks for more BLAS threads than the {env['nproc']} CPUs")


def percentile(values, pct):
    """Linear-interpolated percentile of a non-empty sequence (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Run:
    """Set-up, the timed loop and its checks for one workload."""

    def __init__(self, workload, seconds, trace, root=ROOT, setup_repeats=None):
        from tracer import Tracer, UnitRef

        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.setup_repeats = setup_repeats or workload.setup_repeats
        self.unit_ref = UnitRef()
        self.tracer = Tracer(self.unit_ref) if trace else None
        self.setup_s = []
        self.episodes = []
        self.notes = []
        self.extra_failed = 0
        self.digests = set()
        self.peak_rss_mib = None
        self.tracemalloc_peak_mib = None
        self.t0 = perf_counter()

    def execute(self):
        import workloads
        from tracer import NO_UNIT, SETUP_UNIT

        build = os.path.join(self.root, ".bench_build")
        os.makedirs(build, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=build)
        try:
            state, setup_digests = None, set()
            for rep in range(self.setup_repeats):
                self.unit_ref.current = SETUP_UNIT
                if self.tracer is not None:
                    self.tracer.install()
                try:
                    t0 = perf_counter()
                    workloads.start_program(self.root)
                    state = self.workload.setup(os.path.join(work, f"setup{rep}"), self.root)
                    self.setup_s.append(perf_counter() - t0)
                finally:
                    if self.tracer is not None:
                        self.tracer.uninstall()
                    self.unit_ref.current = NO_UNIT
                setup_digests.add(state.digest)
            if len(setup_digests) != 1:
                raise workloads.BenchError("set-up repetitions produced different inputs")

            deadline = perf_counter() + self.seconds
            first_capture = None
            while True:
                traced = self.tracer is not None and len(self.episodes) % 2 == 1
                ep, capture = self._episode(state, work, traced)
                if first_capture is None and not any(ep.failed):
                    first_capture = capture
                if perf_counter() >= deadline and (self.tracer is None or len(self.episodes) >= 2):
                    break
            self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

            if self.tracer is not None:
                # tracemalloc slows allocation, so memory gets its own untimed episode
                tracemalloc.start()
                try:
                    self._episode(state, work, traced=False, timed=False)
                    self.tracemalloc_peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()

            if first_capture is not None:
                bad, notes = self.workload.post_check(first_capture)
                self.extra_failed += bad
                self.notes.extend(notes)
            else:
                self.notes.append("no episode passed its checks; post-run checks not run")
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _episode(self, state, work, traced, timed=True):
        ep_dir = os.path.join(work, f"episode{len(self.episodes)}")
        os.makedirs(ep_dir)
        first_unit = sum(e.attempted for e in self.episodes)
        ep, capture = self.workload.run_episode(
            state, ep_dir, self.unit_ref, first_unit, self.tracer if traced else None
        )
        if ep.digest is not None:
            self.digests.add(ep.digest)
            if len(self.digests) > 1:
                ep.notes.append("output digest differs from an earlier episode's")
                ep.failed = [True] * ep.attempted
        self.notes.extend(ep.notes)
        if timed:
            self.episodes.append(ep)
        else:
            self.extra_failed += sum(ep.failed)
        shutil.rmtree(ep_dir, ignore_errors=True)
        return ep, capture

    # -- results -------------------------------------------------------------

    @property
    def attempted(self):
        return sum(e.attempted for e in self.episodes)

    @property
    def failed(self):
        return min(self.attempted, sum(sum(e.failed) for e in self.episodes) + self.extra_failed)

    def end_to_end(self):
        eps = self.episodes
        units = [t for e in eps for t in e.unit_s]
        measured = sum(e.wall_s for e in eps)
        rates = [e.attempted / e.wall_s for e in eps]
        n = len(units)
        tail_pct = self.workload.tail_pct
        beyond = n - 1 - int((n - 1) * tail_pct / 100.0)
        quality = next((e.quality for e in eps if e.quality is not None), None)
        metrics = {
            "units_per_s": (statistics.median(rates), "1/s",
                            f"median over {len(eps)} episodes; {self.attempted} units in {measured:.3f} s"),
            "unit_ms_p50": (statistics.median(units) * 1e3, "ms", f"p50 of n={n}"),
            "unit_ms_tail": (percentile(units, tail_pct) * 1e3, "ms",
                             f"p{tail_pct:.4g} of n={n}, {beyond} samples beyond"),
            "setup_s": (statistics.median(self.setup_s), "s",
                        f"median of {len(self.setup_s)} set-ups: "
                        + ", ".join(f"{s:.3f}" for s in self.setup_s)),
            "peak_rss_mib": (self.peak_rss_mib, "MiB", "ru_maxrss of this process, tracing off"),
            "quality_gap": (quality, "1", self.workload.quality_label),
        }
        if beyond < 10:
            self.notes.append(f"warning: fewer than 10 samples beyond p{tail_pct:.4g}")
        return metrics

    def per_layer(self):
        from layers import per_layer_metrics

        traced = [e for e in self.episodes if e.traced]
        plain = [e for e in self.episodes if not e.traced]
        return per_layer_metrics(
            self.tracer,
            units=sum(e.attempted for e in traced),
            setups=len(self.setup_s),
            traced_unit_ms=1e3 * sum(e.wall_s for e in traced) / sum(e.attempted for e in traced),
            untraced_unit_ms=1e3 * sum(e.wall_s for e in plain) / sum(e.attempted for e in plain),
            tracemalloc_peak_mib=self.tracemalloc_peak_mib,
        )

    def write_spans(self, seed):
        directory = os.path.join(self.root, ".bench_build", "traces")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.workload.name}-seed{seed}.spans.tsv.gz")
        self.tracer.write(path, self.t0)
        return path


def build_parser():
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="mmtseg benchmark (one workload per run)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def report(run, seed):
    """Print the run's details and metrics; the last line is the result object."""
    workload = run.workload
    metrics = run.per_layer() if run.trace else run.end_to_end()
    print(f"workload {workload.name} seed {seed} trace {int(run.trace)}: "
          f"{len(run.episodes)} episodes, {run.attempted} units, {run.failed} failed")
    for note in run.notes:
        print(f"note: {note}")
    print(f"sha256 of {workload.digest_of}: {', '.join(sorted(run.digests)) or 'none'}")
    if run.trace:
        print(f"spans: {run.tracer.span_count()} written to {run.write_spans(seed)}")
    for name, (value, unit, detail) in metrics.items():
        shown = "none" if value is None else f"{value:.6g}"
        print(f"{name:<44} {shown:>14} {unit:<14} {detail}".rstrip())
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None):
    # One BLAS thread: on a small shared machine a second busy-waiting thread
    # mostly adds run-to-run noise. Set before numpy is first imported.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        locate_program()
        env = environment()
        refuse_untimeable(env)
    except (FileNotFoundError, ImportError, Refused) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, BenchError

    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    run = Run(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    try:
        run.execute()
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(run, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
