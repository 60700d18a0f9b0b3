"""Tests of the benchmark itself, on smoke-sized workloads.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.locate_program()

import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from mmtseg import cli, losses, model, tensor, trainer  # noqa: E402
from tracer import Tracer, UnitRef  # noqa: E402

SMOKE = {
    "train-mmtsn": lambda: workloads.TrainMMTSN(0, n_cases=1, steps=2, checkpoint_interval=1),
    "eval-sliding": lambda: workloads.EvalSliding(
        0, n_cases=1, extent=20, n_train=1, train_extent=16, checkpoint_steps=1),
    "gradcheck-suite": lambda: workloads.GradcheckSuite(0),
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _smoke_run(name, trace):
    r = run.Run(SMOKE[name](), seconds=0.01, trace=trace, root=ROOT, setup_repeats=1)
    r.execute()
    return r


def test_spec_names_match_the_code():
    spec = _spec()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert len(spec["per_layer"]) <= 128


@pytest.mark.parametrize("name", sorted(SMOKE))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_printed_with_its_unit(name, trace, capsys):
    r = _smoke_run(name, trace)
    result = run.report(r, seed=0)
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == json.loads(json.dumps(result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.startswith(m["name"] + " ") and m["unit"] in line for line in lines[:-1])
        assert isinstance(result["metrics"][m["name"]]["value"], float)


def test_one_traced_step_records_every_conv_kernel_forward_and_backward(tmp_path):
    w = workloads.TrainMMTSN(0, n_cases=1, steps=1, checkpoint_interval=0)
    state = w.setup(str(tmp_path / "setup"), ROOT)
    ref = UnitRef()
    tracer = Tracer(ref)
    ep, _ = w.run_episode(state, str(tmp_path / "ep"), ref, 0, tracer)
    assert not any(ep.failed)
    kernels = sorted(
        n[: -len(".kernel")]
        for n in model.build_model("MMTSN", model.ModelConfig(), seed=0).params
        if n.endswith(".kernel")
    )
    assert len(kernels) == 36
    for span in ("tensor.conv3d", "tensor.conv3d.bwd"):
        labels = sorted(
            tracer.labels[tracer.sp_label[i]]
            for i in range(tracer.span_count())
            if tracer.names[tracer.sp_name[i]] == span
        )
        assert labels == kernels, span


def test_tracer_wraps_by_name_imports_and_restores_them():
    bindings = [(model, "conv3d"), (losses, "tensor_sum"), (trainer, "save_blob"), (cli, "train"),
                (tensor, "grad_check"), (tensor.Tensor, "backward")]
    before = [getattr(owner, name) for owner, name in bindings]
    tracer = Tracer(UnitRef())
    tracer.install()
    try:
        assert all(getattr(o, n) is not b for (o, n), b in zip(bindings, before))
    finally:
        tracer.uninstall()
    assert all(getattr(o, n) is b for (o, n), b in zip(bindings, before))


def test_loss_log_digest_repeats_across_runs():
    digests = [_smoke_run("train-mmtsn", False).digests for _ in range(2)]
    assert len(digests[0]) == 1 and digests[0] == digests[1]


def _run_script(cwd, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-mmtsn", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_script(tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_refuses_to_time_with_debug_checks_on():
    proc = _run_script(ROOT, env=dict(os.environ, MMTS_DEBUG_CHECKS="1"))
    assert proc.returncode == 2
    assert "MMTS_DEBUG_CHECKS" in proc.stderr and proc.stdout == ""
