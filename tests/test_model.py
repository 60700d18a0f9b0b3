import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmtseg.model
import mmtseg.tensor
from mmtseg.gradcheck import STEP, model_check, op_checks, run_suite, scfb_checks, tiny_mmtsn
from mmtseg.losses import LossWeights, total_loss
from mmtseg.model import (
    SCFB,
    VARIANTS,
    ForwardOutputs,
    ModelConfig,
    ParamStore,
    build_model,
    load_blob,
    save_blob,
)
from mmtseg.phantom import LabelVolume, derive_regions, generate_phantom
from mmtseg.pipeline import normalize
from mmtseg.tensor import ShapeError, Tensor, no_grad, replayer
from mmtseg.trainer import AdamState, TrainConfig, load_checkpoint, save_checkpoint

from oracles import oracle_grad_check


def phantom_patch(seed=0, extent=16):
    vol, labels = generate_phantom(seed, (extent, extent, extent))
    return normalize(vol).data, labels


class TestSCFB:
    def make_block(self, seed=3):
        store = ParamStore(np.random.default_rng(seed))
        block = SCFB(store, "f", in_ch=4, out_ch=2)
        rng = np.random.default_rng(seed + 1)
        parts = [
            Tensor(rng.uniform(-1, 1, (1, 4, 4, 4)).astype(np.float32)) for _ in range(4)
        ]
        return store, block, parts

    def test_zero_init_attention_is_half(self):
        store, block, parts = self.make_block()
        for t in store.params.values():
            t.data[...] = 0.0
        w_c, w_s = block.attention_weights(parts)
        assert np.all(w_c.data == 0.5)
        assert np.all(w_s.data == 0.5)

    def test_zero_init_halves_sum_to_concat_bitwise(self):
        from mmtseg.tensor import add, concat_channels, mul_broadcast

        store, block, parts = self.make_block()
        for t in store.params.values():
            t.data[...] = 0.0
        f_concat = concat_channels(parts)
        w_c, w_s = block.attention_weights(parts)
        resum = add(mul_broadcast(f_concat, w_c), mul_broadcast(f_concat, w_s))
        assert np.array_equal(resum.data, f_concat.data)

    def test_zero_inputs_exact_bias_path(self):
        store, block, _ = self.make_block()
        parts = [Tensor(np.zeros((1, 4, 4, 4), dtype=np.float32)) for _ in range(4)]
        out = block(parts)
        expected = np.maximum(block.fuse.bias.data, 0.0).reshape(2, 1, 1, 1)
        assert np.array_equal(out.data, np.broadcast_to(expected, out.data.shape))

    def test_gradients_through_block(self):
        results = scfb_checks(seed=0)
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]

    def test_replayed_values_bitwise_equal_full_block(self, monkeypatch):
        # the replayed outputs feed every central difference of `scfb_checks`;
        # each parameter re-runs the convs downstream of it, and no other
        store, block, parts = self.make_block()
        root = block(parts)
        convs = {"squeeze": 3, "excite": 2, "spatial": 2, "fuse": 1}
        calls = []
        correlate = mmtseg.tensor._correlate

        def spy(*args):
            calls.append(None)
            return correlate(*args)

        for name, param in store.params.items():
            value = replayer(root, param)
            flat = param.data.reshape(-1)
            orig = flat[0]
            for entry in (orig + STEP, orig - STEP):
                flat[0] = entry
                try:
                    with no_grad():
                        full = block(parts).data
                        calls.clear()
                        with monkeypatch.context() as m:
                            m.setattr(mmtseg.tensor, "_correlate", spy)
                            replayed = value(param.data[np.newaxis])[0]
                finally:
                    flat[0] = orig
                assert np.array_equal(replayed, full), name
                assert len(calls) == convs[name.split(".")[1]], name


class TestForwardContracts:
    @pytest.mark.parametrize("variant", ["MMTSN", "UNET_PRE", "UNET_POST", "MMTSN_NO_SCFB"])
    def test_output_shapes(self, variant):
        patch, _ = phantom_patch()
        graph = build_model(variant, ModelConfig(depth=3, base_channels=4), seed=0)
        out = graph.forward(patch)
        assert out.main_probs.data.shape == (4, 16, 16, 16)
        if variant in ("MMTSN", "MMTSN_NO_SCFB"):
            for prob in (out.wt_prob, out.tc_prob, out.et_prob):
                assert prob.data.shape == (1, 16, 16, 16)
                assert np.all((prob.data > 0) & (prob.data < 1))
        else:
            assert out.wt_prob is None and out.tc_prob is None and out.et_prob is None

    def test_main_probs_sum_to_one(self):
        patch, _ = phantom_patch()
        graph = build_model("MMTSN", ModelConfig(depth=2, base_channels=2), seed=0)
        out = graph.forward(patch)
        sums = out.main_probs.data.sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) < 1e-6

    def test_indivisible_extents_rejected(self):
        graph = build_model("UNET_PRE", ModelConfig(depth=3, base_channels=2), seed=0)
        with pytest.raises(ShapeError, match="divisible"):
            graph.forward(np.zeros((4, 10, 16, 16), dtype=np.float32))

    def test_wrong_channel_count_rejected(self):
        graph = build_model("UNET_PRE", ModelConfig(depth=2, base_channels=2), seed=0)
        with pytest.raises(ShapeError):
            graph.forward(np.zeros((3, 8, 8, 8), dtype=np.float32))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            build_model("UNET", ModelConfig(), seed=0)

    def test_unet_post_zero_params_uniform(self):
        patch, _ = phantom_patch()
        graph = build_model("UNET_POST", ModelConfig(depth=2, base_channels=2), seed=0)
        for t in graph.params.values():
            t.data[...] = 0.0
        out = graph.forward(patch)
        assert np.allclose(out.main_probs.data, 0.25, atol=1e-7)

    def test_forward_deterministic(self):
        patch, _ = phantom_patch()
        graph = build_model("MMTSN", ModelConfig(depth=2, base_channels=2), seed=0)
        a = graph.forward(patch).main_probs.data
        b = graph.forward(patch).main_probs.data
        assert np.array_equal(a, b)

    def test_modality_permutation_changes_output(self):
        # branches are modality-specific; swapping T1 and T2 must not be a no-op
        patch, labels = phantom_patch()
        regions = derive_regions(labels)
        graph = build_model("MMTSN", ModelConfig(depth=2, base_channels=2), seed=0)
        for _ in range(10):  # a few plain gradient-descent steps
            graph.zero_grads()
            loss, _ = total_loss(graph.forward(patch), labels.data, regions, LossWeights())
            loss.backward()
            for t in graph.params.values():
                t.data -= 0.05 * t.grad
        swapped = patch[[2, 1, 0, 3]]
        out = graph.forward(patch).main_probs.data
        out_swapped = graph.forward(swapped).main_probs.data
        assert not np.allclose(out, out_swapped, atol=1e-4)


def expected_param_count(variant, depth, base):
    """Recount parameters from the documented channel flow."""

    def conv(cin, cout, k):
        return cout * cin * k**3 + cout

    def unet(cin, cout):
        n = 0
        for i in range(depth):
            n += conv(cin if i == 0 else base * 2 ** (i - 1), base * 2**i, 3)
        for i in range(depth - 1):
            n += conv(base * 2 ** (i + 1) + base * 2**i, base * 2**i, 3)
        n += conv(base, cout, 1)
        return n

    if variant == "UNET_PRE":
        return unet(4, 4)
    if variant == "UNET_POST":
        return 4 * unet(1, 4)
    n = unet(2, 1) + unet(2, 1) + unet(1, 1)  # wt, tc, et branches
    for i in range(depth):
        cs = base * 2**i
        n += conv(4 if i == 0 else base * 2 ** (i - 1), cs, 3)  # main encoder
        if variant == "MMTSN":
            n += conv(4 * cs, 4 * cs, 1) * 2 + conv(4 * cs, 1, 1)  # attention
        n += conv(4 * cs, cs, 3)  # fusion conv
    for i in range(depth - 1):
        n += conv(base * 2 ** (i + 1) + base * 2**i, base * 2**i, 3)
    n += conv(base, 4, 1)
    return n


class TestPredict:
    """`predict` is `forward(...).main_probs` without the sub-branch decoders."""

    @staticmethod
    def perturbed(variant, depth):
        # non-zero biases, so no path through the graph is trivially zero
        graph = build_model(variant, ModelConfig(depth=depth, base_channels=4), seed=5)
        rng = np.random.default_rng(6)
        for name, t in graph.params.items():
            if name.endswith(".bias"):
                t.data[...] = rng.standard_normal(t.data.shape).astype(np.float32) * 0.1
        return graph

    @staticmethod
    def conv_modules(graph, fn, patch, monkeypatch):
        """Module name of the kernel of every conv3d call `fn(patch)` makes."""
        names = {id(t): n[: -len(".kernel")] for n, t in graph.params.items()}
        calls = []
        conv = mmtseg.model.conv3d

        def spy(x, kernel, *args, **kwargs):
            calls.append(names[id(kernel)])
            return conv(x, kernel, *args, **kwargs)

        monkeypatch.setattr(mmtseg.model, "conv3d", spy)
        fn(patch)
        monkeypatch.setattr(mmtseg.model, "conv3d", conv)
        return calls

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bitwise_equal_to_forward_main_probs(self, variant, depth):
        patch, _ = phantom_patch()
        graph = self.perturbed(variant, depth)
        predicted = graph.predict(patch)
        assert predicted.data.shape == (4, 16, 16, 16)
        assert np.array_equal(predicted.data, graph.forward(patch).main_probs.data)

    def test_skips_sub_branch_decoders_and_heads(self, monkeypatch):
        patch, _ = phantom_patch()
        graph = build_model("MMTSN", ModelConfig(), seed=0)
        predicted = self.conv_modules(graph, graph.predict, patch, monkeypatch)
        forward = self.conv_modules(graph, graph.forward, patch, monkeypatch)
        assert len(predicted) == 27
        assert not [m for m in predicted if re.fullmatch(r"branch_\w+\.(dec\d+|head)", m)]
        assert len(forward) == 36
        assert sorted(set(forward) - set(predicted)) == [
            f"branch_{r}.{m}" for r in ("et", "tc", "wt") for m in ("dec0", "dec1", "head")
        ]

    @pytest.mark.parametrize("variant", ["UNET_PRE", "UNET_POST"])
    def test_unets_run_the_same_convs(self, variant, monkeypatch):
        patch, _ = phantom_patch()
        graph = build_model(variant, ModelConfig(), seed=0)
        predicted = self.conv_modules(graph, graph.predict, patch, monkeypatch)
        assert predicted == self.conv_modules(graph, graph.forward, patch, monkeypatch)

    def test_shape_checks_shared_with_forward(self):
        graph = build_model("MMTSN", ModelConfig(depth=3, base_channels=2), seed=0)
        with pytest.raises(ShapeError, match="divisible"):
            graph.predict(np.zeros((4, 10, 16, 16), dtype=np.float32))
        with pytest.raises(ShapeError):
            graph.predict(np.zeros((3, 8, 8, 8), dtype=np.float32))


class TestInitialization:
    def test_same_seed_identical(self):
        a = build_model("MMTSN", ModelConfig(depth=2, base_channels=4), seed=7)
        b = build_model("MMTSN", ModelConfig(depth=2, base_channels=4), seed=7)
        assert sorted(a.params) == sorted(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_biases_zero(self):
        graph = build_model("MMTSN", ModelConfig(depth=2, base_channels=4), seed=7)
        for name, t in graph.params.items():
            if name.endswith(".bias"):
                assert np.all(t.data == 0.0)

    def test_kernel_variance_matches_fan_in(self):
        graph = build_model("MMTSN", ModelConfig(depth=3, base_channels=8), seed=7)
        name = "main.fusion2.fuse.kernel"  # largest kernel in the default graph
        kernel = graph.params[name].data
        fan_in = kernel.shape[1] * kernel.shape[2] * kernel.shape[3] * kernel.shape[4]
        target = 2.0 / fan_in
        assert abs(kernel.var() - target) / target < 0.2

    # Registration order fixes which He-init draws each parameter gets, so
    # these digests pin names, shapes, order and initial values together.
    CONSTRUCTION_SHA256 = {
        "MMTSN": "5f90c5aaf2be1b3dbebee90c1d7561b98820edbcc78622bec746f53031d5d967",
        "UNET_PRE": "a306f18ff354346864711fa26796f6412ecdaf2710b3726b0bf087713e2781a4",
        "UNET_POST": "b05840ceef8413914450500f76aa62a8c6c616d1870169aa4bafed67e51f2b72",
        "MMTSN_NO_SCFB": "901cd4f08b426c5a3ddc63a9922025613bf670047b8bc81e4389d5a28be870f5",
    }

    @pytest.mark.parametrize("variant", ["MMTSN", "UNET_PRE", "UNET_POST", "MMTSN_NO_SCFB"])
    def test_construction_pinned(self, variant):
        graph = build_model(variant, ModelConfig(depth=3, base_channels=8), seed=0)
        h = hashlib.sha256()
        for name, t in graph.params.items():
            h.update(f"{name}:{tuple(t.data.shape)}\n".encode("ascii"))
        for t in graph.params.values():
            h.update(t.data.astype("<f4").tobytes())
        assert h.hexdigest() == self.CONSTRUCTION_SHA256[variant]

    # Forward outputs of TestPredict.perturbed graphs on phantom 0, main
    # probabilities then any branch probabilities: these digests pin the
    # values every variant computes, not only its initial parameters.
    FORWARD_SHA256 = {
        "MMTSN": "435386f32bae2c313518a04fa155d95add7d14dc6f0e6126676a867d0cf9718c",
        "UNET_PRE": "8e834aeedc4f99bb5c1e24ef369274546302e860f953e301156523b5e91e8987",
        "UNET_POST": "4aabb38b6d91adc3ba37eac0e6b0e65c44bee21288f4442424f8cf58df3a55cf",
        "MMTSN_NO_SCFB": "3d75376b94533355fc079a926f90330b06cb5fa20eff691a27c3975d4839de64",
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_outputs_pinned(self, variant):
        patch, _ = phantom_patch()
        out = TestPredict.perturbed(variant, depth=3).forward(patch)
        h = hashlib.sha256()
        for prob in (out.main_probs, out.wt_prob, out.tc_prob, out.et_prob):
            if prob is not None:
                h.update(prob.data.astype("<f4").tobytes())
        assert h.hexdigest() == self.FORWARD_SHA256[variant]

    # Name, repr of the error and repr of the bound of every check of
    # `run_suite(0)`, one line each: pins the suite's checks, their order,
    # their inputs and every value the engine computes for them.
    SUITE_SHA256 = "eb2de8a55604f714192b43ad39b50773634827b7c29c7ce61e9fb049e0b5c7d2"

    def test_gradcheck_suite_pinned(self):
        h = hashlib.sha256()
        for r in run_suite(0):
            h.update(f"{r.name}\t{r.max_err!r}\t{r.tol!r}\n".encode("ascii"))
        assert h.hexdigest() == self.SUITE_SHA256

    @pytest.mark.parametrize("variant", ["MMTSN", "UNET_PRE", "UNET_POST", "MMTSN_NO_SCFB"])
    def test_param_count_matches_declared_shapes(self, variant):
        cfg = ModelConfig(depth=3, base_channels=8)
        graph = build_model(variant, cfg, seed=0)
        count = sum(t.data.size for t in graph.params.values())
        assert count == expected_param_count(variant, 3, 8)


class TestFullModelGradient:
    def test_tiny_model_passes_loose_bound(self):
        result = model_check(seed=0)
        assert result.passed, result.line()

    def test_replayed_objective_bitwise_equals_full_forward(self):
        # The replayed values feed every central difference; a replay that
        # skips an op its parameter reaches can still pass the loose bound,
        # so this equality is the gate for the replay.
        graph, patch, objective = tiny_mmtsn(0)
        root = objective(graph.forward(patch))
        for name, param in graph.params.items():
            value = replayer(root, param)
            flat = param.data.reshape(-1)
            orig = flat[0]
            for entry in (orig + STEP, orig - STEP):
                flat[0] = entry
                try:
                    with no_grad():
                        full = objective(graph.forward(patch)).item()
                        replayed = float(value(param.data[np.newaxis])[0])
                finally:
                    flat[0] = orig
                assert replayed == full, name

    def test_model_check_reruns_only_reached_parts(self, monkeypatch):
        # `_correlate` runs once per forward conv and once per input gradient.
        # A full forward pass per central difference made 12,168 convs, a
        # hand-written staging by sub-network 5,428, and one replay of the ops
        # a parameter reaches per perturbation 3,564. With every perturbation
        # of a parameter tensor a lane of one replay, the recording pass makes
        # 44 correlations and the 48 replays 310, each reached conv once.
        calls = []
        correlate = mmtseg.tensor._correlate

        def spy(*args):
            calls.append(None)
            return correlate(*args)

        monkeypatch.setattr(mmtseg.tensor, "_correlate", spy)
        model_check(0)
        assert len(calls) <= 360

    def test_model_check_copies_few_im2col_tiles(self, monkeypatch):
        # A copied tap row pays off only when it feeds enough output rows. Tiling
        # by channels per tap alone copied 880 MB of float64 here, mostly for the
        # 2-row `dec0` and `fuse` convs with 16 kernel lanes; tiling only while
        # the channels are at most twice the output rows copies 24 MB.
        copied = []
        tile = mmtseg.tensor._tile

        def spy(shape):
            copied.append(8 * np.prod(shape))
            return tile(shape)

        monkeypatch.setattr(mmtseg.tensor, "_tile", spy)
        model_check(0)
        assert sum(copied) <= 32e6

    def test_lanes_give_the_errors_of_one_perturbation_at_a_time(self, monkeypatch):
        laned = [model_check(seed).max_err for seed in range(4)]

        calls = []

        def one_lane_each(value, data, coords, step):
            calls.append(None)
            numeric = []
            for i in coords:
                ends = []
                for entry in (data.flat[i] + step, data.flat[i] - step):
                    lane = data.copy()
                    lane.flat[i] = entry
                    ends.append(value(lane[np.newaxis]).item())
                numeric.append((ends[0] - ends[1]) / (2.0 * step))
            return np.array(numeric), None

        monkeypatch.setattr(mmtseg.tensor, "_central_differences", one_lane_each)
        assert [model_check(seed).max_err for seed in range(4)] == laned
        assert len(calls) == 4 * 48  # one per parameter tensor


class TestGradCheckOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_suite_units_give_the_full_evaluation_errors(self, seed, monkeypatch):
        # `grad_check` reads every difference from one replay of one recording;
        # the oracle evaluates the objective in full for every perturbed entry
        got, want = [], []
        grad_check = mmtseg.tensor.grad_check

        def both(f, x, step):
            got.append(grad_check(f, x, step))
            want.append(oracle_grad_check(f, x, step))
            return got[-1]

        monkeypatch.setattr(mmtseg.tensor, "grad_check", both)
        op_checks(seed)
        scfb_checks(seed)
        assert len(got) == 25
        assert got == want


class TestOpCoverage:
    NOT_OPS = {"Tensor", "ShapeError", "set_debug_checks", "no_grad", "replayer", "grad_check",
               "max_rel_err"}

    def test_every_differentiable_op_runs_inside_a_check(self, monkeypatch):
        ops = (set(mmtseg.tensor.__all__) - self.NOT_OPS) | {"div"}
        ran = set()
        inside = []

        def spy_op(name, fn):
            def spy(*args, **kwargs):
                if inside:
                    ran.add(name)
                return fn(*args, **kwargs)
            return spy

        def spy_check(fn):
            def spy(*args, **kwargs):
                inside.append(None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()
            return spy

        for name in ops:
            monkeypatch.setattr(mmtseg.tensor, name, spy_op(name, getattr(mmtseg.tensor, name)))
        monkeypatch.setattr(mmtseg.tensor, "grad_check", spy_check(mmtseg.tensor.grad_check))
        op_checks(0)
        assert ran == ops, sorted(ops - ran)


# 20 forward passes of the tiny MMTSN that `model_check` differentiates,
# after one warm-up pass; prints the minor page faults they took.
FAULT_PROBE = """
import resource
from mmtseg.model import ModelConfig, build_model
from mmtseg.phantom import generate_phantom
from mmtseg.pipeline import normalize

vol, _ = generate_phantom(0, (16, 16, 16))
patch = normalize(vol).data[:, 4:12, 4:12, 4:12]
graph = build_model("MMTSN", ModelConfig(depth=2, base_channels=2), seed=0)
graph.forward(patch)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    graph.forward(patch)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="minor fault counts are Linux-specific")
class TestPageFaults:
    def test_small_forward_passes_reuse_memory(self):
        # A conv that allocates a fresh im2col tile per call faults it in
        # anew each time: 1,100-7,700 faults, by the allocator's history. A
        # fresh interpreter, because what earlier tests leave behind in the
        # allocator can hide them.
        pytest.importorskip("resource")
        src = str(Path(mmtseg.model.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        assert int(run.stdout) < 1000


class TestCheckpointBlobs:
    def test_roundtrip_identical_bytes(self, tmp_path):
        graph = build_model("UNET_PRE", ModelConfig(depth=2, base_channels=2), seed=0)
        named = {k: t.data for k, t in graph.params.items()}
        p1 = tmp_path / "ck1"
        p2 = tmp_path / "ck2"
        save_blob(p1, named, meta={"variant": "UNET_PRE"})
        loaded, meta = load_blob(p1)
        assert meta == {"variant": "UNET_PRE"}
        save_blob(p2, loaded, meta=meta)
        assert (p1.with_suffix(".bin")).read_bytes() == (p2.with_suffix(".bin")).read_bytes()
        assert (p1.with_suffix(".json")).read_bytes() == (p2.with_suffix(".json")).read_bytes()

    def test_load_validates_shapes(self, tmp_path):
        graph = build_model("UNET_PRE", ModelConfig(depth=2, base_channels=2), seed=0)
        # a UNET_PRE graph saved under MMTSN meta: the rebuilt graph differs
        save_checkpoint(tmp_path / "ck", graph, AdamState.init_like(graph.params),
                        TrainConfig(variant="MMTSN", depth=2, base_channels=2))
        with pytest.raises(ValueError, match="does not match"):
            load_checkpoint(tmp_path / "ck")

    def test_load_restores_values(self, tmp_path):
        config = TrainConfig(variant="UNET_PRE", depth=2, base_channels=2, seed=0)
        graph = build_model("UNET_PRE", config.model_config(), seed=1)  # not the rebuild's seed
        state = AdamState.init_like(graph.params)
        for i, name in enumerate(graph.params):
            state.m[name] += i
            state.v[name] += 2 * i
        save_checkpoint(tmp_path / "ck", graph, state, config)
        loaded, loaded_state, _ = load_checkpoint(tmp_path / "ck")
        fresh = build_model("UNET_PRE", config.model_config(), seed=0)
        assert any(not np.array_equal(fresh.params[n].data, t.data)
                   for n, t in graph.params.items())
        for name, t in graph.params.items():
            assert np.array_equal(loaded.params[name].data, t.data)
            assert np.array_equal(loaded_state.m[name], state.m[name])
            assert np.array_equal(loaded_state.v[name], state.v[name])
