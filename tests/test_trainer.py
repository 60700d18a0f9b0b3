from pathlib import Path

import numpy as np
import pytest

import mmtseg.trainer as trainer_mod
from mmtseg.losses import EPSILON, LossWeights
from mmtseg.model import ModelConfig, build_model
from mmtseg.phantom import generate_phantom
from mmtseg.tensor import Tensor, mul_broadcast, tensor_sum
from mmtseg.trainer import (
    AdamState,
    TrainConfig,
    TrainingError,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    train,
)


def tiny_config(**overrides):
    defaults = dict(
        variant="MMTSN",
        patch_extents=(16, 16, 16),
        depth=2,
        base_channels=2,
        steps=5,
        seed=3,
        checkpoint_interval=0,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def phantom_cases(n=1, seed=0, extent=16):
    return [generate_phantom(seed + i, (extent, extent, extent)) for i in range(n)]


class TestAdam:
    def test_first_step_hand_computed(self):
        w = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        params = {"w": w}
        state = AdamState.init_like(params)
        tensor_sum(mul_broadcast(w, w)).backward()  # loss = w², grad = 2w = 2
        adam_step(params, state)
        # m̂ = 2, v̂ = 4 after bias correction; update = 2/(√4 + 1e-8) ≈ 1
        assert w.data[0] == pytest.approx(1.0 - 0.001, abs=1e-6)
        assert state.step == 1
        assert w.grad is None

    def test_zero_gradient_leaves_params(self):
        w = Tensor(np.array([2.0, -1.0], dtype=np.float32), requires_grad=True)
        params = {"w": w}
        state = AdamState.init_like(params)
        state.m["w"][...] = 0.5
        state.v["w"][...] = 0.25
        adam_step(params, state)  # grad is None → zeros
        # moments only decay; any parameter motion comes from stale momentum
        assert np.all(state.m["w"] == np.float32(0.5 * 0.9))
        assert np.all(state.v["w"] == np.float32(0.25 * 0.999))

    def test_fresh_state_zero_grad_no_move(self):
        w = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        params = {"w": w}
        state = AdamState.init_like(params)
        adam_step(params, state)
        assert w.data[0] == 2.0

    def test_nan_gradient_names_parameter(self):
        w = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        w.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(TrainingError, match="'w'"):
            adam_step({"w": w}, AdamState.init_like({"w": w}))

    def test_global_norm_clip(self):
        w = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        w.grad = np.full(4, 10.0, dtype=np.float32)  # norm 20 > 5
        params = {"w": w}
        state = AdamState.init_like(params)
        adam_step(params, state)  # clip norm fixed at 5
        # clipped gradient per coordinate: 10 * 5/20 = 2.5
        assert np.allclose(state.m["w"], 0.1 * 2.5, atol=1e-6)

    def test_deterministic_trajectory(self, tmp_path):
        logs = []
        for run in ("a", "b"):
            out = tmp_path / run
            result = train(tiny_config(), phantom_cases(), out)
            logs.append((out / "loss_log.csv").read_bytes())
            ck = (out / "checkpoint.bin").read_bytes()
            logs.append(ck)
        assert logs[0] == logs[2]
        assert logs[1] == logs[3]


class TestTrainLoop:
    def test_single_step_artifacts(self, tmp_path):
        config = tiny_config(steps=1)
        result = train(config, phantom_cases(), tmp_path / "run")
        rows = Path(result.log_path).read_text().strip().splitlines()
        assert rows[0] == "step,loss_bt,loss_wt,loss_tc,loss_et,loss_sc,total"
        assert len(rows) == 2
        assert rows[1].startswith("1,")
        graph, state, saved = load_checkpoint(result.checkpoint_path)
        assert state.step == 1
        assert saved == config

    def test_zero_init_unet_pre_matches_uniform_analytic(self, tmp_path):
        config = tiny_config(variant="UNET_PRE", steps=1)
        cases = phantom_cases()
        graph = build_model("UNET_PRE", config.model_config(), seed=config.seed)
        for t in graph.params.values():
            t.data[...] = 0.0
        save_checkpoint(tmp_path / "zero", graph, AdamState.init_like(graph.params), config)
        result = train(config, cases, tmp_path / "run", resume_from=tmp_path / "zero")
        row = Path(result.log_path).read_text().strip().splitlines()[1].split(",")
        loss_bt, total = float(row[1]), float(row[6])

        labels = cases[0][1].data
        n = labels.size
        expected = 0.0
        for c in (1, 2, 3):
            n_c = int(np.sum(labels == c))
            expected += (1.0 - (0.5 * n_c + EPSILON) / (0.25 * n + n_c + EPSILON)) / 3.0
        assert loss_bt == pytest.approx(expected, abs=1e-6)
        assert total == loss_bt

    def test_loss_rows_resum(self, tmp_path):
        config = tiny_config(steps=4)
        result = train(config, phantom_cases(), tmp_path / "run")
        w = config.weights
        for line in Path(result.log_path).read_text().strip().splitlines()[1:]:
            _, bt, wt, tc, et, sc, total = (float(x) for x in line.split(","))
            resum = bt + w.lambda_wt * wt + w.lambda_tc * tc + w.lambda_et * et + w.lambda_sc * sc
            assert abs(total - resum) < 1e-6

    def test_resume_continues_identically(self, tmp_path):
        cases = phantom_cases()
        full = train(tiny_config(steps=12), cases, tmp_path / "full")
        part = train(tiny_config(steps=7), cases, tmp_path / "part")
        resumed = train(
            tiny_config(steps=12), cases, tmp_path / "resumed", resume_from=part.checkpoint_path
        )
        full_rows = Path(full.log_path).read_text().strip().splitlines()[1:]
        resumed_rows = Path(resumed.log_path).read_text().strip().splitlines()[1:]
        assert resumed_rows == full_rows[7:]
        full_ck = (tmp_path / "full" / "checkpoint.bin").read_bytes()
        resumed_ck = (tmp_path / "resumed" / "checkpoint.bin").read_bytes()
        assert full_ck == resumed_ck

    def test_nonfinite_loss_aborts_keeping_checkpoint(self, tmp_path, monkeypatch):
        real = trainer_mod.total_loss
        calls = {"n": 0}

        def sabotage(outputs, labels, regions, weights):
            calls["n"] += 1
            loss, comps = real(outputs, labels, regions, weights)
            if calls["n"] >= 5:
                comps = dict(comps, total=float("inf"))
            return loss, comps

        monkeypatch.setattr(trainer_mod, "total_loss", sabotage)
        config = tiny_config(steps=20, checkpoint_interval=2)
        with pytest.raises(TrainingError, match="non-finite loss"):
            train(config, phantom_cases(), tmp_path / "run")
        graph, state, _ = load_checkpoint(str(tmp_path / "run" / "checkpoint"))
        assert state.step == 4  # last periodic save before the blow-up

    def test_multi_case_multi_patch_schedule_covers_slots(self, tmp_path):
        # 2 cases of 32³ with 16³ patches = 16 slots; 16 steps visit each once
        seen = []
        orig = trainer_mod._schedule

        def spy(seed, step, n_slots):
            idx = orig(seed, step, n_slots)
            seen.append(idx)
            return idx

        import unittest.mock as mock

        with mock.patch.object(trainer_mod, "_schedule", spy):
            train(tiny_config(steps=16), phantom_cases(n=2, extent=32), tmp_path / "run")
        assert sorted(seen) == list(range(16))


class TestCheckpointing:
    def test_save_load_save_identical(self, tmp_path):
        config = tiny_config()
        graph = build_model(config.variant, config.model_config(), seed=1)
        state = AdamState.init_like(graph.params)
        state.step = 9
        for arr in state.m.values():
            arr += 0.125
        p1, p2 = tmp_path / "c1", tmp_path / "c2"
        save_checkpoint(p1, graph, state, config)
        graph2, state2, _ = load_checkpoint(p1)
        save_checkpoint(p2, graph2, state2, config)
        assert (tmp_path / "c1.bin").read_bytes() == (tmp_path / "c2.bin").read_bytes()
        assert (tmp_path / "c1.json").read_bytes() == (tmp_path / "c2.json").read_bytes()

    def test_variant_mismatch_rejected(self, tmp_path):
        config = tiny_config(variant="UNET_PRE")
        graph = build_model("UNET_PRE", config.model_config(), seed=1)
        save_checkpoint(tmp_path / "ck", graph, AdamState.init_like(graph.params), config)
        with pytest.raises(TrainingError, match="variant"):
            train(tiny_config(variant="MMTSN"), phantom_cases(), tmp_path / "run",
                  resume_from=tmp_path / "ck")

    # each of these shapes the trained values (the seed fixes patch order and
    # augmentation draws), so a resumed run under another would not continue
    # the saved one; weights and augment used to resume unrefused
    @pytest.mark.parametrize("field", ["seed", "weights", "augment"])
    def test_setting_mismatch_rejected(self, tmp_path, field):
        value = {"seed": 9, "weights": LossWeights(lambda_sc=0.0), "augment": True}[field]
        part = train(tiny_config(steps=2), phantom_cases(), tmp_path / "part")
        with pytest.raises(TrainingError, match=field):
            train(tiny_config(steps=4, **{field: value}), phantom_cases(), tmp_path / "run",
                  resume_from=part.checkpoint_path)

    @pytest.mark.parametrize("interval, saved_steps", [(0, [4]), (2, [2, 4]), (3, [3, 4])])
    def test_final_checkpoint_written_once(self, tmp_path, monkeypatch, interval, saved_steps):
        # a periodic save at the last step is the final checkpoint
        saves = []
        real = trainer_mod.save_checkpoint

        def spy(path, graph, state, config):
            saves.append(state.step)
            return real(path, graph, state, config)

        monkeypatch.setattr(trainer_mod, "save_checkpoint", spy)
        config = tiny_config(steps=4, checkpoint_interval=interval)
        train(config, phantom_cases(), tmp_path / "run")
        assert saves == saved_steps


class TestConfigSerialization:
    def test_roundtrip(self):
        config = tiny_config(steps=42, augment=True, checkpoint_interval=7)
        restored = TrainConfig.from_dict(config.to_dict())
        assert restored == config

    def test_fields_are_the_run_settings(self):
        # Adam and the clip norm are module constants, not settings
        assert list(TrainConfig().to_dict()) == [
            "variant", "patch_extents", "depth", "base_channels", "weights", "steps", "seed",
            "augment", "checkpoint_interval",
        ]

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            TrainConfig.from_dict({"variant": "MMTSN", "lr": 0.1})

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig.from_dict({"learning_rate": 0.0})
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
