"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Headline scores from large-scale clinical training are out of
reach at desk scale by design; these criteria are property-based plus
scaled-down experiments with pinned tolerances.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from mmtseg.cli import main
from mmtseg.gradcheck import run_suite
from mmtseg.losses import spatial_constraint_loss
from mmtseg.metrics import containment_violation, dice_score, hd95
from mmtseg.model import SCFB, ParamStore
from mmtseg.phantom import derive_regions, generate_phantom
from mmtseg.pipeline import build_grid, extract_patches, normalize, reassemble
from mmtseg.tensor import Tensor, add, concat_channels, mul_broadcast
from mmtseg.trainer import TrainConfig, load_checkpoint, train

from oracles import oracle_dice, oracle_hd95


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


class TestCriterion1GradientSuite:
    def test_all_ops_and_model_pass_within_budget(self):
        t0 = time.time()
        results = run_suite(seed=0)
        elapsed = time.time() - t0
        failures = [r.line() for r in results if not r.passed]
        assert not failures, failures
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
        worst = max(r.max_err / r.tol for r in results)
        report(1, f"{len(results)} checks, {elapsed:.1f}s, worst err at {worst:.2f}x tol")


class TestCriterion2ScfbZeroInitIdentity:
    def test_attention_exactly_half_and_resum_bitwise(self):
        store = ParamStore(np.random.default_rng(0))
        block = SCFB(store, "scfb", in_ch=8, out_ch=4)
        for t in store.params.values():
            t.data[...] = 0.0
        rng = np.random.default_rng(1)
        parts = [
            Tensor(rng.uniform(-1, 1, (2, 4, 4, 4)).astype(np.float32)) for _ in range(4)
        ]
        w_c, w_s = block.attention_weights(parts)
        assert np.all(w_c.data == 0.5)
        assert np.all(w_s.data == 0.5)
        f_concat = concat_channels(parts)
        resum = add(mul_broadcast(f_concat, w_c), mul_broadcast(f_concat, w_s))
        assert np.array_equal(resum.data, f_concat.data)
        report(2, "channel and spatial weights exactly 0.5; halves re-sum bitwise")


class TestCriterion3SpatialConstraintContract:
    def test_contract(self):
        outer = np.zeros((1, 4, 4, 4), dtype=np.float32)
        inner = np.zeros((1, 4, 4, 4), dtype=np.float32)
        outer[0, :2] = 1.0
        inner[0, 0, 1:3, 1:3] = 1.0
        contained = spatial_constraint_loss(Tensor(outer), Tensor(inner)).item()
        assert contained == pytest.approx(0.0, abs=1e-5)

        half_outer = np.zeros((1, 4, 4, 4), dtype=np.float32)
        half_inner = np.zeros((1, 4, 4, 4), dtype=np.float32)
        half_inner[0, 0, 0, :4] = 1.0
        half_outer[0, 0, 0, :2] = 1.0
        # epsilon in the denominator shifts the exact 0.5 by eps/(2(4+eps))
        half = spatial_constraint_loss(Tensor(half_outer), Tensor(half_inner)).item()
        assert half == pytest.approx(0.5, abs=1e-5)

        moved = half_inner.copy()
        moved[0, 0, 0, 0] = 0.0
        moved[0, 3, 3, 3] = 1.0
        worse = spatial_constraint_loss(Tensor(half_outer), Tensor(moved)).item()
        assert worse > half
        report(3, f"contained={contained:.2e}, half={half:.6f}, moved={worse:.6f}")


class TestCriterion4MetricOracleEquivalence:
    def test_200_random_pairs(self):
        checked = empties = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            fills = rng.choice([0.0, 0.05, 0.3, 0.7], size=2)
            a = rng.random((8, 8, 8)) < fills[0]
            b = rng.random((8, 8, 8)) < fills[1]
            assert dice_score(a, b) == oracle_dice(a, b)
            expected = oracle_hd95(a, b)
            got = hd95(a, b)
            if expected is None:
                assert got is None
                empties += 1
            else:
                assert got == pytest.approx(expected, abs=1e-9)
            checked += 1
        assert empties > 0, "the pair set must exercise the empty-mask sentinel"
        report(4, f"{checked} pairs (dice exact, hd95 within 1e-9, {empties} sentinel cases)")


class TestCriterion5PipelineRoundTrip:
    def test_roundtrip_and_reference_geometry(self):
        rng = np.random.default_rng(0)
        from mmtseg.phantom import MultiModalVolume

        data = rng.normal(size=(4, 20, 18, 17)).astype(np.float32)
        volume = MultiModalVolume(data=data)
        grid = build_grid(volume.extents, (16, 16, 16))
        assert len(grid.origins) == 8  # tail-shifted overlapping windows
        patches = [img for img, _ in extract_patches(volume, None, grid)]
        rebuilt = reassemble(patches, grid)
        max_err = float(np.max(np.abs(rebuilt - data)))
        assert max_err <= 1e-6

        reference = build_grid((240, 240, 155), (64, 64, 48))
        assert len(reference.origins) == 64
        report(5, f"round-trip max err {max_err:.1e}; reference grid has 64 origins")


class TestCriterion6OverfitExperiment:
    @pytest.mark.slow
    def test_overfit_single_phantom(self, tmp_path):
        t0 = time.time()
        config = TrainConfig(
            variant="MMTSN",
            patch_extents=(16, 16, 16),
            depth=3,
            base_channels=8,
            steps=300,
            seed=0,
            checkpoint_interval=0,
        )
        case = generate_phantom(0, (16, 16, 16))
        result = train(config, [case], tmp_path / "overfit")
        elapsed = time.time() - t0
        assert elapsed < 600.0, f"overfit run took {elapsed:.1f}s"

        wt_soft_dice = 1.0 - result.final_components["loss_wt"]
        assert wt_soft_dice >= 0.90

        graph, _, _ = load_checkpoint(result.checkpoint_path)
        outputs = graph.forward(normalize(case[0]).data)
        wt_mask = outputs.wt_prob.data[0] > 0.5
        tc_mask = outputs.tc_prob.data[0] > 0.5
        et_mask = outputs.et_prob.data[0] > 0.5
        v_wt_tc = containment_violation(wt_mask, tc_mask)
        v_tc_et = containment_violation(tc_mask, et_mask)
        assert v_wt_tc <= 0.05
        assert v_tc_et <= 0.05
        report(
            6,
            f"WT soft dice {wt_soft_dice:.4f}, violations ({v_wt_tc:.4f}, {v_tc_et:.4f}), "
            f"{elapsed:.0f}s / 300 steps",
        )


class TestCriterion7Determinism:
    def test_commands_bitwise_reproducible(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            data = tmp_path / f"data_{tag}"
            assert main(["generate", "--seed", "21", "--extents", "16", "--count", "2",
                         "--out-dir", str(data)]) == 0
            run = tmp_path / f"run_{tag}"
            assert main(["train", "--variant", "mmtsn", "--steps", "5", "--seed", "21",
                         "--config", str(self._config(tmp_path)),
                         "--data-dir", str(data), "--out-dir", str(run)]) == 0
            rep = tmp_path / f"report_{tag}.json"
            assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                         "--data-dir", str(data), "--report", str(rep)]) == 0
            outs.append((data, run, rep))

        (data_a, run_a, rep_a), (data_b, run_b, rep_b) = outs
        compared = 0
        for f in sorted(p.name for p in data_a.iterdir()):
            assert (data_a / f).read_bytes() == (data_b / f).read_bytes(), f
            compared += 1
        for f in ("loss_log.csv", "checkpoint.bin", "checkpoint.json", "run_manifest.json"):
            assert (run_a / f).read_bytes() == (run_b / f).read_bytes(), f
            compared += 1
        assert rep_a.read_bytes() == rep_b.read_bytes()
        report(7, f"{compared + 1} artifacts bitwise identical across reruns")

    @staticmethod
    def _config(tmp_path):
        path = tmp_path / "tiny.json"
        if not path.exists():
            path.write_text(json.dumps(
                {"depth": 2, "base_channels": 2, "patch_extents": [16, 16, 16]}
            ))
        return path


class TestCriterion8AblationHarness:
    def test_compare_on_ten_cases(self, tmp_path):
        data = tmp_path / "data"
        assert main(["generate", "--seed", "30", "--extents", "16", "--count", "10",
                     "--out-dir", str(data)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 2, "base_channels": 2, "steps": 10,
                                   "seed": 30, "patch_extents": [16, 16, 16]}))
        tables = []
        for tag in ("a", "b"):
            out = tmp_path / f"cmp_{tag}"
            assert main(["compare", "--config", str(cfg), "--data-dir", str(data),
                         "--out-dir", str(out)]) == 0
            tables.append((out / "table.txt").read_bytes())
            csv_lines = (out / "table.csv").read_text().strip().splitlines()
            assert len(csv_lines) == 6  # header + five methods
            assert csv_lines[0].count(",") == 6  # method + six metric columns
        assert tables[0] == tables[1]
        report(8, "5 methods x 6 metrics, 10 cases, rerun bitwise identical")
