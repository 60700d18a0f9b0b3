import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmtseg.cli
import mmtseg.tensor
from mmtseg.cli import _predict_labels, main
from mmtseg.model import load_blob, save_blob
from mmtseg.phantom import generate_phantom, read_labels, read_volume, write_labels
from mmtseg.trainer import load_checkpoint

from oracles import oracle_quantile


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cases")
    rc = main(["generate", "--seed", "11", "--extents", "16", "--count", "3",
               "--out-dir", str(d)])
    assert rc == 0
    return d


class TestGenerate:
    def test_count_and_files(self, tmp_path):
        out = tmp_path / "out"
        assert main(["generate", "--seed", "2", "--extents", "16", "--count", "2",
                     "--out-dir", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert files == [
            "case_2_0_img.mmts", "case_2_0_lbl.mmts",
            "case_2_1_img.mmts", "case_2_1_lbl.mmts",
            "run_manifest.json",
        ]

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", "--seed", "3", "--extents", "16,20,18",
                         "--count", "2", "--out-dir", str(out)]) == 0
        for f in sorted(os.listdir(a)):
            assert (a / f).read_bytes() == (b / f).read_bytes(), f

    def test_too_small_extents_exit_2(self, tmp_path):
        assert main(["generate", "--seed", "0", "--extents", "8", "--count", "1",
                     "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_1_exit_2(self, tmp_path, capsys, count):
        out = tmp_path / "x"
        assert main(["generate", "--extents", "16", "--count", count,
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_bad_extents_string_exit_2(self, tmp_path):
        assert main(["generate", "--extents", "16,banana", "--out-dir",
                     str(tmp_path / "x")]) == 2

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--bogus", "1", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2


class TestTrain:
    def test_smoke_run_and_variant_dispatch(self, data_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--variant", "unet_pre", "--steps", "4", "--seed", "7",
                   "--data-dir", str(data_dir), "--out-dir", str(out)])
        assert rc == 0
        meta = json.loads((out / "checkpoint.json").read_text())["meta"]
        assert meta["variant"] == "UNET_PRE"
        assert meta["step"] == 4
        assert (out / "loss_log.csv").exists()
        assert (out / "run_manifest.json").exists()

    def test_missing_data_dir_exit_2(self, tmp_path):
        assert main(["train", "--data-dir", str(tmp_path / "missing"),
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_unknown_variant_exit_2(self, data_dir, tmp_path):
        assert main(["train", "--variant", "resnet", "--data-dir", str(data_dir),
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_config_file_roundtrip(self, data_dir, tmp_path):
        config = {"variant": "MMTSN_NO_SCFB", "depth": 2, "base_channels": 2,
                  "steps": 2, "seed": 5, "patch_extents": [16, 16, 16]}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--data-dir", str(data_dir),
                     "--out-dir", str(out)]) == 0
        meta = json.loads((out / "checkpoint.json").read_text())["meta"]
        assert meta["variant"] == "MMTSN_NO_SCFB"

    def test_bad_config_field_exit_2(self, data_dir, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"lr": 0.1}))
        assert main(["train", "--config", str(cfg_path), "--data-dir", str(data_dir),
                     "--out-dir", str(tmp_path / "o")]) == 2

    # Adam and clipping are constants; a file naming their former fields is
    # refused like any unknown field
    @pytest.mark.parametrize("setting", [
        {"beta1": 1.0}, {"beta1": -0.1}, {"beta2": 1.0}, {"adam_eps": 0.0},
        {"learning_rate": float("inf")}, {"learning_rate": float("nan")},
        {"grad_clip_norm": -1}, {"grad_clip_norm": 0}, {"checkpoint_interval": -1},
    ])
    def test_bad_optimiser_setting_exit_2(self, data_dir, tmp_path, capsys, setting):
        config = dict(setting, variant="UNET_PRE", depth=2, base_channels=2, steps=1)
        err = self._assert_config_exit_2(data_dir, tmp_path, capsys, json.dumps(config))
        assert next(iter(setting)) in err

    # each used to end in a traceback, exit 1 after reading the data, or train anyway
    @pytest.mark.parametrize("setting", [
        {"depth": "3"}, {"seed": 1.5}, {"variant": "FOO"}, {"variant": "mmtsn"}, {"depth": 1},
        {"base_channels": 1}, {"seed": -1}, {"patch_extents": [16, 16]},
        {"depth": 3, "patch_extents": [10, 10, 10]}, {"patch_extents": [16.5, 16, 16]},
        {"steps": 2.5}, {"checkpoint_interval": 1.5}, {"augment": "no"}, {"steps": True},
    ])
    def test_bad_run_setting_exit_2(self, data_dir, tmp_path, capsys, setting):
        config = {"variant": "UNET_PRE", "depth": 2, "base_channels": 2, "steps": 1, **setting}
        self._assert_config_exit_2(data_dir, tmp_path, capsys, json.dumps(config))

    # 2^(depth - 1) used to be formed: at this depth its 301,030 digits broke
    # the error text, which named no field, and at 10^12 it ran out of memory
    def test_huge_depth_names_the_field(self, data_dir, tmp_path, capsys):
        config = {"variant": "UNET_PRE", "depth": 10**6, "steps": 1}
        err = self._assert_config_exit_2(data_dir, tmp_path, capsys, json.dumps(config))
        assert "patch_extents must be" in err

    # each used to train at weight 1 or print an error that named no field
    @pytest.mark.parametrize("value", [True, "x", None])
    def test_bad_loss_weight_exit_2(self, data_dir, tmp_path, capsys, value):
        config = {"variant": "UNET_PRE", "depth": 2, "base_channels": 2, "steps": 1,
                  "weights": {"lambda_sc": value}}
        err = self._assert_config_exit_2(data_dir, tmp_path, capsys, json.dumps(config))
        assert "weights.lambda_sc" in err

    # json.load raised a plain ValueError past int's 4300-digit limit: exit 1,
    # naming neither the file nor a field
    def test_integer_past_digit_limit_names_the_file(self, data_dir, tmp_path, capsys):
        text = '{"depth": 1' + "0" * 5000 + "}"
        err = self._assert_config_exit_2(data_dir, tmp_path, capsys, text)
        assert str(tmp_path / "config.json") in err

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '{"weights": 5}', '{"weights": [1]}'])
    def test_config_json_of_wrong_shape_exit_2(self, data_dir, tmp_path, capsys, text):
        self._assert_config_exit_2(data_dir, tmp_path, capsys, text)

    @staticmethod
    def _assert_config_exit_2(data_dir, tmp_path, capsys, text):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--data-dir", str(data_dir),
                     "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert not (tmp_path / "o" / "checkpoint.bin").exists()
        return err


class TestEval:
    def test_self_check_perfect_report(self, data_dir, tmp_path):
        report = tmp_path / "report.json"
        assert main(["eval", "--data-dir", str(data_dir), "--report", str(report),
                     "--self-check"]) == 0
        payload = json.loads(report.read_text())
        assert len(payload["cases"]) == 3
        for case in payload["cases"].values():
            assert all(case["dice"][r] == 1.0 for r in ("wt", "tc", "et"))
            assert all(case["hd95"][r] == 0.0 for r in ("wt", "tc", "et"))
        assert payload["aggregates"]["dice_wt"]["mean"] == 1.0

    def test_aggregates_match_quantile_oracle(self, data_dir, tmp_path):
        # model eval produces nontrivial per-case spreads
        run = tmp_path / "run"
        assert main(["train", "--variant", "unet_pre", "--steps", "3", "--seed", "1",
                     "--data-dir", str(data_dir), "--out-dir", str(run)]) == 0
        report = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                     "--data-dir", str(data_dir), "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        metrics = ("dice", "hd95", "pred_voxels", "true_voxels")
        assert sorted(payload["aggregates"]) == sorted(f"{m}_{r}" for m in metrics
                                                       for r in ("wt", "tc", "et"))
        for key, row in payload["aggregates"].items():
            metric, region = key.rsplit("_", 1)
            values = [c[metric][region] for c in payload["cases"].values()]
            defined = [v for v in values if v is not None]
            if not defined:
                assert row["mean"] is None
                continue
            assert row["mean"] == pytest.approx(sum(defined) / len(defined), abs=1e-12)
            assert row["median"] == pytest.approx(oracle_quantile(defined, 0.5), abs=1e-9)
            assert row["q25"] == pytest.approx(oracle_quantile(defined, 0.25), abs=1e-9)
            assert row["q75"] == pytest.approx(oracle_quantile(defined, 0.75), abs=1e-9)
            assert row["undefined"] == len(values) - len(defined)

    def test_eval_deterministic(self, data_dir, tmp_path):
        run = tmp_path / "run"
        main(["train", "--variant", "unet_pre", "--steps", "2", "--seed", "1",
              "--data-dir", str(data_dir), "--out-dir", str(run)])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for r in (r1, r2):
            assert main(["eval", "--checkpoint", str(run / "checkpoint"),
                         "--data-dir", str(data_dir), "--report", str(r)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_missing_checkpoint_exit_2(self, data_dir, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope"),
                     "--data-dir", str(data_dir),
                     "--report", str(tmp_path / "r.json")]) == 2

    def test_seed_without_self_check_exit_2(self, data_dir, trained_run, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["eval", "--checkpoint", str(trained_run / "checkpoint"), "--seed", "5",
                     "--data-dir", str(data_dir), "--report", str(report)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not report.exists()

    def test_checkpoint_with_self_check_exit_2(self, data_dir, trained_run, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["eval", "--checkpoint", str(trained_run / "checkpoint"), "--self-check",
                     "--data-dir", str(data_dir), "--report", str(report)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not report.exists()


@pytest.fixture(scope="module")
def trained_run(data_dir, tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
    assert main(["train", "--variant", "unet_pre", "--steps", "1", "--seed", "1",
                 "--data-dir", str(data_dir), "--out-dir", str(run)]) == 0
    return run


class TestInferenceGraph:
    def test_predict_records_no_graph(self, data_dir, trained_run, monkeypatch):
        graph, _, config = load_checkpoint(str(trained_run / "checkpoint"))
        volume = read_volume(str(sorted(data_dir.glob("*_img.mmts"))[0]))
        recorded = []
        make = mmtseg.tensor._make

        def spy(data, parents, backward, kernel, *extra):
            out = make(data, parents, backward, kernel, *extra)
            recorded.append((out._backward is not None, out._parents != (),
                             out._call is not None))
            return out

        monkeypatch.setattr(mmtseg.tensor, "_make", spy)
        labels = _predict_labels(graph, config.patch_extents, volume)
        assert recorded and not any(any(r) for r in recorded)
        assert all(t.requires_grad for t in graph.params.values())

        # the same prediction with the graph recorded, as training would
        recorded.clear()
        monkeypatch.setattr(mmtseg.cli, "no_grad", contextlib.nullcontext)
        with_graph = _predict_labels(graph, config.patch_extents, volume)
        assert all(all(r) for r in recorded)
        assert np.array_equal(labels.data, with_graph.data)


def _drop_meta(m):
    del m["meta"]


def _drop_variant(m):
    del m["meta"]["variant"]


def _drop_entries(m):
    del m["entries"]


def _drop_shape(m):
    del m["entries"][0]["shape"]


def _str_depth(m):
    m["meta"]["depth"] = "3"


def _int_extents(m):
    m["meta"]["patch_extents"] = 16


def _int_variant(m):
    m["meta"]["variant"] = 3


def _drop_moments(m):
    m["entries"] = [e for e in m["entries"] if not e["name"].startswith("adam.")]


def _list_name(m):
    m["entries"][0]["name"] = [m["entries"][0]["name"]]


# geometry corruptors return the name of the entry the error must name
def _shifted_offset(m):
    m["entries"][1]["offset"] += 2
    return m["entries"][1]["name"]


def _overlapping_offset(m):
    m["entries"][1]["offset"] = m["entries"][0]["offset"]
    return m["entries"][1]["name"]


def _float_offset(m):
    m["entries"][1]["offset"] = float(m["entries"][1]["offset"])
    return m["entries"][1]["name"]


def _str_shape(m):
    m["entries"][0]["shape"] = "abc"
    return m["entries"][0]["name"]


def _negative_dim(m):
    m["entries"][0]["shape"] = [-1] + m["entries"][0]["shape"]
    return m["entries"][0]["name"]


def _swapped_entries(m):
    m["entries"][0], m["entries"][1] = m["entries"][1], m["entries"][0]
    return m["entries"][0]["name"]


class TestCorruptCheckpoint:
    def _assert_exit_1(self, data_dir, tmp_path, capsys, command, manifest, blob, name=None):
        (tmp_path / "ck.json").write_text(json.dumps(manifest))
        (tmp_path / "ck.bin").write_bytes(blob)
        out = ["--report", str(tmp_path / "r.json")] if command == "eval" else \
            ["--out-dir", str(tmp_path / "pred")]
        capsys.readouterr()
        assert main([command, "--checkpoint", str(tmp_path / "ck"),
                     "--data-dir", str(data_dir)] + out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert name is None or repr(name) in err
        return err

    @pytest.mark.parametrize("command", ["eval", "infer"])
    @pytest.mark.parametrize("corrupt", [_drop_meta, _drop_variant, _drop_entries, _drop_shape,
                                         _str_depth, _int_extents, _int_variant, _drop_moments,
                                         _list_name,
                                         _shifted_offset, _overlapping_offset, _float_offset,
                                         _str_shape, _negative_dim, _swapped_entries])
    def test_exit_1_with_error_line(self, data_dir, trained_run, tmp_path, capsys, command,
                                    corrupt):
        manifest = json.loads((trained_run / "checkpoint.json").read_text())
        name = corrupt(manifest)
        self._assert_exit_1(data_dir, tmp_path, capsys, command, manifest,
                            (trained_run / "checkpoint.bin").read_bytes(), name)

    def test_negative_adam_step_exit_1(self, data_dir, trained_run, tmp_path, capsys):
        manifest = json.loads((trained_run / "checkpoint.json").read_text())
        manifest["meta"]["step"] = -3
        err = self._assert_exit_1(data_dir, tmp_path, capsys, "eval", manifest,
                                  (trained_run / "checkpoint.bin").read_bytes())
        assert str(tmp_path / "ck") in err and "step" in err

    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_huge_depth_names_the_field(self, data_dir, trained_run, tmp_path, capsys, command):
        manifest = json.loads((trained_run / "checkpoint.json").read_text())
        manifest["meta"]["depth"] = 10**6
        err = self._assert_exit_1(data_dir, tmp_path, capsys, command, manifest,
                                  (trained_run / "checkpoint.bin").read_bytes())
        assert "patch_extents must be" in err

    # the second copy used to overwrite the first and the checkpoint loaded
    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_duplicate_entry_name_exit_1(self, data_dir, trained_run, tmp_path, capsys,
                                         command):
        manifest = json.loads((trained_run / "checkpoint.json").read_text())
        blob = (trained_run / "checkpoint.bin").read_bytes()
        last = manifest["entries"][-1]
        manifest["entries"].append(dict(last, offset=len(blob)))
        self._assert_exit_1(data_dir, tmp_path, capsys, command, manifest,
                            blob + blob[last["offset"]:], last["name"])

    @pytest.mark.parametrize("command", ["eval", "infer"])
    @pytest.mark.parametrize("edit", ["prepend", "append", "truncate"])
    def test_blob_size_must_match_entries(self, data_dir, trained_run, tmp_path, capsys,
                                          command, edit):
        manifest = json.loads((trained_run / "checkpoint.json").read_text())
        blob = (trained_run / "checkpoint.bin").read_bytes()
        blob = {"prepend": bytes(100) + blob, "append": blob + bytes(4),
                "truncate": blob[:-4]}[edit]
        last = manifest["entries"][-1]["name"] if edit == "truncate" else None
        self._assert_exit_1(data_dir, tmp_path, capsys, command, manifest, blob, last)

    @pytest.mark.parametrize("corrupt", ["moment_shape", "unknown_moment", "missing_moment"])
    def test_entries_must_match_graph_and_adam_state(self, data_dir, trained_run, tmp_path,
                                                     capsys, corrupt):
        named, meta = load_blob(trained_run / "checkpoint")
        bias = next(n for n in sorted(named) if n.startswith("adam.m.") and n.endswith(".bias"))
        if corrupt == "moment_shape":  # one value would broadcast into the whole moment
            name = bias
            named[name] = named[name][:1]
        elif corrupt == "unknown_moment":
            name = "adam.bogus.entry"
            named[name] = np.zeros(1, dtype=np.float32)
        else:
            name = "adam.v." + bias[len("adam.m."):]
            del named[name]
        save_blob(tmp_path / "bad", named, meta)
        self._assert_exit_1(data_dir, tmp_path, capsys, "eval",
                            json.loads((tmp_path / "bad.json").read_text()),
                            (tmp_path / "bad.bin").read_bytes(), name)


    # a NaN parameter used to load, and eval exited 0 with Dice 0 on every region
    @pytest.mark.parametrize("command", ["eval", "infer"])
    @pytest.mark.parametrize("prefix, value", [("unet.", np.nan), ("adam.v.", np.inf)])
    def test_non_finite_entry_exit_1(self, data_dir, trained_run, tmp_path, capsys, command,
                                     prefix, value):
        named, meta = load_blob(trained_run / "checkpoint")
        name = next(n for n in sorted(named) if n.startswith(prefix))
        named[name].flat[0] = value
        save_blob(tmp_path / "bad", named, meta)
        self._assert_exit_1(data_dir, tmp_path, capsys, command,
                            json.loads((tmp_path / "bad.json").read_text()),
                            (tmp_path / "bad.bin").read_bytes(), name)


class TestNonFiniteVolume:
    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_exit_1_with_error_line(self, data_dir, trained_run, tmp_path, capsys, command):
        cases = tmp_path / "cases"
        cases.mkdir()
        for f in data_dir.glob("*.mmts"):
            (cases / f.name).write_bytes(f.read_bytes())
        img = sorted(cases.glob("*_img.mmts"))[0]
        img.write_bytes(img.read_bytes()[:-4] + np.float32(np.nan).tobytes())
        out = ["--report", str(tmp_path / "r.json")] if command == "eval" else \
            ["--out-dir", str(tmp_path / "pred")]
        capsys.readouterr()
        assert main([command, "--checkpoint", str(trained_run / "checkpoint"),
                     "--data-dir", str(cases)] + out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and img.name in err
        assert "Traceback" not in err


class TestOutOfMemory:
    # a config of base_channels 100000 used to end in numpy's "Unable to
    # allocate 3.93 TiB" traceback; the stub raises without allocating
    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 3.93 TiB"), MemoryError()])
    def test_exit_1_with_error_line(self, data_dir, tmp_path, capsys, monkeypatch, exc):
        def train(*args, **kwargs):
            raise exc

        monkeypatch.setattr(mmtseg.cli, "train", train)
        capsys.readouterr()
        assert main(["train", "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and str(exc) in err
        assert "Traceback" not in err


class TestBlasThreads:
    def test_train_bytes_equal_for_one_and_two_blas_threads(self, data_dir, tmp_path):
        # conv3d hands BLAS strided operands; its thread split must not reach the bytes
        src = str(Path(mmtseg.tensor.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        runs = []
        for threads in ("1", "2"):
            run = tmp_path / f"run_{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            subprocess.run([sys.executable, "-m", "mmtseg.cli", "train", "--steps", "3",
                            "--seed", "5", "--data-dir", str(data_dir), "--out-dir", str(run)],
                           env=env, check=True, timeout=600)
            runs.append(run)
        for f in ("loss_log.csv", "checkpoint.bin"):
            assert (runs[0] / f).read_bytes() == (runs[1] / f).read_bytes(), f


class TestInfer:
    def test_predictions_written(self, data_dir, tmp_path):
        run = tmp_path / "run"
        main(["train", "--variant", "unet_pre", "--steps", "2", "--seed", "1",
              "--data-dir", str(data_dir), "--out-dir", str(run)])
        out = tmp_path / "pred"
        assert main(["infer", "--checkpoint", str(run / "checkpoint"),
                     "--data-dir", str(data_dir), "--out-dir", str(out)]) == 0
        preds = sorted(f for f in os.listdir(out) if f.endswith("_pred.mmts"))
        assert len(preds) == 3
        labels = read_labels(out / preds[0])
        assert labels.data.shape == (16, 16, 16)

    def test_image_only_directory(self, data_dir, trained_run, tmp_path, capsys):
        # infer reads no label file; eval still needs one per case
        images = tmp_path / "images"
        images.mkdir()
        for f in data_dir.glob("*_img.mmts"):
            (images / f.name).write_bytes(f.read_bytes())
        ck = str(trained_run / "checkpoint")
        for src, out in ((data_dir, "full"), (images, "only")):
            assert main(["infer", "--checkpoint", ck, "--data-dir", str(src),
                         "--out-dir", str(tmp_path / out)]) == 0
        preds = sorted(f.name for f in (tmp_path / "full").glob("*_pred.mmts"))
        assert len(preds) == 3
        assert sorted(f.name for f in (tmp_path / "only").glob("*_pred.mmts")) == preds
        for name in preds:
            assert (tmp_path / "only" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ck, "--data-dir", str(images),
                     "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "label file missing" in err


class TestLabelExtents:
    # a 16³ image with 24³ labels used to train on labels sliced at the
    # image's grid, and eval failed only after predicting every window
    @pytest.mark.parametrize("command", ["train", "eval", "compare"])
    def test_mismatch_exit_2_before_any_output(self, data_dir, trained_run, tmp_path, capsys,
                                               command):
        cases = tmp_path / "cases"
        cases.mkdir()
        for f in data_dir.glob("*.mmts"):
            (cases / f.name).write_bytes(f.read_bytes())
        lbl = sorted(cases.glob("*_lbl.mmts"))[1]
        write_labels(str(lbl), generate_phantom(0, (24, 24, 24))[1])
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--steps", "1", "--out-dir", str(out)],
            "eval": ["eval", "--checkpoint", str(trained_run / "checkpoint"),
                     "--report", str(out)],
            "compare": ["compare", "--steps", "1", "--out-dir", str(out)],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--data-dir", str(cases)]) == 2
        err = capsys.readouterr().err
        name = lbl.name[: -len("_lbl.mmts")]
        assert err == (f"error: case {name}: label extents (24, 24, 24) differ from "
                       "image extents (16, 16, 16)\n")
        assert not out.exists()


class TestSeedFlag:
    # each used to exit 1 with numpy's message, or (eval) record the negative seed
    @pytest.mark.parametrize("command", ["generate", "gradcheck", "eval"])
    def test_negative_seed_exit_2(self, data_dir, tmp_path, capsys, command):
        out = str(tmp_path / "out")
        argv = {
            "generate": ["generate", "--out-dir", out],
            "gradcheck": ["gradcheck"],
            "eval": ["eval", "--self-check", "--data-dir", str(data_dir), "--report", out],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--seed" in captured.err
        assert captured.out == "" and not os.path.exists(out)


class TestGradcheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "full-model" in out

    def test_injected_sign_flip_fails(self, monkeypatch, capsys):
        real = mmtseg.tensor.conv3d

        def faulty(x, kernel, bias):
            out = real(x, kernel, bias)
            if out._backward is not None:
                orig_backward = out._backward

                def flipped(g):
                    gx, gk, gb = orig_backward(g)
                    return (-gx, gk, gb)

                out._backward = flipped
            return out

        monkeypatch.setattr(mmtseg.tensor, "conv3d", faulty)
        assert main(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestCompare:
    def test_five_method_table(self, tmp_path):
        data = tmp_path / "data"
        assert main(["generate", "--seed", "4", "--extents", "16", "--count", "2",
                     "--out-dir", str(data)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 2, "base_channels": 2, "steps": 2,
                                   "seed": 9, "patch_extents": [16, 16, 16]}))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--data-dir", str(data),
                     "--out-dir", str(out)]) == 0

        table = (out / "table.txt").read_text()
        lines = table.strip().splitlines()
        assert "Phantom benchmark" in lines[0]
        assert lines[1].split() == ["Method", "Dice", "ET", "Dice", "TC", "Dice", "WT",
                                    "HD95", "ET", "HD95", "TC", "HD95", "WT"]
        methods = [l.split()[0] for l in lines[2:7]]
        assert methods == ["MMTSN", "3D", "3D", "MMTSN-no-SCFB", "MMTSN-no-SC"]
        assert lines[-1] == "shared seed: 9"

        csv_lines = (out / "table.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "method,dice_et,dice_tc,dice_wt,hd95_et,hd95_tc,hd95_wt"
        assert len(csv_lines) == 6
