"""End-to-end CLI runs on a micro dataset (seconds, not minutes)."""

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avrobust import attacks as atk
from avrobust import models as M
from avrobust import pipeline
from avrobust.cli import keep_heap_mapped, main
from avrobust.config import parse_config
from avrobust.container import read_feature_file
from avrobust.errors import ValidationError
from avrobust.metrics import EvalReport, compute_report

MICRO = """
[dataset]
classes = 3
train_clips = 12
eval_clips = 8
duration = 1.0
max_labels = 2
band_lo = 4
band_width = 8
band_stride = 16
timbres = tone,noise,tone
video_dim = 8
video_windows = 4
seed = 0

[model]
conv_channels = 2,3
pool_time = 2,2
pool_freq = 2,2
transformer_blocks = 1
heads = 2
width = 8

[train]
epochs = 2
batch = 8
dropout = 0.0
seed = 0

[attack]
eps = 0.5
alpha = 0.1
steps = 4
batch = 8
seed = 0
"""


@pytest.fixture(scope="module")
def micro_workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("micro")
    cfg_path = root / "micro.ini"
    cfg_path.write_text(MICRO + f"\n[paths]\nworkdir = {root / 'run'}\n")
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    return root, cfg_path


@pytest.fixture
def micro_copy(micro_workdir, tmp_path):
    """A private copy of the synthesized micro workdir plus its parsed config."""
    root, cfg_path = micro_workdir
    workdir = tmp_path / "run"
    shutil.copytree(root / "run", workdir)
    config, _ = parse_config(cfg_path.read_text())
    return config, workdir


class TestPipelineCommands:
    def test_synth_outputs(self, micro_workdir):
        root, _ = micro_workdir
        workdir = root / "run"
        manifest = (workdir / "manifest.jsonl").read_text().splitlines()
        assert len(manifest) == 20
        records = [json.loads(line) for line in manifest]
        assert len({r["id"] for r in records}) == 20
        splits = {r["split"] for r in records}
        assert splits == {"train", "eval"}
        feats = read_feature_file(workdir / records[0]["features"])
        assert feats.shape == (40, 64)
        classes = json.loads((workdir / "classes.json").read_text())
        assert len(classes["classes"]) == 3

    def test_attack_and_eval_chain(self, micro_workdir):
        root, cfg_path = micro_workdir
        workdir = root / "run"
        assert main(["attack", "--config", str(cfg_path)]) == 0
        delta = read_feature_file(workdir / "delta.avfb")
        assert delta.shape == (40, 64)
        assert np.sqrt((delta.astype(np.float64) ** 2).sum()) <= 0.5 + 1e-9
        sidecar = json.loads((workdir / "delta.json").read_text())
        assert sidecar["norm"] == "l2" and sidecar["steps"] == 4
        assert sidecar["manifest_hash"] == pipeline.file_sha256(workdir / "manifest.jsonl")

        assert main(["eval", "--config", str(cfg_path)]) == 0
        assert main(["eval", "--config", str(cfg_path), "--perturbation",
                     str(workdir / "delta.avfb"), "--out",
                     str(workdir / "report_attacked.json")]) == 0
        clean = EvalReport.from_json((workdir / "report_clean.json").read_text())
        attacked = EvalReport.from_json((workdir / "report_attacked.json").read_text())
        assert clean.meta["perturbation"] == "clean"
        assert attacked.meta["perturbation"] != "clean"
        assert clean.meta["checkpoint"] == attacked.meta["checkpoint"]

        assert main(["report", "--clean", str(workdir / "report_clean.json"),
                     "--attacked", str(workdir / "report_attacked.json"),
                     "--out", str(workdir / "compare.csv")]) == 0
        header = (workdir / "compare.csv").read_text().splitlines()[0]
        assert header == "class_id,class_name,ap_clean,ap_attacked,abs_drop,rel_drop"

    def test_masked_attack_sidecar_and_support(self, micro_workdir):
        root, cfg_path = micro_workdir
        workdir = root / "run"
        out = workdir / "delta_masked.avfb"
        assert main(["attack", "--config", str(cfg_path), "--freq-mask", "0:20",
                     "--time-mask", "0:20", "--out", str(out)]) == 0
        sidecar = json.loads((workdir / "delta_masked.json").read_text())
        assert sidecar["mask"] == {"f_lo": 0, "f_hi": 20, "t_lo": 0, "t_hi": 20}
        delta = read_feature_file(out)
        assert np.all(delta[:, 20:] == 0.0)
        assert np.all(delta[20:, :] == 0.0)

    def test_zero_steps_attack_writes_zero_delta(self, micro_workdir):
        root, cfg_path = micro_workdir
        workdir = root / "run"
        out = workdir / "delta_zero.avfb"
        assert main(["attack", "--config", str(cfg_path), "--steps", "0",
                     "--out", str(out)]) == 0
        np.testing.assert_array_equal(read_feature_file(out), np.zeros((40, 64)))


class TestExitCodes:
    def test_missing_config_file_is_io_error(self):
        assert main(["synth", "--config", "/nonexistent/config.ini"]) == 3

    def test_bad_config_value_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[attack]\neps = -1\n")
        assert main(["synth", "--config", str(bad)]) == 2

    def test_bad_cli_eps_is_config_error(self, micro_workdir):
        _, cfg_path = micro_workdir
        assert main(["attack", "--config", str(cfg_path), "--eps", "-2"]) == 2

    def test_invalid_mask_geometry_is_validation_error(self, micro_workdir):
        _, cfg_path = micro_workdir
        assert main(["attack", "--config", str(cfg_path),
                     "--freq-mask", "0:999"]) == 4

    @pytest.mark.parametrize("argv", [
        ["attack", "--freq-mask", "a:b"],
        ["attack", "--time-mask", "a:b"],
        ["sweep", "--axis", "freq", "--masks", "a:b"],
        ["sweep", "--axis", "freq", "--eps-list", "x"],
    ], ids=["freq-mask", "time-mask", "sweep-masks", "sweep-eps-list"])
    def test_unparsable_option_is_config_error(self, micro_workdir, capsys, argv):
        _, cfg_path = micro_workdir
        assert main(argv + ["--config", str(cfg_path)]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("eps_list", ["-1", "0"])
    def test_non_positive_sweep_eps_is_config_error(self, micro_copy, capsys, eps_list):
        _, workdir = micro_copy
        before = sorted(p.name for p in workdir.iterdir())
        argv = ["sweep", "--config", str(workdir / "config.ini"), "--workdir",
                str(workdir), "--axis", "freq", "--eps-list", eps_list]
        assert main(argv) == 2
        assert "config error:" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == before   # no checkpoint

    @pytest.mark.parametrize("argv, ini_edit, key", [
        (["attack", "--eps", "nan"], None, "attack.eps"),
        (["sweep", "--axis", "freq", "--eps-list", "nan"], None, "attack.eps"),
        (["attack"], ("eps = 0.5", "eps = nan"), "attack.eps"),
        (["attack", "--alpha", "nan"], None, "attack.alpha"),
        (["sweep", "--axis", "freq", "--alpha", "0"], None, "attack.alpha"),
        (["sweep", "--axis", "freq", "--steps", "-1"], None, "attack.steps"),
        (["attack", "--seed", "-1"], None, "attack.seed"),
        (["sweep", "--axis", "fusion", "--fusions", "foo"], None, "model.fusion"),
        (["sweep", "--axis", "arch", "--arches", "foo"], None, "model.arch"),
        (["sweep", "--axis", "fusion", "--eps-list", "-1"], None, "attack.eps"),
        (["train"], ("conv_channels = 2,3", "conv_channels = 0,3"), "model.conv_channels"),
        (["attack"], ("batch = 8\nseed = 0", "batch = 8\nseed = -1"), "attack.seed"),
    ], ids=["eps", "eps-list", "ini-eps", "alpha", "sweep-alpha-zero",
            "sweep-steps-negative", "seed-negative", "fusions", "arches", "fusion-eps-list",
            "ini-conv-channels", "ini-attack-seed"])
    def test_nan_eps_or_alpha_is_config_error(self, micro_copy, tmp_path, capsys, argv,
                                              ini_edit, key):
        """A bad key exits 2 naming it, from a file, a flag or a sweep cell, before any work."""
        _, workdir = micro_copy
        cfg = tmp_path / "eps.ini"
        cfg.write_text(MICRO.replace(*ini_edit) if ini_edit else MICRO)
        before = sorted(p.relative_to(workdir) for p in workdir.rglob("*"))
        assert main(argv + ["--config", str(cfg), "--workdir", str(workdir)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and key in err
        assert sorted(p.relative_to(workdir) for p in workdir.rglob("*")) == before

    def test_train_without_manifest_is_validation_error(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MICRO + f"\n[paths]\nworkdir = {tmp_path / 'empty'}\n")
        assert main(["train", "--config", str(cfg)]) == 4

    def test_eval_with_wrong_geometry_perturbation(self, micro_workdir, tmp_path):
        root, cfg_path = micro_workdir
        from avrobust import attacks as atk
        pert = atk.Perturbation(
            delta=np.zeros((8, 64)),
            config=atk.AttackConfig(norm="l2", epsilon=1.0, alpha=0.1, steps=0),
            provenance={"manifest_hash": "x", "steps_run": 0})
        atk.save_perturbation(tmp_path / "wrong.avfb", pert)
        assert main(["eval", "--config", str(cfg_path), "--perturbation",
                     str(tmp_path / "wrong.avfb")]) == 4

    def test_env_workdir_used_when_unset(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MICRO.replace("train_clips = 12", "train_clips = 2")
                       .replace("eval_clips = 8", "eval_clips = 2"))
        monkeypatch.setenv("AVROBUST_WORKDIR", str(tmp_path / "envrun"))
        assert main(["synth", "--config", str(cfg)]) == 0
        assert (tmp_path / "envrun" / "manifest.jsonl").exists()


class TestSweep:
    def test_empty_plan_header_only(self, micro_workdir):
        root, cfg_path = micro_workdir
        out = root / "run" / "sweep_empty.csv"
        assert main(["sweep", "--config", str(cfg_path), "--axis", "freq",
                     "--masks", "", "--out", str(out)]) == 0
        assert out.read_text() == "freq_mask,eps,norm,alpha,map,auc,dprime\n"

    def test_freq_sweep_table_shape(self, micro_workdir):
        root, cfg_path = micro_workdir
        out = root / "run" / "sweep_freq.csv"
        assert main(["sweep", "--config", str(cfg_path), "--axis", "freq",
                     "--masks", "none,0:32", "--eps-list", "0.2,0.5",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "freq_mask,eps,norm,alpha,map,auc,dprime"
        # 2 masks x 2 eps + 1 clean row
        assert len(lines) == 1 + 1 + 4
        assert lines[1].startswith("No,-,-,-")
        assert sum(line.startswith("0-32") for line in lines) == 2

    def test_fusion_sweep_rows(self, micro_workdir):
        root, cfg_path = micro_workdir
        out = root / "run" / "sweep_fusion.csv"
        assert main(["sweep", "--config", str(cfg_path), "--axis", "fusion",
                     "--fusions", "audio_only,late", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "fusion,attack,map,auc,dprime"
        assert len(lines) == 5   # 2 fusions x {no, yes}
        assert lines[1].split(",")[:2] == ["audio_only", "no"]
        assert lines[2].split(",")[:2] == ["audio_only", "yes"]

    @pytest.mark.parametrize("auc, dprime", [(0.0, "-inf"), (1.0, "inf")])
    def test_saturated_dprime_keeps_its_sign(self, micro_copy, monkeypatch, auc, dprime):
        """At AUC 0 d-prime is -inf, at AUC 1 it is +inf; a sweep row prints the sign."""
        config, workdir = micro_copy
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        report = compute_report(targets if auc else 1.0 - targets, targets)
        assert report.auc == auc and report.dprime is None

        def saturated_eval(config, workdir, checkpoint, perturbation=None, out=None):
            Path(out).write_text(report.to_json())
            return Path(out)

        _use_cpus(monkeypatch, 1)
        monkeypatch.setattr(pipeline, "run_eval", saturated_eval)
        plan = pipeline.build_sweep_plan("freq", config, masks=[None], eps_list=[0.2])
        out_path, failures = pipeline.run_sweep(config, workdir, plan)
        assert failures == []
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 2        # clean row + one attacked cell
        for row in rows:
            assert row.split(",")[-1] == dprime


def _corrupt_checkpoint(path, key):
    """Drop ``key`` from the checkpoint's JSON index (a tensor entry's for
    offset/shape), or garble the index when ``key`` is None."""
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 4)
    if key is None:
        body = b"{" * n
    else:
        index = json.loads(raw[8:8 + n])
        tensor = next(iter(index["tensors"].values()))
        del (tensor if key in ("offset", "shape") else index)[key]
        body = json.dumps(index).encode()
    path.write_bytes(raw[:4] + struct.pack("<I", len(body)) + body + raw[8 + n:])


def _corrupt_json(path, key, line=0):
    """Drop ``key`` from one JSON line of ``path``, or garble it when ``key`` is None."""
    lines = path.read_text().splitlines()
    if key is None:
        lines[line] = lines[line][:-1]
    else:
        obj = json.loads(lines[line])
        del obj[key]
        lines[line] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = (
    [("checkpoint", k) for k in ("kind", "config", "tensors", "offset", "shape", None)]
    + [("manifest", k) for k in ("id", "features", "video", "labels", "split", "seed",
                                 None)]
    + [("sidecar", k) for k in ("norm", "epsilon", "alpha", "steps", None)])


class TestCorruptInputs:
    @pytest.mark.parametrize("target, key", CORRUPTIONS,
                             ids=[f"{t}-{k or 'json'}" for t, k in CORRUPTIONS])
    def test_missing_key_or_bad_json_is_io_error(self, micro_copy, capsys, target, key):
        _, workdir = micro_copy
        delta = workdir / "zero.avfb"
        atk.save_perturbation(delta, atk.Perturbation(
            delta=np.zeros((40, 64)),
            config=atk.AttackConfig(norm="l2", epsilon=1.0, alpha=0.1, steps=0),
            provenance={"manifest_hash": "x", "steps_run": 0}))
        if target == "checkpoint":
            _corrupt_checkpoint(workdir / "model.ckpt", key)
        elif target == "manifest":
            _corrupt_json(workdir / "manifest.jsonl", key, line=-1)
        else:
            sidecar = workdir / "zero.json"
            sidecar.write_text(json.dumps(json.loads(sidecar.read_text())))  # one line
            _corrupt_json(sidecar, key)
        assert main(["eval", "--config", str(workdir / "config.ini"), "--workdir",
                     str(workdir), "--perturbation", str(delta)]) == 3
        err = capsys.readouterr().err
        assert "i/o error:" in err and "Traceback" not in err
        if key is not None:
            assert repr(key) in err


CLASS_BANK_EDITS = {   # case -> (edit of the parsed classes.json or None for bad JSON; named)
    "not-json": (None, "invalid JSON"),
    "class-no-name": (lambda bank: bank["classes"][0].pop("name"), "'name'"),
    "no-classes": (lambda bank: bank.update(classes=[]), "'classes'"),
}


class TestCorruptDatasetFiles:
    @pytest.mark.parametrize("case", sorted(CLASS_BANK_EDITS))
    def test_bad_class_bank_is_io_error(self, micro_copy, capsys, case):
        _, workdir = micro_copy
        edit, named = CLASS_BANK_EDITS[case]
        path = workdir / "classes.json"
        if edit is None:
            path.write_text("{")
        else:
            bank = json.loads(path.read_text())
            edit(bank)
            path.write_text(json.dumps(bank))
        assert main(["eval", "--config", str(workdir / "config.ini"), "--workdir",
                     str(workdir)]) == 3
        err = capsys.readouterr().err
        assert "i/o error:" in err and "classes.json" in err and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("label", [99, -1], ids=["too-large", "negative"])
    def test_label_out_of_range_is_validation_error(self, micro_copy, capsys, label):
        _, workdir = micro_copy
        manifest = workdir / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        record = json.loads(lines[0])
        record["labels"] = [label]
        lines[0] = json.dumps(record)
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(workdir / "config.ini"), "--workdir",
                     str(workdir), "--out", str(workdir / "bad.ckpt")]) == 4
        err = capsys.readouterr().err
        assert "validation error:" in err and repr(record["id"]) in err
        assert f"label {label}," in err and "Traceback" not in err
        assert not (workdir / "bad.ckpt").exists()


def _edit_checkpoint_index(path, edit):
    """Apply ``edit`` to the checkpoint's parsed JSON index in place."""
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 4)
    index = json.loads(raw[8:8 + n])
    edit(index)
    body = json.dumps(index).encode()
    path.write_bytes(raw[:4] + struct.pack("<I", len(body)) + body + raw[8 + n:])


INDEX_EDITS = {   # case -> (edit, the index key the error names)
    "offset-str": (lambda ix: next(iter(ix["tensors"].values())).update(offset="x"),
                   "offset"),
    "config-list": (lambda ix: ix.update(config=list(ix["config"].values())), "config"),
    "config-unknown-key": (lambda ix: ix["config"].update(bogus=1), "config"),
    "config-no-fusion": (lambda ix: ix["config"].pop("fusion"), "config"),
    "config-bad-fusion": (lambda ix: ix["config"].update(fusion="sideways"), "config"),
    "config-no-heads": (lambda ix: ix["config"].pop("heads"), "config"),
    "config-bad-heads": (lambda ix: ix["config"].update(heads=3), "config"),
    "input_norm-list": (lambda ix: ix.update(input_norm=[0.0]), "input_norm"),
    "input_norm-no-std": (lambda ix: ix["input_norm"].pop("std"), "std"),
    "input_norm-short-mean": (lambda ix: ix["input_norm"].update(mean=[0.0]), "mean"),
    "optimizer-list": (lambda ix: ix.update(optimizer=[0.001]), "optimizer"),
    "optimizer-no-lr": (lambda ix: ix["optimizer"].pop("lr"), "lr"),
    "adam-tensor-missing": (lambda ix: ix["tensors"].pop("adam.m.audio.conv0.w"),
                            "adam.m.audio.conv0.w"),
}


class TestCheckpointIndexTypes:
    @pytest.mark.parametrize("case", sorted(INDEX_EDITS))
    def test_wrong_value_is_io_error(self, micro_copy, tmp_path, capsys, case):
        _, workdir = micro_copy
        edit, key = INDEX_EDITS[case]
        ckpt = tmp_path / "edited.ckpt"
        shutil.copy(workdir / "model.ckpt", ckpt)
        _edit_checkpoint_index(ckpt, edit)
        assert main(["eval", "--config", str(workdir / "config.ini"), "--workdir",
                     str(workdir), "--checkpoint", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert "i/o error:" in err and repr(key) in err and "Traceback" not in err


SIDECAR_EDITS = {   # case -> (key, value written over it)
    "mask-list": ("mask", [1]),
    "mask-end-str": ("mask", {"f_lo": "a", "f_hi": 4, "t_lo": None, "t_hi": None}),
    "mask-one-end": ("mask", {"f_lo": 0, "f_hi": None, "t_lo": None, "t_hi": None}),
    "steps-str": ("steps", "x"),
    "steps-negative": ("steps", -1),
    "epsilon-str": ("epsilon", "x"),
    "epsilon-bool": ("epsilon", True),
    "epsilon-negative": ("epsilon", -1.0),
    "batch_size-str": ("batch_size", "x"),
    "batch_size-zero": ("batch_size", 0),
    "seed-str": ("seed", "x"),
    "random_start-str": ("random_start", "yes"),
    "direction-int": ("direction", 5),
    "direction-unknown": ("direction", "sideways"),
    "norm-int": ("norm", 3),
    "norm-unknown": ("norm", "l5"),
    "manifest_hash-int": ("manifest_hash", 7),
}


class TestSidecarValueTypes:
    @pytest.mark.parametrize("case", sorted(SIDECAR_EDITS))
    def test_wrong_value_is_io_error(self, micro_copy, capsys, case):
        _, workdir = micro_copy
        key, value = SIDECAR_EDITS[case]
        delta = workdir / "zero.avfb"
        atk.save_perturbation(delta, atk.Perturbation(
            delta=np.zeros((40, 64)),
            config=atk.AttackConfig(norm="l2", epsilon=1.0, alpha=0.1, steps=0),
            provenance={"manifest_hash": "x", "steps_run": 0}))
        sidecar = json.loads((workdir / "zero.json").read_text())
        sidecar[key] = value
        (workdir / "zero.json").write_text(json.dumps(sidecar))
        assert main(["eval", "--config", str(workdir / "config.ini"), "--workdir",
                     str(workdir), "--perturbation", str(delta)]) == 3
        err = capsys.readouterr().err
        line = next(ln for ln in err.splitlines() if ln.startswith("i/o error:"))
        assert key in line.rpartition("zero.json")[2]      # named after the path
        assert "Traceback" not in err


REPORT_EDITS = {   # case -> (edit of the parsed report, or None for invalid JSON; key named)
    "not-json": (None, "invalid JSON"),
    "no-aggregate": (lambda r: r.pop("aggregate"), "'aggregate'"),
    "no-classes": (lambda r: r.pop("classes"), "'classes'"),
    "no-meta": (lambda r: r.pop("meta"), "'meta'"),
    "aggregate-list": (lambda r: r.update(aggregate=[0.5]), "'aggregate'"),
    "class-no-ap": (lambda r: r["classes"][0].pop("ap"), "'ap'"),
}


@pytest.mark.parametrize("case", sorted(REPORT_EDITS))
def test_malformed_report_is_io_error(tmp_path, capsys, case):
    edit, named = REPORT_EDITS[case]
    targets = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    good = compute_report(np.array([[0.9, 0.2], [0.1, 0.8], [0.6, 0.3]]), targets)
    (tmp_path / "clean.json").write_text(good.to_json())
    text = good.to_json()[:-1]
    if edit is not None:
        report = json.loads(good.to_json())
        edit(report)
        text = json.dumps(report)
    (tmp_path / "attacked.json").write_text(text)
    assert main(["report", "--clean", str(tmp_path / "clean.json"), "--attacked",
                 str(tmp_path / "attacked.json"), "--out", str(tmp_path / "cmp.csv")]) == 3
    err = capsys.readouterr().err
    assert "i/o error:" in err and "attacked.json" in err and named in err
    assert "Traceback" not in err and not (tmp_path / "cmp.csv").exists()


HEAP_ROUNDS = """
import resource
import numpy as np
from avrobust.cli import keep_heap_mapped

def round_faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 20) for _ in range(20)]     # twenty touched 8-MB arrays
    del arrays
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print(keep_heap_mapped(), round_faults(), round_faults())
"""


def test_heap_policy_keeps_freed_arrays_mapped():
    """A second round of the same large allocations takes almost no page faults."""
    if keep_heap_mapped() is None:
        pytest.skip("the C library has no mallopt")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", HEAP_ROUNDS], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    applied, _, second = out.rsplit(maxsplit=2)
    assert applied == "(1, 1)"
    pages = 20 * (8 << 20) // os.sysconf("SC_PAGE_SIZE")
    assert int(second) < pages // 100


def _use_cpus(monkeypatch, n):
    """Make the worker pool see ``n`` usable CPUs: 1 runs every job in this process."""
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


class TestSweepPool:
    def test_pool_matches_serial_bytes(self, micro_copy, tmp_path, monkeypatch):
        """Pooled 1-BLAS-thread workers write the files a one-process sweep writes."""
        if pipeline._openblas_thread_setter() is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be set; no pool")
        config, workdir = micro_copy
        plan = pipeline.build_sweep_plan("freq", config, masks=[None, (0, 20)],
                                         eps_list=[0.2, 0.5])
        assert sum(attacked for _, _, attacked in plan.cells) == 4
        runs = {}
        for cpus in (1, 2):
            wd = tmp_path / f"cpus{cpus}"
            shutil.copytree(workdir, wd, ignore=shutil.ignore_patterns(
                "delta_*", "report_*", "model_*", "sweep_*"))
            _use_cpus(monkeypatch, cpus)
            _, failures = pipeline.run_sweep(config, wd, plan)
            assert failures == []
            runs[cpus] = {p.name: p.read_bytes() for p in sorted(wd.iterdir())
                          if p.name.startswith(("delta_", "report_", "model_"))
                          or p.name == "sweep_freq.csv"}
        assert len([n for n in runs[1] if n.startswith("delta_")]) == 8   # 4 x avfb+json
        assert runs[1].keys() == runs[2].keys()
        for name in runs[1]:
            assert runs[1][name] == runs[2][name], name


class TestSynthPool:
    """Clips synthesized on pooled workers match a one-process synth."""

    @pytest.fixture(autouse=True)
    def _needs_pool(self):
        if pipeline._openblas_thread_setter() is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be set; no pool")

    def test_pool_matches_serial_bytes(self, micro_workdir, tmp_path, monkeypatch):
        _, cfg_path = micro_workdir
        config, _ = parse_config(cfg_path.read_text())
        runs = {}
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            wd = tmp_path / f"cpus{cpus}"
            pipeline.run_synth(config, wd)
            runs[cpus] = {str(p.relative_to(wd)): p.read_bytes()
                          for p in sorted(wd.rglob("*")) if p.is_file()}
        assert len(runs[1]) == 2 * 20 + 3    # features + video per clip, 3 side files
        assert runs[1].keys() == runs[2].keys()
        for name in runs[1]:
            assert runs[1][name] == runs[2][name], name

    def test_generate_dataset_matches_serial(self, micro_workdir, monkeypatch):
        _, cfg_path = micro_workdir
        config, _ = parse_config(cfg_path.read_text())
        splits = {}
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            splits[cpus] = [pipeline.generate_dataset(config.dataset, split)
                            for split in ("train", "eval")]
        for serial, pooled in zip(splits[1], splits[2]):
            assert serial.ids == pooled.ids
            for name in ("audio", "video", "labels"):
                np.testing.assert_array_equal(getattr(serial, name),
                                              getattr(pooled, name))

    def _fail_in_worker(self, monkeypatch, exc):
        """Make clip eval_00003 raise ``exc``, but only outside this process."""
        _use_cpus(monkeypatch, 2)
        real, parent = pipeline._clip_arrays, os.getpid()

        def clip_arrays(ds, bank, split, index):
            if (split, index) == ("eval", 3) and os.getpid() != parent:
                raise exc
            return real(ds, bank, split, index)

        monkeypatch.setattr(pipeline, "_clip_arrays", clip_arrays)

    def _config(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MICRO + f"\n[paths]\nworkdir = {tmp_path / 'run'}\n")
        return cfg

    def test_validation_error_in_worker_is_exit_4(self, tmp_path, monkeypatch, capsys):
        self._fail_in_worker(monkeypatch, ValidationError("bad clip data"))
        assert main(["synth", "--config", str(self._config(tmp_path))]) == 4
        assert "validation error: bad clip data" in capsys.readouterr().err
        assert not (tmp_path / "run" / "manifest.jsonl").exists()

    def test_programming_error_in_worker_propagates(self, tmp_path, monkeypatch):
        self._fail_in_worker(monkeypatch, TypeError("a bug, not bad data"))
        with pytest.raises(TypeError, match="a bug"):
            main(["synth", "--config", str(self._config(tmp_path))])
        assert not (tmp_path / "run" / "manifest.jsonl").exists()


class TestSweepIsolation:
    """A sweep skips a cell only on AvrobustError; anything else is a bug."""

    def _sweep(self, config, workdir, masks=((0, 20),)):
        plan = pipeline.build_sweep_plan("freq", config, masks=list(masks))
        return pipeline.run_sweep(config, workdir, plan)

    def test_validation_error_is_logged_and_returned(self, micro_copy, monkeypatch):
        config, workdir = micro_copy

        def bad_data(*args, **kwargs):
            raise ValidationError("bad cell data")

        monkeypatch.setattr(pipeline, "run_attack", bad_data)
        out_path, failures = self._sweep(config, workdir)
        assert len(failures) == 1 and "bad cell data" in failures[0]
        assert "bad cell data" in (workdir / "failures.log").read_text()
        assert len(out_path.read_text().splitlines()) == 2   # header + clean row

    def test_programming_error_propagates(self, micro_copy, monkeypatch):
        config, workdir = micro_copy

        def bug(*args, **kwargs):
            raise TypeError("a bug, not bad data")

        monkeypatch.setattr(pipeline, "run_attack", bug)
        with pytest.raises(TypeError):
            self._sweep(config, workdir)
        assert not (workdir / "failures.log").exists()


    def test_validation_errors_through_pool_keep_plan_order(self, micro_copy,
                                                            monkeypatch):
        config, workdir = micro_copy
        _use_cpus(monkeypatch, 2)

        def bad_data(config, workdir, checkpoint, out=None):
            raise ValidationError(f"bad cell data {config.attack.freq_mask}")

        monkeypatch.setattr(pipeline, "run_attack", bad_data)
        out_path, failures = self._sweep(config, workdir, masks=[(0, 20), (20, 40)])
        assert len(failures) == 2
        assert "(0, 20)" in failures[0] and "(20, 40)" in failures[1]
        assert (workdir / "failures.log").read_text() == "\n".join(failures) + "\n"
        assert len(out_path.read_text().splitlines()) == 2   # header + clean row

    def test_programming_error_propagates_through_pool(self, micro_copy, monkeypatch):
        config, workdir = micro_copy
        _use_cpus(monkeypatch, 2)

        def bug(*args, **kwargs):
            raise TypeError("a bug, not bad data")

        monkeypatch.setattr(pipeline, "run_attack", bug)
        with pytest.raises(TypeError):
            self._sweep(config, workdir, masks=[(0, 20), (20, 40)])
        assert not (workdir / "failures.log").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_training_fails_every_row_in_plan_order(self, micro_copy, monkeypatch,
                                                           cpus):
        config, workdir = micro_copy
        _use_cpus(monkeypatch, cpus)

        def no_training(config, workdir, out=None):
            raise ValidationError(f"cannot train {config.model.fusion}")

        monkeypatch.setattr(pipeline, "run_train", no_training)
        plan = pipeline.build_sweep_plan("freq", config, masks=[None, (0, 20)],
                                         eps_list=[0.2, 0.5])
        out_path, failures = pipeline.run_sweep(config, workdir, plan)
        assert out_path.read_text() == "freq_mask,eps,norm,alpha,map,auc,dprime\n"
        error = repr(ValidationError("cannot train audio_only"))
        assert failures == [f"clean: {error}"] + [f"{label}: {error}"
                                                  for label, _, _ in plan.cells]
        assert (workdir / "failures.log").read_text() == "\n".join(failures) + "\n"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_variant_keeps_the_other_rows(self, micro_copy, monkeypatch, cpus):
        config, workdir = micro_copy
        _use_cpus(monkeypatch, cpus)
        train = pipeline.run_train

        def late_fails(config, workdir, out=None):
            if config.model.fusion == "late":
                raise ValidationError("cannot train late")
            return train(config, workdir, out=out)

        monkeypatch.setattr(pipeline, "run_train", late_fails)
        plan = pipeline.build_sweep_plan("fusion", config, fusions=["audio_only", "late"])
        out_path, failures = pipeline.run_sweep(config, workdir, plan)
        rows = out_path.read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["audio_only", "no"],
                                                         ["audio_only", "yes"]]
        error = repr(ValidationError("cannot train late"))
        assert failures == [f"{label}: {error}" for label, _, _ in plan.cells[2:]]


class TestTrainingPath:
    def test_run_train_matches_train_in_memory(self, micro_copy):
        config, workdir = micro_copy
        ckpt = pipeline.run_train(config, workdir, out=workdir / "path.ckpt")
        saved, index, saved_opt = M.load_checkpoint(ckpt)
        model, result = pipeline.train_in_memory(
            config, pipeline.load_split(workdir, "train", config.dataset.classes))
        assert index["step"] == result.steps
        np.testing.assert_array_equal(saved.input_mean, model.input_mean)
        for name, p in model.params.items():
            np.testing.assert_array_equal(saved.params[name].data, p.data)
            np.testing.assert_array_equal(saved_opt.m[name], result.optimizer.m[name])
            np.testing.assert_array_equal(saved_opt.v[name], result.optimizer.v[name])


class TestDeterminism:
    def test_end_to_end_byte_identical(self, tmp_path):
        """Identical config + seeds -> byte-identical artifacts."""
        outputs = []
        for name in ("a", "b"):
            wd = tmp_path / name
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(MICRO.replace("train_clips = 12", "train_clips = 6")
                           .replace("eval_clips = 8", "eval_clips = 4")
                           + f"\n[paths]\nworkdir = {wd}\n")
            assert main(["synth", "--config", str(cfg)]) == 0
            assert main(["train", "--config", str(cfg)]) == 0
            assert main(["attack", "--config", str(cfg)]) == 0
            assert main(["eval", "--config", str(cfg)]) == 0
            assert main(["eval", "--config", str(cfg), "--perturbation",
                         str(wd / "delta.avfb"),
                         "--out", str(wd / "report_attacked.json")]) == 0
            outputs.append(wd)
        a, b = outputs
        for rel in ("manifest.jsonl", "features/train_00000.avfb", "model.ckpt",
                    "loss_curve.csv", "delta.avfb", "delta.json"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
        # reports embed the checkpoint hash; compare everything else
        ra = json.loads((a / "report_clean.json").read_text())
        rb = json.loads((b / "report_clean.json").read_text())
        assert ra["aggregate"] == rb["aggregate"]
        assert ra["classes"] == rb["classes"]
        assert (a / "report_attacked.json").read_bytes() == \
               (b / "report_attacked.json").read_bytes()
