"""Self-tests of the benchmark's output checks.

Each check must pass on a valid output of the program and fail on a
deliberately corrupted copy of it.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import struct
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np   # noqa: E402
import pytest        # noqa: E402

import checks as C   # noqa: E402
from avrobust import attacks as atk, metrics as mx, models as M   # noqa: E402
from avrobust.container import read_feature_file, write_feature_file   # noqa: E402


def fails(fn, *args, **kwargs):
    with pytest.raises(C.CheckFailed):
        fn(*args, **kwargs)


# -- AVFB -------------------------------------------------------------------


def test_feature_file_flipped_extent(tmp_path):
    path = tmp_path / "x.avfb"
    write_feature_file(path, np.arange(40 * 64, dtype=np.float32).reshape(40, 64))
    C.check_feature_file(path, (40, 64), "float32", read_feature_file)
    raw = bytearray(path.read_bytes())
    raw[8:24] = struct.pack("<2Q", 64, 40)          # flip the two extents
    path.write_bytes(bytes(raw))
    fails(C.check_feature_file, path, (40, 64), "float32", read_feature_file)


def test_feature_file_reader_disagreement(tmp_path):
    path = tmp_path / "x.avfb"
    write_feature_file(path, np.ones((4, 8), dtype=np.float32))
    C.check_feature_file(path, (4, 8), "float32", read_feature_file)
    fails(C.check_feature_file, path, (4, 8), "float32", lambda p: np.zeros((4, 8), "f4"))
    raw = bytearray(path.read_bytes())
    raw[7] = 1                                      # reserved byte
    path.write_bytes(bytes(raw))
    fails(C.parse_avfb, bytes(raw))


# -- ranking metrics ----------------------------------------------------------


def _report(seed=0, n=40, classes=5):
    rng = np.random.default_rng(seed)
    labels = (rng.random((n, classes)) < 0.3).astype(float)
    labels[0] = 1.0
    labels[1] = 0.0
    scores = np.clip(0.5 * labels + rng.random((n, classes)) * 0.7, 0.0, 1.0)
    report = json.loads(mx.compute_report(scores, labels).to_json())
    return report, scores, labels


def test_reference_metrics_agree_with_brute_force():
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 4, 30).astype(float)          # many ties
    targets = (rng.random(30) < 0.4).astype(float)
    pos, neg = scores[targets == 1], scores[targets == 0]
    pairs = [(p > q) + 0.5 * (p == q) for p in pos for q in neg]
    assert C.ref_auc(scores, targets) == pytest.approx(np.mean(pairs), abs=1e-12)
    order = sorted(range(30), key=lambda i: (-scores[i], i))
    hits = np.cumsum(targets[order])
    precisions = [hits[r] / (r + 1) for r in range(30) if targets[order[r]] == 1]
    assert C.ref_average_precision(scores, targets) == pytest.approx(np.mean(precisions))


def test_report_shuffled_score_column():
    report, scores, labels = _report()
    C.check_report(report, scores, labels)
    shuffled = scores.copy()
    shuffled[:, 2] = np.random.default_rng(1).permutation(shuffled[:, 2])
    fails(C.check_report, report, shuffled, labels)


def test_report_aggregates_tampered():
    report, scores, labels = _report()
    for key, bump in (("map", 1e-6), ("auc", 1e-6), ("dprime", 1e-4)):
        bad = json.loads(json.dumps(report))
        bad["aggregate"][key] += bump
        fails(C.check_report, bad, scores, labels)
    bad = json.loads(json.dumps(report))
    bad["classes"][0]["ap"] = None                  # drops a defined class
    fails(C.check_report, bad, scores, labels)


# -- perturbations ------------------------------------------------------------


def _delta_file(tmp_path, freq=(0, 40)):
    cfg = atk.AttackConfig(norm="l2", epsilon=0.3, mask=atk.Mask(freq=freq))
    rng = np.random.default_rng(0)
    delta = atk.project(rng.standard_normal((8, 64)), "l2", 0.3) * cfg.mask.array((8, 64))
    path = tmp_path / "delta.avfb"
    atk.save_perturbation(path, atk.Perturbation(delta, cfg, {"manifest_hash": "x"}))
    return path, delta


def test_delta_scaled_past_eps(tmp_path):
    path, delta = _delta_file(tmp_path)
    C.check_delta(path, (8, 64), eps=0.3, freq=(0, 40))
    scale = 0.3 / np.sqrt(np.sum(delta ** 2)) * 1.01
    write_feature_file(path, delta * scale, dtype="float64")
    fails(C.check_delta, path, (8, 64), eps=0.3, freq=(0, 40))


def test_delta_outside_mask_or_wrong_mask(tmp_path):
    path, delta = _delta_file(tmp_path)
    fails(C.check_delta, path, (8, 64), eps=0.3, freq=(40, 64))
    fails(C.check_delta, path, (8, 64), eps=0.15, freq=(0, 40))
    leaked = delta * 0.5
    leaked[3, 50] = 1e-3
    write_feature_file(path, leaked, dtype="float64")
    fails(C.check_delta, path, (8, 64), eps=0.3, freq=(0, 40))


# -- gradients ----------------------------------------------------------------


def _small_model():
    model = M.CsnModel(M.CsnConfig(conv_channels=(2, 2, 2, 2), transformer_blocks=1,
                                   width=8, heads=2, classes=3, dropout=0.0), seed=0)
    rng = np.random.default_rng(0)
    audio = rng.standard_normal((2, 8, 64))
    labels = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return model, audio, labels


def test_input_gradient_sign_flipped():
    model, audio, labels = _small_model()
    delta = np.zeros((8, 64))
    _, grad = model.loss_and_input_grad(audio, labels, delta=delta)

    def loss_at(coord, offset):
        d = delta.copy()
        d[coord] += offset
        return model.loss_and_input_grad(audio, labels, delta=d)[0]

    coords = C.top_coords(grad, 4)
    C.check_finite_differences(loss_at, grad, coords)
    fails(C.check_finite_differences, loss_at, -grad, coords)


def test_param_gradient_sign_flipped():
    model, audio, labels = _small_model()
    _, grads = model.loss_and_param_grads(audio, None, labels, training=False)
    param = model.params["audio.tf0.wq"]

    def loss_at(coord, offset):
        saved = param.data
        param.data = saved.copy()
        param.data[coord] += offset
        try:
            return model.loss_and_param_grads(audio, None, labels, training=False)[0]
        finally:
            param.data = saved

    coords = C.top_coords(grads["audio.tf0.wq"], 3)
    C.check_finite_differences(loss_at, grads["audio.tf0.wq"], coords)
    fails(C.check_finite_differences, loss_at, -grads["audio.tf0.wq"], coords)


# -- run artifacts ------------------------------------------------------------


def test_loss_curve_not_falling():
    C.check_loss_curve("step,loss\n10,0.5\n20,0.4\n")
    fails(C.check_loss_curve, "step,loss\n10,0.4\n20,0.5\n")
    fails(C.check_loss_curve, "step,loss\n10,0.4\n")
    fails(C.check_loss_curve, "step,loss\n10,0.4\n20,nan\n")


def test_sweep_csv_rows_and_failures_log(tmp_path):
    head = "freq_mask,eps,norm,alpha,map,auc,dprime\n"
    text = head + "No,-,-,-,0.5,0.6,0.3\nNo,0.1,l2,0.01,0.4,0.5,0.0\n"
    C.check_sweep_csv(text, 1, tmp_path)
    fails(C.check_sweep_csv, text, 2, tmp_path)
    (tmp_path / "failures.log").write_text("cell: boom\n")
    fails(C.check_sweep_csv, text, 1, tmp_path)


def test_checkpoint_stored_lossy(tmp_path, monkeypatch):
    model, audio, labels = _small_model()
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, model, step=3)
    C.check_checkpoint_round_trip(path, tmp_path / "again.ckpt")
    real = M.tensor_bytes                           # a writer that rounds to float32
    monkeypatch.setattr(M, "tensor_bytes", lambda a, dtype: real(a, dtype="float32"))
    M.save_checkpoint(path, model, step=3)
    monkeypatch.undo()
    fails(C.check_checkpoint_round_trip, path, tmp_path / "again.ckpt")


def test_rounds_must_reproduce():
    C.check_same_artifacts([{"a": "1", "b": "2"}, {"a": "1", "b": "2"}])
    fails(C.check_same_artifacts, [{"a": "1", "b": "2"}, {"a": "1", "b": "3"}])
    fails(C.check_same_artifacts, [{"a": "1"}, {"a": "1", "b": "2"}])
