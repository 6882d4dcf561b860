"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 6-8 train
real models on synthetic data and dominate the runtime (criterion 6's
fixture took about 145 s, criterion 8 about 40 s and criterion 7 about
23 s on a 2-core CPU); everything else completes in seconds.
"""

import json

import numpy as np
import pytest

from avrobust import attacks as atk
from avrobust import autodiff as ad
from avrobust import metrics as mx
from avrobust import models as M
from avrobust import pipeline
from avrobust.autodiff import Tensor
from avrobust.cli import main as cli_main
from avrobust.config import ExperimentConfig
from avrobust.container import read_feature_file, tensor_bytes, tensor_from_bytes
from avrobust.errors import FormatError

from gradcheck import finite_difference
from test_attacks import LinearModel, l1_project_bisection
from test_metrics import brute_average_precision, brute_roc_auc


def _report(number, description):
    print(f"\ncriterion {number:02d} PASS: {description}")


# ---------------------------------------------------------------------------
# criterion 1: d-prime formula, paper-anchored


def test_criterion_01_dprime_anchors():
    anchors = [(0.967, 2.598), (0.942, 2.218), (0.865, 1.558), (0.902, 1.830)]
    for auc, expected in anchors:
        got = mx.d_prime(auc)
        assert abs(got - expected) <= 0.005, f"d'({auc}) = {got}, expected {expected}"
    _report(1, "d-prime reproduces all four anchored table values within 0.005")


# ---------------------------------------------------------------------------
# criterion 2: gradient fidelity for every op and every end-to-end model


def _check_grad(fn, *arrays, rtol=1e-4):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with ad.Tape() as tape:
        loss = fn(*tensors)
    grads = ad.backward(loss, params=tensors, tape=tape)
    for i in range(len(arrays)):
        def scalar(x, i=i):
            vals = [a.copy() for a in arrays]
            vals[i] = x
            return fn(*[Tensor(v) for v in vals]).item()
        numeric = finite_difference(scalar, arrays[i], h=1e-5)
        np.testing.assert_allclose(grads[tensors[i]], numeric, rtol=rtol, atol=1e-8)


def test_criterion_02_gradient_fidelity():
    rng = np.random.default_rng(100)

    # each differentiable operation on randomized shapes up to 4x8x8
    x = rng.standard_normal((3, 4)); w = rng.standard_normal((4, 5))
    _check_grad(lambda a, b: ad.reduce_sum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), x, w)
    img = rng.standard_normal((2, 6, 8))[None]; ker = rng.standard_normal((3, 2, 3, 3))
    _check_grad(lambda a, b: ad.reduce_mean(ad.mul(ad.conv2d(a, b, padding=(1, 1)),
                                                   ad.conv2d(a, b, padding=(1, 1)))),
                img, ker)
    spread = rng.standard_normal((2, 6, 8))[None] * 10.0      # max-pool ties out of reach
    _check_grad(lambda a: ad.reduce_sum(ad.mul(ad.pool2d(a, (2, 2)),
                                               ad.pool2d(a, (2, 2)))), spread)
    z = rng.standard_normal((4, 7))
    _check_grad(lambda a: ad.reduce_sum(ad.mul(ad.relu(a), ad.relu(a))), z)
    _check_grad(lambda a: ad.reduce_sum(ad.mul(ad.sigmoid(a), ad.sigmoid(a))), z)
    _check_grad(lambda a: ad.reduce_sum(ad.mul(ad.softmax(a), ad.softmax(a))), z)
    q = rng.standard_normal((4, 6)); k = rng.standard_normal((4, 6)); v = rng.standard_normal((4, 6))
    _check_grad(lambda a, b, c: ad.reduce_sum(ad.mul(ad.attention(a, b, c, heads=2),
                                                     ad.attention(a, b, c, heads=2))),
                q, k, v)
    _check_grad(lambda a: ad.reduce_sum(ad.dropout(a, 0.4, seed=7, training=True)), z)
    y = (rng.random((4, 7)) < 0.5).astype(np.float64)
    p = rng.uniform(0.05, 0.95, (4, 7))
    _check_grad(lambda a: ad.bce_on_probs(a, y), p)

    # end-to-end input gradients: all five fusion stages plus the baseline
    from test_models import toy_config
    audio = rng.standard_normal((2, 8, 16))
    video = rng.standard_normal((2, 4, 3))
    labels = np.zeros((2, 3)); labels[:, 0] = 1.0
    checked = []
    for fusion in M.FusionStage:
        model = M.CsnModel(toy_config(fusion), seed=101)
        vid = None if fusion == M.FusionStage.AUDIO_ONLY else video
        _, grad = model.loss_and_input_grad(audio, labels, video=vid)

        def loss_at(delta, model=model, vid=vid):
            probs = np.clip(model.predict_proba(audio + delta, vid), 1e-7, 1 - 1e-7)
            return float(np.mean(-(labels * np.log(probs)
                                   + (1 - labels) * np.log1p(-probs))))
        numeric = finite_difference(loss_at, np.zeros((8, 16)))
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-9)
        checked.append(fusion.value)
    resnet = M.ResnetModel(M.ResnetConfig(stem_channels=3, blocks=1, pool_time=(2, 2),
                                          pool_freq=(2, 2), classes=3, n_mels=16), seed=102)
    _, grad = resnet.loss_and_input_grad(audio, labels)

    def resnet_loss(delta):
        probs = np.clip(resnet.predict_proba(audio + delta), 1e-7, 1 - 1e-7)
        return float(np.mean(-(labels * np.log(probs) + (1 - labels) * np.log1p(-probs))))
    np.testing.assert_allclose(grad, finite_difference(resnet_loss, np.zeros((8, 16))),
                               rtol=1e-4, atol=1e-9)
    checked.append("resnet")

    # the conv block's fused tail, with a (C,1,1) bias and with a same-shape
    # residual; spread inputs keep max-pool ties and relu kinks out of reach
    x = rng.standard_normal((2, 3, 4, 6)) * 10.0
    for b in (rng.standard_normal((3, 1, 1)) * 10.0, rng.standard_normal(x.shape) * 10.0):
        for window in ((2, 2), (1, 1)):
            _check_grad(lambda a, c, window=window: ad.reduce_sum(
                ad.mul(ad.add_relu_pool(a, c, window), ad.add_relu_pool(a, c, window))), x, b)
    _report(2, f"finite-difference checks pass for all ops and models ({', '.join(checked)})")


# ---------------------------------------------------------------------------
# criterion 3: projection correctness


def test_criterion_03_projections():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        n = int(rng.integers(1, 513))
        v = rng.standard_normal(n) * float(rng.uniform(0.1, 10.0))
        eps = float(rng.uniform(0.05, 5.0))
        np.testing.assert_allclose(atk.project(v, "l1", eps),
                                   l1_project_bisection(v, eps), atol=1e-9)
    for norm in atk.NORMS:
        for _ in range(100):
            v = rng.standard_normal(int(rng.integers(1, 128))) * 5.0
            eps = float(rng.uniform(0.1, 2.0))
            once = atk.project(v, norm, eps)
            np.testing.assert_allclose(atk.project(once, norm, eps), once, atol=1e-12)
    # ball membership at every step of a representative attack per norm
    for norm in atk.NORMS:
        cfg = atk.AttackConfig(norm=norm, epsilon=0.7, alpha=0.1, steps=25)
        delta = np.zeros((5, 8))
        for _ in range(cfg.resolved_steps()):
            delta = atk.pgd_step(delta, rng.standard_normal((5, 8)), cfg)
            value = {"l1": np.abs(delta).sum(), "l2": np.sqrt((delta ** 2).sum()),
                     "linf": np.abs(delta).max()}[norm]
            assert value <= 0.7 + 1e-9
    _report(3, "L1 projection matches the bisection oracle (1000 vectors, 1e-9); "
               "all projections idempotent (1e-12); ball membership holds per step")


# ---------------------------------------------------------------------------
# criterion 4: closed-form linear attack


def test_criterion_04_closed_form_linear():
    rng = np.random.default_rng(104)
    w = rng.uniform(-1.0, 1.0, size=(5, 4))
    w[2, 1] = 0.0
    audio = 0.1 * rng.standard_normal((8, 5, 4))
    targets = np.ones((8, 1))
    eps = 0.4
    cfg = atk.AttackConfig(norm="linf", epsilon=eps, alpha=eps / 25.0, steps=250,
                           direction="descent", batch_size=8, seed=0)
    pert = atk.train_universal_perturbation(LinearModel(w), audio, targets, cfg)
    nz = w != 0.0
    np.testing.assert_allclose(pert.delta[nz], eps * np.sign(w)[nz], atol=1e-6)
    assert pert.delta[2, 1] == 0.0
    _report(4, "converged Linf PGD on a linear model equals eps*sign(w) within 1e-6")


# ---------------------------------------------------------------------------
# criterion 5: metric oracles


def test_criterion_05_metric_oracles():
    rng = np.random.default_rng(105)
    instances = 0
    while instances < 500:
        b = int(rng.integers(2, 65))
        c = int(rng.integers(1, 17))
        scores = rng.random((b, c))
        if rng.random() < 0.3:
            scores = np.round(scores, 1)       # exercise tie handling
        targets = (rng.random((b, c)) < rng.uniform(0.2, 0.8)).astype(float)
        for col in range(c):
            col_t = targets[:, col]
            n_pos = int(col_t.sum())
            if n_pos == 0:
                continue
            got_ap = mx.average_precision(scores[:, col], col_t)
            want_ap = brute_average_precision(list(scores[:, col]), list(col_t))
            assert abs(got_ap - want_ap) <= 1e-9
            if n_pos < b:
                got_auc = mx.roc_auc(scores[:, col], col_t)
                want_auc = brute_roc_auc(list(scores[:, col]), list(col_t))
                assert abs(got_auc - want_auc) <= 1e-9
            instances += 1
    _report(5, f"AP and AUC equal brute-force enumeration within 1e-9 on {instances} instances")


# ---------------------------------------------------------------------------
# criterion 6: trend - attack potency on the default synthetic setup


ATTACK_STEPS = 150


@pytest.fixture(scope="module")
def default_run():
    """Train the default AudioOnly victim (10 classes, 2000 clips) and
    attack it at three L2 radii.  The long pole of the suite."""
    config = ExperimentConfig().with_overrides(train={"epochs": 10, "dropout": 0.1})
    assert config.dataset.classes == 10
    assert config.dataset.train_clips + config.dataset.eval_clips == 2000
    train = pipeline.generate_dataset(config.dataset, "train")
    evals = pipeline.generate_dataset(config.dataset, "eval")
    model, _ = pipeline.train_in_memory(config, train)
    clean = mx.evaluate(model, evals.audio, evals.labels)
    attacked = {}
    perturbations = {}
    for eps in (0.05, 0.1, 0.3):
        cfg = atk.AttackConfig(norm="l2", epsilon=eps, alpha=eps / 25.0,
                               steps=ATTACK_STEPS, batch_size=32, seed=0)
        pert = atk.train_universal_perturbation(model, train.audio, train.labels, cfg)
        attacked[eps] = mx.evaluate(model, evals.audio, evals.labels,
                                    perturbation=pert)
        perturbations[eps] = pert
    return {"config": config, "model": model, "train": train, "evals": evals,
            "clean": clean, "attacked": attacked, "perturbations": perturbations}


def test_criterion_06_attack_potency_trend(default_run):
    clean = default_run["clean"].map
    attacked = {eps: r.map for eps, r in default_run["attacked"].items()}
    line = ", ".join(f"eps={e}: mAP={m:.3f}" for e, m in sorted(attacked.items()))
    assert clean >= 0.8, f"clean mAP {clean:.3f} below 0.8"
    assert attacked[0.1] <= attacked[0.05] + 0.02, "not non-increasing 0.05->0.1"
    assert attacked[0.3] <= attacked[0.1] + 0.02, "not non-increasing 0.1->0.3"
    assert attacked[0.3] <= 0.5 * clean, (
        f"eps=0.3 attacked mAP {attacked[0.3]:.3f} above half of clean {clean:.3f}")
    _report(6, f"clean mAP={clean:.3f}; attacked {line}; "
               f"eps=0.3 ratio={attacked[0.3]/clean:.2f} <= 0.50")


# ---------------------------------------------------------------------------
# criterion 7: trend - band selectivity of masked attacks


def test_criterion_07_band_selectivity():
    informative, uninformative = [], []
    for seed in (0, 1, 2):
        config = ExperimentConfig().with_overrides(
            dataset={"band_lo": 0, "band_width": 4, "band_stride": 4,
                     "timbres": "tone,chirp,noise", "duration": 2.5,
                     "dur_lo": 0.15, "dur_hi": 1.0,
                     "train_clips": 320, "eval_clips": 120, "seed": seed},
            train={"epochs": 10, "dropout": 0.1, "seed": seed})
        train = pipeline.generate_dataset(config.dataset, "train")
        evals = pipeline.generate_dataset(config.dataset, "eval")
        model, _ = pipeline.train_in_memory(config, train)
        row = {}
        for label, mask in (("info", atk.Mask(freq=(0, 40))),
                            ("uninfo", atk.Mask(freq=(40, 64)))):
            cfg = atk.AttackConfig(norm="l2", epsilon=0.3, alpha=0.3 / 25.0,
                                   steps=120, mask=mask, batch_size=32, seed=seed)
            pert = atk.train_universal_perturbation(model, train.audio,
                                                    train.labels, cfg)
            row[label] = mx.evaluate(model, evals.audio, evals.labels,
                                     perturbation=pert).map
        informative.append(row["info"])
        uninformative.append(row["uninfo"])
        print(f"  seed {seed}: informative-mask mAP {row['info']:.3f}, "
              f"uninformative-mask mAP {row['uninfo']:.3f}")
    gap = float(np.mean(uninformative) - np.mean(informative))
    assert gap >= 0.05, f"band-selectivity gap {gap:.3f} below 0.05"
    _report(7, f"informative-band mask is more damaging by {gap:.3f} mAP "
               f"(mean over 3 seeds)")


# ---------------------------------------------------------------------------
# criterion 8: trend - fusion robustness (late vs early under audio attack)


def test_criterion_08_fusion_robustness():
    results = {"early": [], "late": []}
    for seed in (0, 1, 2):
        for fusion in ("early", "late"):
            config = ExperimentConfig().with_overrides(
                dataset={"duration": 2.5, "dur_lo": 0.15, "dur_hi": 1.0,
                         "train_clips": 320, "eval_clips": 120,
                         "video_noise": 0.05, "seed": seed},
                model={"fusion": fusion},
                train={"epochs": 10, "dropout": 0.1, "seed": seed})
            train = pipeline.generate_dataset(config.dataset, "train")
            evals = pipeline.generate_dataset(config.dataset, "eval")
            model, _ = pipeline.train_in_memory(config, train)
            cfg = atk.AttackConfig(norm="l2", epsilon=0.3, alpha=0.3 / 25.0,
                                   steps=120, batch_size=32, seed=seed)
            pert = atk.train_universal_perturbation(
                model, train.audio, train.labels, cfg, video=train.video)
            attacked = mx.evaluate(model, evals.audio, evals.labels,
                                   video=evals.video, perturbation=pert)
            results[fusion].append(attacked.map)
        print(f"  seed {seed}: early attacked mAP {results['early'][-1]:.3f}, "
              f"late attacked mAP {results['late'][-1]:.3f}")
    late = float(np.mean(results["late"]))
    early = float(np.mean(results["early"]))
    assert late >= early, (
        f"late-fusion attacked mAP {late:.3f} below early-fusion {early:.3f}")
    _report(8, f"late-fusion attacked mAP {late:.3f} >= early-fusion {early:.3f} "
               f"(mean over 3 seeds; per-seed values above)")


# ---------------------------------------------------------------------------
# criterion 9: determinism and round-trips


def test_criterion_09_determinism_and_round_trips(tmp_path):
    micro = """
[dataset]
classes = 3
train_clips = 6
eval_clips = 4
duration = 1.0
band_lo = 4
band_width = 8
band_stride = 16
timbres = tone,noise,tone
video_dim = 8
video_windows = 4
[model]
conv_channels = 2,3
pool_time = 2,2
pool_freq = 2,2
transformer_blocks = 1
heads = 2
width = 8
[train]
epochs = 2
batch = 4
dropout = 0.0
[attack]
eps = 0.5
alpha = 0.1
steps = 4
batch = 4
"""
    workdirs = []
    for name in ("run_a", "run_b"):
        wd = tmp_path / name
        cfg_path = tmp_path / f"{name}.ini"
        cfg_path.write_text(micro + f"[paths]\nworkdir = {wd}\n")
        for cmd in (["synth"], ["train"], ["attack"],
                    ["eval"], ["eval", "--perturbation", str(wd / "delta.avfb"),
                               "--out", str(wd / "report_attacked.json")]):
            assert cli_main(cmd + ["--config", str(cfg_path)]) == 0
        workdirs.append(wd)
    a, b = workdirs
    identical = ["manifest.jsonl", "classes.json", "features/train_00000.avfb",
                 "video/eval_00000.avfb", "model.ckpt", "loss_curve.csv",
                 "delta.avfb", "delta.json", "report_attacked.json"]
    for rel in identical:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    # checkpoint and perturbation round-trips are bit-exact
    model_a, _, _ = M.load_checkpoint(a / "model.ckpt")
    model_b, _, _ = M.load_checkpoint(b / "model.ckpt")
    for name in model_a.params:
        np.testing.assert_array_equal(model_a.params[name].data,
                                      model_b.params[name].data)
    pert = atk.load_perturbation(a / "delta.avfb")
    atk.save_perturbation(tmp_path / "delta2.avfb", pert)
    assert (tmp_path / "delta2.avfb").read_bytes() == (a / "delta.avfb").read_bytes()

    # AVFB reader rejects corrupted headers with the documented errors
    good = tensor_bytes(np.ones((3, 3)))
    for corrupt, pattern in ((b"XXXX" + good[4:], "magic"),
                             (good[:4] + bytes([9]) + good[5:], "version"),
                             (good[:5] + bytes([7]) + good[6:], "dtype"),
                             (good[:-5], "truncated")):
        with pytest.raises(FormatError, match=pattern):
            tensor_from_bytes(corrupt)
    bad_path = tmp_path / "bad.avfb"
    bad_path.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(FormatError, match="offset 0"):
        read_feature_file(bad_path)
    _report(9, "identical configs reproduce byte-identical artifacts; "
               "checkpoint/perturbation round-trips bit-exact; corrupt AVFB rejected")


# ---------------------------------------------------------------------------
# criterion 10: masked support over the sweep suite


def test_criterion_10_masked_support(tmp_path):
    micro = f"""
[dataset]
classes = 3
train_clips = 8
eval_clips = 4
duration = 1.0
band_lo = 4
band_width = 8
band_stride = 16
video_dim = 8
video_windows = 4
[model]
conv_channels = 2,3
pool_time = 2,2
pool_freq = 2,2
transformer_blocks = 1
heads = 2
width = 8
[train]
epochs = 2
batch = 4
dropout = 0.0
[attack]
eps = 0.5
alpha = 0.1
steps = 5
batch = 4
[paths]
workdir = {tmp_path / 'sweepwd'}
"""
    cfg_path = tmp_path / "sweep.ini"
    cfg_path.write_text(micro)
    assert cli_main(["synth", "--config", str(cfg_path)]) == 0
    assert cli_main(["sweep", "--config", str(cfg_path), "--axis", "freq",
                     "--masks", "0:20,20:40,40:64", "--eps-list", "0.5"]) == 0
    assert cli_main(["sweep", "--config", str(cfg_path), "--axis", "time",
                     "--masks", "0:20,20:40", "--eps-list", "0.5"]) == 0
    wd = tmp_path / "sweepwd"
    deltas = sorted(wd.glob("delta_*.avfb"))
    assert len(deltas) == 5
    checked = 0
    for path in deltas:
        pert = atk.load_perturbation(path)
        mask = pert.config.mask
        assert mask is not None
        outside = 1.0 - mask.array(pert.delta.shape)
        assert np.all(pert.delta * outside == 0.0), f"{path.name} leaks outside mask"
        assert np.any(pert.delta != 0.0)
        checked += 1
    _report(10, f"all {checked} masked sweep deltas are exactly zero outside "
                f"their declared masks")
