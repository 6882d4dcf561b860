import json
import math
import struct

import numpy as np
import pytest

from avrobust import attacks as atk
from avrobust import autodiff as ad
from avrobust import models as M
from avrobust.autodiff import Tensor
from avrobust.errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    ValidationError,
)
from avrobust.metrics import evaluate

from gradcheck import finite_difference


TOY = dict(conv_channels=(2, 3), pool_time=(2, 2), pool_freq=(2, 2),
           transformer_blocks=1, heads=2, width=8, ff_mult=2, classes=3,
           dropout=0.0, n_mels=16, video_dim=4, early_video_bins=4)


def toy_config(fusion=M.FusionStage.AUDIO_ONLY, **over):
    kw = dict(TOY)
    kw.update(over)
    return M.CsnConfig(fusion=fusion, **kw)


def toy_inputs(seed=0, batch=2, t=8, f=16, n_windows=3, classes=3):
    rng = np.random.default_rng(seed)
    audio = rng.standard_normal((batch, t, f))
    video = rng.standard_normal((batch, 4, n_windows))
    labels = np.zeros((batch, classes))
    labels[:, 0] = 1.0
    return audio, video, labels


class TestConfig:
    def test_pool_time_product_must_be_four(self):
        with pytest.raises(ConfigurationError):
            toy_config(pool_time=(2, 4))

    def test_width_heads_divisibility(self):
        with pytest.raises(ConfigurationError):
            toy_config(heads=3)

    def test_round_trip_checkpoint(self, tmp_path):
        for model in (M.CsnModel(toy_config(M.FusionStage.LATE), seed=0),
                      M.ResnetModel(M.ResnetConfig(stem_channels=4, blocks=1,
                                                   pool_time=(2, 2), pool_freq=(2, 2),
                                                   classes=3, n_mels=16), seed=0)):
            M.save_checkpoint(tmp_path / "model.ckpt", model)
            loaded, _, _ = M.load_checkpoint(tmp_path / "model.ckpt")
            assert loaded.config == model.config


class TestAudioEncoder:
    def test_paper_geometry_400_to_100(self):
        cfg = M.CsnConfig()   # defaults: 64 mel bins, /4 time
        model = M.CsnModel(cfg, seed=0)
        out = model.encode_audio(Tensor(np.zeros((1, 400, 64))))
        assert out.shape == (1, 100, cfg.width)

    def test_toy_geometry_8_to_2(self):
        model = M.CsnModel(toy_config(), seed=0)
        out = model.encode_audio(Tensor(np.zeros((1, 8, 16))))
        assert out.shape == (1, 2, 8)

    def test_frame_count_not_divisible_by_four(self):
        model = M.CsnModel(toy_config(), seed=0)
        with pytest.raises(DimensionError):
            model.encode_audio(Tensor(np.zeros((1, 6, 16))))

    def test_encoder_gradient_matches_finite_differences(self):
        model = M.CsnModel(toy_config(), seed=1)
        audio, _, _ = toy_inputs()

        def forward_sum(x):
            return ad.reduce_sum(ad.mul(model.encode_audio(Tensor(x)),
                                        model.encode_audio(Tensor(x)))).item()

        x_t = Tensor(audio, requires_grad=True)
        with ad.Tape() as tape:
            out = model.encode_audio(x_t)
            loss = ad.reduce_sum(ad.mul(out, out))
        grads = ad.backward(loss, params=[x_t], tape=tape)
        np.testing.assert_allclose(grads[x_t], finite_difference(forward_sum, audio),
                                   rtol=1e-4, atol=1e-8)


class TestTransformerBlock:
    def test_zero_output_weights_identity(self):
        model = M.CsnModel(toy_config(), seed=2)
        model.params["audio.tf0.wo"].data[:] = 0.0
        model.params["audio.tf0.w2"].data[:] = 0.0
        model.params["audio.tf0.b2"].data[:] = 0.0
        h = Tensor(np.random.default_rng(0).standard_normal((2, 5, 8)))
        out = model.transformer_block(h, "audio.tf0")
        np.testing.assert_array_equal(out.data, h.data)

    def test_shape_preserved(self):
        model = M.CsnModel(toy_config(), seed=3)
        for t in (1, 4, 9):
            h = Tensor(np.zeros((2, t, 8)))
            assert model.transformer_block(h, "audio.tf0").shape == (2, t, 8)

    def test_frame_permutation_equivariance(self):
        # no positional encoding: permuting frames permutes outputs
        model = M.CsnModel(toy_config(), seed=4)
        rng = np.random.default_rng(1)
        h = rng.standard_normal((1, 6, 8))
        perm = rng.permutation(6)
        out = model.transformer_block(Tensor(h), "audio.tf0").data
        out_perm = model.transformer_block(Tensor(h[:, perm]), "audio.tf0").data
        np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-12)


class TestAttentionPool:
    def test_uniform_attention_constant_prob(self):
        model = M.CsnModel(toy_config(), seed=5)
        p = 0.73
        model.params["audio.pool.wa"].data[:] = 0.0
        model.params["audio.pool.ba"].data[:] = 0.0
        model.params["audio.pool.wp"].data[:] = 0.0
        model.params["audio.pool.bp"].data[:] = np.log(p / (1 - p))
        h = Tensor(np.random.default_rng(2).standard_normal((2, 7, 8)))
        out = model.attention_pool(h)
        np.testing.assert_allclose(out.data, p, rtol=1e-12)

    def test_single_frame_returns_frame_probs(self):
        model = M.CsnModel(toy_config(), seed=6)
        h = np.random.default_rng(3).standard_normal((1, 1, 8))
        pooled = model.attention_pool(Tensor(h)).data
        wp = model.params["audio.pool.wp"].data
        bp = model.params["audio.pool.bp"].data
        frame = 1.0 / (1.0 + np.exp(-(h[0, 0] @ wp + bp)))
        np.testing.assert_allclose(pooled[0], frame, atol=1e-12)

    def test_outputs_in_open_unit_interval(self):
        model = M.CsnModel(toy_config(), seed=7)
        rng = np.random.default_rng(4)
        for _ in range(5):
            h = Tensor(rng.standard_normal((3, 6, 8)) * 10)
            out = model.attention_pool(h).data
            assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_pool_permutation_invariance(self):
        model = M.CsnModel(toy_config(), seed=8)
        rng = np.random.default_rng(5)
        h = rng.standard_normal((1, 6, 8))
        perm = rng.permutation(6)
        a = model.attention_pool(Tensor(h)).data
        b = model.attention_pool(Tensor(h[:, perm])).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestModelForward:
    def test_parameter_count_reported(self):
        model = M.CsnModel(toy_config(), seed=34)
        assert model.parameter_count() > 0

    def test_audio_only_ignores_video(self):
        model = M.CsnModel(toy_config(), seed=9)
        audio, video, _ = toy_inputs()
        out1 = model.predict_proba(audio, None)
        out2 = model.predict_proba(audio, video)
        out3 = model.predict_proba(audio, video * 100.0)
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(out1, out3)

    def test_fusion_requires_video(self):
        model = M.CsnModel(toy_config(M.FusionStage.LATE), seed=10)
        audio, _, _ = toy_inputs()
        with pytest.raises(ValidationError):
            model.predict_proba(audio, None)

    def test_late_fusion_is_mean_of_branches(self):
        model = M.CsnModel(toy_config(M.FusionStage.LATE), seed=11)
        audio, video, _ = toy_inputs()
        fused = model.predict_proba(audio, video)
        audio_t = Tensor(audio)
        h = model.encode_audio(audio_t)
        for i in range(model.config.transformer_blocks):
            h = model.transformer_block(h, f"audio.tf{i}")
        pa = model.attention_pool(h, "audio.pool").data
        pv = model.video_branch(Tensor(video)).data
        np.testing.assert_allclose(fused, 0.5 * (pa + pv), atol=1e-15)

    def test_early_fusion_video_gradient_nonzero(self):
        model = M.CsnModel(toy_config(M.FusionStage.EARLY), seed=12)
        audio, video, labels = toy_inputs()
        video_t = Tensor(video, requires_grad=True)
        with ad.Tape() as tape:
            probs = model.forward(Tensor(audio), video_t)
            loss = ad.bce_on_probs(probs, labels)
        grads = ad.backward(loss, params=[video_t], tape=tape)
        assert np.any(grads[video_t] != 0.0)

    @pytest.mark.parametrize("fusion", list(M.FusionStage))
    def test_input_gradient_matches_finite_differences(self, fusion):
        model = M.CsnModel(toy_config(fusion), seed=13)
        audio, video, labels = toy_inputs(batch=2)
        vid = None if fusion == M.FusionStage.AUDIO_ONLY else video
        _, grad = model.loss_and_input_grad(audio, labels, video=vid)

        def loss_at(delta):
            x = audio + delta
            probs = model.predict_proba(x, vid)
            p = np.clip(probs, 1e-7, 1 - 1e-7)
            return float(np.mean(-(labels * np.log(p) + (1 - labels) * np.log1p(-p))))

        numeric = finite_difference(loss_at, np.zeros((8, 16)))
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-9)

    def test_single_clip_input_gradient_is_the_batch_of_one_gradient(self):
        model = M.CsnModel(toy_config(), seed=15)
        audio, _, labels = toy_inputs(batch=1)
        loss, grad = model.loss_and_input_grad(audio[0], labels)
        loss_batch, grad_batch = model.loss_and_input_grad(audio, labels)
        assert grad.shape == (8, 16)
        assert loss == loss_batch
        assert grad.tobytes() == grad_batch.tobytes()

    def test_probabilities_in_unit_interval_all_fusions(self):
        audio, video, _ = toy_inputs(batch=3)
        for fusion in M.FusionStage:
            model = M.CsnModel(toy_config(fusion), seed=14)
            vid = None if fusion == M.FusionStage.AUDIO_ONLY else video
            out = model.predict_proba(audio, vid)
            assert out.shape == (3, 3)
            assert np.all(out > 0.0) and np.all(out < 1.0)


class _InputEcho(M._ModelBase):
    """Returns each clip's input as its scores, so a test reads exactly
    what the entry points feed the forward pass."""

    params = {}

    def forward(self, audio, video=None, training=False, seed_base=0):
        return ad.reshape(audio, (audio.shape[0], -1))


class TestDeltaPath:
    """The one place a delta is checked and added to a batch."""

    def test_delta_is_added_exactly(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 8, 16))
        delta = rng.standard_normal((8, 16)) * 0.1

        def seen(clips, d):
            return _InputEcho().predict_proba(clips, delta=d).reshape(clips.shape)

        np.testing.assert_array_equal(seen(x, np.zeros((8, 16))), x)
        # exact on dyadic values, far outside the features' range: no clipping or rounding
        x_dyadic = np.round(x * 8.0) / 8.0
        d_dyadic = np.round(delta * 8.0) / 8.0 * 1e3
        np.testing.assert_array_equal(seen(x_dyadic, d_dyadic) - x_dyadic,
                                      np.broadcast_to(d_dyadic, x.shape))
        np.testing.assert_allclose(seen(x, delta) - x, np.broadcast_to(delta, x.shape),
                                   atol=1e-15)
        masked = delta * atk.Mask(freq=(0, 8)).array((8, 16))
        np.testing.assert_array_equal(seen(x, masked)[:, :, 8:], x[:, :, 8:])

    @pytest.mark.parametrize("shape", [(9, 16), (16,), (1, 16)], ids=["9xF", "F", "1xF"])
    @pytest.mark.parametrize("entry", ["predict_proba", "loss_and_input_grad", "evaluate"])
    def test_mismatched_delta_is_a_dimension_error(self, entry, shape):
        # (16,) and (1,16) would broadcast onto every frame; (9,16) onto nothing
        model = M.CsnModel(toy_config(), seed=16)
        audio, _, labels = toy_inputs(batch=3)
        delta = np.zeros(shape)
        call = {"predict_proba": lambda: model.predict_proba(audio, delta=delta),
                "loss_and_input_grad": lambda: model.loss_and_input_grad(audio, labels,
                                                                         delta=delta),
                "evaluate": lambda: evaluate(model, audio, labels, perturbation=delta)}
        with pytest.raises(DimensionError, match="perturbation shape"):
            call[entry]()


class TestResnet:
    def test_zeroed_residual_branches_reduce_to_stem(self):
        cfg = M.ResnetConfig(stem_channels=4, blocks=2, pool_time=(2, 2, 1),
                             pool_freq=(2, 2, 1), classes=3, n_mels=16)
        model = M.ResnetModel(cfg, seed=0)
        for i in range(cfg.blocks):
            for j in (1, 2):
                model.params[f"block{i}.conv{j}.w"].data[:] = 0.0
                model.params[f"block{i}.conv{j}.b"].data[:] = 0.0
        audio = np.random.default_rng(0).standard_normal((2, 8, 16))
        got = model.predict_proba(audio)

        # oracle: stem conv + relu + pools + head, computed directly
        x = Tensor(audio)
        h = ad.relu(ad.add(ad.conv2d(ad.reshape(x, (2, 1, 8, 16)),
                                     model.params["stem.w"], padding=(1, 1)),
                           model.params["stem.b"]))
        h = ad.pool2d(h, (2, 2))
        h = ad.pool2d(h, (2, 2))
        pooled = ad.reduce_mean(ad.reduce_mean(h, axis=-1), axis=-1)
        expect = ad.sigmoid(ad.add(ad.matmul(pooled, model.params["head.w"]),
                                   model.params["head.b"])).data
        np.testing.assert_allclose(got, expect, atol=1e-15)

    def test_output_range(self):
        cfg = M.ResnetConfig(stem_channels=4, blocks=1, pool_time=(2, 2),
                             pool_freq=(2, 2), classes=3, n_mels=16)
        model = M.ResnetModel(cfg, seed=1)
        out = model.predict_proba(np.random.default_rng(1).standard_normal((2, 8, 16)))
        assert np.all(out > 0) and np.all(out < 1)

    def test_input_gradient_matches_finite_differences(self):
        cfg = M.ResnetConfig(stem_channels=3, blocks=1, pool_time=(2, 2),
                             pool_freq=(2, 2), classes=3, n_mels=16)
        model = M.ResnetModel(cfg, seed=2)
        audio, _, labels = toy_inputs(batch=2)
        _, grad = model.loss_and_input_grad(audio, labels)

        def loss_at(delta):
            p = np.clip(model.predict_proba(audio + delta), 1e-7, 1 - 1e-7)
            return float(np.mean(-(labels * np.log(p) + (1 - labels) * np.log1p(-p))))

        numeric = finite_difference(loss_at, np.zeros((8, 16)))
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-9)


def make_overfit_set(n=20, classes=3, t=8, f=16, seed=0):
    rng = np.random.default_rng(seed)
    prototypes = rng.standard_normal((classes, t, f))
    labels = np.zeros((n, classes))
    audio = np.zeros((n, t, f))
    for i in range(n):
        c = i % classes
        labels[i, c] = 1.0
        audio[i] = prototypes[c] + 0.1 * rng.standard_normal((t, f))
    return audio.astype(np.float32), labels


class TestTraining:
    def test_overfits_toy_set(self):
        audio, labels = make_overfit_set()
        model = M.CsnModel(toy_config(), seed=20)
        loss0, _ = model.loss_and_param_grads(audio[:8].astype(np.float64), None,
                                              labels[:8], training=False)
        result = M.train_model(model, audio, labels, steps=200, batch_size=8,
                               lr=1e-3, seed=0)
        final = result.loss_curve[-1][1]
        assert final < 0.25 * loss0

    def test_bit_identical_runs(self):
        audio, labels = make_overfit_set()

        def run():
            model = M.CsnModel(toy_config(dropout=0.2), seed=21)
            M.train_model(model, audio, labels, steps=40, batch_size=8, lr=1e-3, seed=5)
            return {k: p.data.copy() for k, p in model.params.items()}

        p1, p2 = run(), run()
        for name in p1:
            np.testing.assert_array_equal(p1[name], p2[name])

    def test_seed_changes_trajectory(self):
        audio, labels = make_overfit_set()
        model_a = M.CsnModel(toy_config(dropout=0.2), seed=22)
        model_b = M.CsnModel(toy_config(dropout=0.2), seed=22)
        M.train_model(model_a, audio, labels, steps=20, batch_size=8, seed=1)
        M.train_model(model_b, audio, labels, steps=20, batch_size=8, seed=2)
        diffs = [np.max(np.abs(model_a.params[n].data - model_b.params[n].data))
                 for n in model_a.params]
        assert max(diffs) > 0.0

    def test_gradient_balancing_equalizes_norms(self):
        audio, labels = make_overfit_set()
        video = np.random.default_rng(6).standard_normal((20, 4, 3)).astype(np.float32)
        model = M.CsnModel(toy_config(M.FusionStage.LATE), seed=23)
        result = M.train_model(model, audio, labels, video=video, steps=15,
                               batch_size=8, seed=3)
        assert result.balance_log, "fusion training must balance gradients"
        for _, na, nv in result.balance_log:
            assert abs(na - nv) <= 1e-9

    def test_balance_gradients_function(self):
        rng = np.random.default_rng(7)
        grads = {"audio.a": rng.standard_normal((3, 3)),
                 "audio.b": rng.standard_normal(4),
                 "video.c": 10.0 * rng.standard_normal((2, 5))}
        M.balance_gradients(grads)
        na = np.sqrt(sum(np.sum(g * g) for n, g in grads.items() if n.startswith("audio.")))
        nv = np.sqrt(sum(np.sum(g * g) for n, g in grads.items() if n.startswith("video.")))
        assert abs(na - nv) <= 1e-9

    def test_late_fusion_trains_video_branch(self):
        audio, labels = make_overfit_set(n=8)
        video = np.random.default_rng(8).standard_normal((8, 4, 3)).astype(np.float32)
        model = M.CsnModel(toy_config(M.FusionStage.LATE), seed=24)
        _, grads = model.loss_and_param_grads(audio.astype(np.float64),
                                              video.astype(np.float64), labels)
        video_norm = sum(np.abs(g).sum() for n, g in grads.items()
                         if n.startswith("video."))
        assert video_norm > 0.0

    def test_resnet_trains(self):
        audio, labels = make_overfit_set(n=8)
        model = M.ResnetModel(M.ResnetConfig(stem_channels=4, blocks=1, pool_time=(2, 2),
                                             pool_freq=(2, 2), classes=3, n_mels=16),
                              seed=0)
        result = M.train_model(model, audio, labels, steps=2, batch_size=4, seed=0)
        assert result.steps == 2 and not result.balance_log
        assert model.predict_proba(audio).shape == (8, 3)

    def test_non_finite_loss_names_its_step(self, monkeypatch):
        audio, labels = make_overfit_set()
        model = M.CsnModel(toy_config(), seed=26)
        forward, steps = model.forward, []
        step_3 = M._derive_seed(0, 3)      # train_model's dropout seed for step 3

        def poisoned(*args, seed_base=0, **kwargs):
            # called once per batch slice, so steps are told apart by their seed
            if seed_base not in steps:
                steps.append(seed_base)
            probs = forward(*args, seed_base=seed_base, **kwargs)
            return ad.scale(probs, math.nan) if seed_base == step_3 else probs

        monkeypatch.setattr(model, "forward", poisoned)
        with pytest.raises(ValidationError, match="step 3 of 5"):
            M.train_model(model, audio, labels, steps=5, batch_size=8, seed=0)
        assert len(steps) == 3 and steps[-1] == step_3

    def test_empty_split_rejected(self):
        model = M.CsnModel(toy_config(), seed=25)
        with pytest.raises(ValidationError):
            M.train_model(model, np.zeros((0, 8, 16)), np.zeros((0, 3)), steps=1)


class TestCheckpoint:
    def test_round_trip_forward_bitwise(self, tmp_path):
        audio, video, labels = toy_inputs()
        model = M.CsnModel(toy_config(M.FusionStage.LATE, dropout=0.2), seed=30)
        M.train_model(model, audio.astype(np.float32), labels, video=video,
                      steps=10, batch_size=2, seed=4)
        before = model.predict_proba(audio, video)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, model, step=10, rng_state={"seed": 4, "step": 10})
        loaded, index, _ = M.load_checkpoint(path)
        np.testing.assert_array_equal(loaded.predict_proba(audio, video), before)
        assert index["step"] == 10

    def test_optimizer_state_round_trip(self, tmp_path):
        audio, labels = make_overfit_set(n=8)
        model = M.CsnModel(toy_config(), seed=31)
        opt = M.train_model(model, audio, labels, steps=5, batch_size=4,
                            seed=0).optimizer
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, model, optimizer=opt, step=5)
        _, index, opt2 = M.load_checkpoint(path)
        assert opt2 is not None and opt2.t == opt.t
        np.testing.assert_array_equal(opt2.m["audio.proj.w"], opt.m["audio.proj.w"])

    def test_truncated_file_rejected(self, tmp_path):
        model = M.CsnModel(toy_config(), seed=32)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, model)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 40])
        with pytest.raises(FormatError):
            M.load_checkpoint(path)

    def test_class_mismatch_names_tensor(self, tmp_path):
        model = M.CsnModel(toy_config(), seed=33)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, model)
        raw = path.read_bytes()
        (json_len,) = struct.unpack_from("<I", raw, 4)
        index = json.loads(raw[8:8 + json_len])
        index["config"]["classes"] = 5
        payload = json.dumps(index, sort_keys=True).encode()
        path.write_bytes(raw[:4] + struct.pack("<I", len(payload)) + payload
                         + raw[8 + json_len:])
        with pytest.raises(FormatError, match="pool"):
            M.load_checkpoint(path)

    def test_unknown_model_type_and_stored_kind(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot checkpoint model of type"):
            M.save_checkpoint(tmp_path / "echo.ckpt", _InputEcho())
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, M.CsnModel(toy_config(), seed=35))
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"kind": "csn"', b'"kind": "vgg"', 1))
        with pytest.raises(FormatError, match="unknown checkpoint kind 'vgg'"):
            M.load_checkpoint(path)
