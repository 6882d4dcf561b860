import dataclasses
import json

import numpy as np
import pytest

from avrobust import attacks as atk
from avrobust import autodiff as ad
from avrobust import models as M
from avrobust.autodiff import Tensor
from avrobust.errors import ConfigurationError, DimensionError, ValidationError

from test_models import make_overfit_set, toy_config


def l1_project_bisection(v, eps):
    """Independent oracle: bisect on theta so sum(max(|v|-theta,0)) == eps."""
    v = np.asarray(v, dtype=np.float64)
    if np.abs(v).sum() <= eps:
        return v.copy()
    lo, hi = 0.0, float(np.abs(v).max())
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if np.maximum(np.abs(v) - mid, 0.0).sum() > eps:
            lo = mid
        else:
            hi = mid
    theta = (lo + hi) / 2.0
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


class LinearModel:
    """Single-logit linear scorer z = <w, x + delta> over flattened features.

    Its loss is the batch-mean logit-form BCE, softplus(z) - y*z, and its
    delta-gradient the closed form mean(sigmoid(z) - y) * w.
    """

    def __init__(self, w):
        self.w = np.asarray(w, dtype=np.float64)

    def loss_and_input_grad(self, audio, targets, video=None, delta=None):
        audio = np.asarray(audio, dtype=np.float64)
        if delta is None:
            delta = np.zeros(audio.shape[1:])
        z = (audio + delta).reshape(audio.shape[0], -1) @ self.w.reshape(-1)
        y = np.asarray(targets, dtype=np.float64).reshape(-1)
        loss = np.mean(np.logaddexp(0.0, z) - y * z)
        sigmoid = np.exp(-np.logaddexp(0.0, -z))
        return float(loss), np.mean(sigmoid - y) * self.w


class TestProject:
    def test_l2_radial_scaling(self):
        np.testing.assert_allclose(atk.project([6.0, 8.0], "l2", 5.0), [3.0, 4.0])

    def test_linf_clamp(self):
        np.testing.assert_allclose(atk.project([0.5, -2.0], "linf", 1.0), [0.5, -1.0])

    def test_l1_sort_threshold_example(self):
        # bisection oracle confirms theta = 3 for this instance
        got = atk.project([3.0, 4.0], "l1", 1.0)
        np.testing.assert_allclose(got, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(l1_project_bisection([3.0, 4.0], 1.0), [0.0, 1.0],
                                   atol=1e-9)

    def test_inside_ball_untouched(self):
        v = np.array([0.1, -0.2, 0.05])
        for norm in atk.NORMS:
            np.testing.assert_array_equal(atk.project(v, norm, 1.0), v)

    def test_l1_matches_bisection_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 513))
            v = rng.standard_normal(n) * float(rng.uniform(0.1, 10.0))
            eps = float(rng.uniform(0.05, 5.0))
            got = atk.project(v, "l1", eps)
            want = l1_project_bisection(v, eps)
            np.testing.assert_allclose(got, want, atol=1e-9)
            assert np.abs(got).sum() <= eps + 1e-9

    def test_idempotence_all_norms(self):
        rng = np.random.default_rng(1)
        for norm in atk.NORMS:
            for _ in range(50):
                v = rng.standard_normal(int(rng.integers(1, 64))) * 5.0
                eps = float(rng.uniform(0.1, 2.0))
                once = atk.project(v, norm, eps)
                twice = atk.project(once, norm, eps)
                np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_bad_radius(self):
        with pytest.raises(ConfigurationError):
            atk.project([1.0], "l2", 0.0)

    def test_preserves_shape(self):
        v = np.random.default_rng(2).standard_normal((5, 7))
        for norm in atk.NORMS:
            assert atk.project(v, norm, 0.5).shape == (5, 7)


class TestNormalizeGradient:
    def test_l2_unit_scaling(self):
        np.testing.assert_allclose(atk.normalize_gradient([3.0, 4.0], "l2"), [0.6, 0.8])

    def test_linf_sign(self):
        np.testing.assert_allclose(atk.normalize_gradient([3.0, -4.0], "linf"), [1.0, -1.0])

    def test_linf_scale_mode(self):
        np.testing.assert_allclose(
            atk.normalize_gradient([3.0, -4.0], "linf", linf_mode="scale"), [0.75, -1.0])

    def test_l1_scaling(self):
        np.testing.assert_allclose(atk.normalize_gradient([3.0, -1.0], "l1"), [0.75, -0.25])

    def test_zero_gradient_guard(self):
        for norm in atk.NORMS:
            out = atk.normalize_gradient(np.zeros(4), norm)
            np.testing.assert_array_equal(out, np.zeros(4))
            assert np.all(np.isfinite(out))


class TestPgdStep:
    def test_zero_gradient_fixed_point(self):
        cfg = atk.AttackConfig(norm="l2", epsilon=1.0, alpha=0.1)
        delta = np.array([[0.2, -0.1]])
        out = atk.pgd_step(delta, np.zeros((1, 2)), cfg)
        np.testing.assert_array_equal(out, delta)

    def test_single_unconstrained_step(self):
        cfg = atk.AttackConfig(norm="l2", epsilon=1.0, alpha=0.01)
        out = atk.pgd_step(np.zeros(2), np.array([0.6, 0.8]), cfg)
        np.testing.assert_allclose(out, [0.006, 0.008], atol=1e-15)

    def test_mask_support_invariant(self):
        mask = atk.Mask(freq=(0, 20))
        cfg = atk.AttackConfig(norm="l2", epsilon=5.0, alpha=0.5, mask=mask)
        rng = np.random.default_rng(3)
        delta = np.zeros((40, 64))
        for _ in range(20):
            delta = atk.pgd_step(delta, rng.standard_normal((40, 64)), cfg)
            assert np.all(delta[:, 20:] == 0.0)
            assert np.any(delta[:, :20] != 0.0)

    def test_ball_membership_every_step(self):
        rng = np.random.default_rng(4)
        for norm in atk.NORMS:
            cfg = atk.AttackConfig(norm=norm, epsilon=0.5, alpha=0.2)
            delta = np.zeros((6, 6))
            for _ in range(30):
                delta = atk.pgd_step(delta, rng.standard_normal((6, 6)), cfg)
                value = {"l1": np.abs(delta).sum(),
                         "l2": np.sqrt((delta ** 2).sum()),
                         "linf": np.abs(delta).max()}[norm]
                assert value <= 0.5 + 1e-9

    def test_shape_mismatch(self):
        cfg = atk.AttackConfig()
        with pytest.raises(DimensionError):
            atk.pgd_step(np.zeros((2, 2)), np.zeros((3, 2)), cfg)


class TestMask:
    def test_validate_bounds(self):
        atk.Mask(freq=(0, 64), time=(0, 400)).validate((400, 64))
        with pytest.raises(ValidationError):
            atk.Mask(freq=(0, 65)).validate((400, 64))
        with pytest.raises(ValidationError):
            atk.Mask(time=(10, 10)).validate((400, 64))

    def test_array_support(self):
        m = atk.Mask(freq=(2, 4), time=(1, 3)).array((5, 6))
        assert m.sum() == 4.0
        assert m[1, 2] == 1.0 and m[0, 2] == 0.0 and m[1, 4] == 0.0

    def test_dict_round_trip(self):
        for mask in (atk.Mask(freq=(0, 20)), atk.Mask(time=(0, 200)),
                     atk.Mask(freq=(20, 40), time=(100, 300))):
            assert atk.Mask.from_dict(mask.to_dict()) == mask
        assert atk.Mask.from_dict(atk.Mask().to_dict()) is None


class TestClosedFormLinear:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.w = rng.uniform(-1.0, 1.0, size=(4, 3))
        self.w[1, 2] = 0.0                      # exercise the w == 0 carve-out
        self.audio = 0.1 * rng.standard_normal((6, 4, 3))
        self.targets = np.ones((6, 1))

    def _converged_delta(self, direction):
        eps = 0.5
        cfg = atk.AttackConfig(norm="linf", epsilon=eps, alpha=eps / 20.0,
                               steps=200, direction=direction, batch_size=6, seed=0)
        pert = atk.train_universal_perturbation(
            LinearModel(self.w), self.audio, self.targets, cfg)
        return pert.delta, eps

    def test_descent_form_converges_to_eps_sign_w(self):
        # literal minus-sign update on a positive-label BCE objective
        delta, eps = self._converged_delta("descent")
        nz = self.w != 0.0
        np.testing.assert_allclose(delta[nz], eps * np.sign(self.w)[nz], atol=1e-6)
        assert delta[1, 2] == 0.0

    def test_ascent_form_converges_to_negative_eps_sign_w(self):
        # ascending the loss with target 1 pushes the logit down
        delta, eps = self._converged_delta("ascent")
        nz = self.w != 0.0
        np.testing.assert_allclose(delta[nz], -eps * np.sign(self.w)[nz], atol=1e-6)


class TestUniversal:
    def setup_method(self):
        self.audio, self.labels = make_overfit_set(n=16)
        self.model = M.CsnModel(toy_config(), seed=40)
        M.train_model(self.model, self.audio, self.labels, steps=120,
                      batch_size=8, lr=2e-3, seed=0)

    def test_zero_steps_is_noop(self):
        cfg = atk.AttackConfig(norm="l2", epsilon=1.0, alpha=0.1, steps=0)
        pert = atk.train_universal_perturbation(self.model, self.audio,
                                                self.labels, cfg)
        np.testing.assert_array_equal(pert.delta, np.zeros((8, 16)))

    def test_constraints_hold_and_loss_increases(self):
        cfg = atk.AttackConfig(norm="l2", epsilon=2.0, alpha=0.2, steps=40,
                               batch_size=8, seed=1)
        seen = []
        pert = atk.train_universal_perturbation(
            self.model, self.audio, self.labels, cfg,
            step_hook=lambda s, d: seen.append(np.sqrt((d ** 2).sum())))
        assert len(seen) == 40
        assert all(v <= 2.0 + 1e-9 for v in seen)
        clean_loss, _ = self.model.loss_and_input_grad(self.audio, self.labels)
        attacked_loss, _ = self.model.loss_and_input_grad(
            self.audio, self.labels, delta=pert.delta)
        assert attacked_loss > clean_loss

    def test_masked_support_exact(self):
        cfg = atk.AttackConfig(norm="l2", epsilon=2.0, alpha=0.2, steps=10,
                               mask=atk.Mask(freq=(0, 8), time=(2, 6)),
                               batch_size=8, seed=2)
        pert = atk.train_universal_perturbation(self.model, self.audio,
                                                self.labels, cfg)
        outside = 1.0 - cfg.mask.array((8, 16))
        assert np.all(pert.delta * outside == 0.0)
        assert np.any(pert.delta != 0.0)

    def test_deterministic(self):
        cfg = atk.AttackConfig(norm="l2", epsilon=1.0, alpha=0.1, steps=15,
                               batch_size=8, seed=3)
        p1 = atk.train_universal_perturbation(self.model, self.audio, self.labels, cfg)
        p2 = atk.train_universal_perturbation(self.model, self.audio, self.labels, cfg)
        np.testing.assert_array_equal(p1.delta, p2.delta)

    def test_save_load_round_trip(self, tmp_path):
        cfg = atk.AttackConfig(norm="l2", epsilon=1.5, alpha=0.1, steps=8,
                               mask=atk.Mask(freq=(2, 10)), batch_size=8, seed=4)
        pert = atk.train_universal_perturbation(self.model, self.audio,
                                                self.labels, cfg)
        path = tmp_path / "delta.avfb"
        atk.save_perturbation(path, pert)
        back = atk.load_perturbation(path)
        np.testing.assert_array_equal(back.delta, pert.delta)   # bit-exact (float64)
        assert back.config.norm == "l2"
        assert back.config.mask == cfg.mask
        assert back.provenance["manifest_hash"] == pert.provenance["manifest_hash"]

    def test_sidecar_keeps_every_config_field(self, tmp_path):
        cfg = atk.AttackConfig(norm="linf", epsilon=0.7, alpha=0.05, steps=3,
                               mask=atk.Mask(freq=(1, 5), time=(0, 4)), seed=9,
                               direction="descent", linf_normalize="scale",
                               random_start=True, batch_size=5)
        defaults = atk.AttackConfig()
        for field in dataclasses.fields(atk.AttackConfig):   # every field non-default
            assert getattr(cfg, field.name) != getattr(defaults, field.name), field.name
        delta = np.zeros((8, 16))
        delta[:4, 1:5] = 0.25
        pert = atk.Perturbation(delta=delta, config=cfg,
                                provenance={"manifest_hash": "x", "steps_run": 3})
        path = tmp_path / "delta.avfb"
        atk.save_perturbation(path, pert)
        assert atk.load_perturbation(path).config == cfg

        # a sidecar written before these three keys existed loads with the defaults
        sidecar = json.loads(path.with_suffix(".json").read_text())
        for key in ("linf_normalize", "random_start", "batch_size"):
            del sidecar[key]
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        assert atk.load_perturbation(path).config == dataclasses.replace(
            cfg, linf_normalize="sign", random_start=False, batch_size=32)


class TestMultimodalGradient:
    def test_audio_only_matches_plain_step(self):
        # degenerate fusion: the fused gradient IS the audio gradient
        audio, labels = make_overfit_set(n=4)
        model = M.CsnModel(toy_config(), seed=41)
        _, g1 = model.loss_and_input_grad(audio.astype(np.float64), labels)
        _, g2 = model.loss_and_input_grad(audio.astype(np.float64), labels,
                                          video=None)
        np.testing.assert_array_equal(g1, g2)

    def test_late_fusion_half_gradient_of_audio_branch(self):
        # With a sum-of-probabilities objective the mean aggregation makes
        # the fused input gradient exactly half the audio branch's.
        model = M.CsnModel(toy_config(M.FusionStage.LATE), seed=42)
        rng = np.random.default_rng(8)
        audio = rng.standard_normal((2, 8, 16))
        video = rng.standard_normal((2, 4, 3))

        def fused_sum_grad():
            x = Tensor(audio, requires_grad=True)
            with ad.Tape() as tape:
                out = model.forward(x, Tensor(video))
                loss = ad.reduce_sum(out)
            return ad.backward(loss, params=[x], tape=tape)[x]

        def audio_branch_sum_grad():
            x = Tensor(audio, requires_grad=True)
            with ad.Tape() as tape:
                h = model.encode_audio(x)
                for i in range(model.config.transformer_blocks):
                    h = model.transformer_block(h, f"audio.tf{i}")
                loss = ad.reduce_sum(model.attention_pool(h, "audio.pool"))
            return ad.backward(loss, params=[x], tape=tape)[x]

        np.testing.assert_allclose(fused_sum_grad(), 0.5 * audio_branch_sum_grad(),
                                   rtol=1e-12, atol=1e-15)

    def test_video_input_does_not_leak_into_audio_gradient_path(self):
        # Changing the video input changes the gradient only through the
        # model output, never through a direct video term in the update.
        model = M.CsnModel(toy_config(M.FusionStage.LATE), seed=43)
        rng = np.random.default_rng(9)
        audio = rng.standard_normal((2, 8, 16))
        labels = np.zeros((2, 3))
        labels[:, 1] = 1.0
        video_a = rng.standard_normal((2, 4, 3))
        # zero video-branch pool weights -> video branch output constant
        for name in ("video.pool.wp", "video.pool.wa"):
            model.params[name].data[:] = 0.0
        _, g_a = model.loss_and_input_grad(audio, labels, video=video_a)
        _, g_b = model.loss_and_input_grad(audio, labels, video=video_a * 3.0)
        np.testing.assert_allclose(g_a, g_b, atol=1e-12)
