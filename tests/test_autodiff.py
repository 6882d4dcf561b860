import math

import numpy as np
import pytest

from avrobust import autodiff as ad
from avrobust.errors import (
    ConfigurationError,
    DimensionError,
    StateError,
    ValidationError,
)

from gradcheck import assert_grad_matches, finite_difference


def grad_of(fn, *arrays, rtol=1e-4, h=1e-5):
    """Run fn under a tape and finite-difference check each input's gradient."""
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    with ad.Tape() as tape:
        loss = fn(*tensors)
    grads = tape.backward(loss, params=tensors)
    for i, t in enumerate(tensors):
        def scalar(x, i=i):
            vals = [a.copy() for a in arrays]
            vals[i] = x
            return fn(*[ad.Tensor(v) for v in vals]).item()
        assert_grad_matches(grads[t], scalar, arrays[i], rtol=rtol, h=h)
    return grads


class TestTensor:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValidationError):
            ad.Tensor([1.0, np.nan])
        with pytest.raises(ValidationError):
            ad.Tensor([np.inf])

    def test_shape_matches_data_length(self):
        t = ad.Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.size == 6


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, ad.Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_times_column_summation(self):
        # direct summation oracle: 1*1 + 2*1
        expected = sum(x * y for x, y in zip([1.0, 2.0], [1.0, 1.0]))
        out = ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0], [1.0]]))
        assert out.data.shape == (1, 1)
        assert out.item() == expected == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        grad_of(lambda x, y: ad.reduce_sum(ad.matmul(x, y)), a, b, rtol=1e-6)

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 3))
        grad_of(lambda x, y: ad.reduce_sum(ad.matmul(x, y)), a, b, rtol=1e-6)


class TestConv2d:
    def test_one_by_one_kernel_scales(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        k = np.full((1, 1, 1, 1), 2.0)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k))
        np.testing.assert_array_equal(out.data, [[[2.0, 4.0], [6.0, 8.0]]])

    def test_two_by_two_ones_kernel(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        # direct summation oracle over the single valid placement
        expected = x.sum()
        out = ad.conv2d(ad.Tensor(x[None]), ad.Tensor(np.ones((1, 1, 2, 2))))
        assert out.data.shape == (1, 1, 1)
        assert out.item() == expected == 10.0

    def test_output_extents_with_padding(self):
        x = np.zeros((1, 5, 6))
        k = np.zeros((2, 1, 3, 3))
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k), padding=(1, 1))
        assert out.shape == (2, 5, 6)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(DimensionError):
            ad.conv2d(ad.Tensor(np.zeros((1, 2, 2))), ad.Tensor(np.zeros((1, 1, 4, 4))))

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ad.conv2d(ad.Tensor(np.zeros((2, 4, 4))), ad.Tensor(np.zeros((1, 3, 2, 2))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 5, 6))
        k = rng.standard_normal((3, 2, 3, 3))
        grad_of(lambda a, b: ad.reduce_sum(ad.mul(ad.conv2d(a, b, padding=(1, 1)),
                                                  ad.conv2d(a, b, padding=(1, 1)))),
                x, k, rtol=1e-5)


class TestPool2d:
    def test_max_pool(self):
        out = ad.pool2d(ad.Tensor([[[1.0, 2.0], [3.0, 4.0]]]), (2, 2), mode="max")
        assert out.item() == 4.0

    def test_mean_pool(self):
        # direct mean oracle
        expected = np.mean([1.0, 2.0, 3.0, 4.0])
        out = ad.pool2d(ad.Tensor([[[1.0, 2.0], [3.0, 4.0]]]), (2, 2), mode="mean")
        assert out.item() == expected == 2.5

    def test_remainder_dropped(self):
        x = np.arange(15.0).reshape(1, 3, 5)
        out = ad.pool2d(ad.Tensor(x), (2, 2), mode="max")
        assert out.shape == (1, 1, 2)

    def test_max_gradient_routes_to_argmax(self):
        x = ad.Tensor([[[1.0, 2.0], [3.0, 4.0]]], requires_grad=True)
        with ad.Tape() as tape:
            out = ad.pool2d(x, (2, 2), mode="max")
        grads = tape.backward(out, params=[x])
        np.testing.assert_array_equal(grads[x], [[[0.0, 0.0], [0.0, 1.0]]])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_max_gradient_with_ties_routes_to_first_maximum(self, monkeypatch, threads):
        """With exact ties the gradient is the one at an input whose first
        maximum (row-major in its window) is raised above the others."""
        monkeypatch.setattr(ad, "_OP_THREADS", threads)
        monkeypatch.setattr(ad, "_SPLIT_MIN", 0)
        monkeypatch.setattr(ad, "_executor", None)
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=(3, 2, 4, 6)).astype(np.float64)   # many ties
        w = rng.standard_normal((3, 2, 2, 2))

        def loss(a):
            return ad.reduce_sum(ad.mul(ad.pool2d(a, (2, 3), "max"), w))

        xt = ad.Tensor(x, requires_grad=True)
        with ad.Tape() as tape:
            out = loss(xt)
        grad = tape.backward(out, params=[xt])[xt]
        windows = x.reshape(3, 2, 2, 2, 2, 3).transpose(0, 1, 2, 4, 3, 5).reshape(3, 2, 2, 2, 6)
        assert np.any((windows == windows.max(axis=-1, keepdims=True)).sum(axis=-1) > 1)
        first = windows.argmax(axis=-1)                # numpy's argmax takes the first
        raised = windows.copy()
        np.put_along_axis(raised, first[..., None], windows.max(axis=-1)[..., None] + 0.5,
                          axis=-1)
        raised = raised.reshape(3, 2, 2, 2, 2, 3).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
        numeric = finite_difference(lambda a: loss(ad.Tensor(a)).item(), raised)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)

    def test_window_exceeds_input(self):
        with pytest.raises(DimensionError):
            ad.pool2d(ad.Tensor(np.zeros((1, 2, 2))), (3, 1))

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            ad.pool2d(ad.Tensor(np.zeros((1, 2, 2))), (0, 1))

    def test_mean_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 6))
        grad_of(lambda a: ad.reduce_sum(ad.mul(ad.pool2d(a, (2, 3), "mean"),
                                               ad.pool2d(a, (2, 3), "mean"))),
                x, rtol=1e-6)


class TestPointwise:
    def test_sigmoid_symmetry(self):
        assert ad.sigmoid(ad.Tensor([0.0])).data[0] == 0.5

    def test_softmax_symmetry(self):
        out = ad.softmax(ad.Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [0.5, 0.5])

    def test_relu_value_and_subgradient(self):
        x = ad.Tensor([-3.0, 3.0], requires_grad=True)
        with ad.Tape() as tape:
            out = ad.reduce_sum(ad.relu(x))
        grads = tape.backward(out, params=[x])
        np.testing.assert_array_equal(grads[x], [0.0, 1.0])
        assert ad.relu(ad.Tensor([-3.0])).data[0] == 0.0

    def test_softmax_normalizes_on_random_input(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.standard_normal((3, 7)) * rng.uniform(0.1, 50)
            y = ad.softmax(ad.Tensor(x)).data
            assert np.all(y >= 0)
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)


class TestAttention:
    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(5)
        k = np.tile(rng.standard_normal((1, 4)), (5, 1))
        q = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        out = ad.attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), heads=2)
        np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (5, 1)), atol=1e-12)

    def test_single_frame_returns_values(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((1, 6))
        v = rng.standard_normal((1, 6))
        out = ad.attention(ad.Tensor(q), ad.Tensor(q), ad.Tensor(v), heads=3)
        np.testing.assert_allclose(out.data, v, atol=1e-14)

    def test_indivisible_heads(self):
        x = ad.Tensor(np.zeros((2, 5)))
        with pytest.raises(ConfigurationError):
            ad.attention(x, x, x, heads=2)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((4, 6))
        k = rng.standard_normal((4, 6))
        v = rng.standard_normal((4, 6))
        grad_of(lambda a, b, c: ad.reduce_sum(ad.mul(ad.attention(a, b, c, heads=2),
                                                     ad.attention(a, b, c, heads=2))),
                q, k, v, rtol=1e-5)


class TestDropout:
    def test_rate_zero_identity(self):
        x = ad.Tensor([1.0, 2.0])
        assert ad.dropout(x, 0.0, seed=1, training=True) is x

    def test_inference_identity(self):
        x = ad.Tensor([1.0, 2.0])
        assert ad.dropout(x, 0.9, seed=1, training=False) is x

    def test_bad_rate(self):
        with pytest.raises(ConfigurationError):
            ad.dropout(ad.Tensor([1.0]), 1.0, seed=0, training=True)
        with pytest.raises(ConfigurationError):
            ad.dropout(ad.Tensor([1.0]), -0.1, seed=0, training=True)

    def test_expected_value_preserved(self):
        # Monte-Carlo oracle: mean over 10^4 seeded draws within 2%
        x = np.full((4, 4), 3.0)
        total = np.zeros_like(x)
        n = 10_000
        for seed in range(n):
            total += ad.dropout(ad.Tensor(x), 0.4, seed=seed, training=True).data
        np.testing.assert_allclose(total / n, x, rtol=0.02)

    def test_seeded_determinism(self):
        x = ad.Tensor(np.arange(12.0).reshape(3, 4))
        a = ad.dropout(x, 0.5, seed=42, training=True).data
        b = ad.dropout(x, 0.5, seed=42, training=True).data
        np.testing.assert_array_equal(a, b)


class TestBce:
    def test_logit_zero_target_one(self):
        out = ad.bce_with_logits(ad.Tensor([[0.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(out.item(), math.log(2.0), rtol=1e-12)

    def test_saturation_high_logit(self):
        out = ad.bce_with_logits(ad.Tensor([[50.0]]), np.array([[1.0]]))
        assert 0.0 <= out.item() < 1e-20
        assert math.isfinite(out.item())

    def test_stable_low_logit(self):
        # stable-form oracle: softplus(50) = 50 + log1p(exp(-50))
        expected = 50.0 + math.log1p(math.exp(-50.0))
        out = ad.bce_with_logits(ad.Tensor([[-50.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(out.item(), expected, rtol=1e-12)

    def test_never_nan_for_huge_logits(self):
        z = np.array([[-1e4, -10.0, 0.0, 10.0, 1e4]])
        y = np.array([[1.0, 0.0, 1.0, 1.0, 0.0]])
        out = ad.bce_with_logits(ad.Tensor(z), y)
        assert math.isfinite(out.item())

    def test_rejects_non_binary_targets(self):
        with pytest.raises(ValidationError):
            ad.bce_with_logits(ad.Tensor([[0.0]]), np.array([[0.5]]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((3, 4))
        y = (rng.random((3, 4)) < 0.5).astype(np.float64)
        grad_of(lambda a: ad.bce_with_logits(a, y), z, rtol=1e-6)

    def test_probs_form_matches_logits_form(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((2, 5))
        y = (rng.random((2, 5)) < 0.5).astype(np.float64)
        via_probs = ad.bce_on_probs(ad.sigmoid(ad.Tensor(z)), y).item()
        via_logits = ad.bce_with_logits(ad.Tensor(z), y).item()
        np.testing.assert_allclose(via_probs, via_logits, rtol=1e-9)

    def test_probs_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        p = rng.uniform(0.05, 0.95, (3, 3))
        y = (rng.random((3, 3)) < 0.5).astype(np.float64)
        grad_of(lambda a: ad.bce_on_probs(a, y), p, rtol=1e-6)


class TestBackward:
    def test_sum_of_squares(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.mul(x, x))
        grads = tape.backward(loss, params=[x])
        np.testing.assert_array_equal(grads[x], [2.0, 4.0])

    def test_unused_input_gets_zeros(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        unused = ad.Tensor([[5.0]], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.reduce_sum(x)
        grads = tape.backward(loss, params=[x, unused])
        np.testing.assert_array_equal(grads[unused], [[0.0]])

    def test_double_backward_is_state_error(self):
        x = ad.Tensor([1.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.reduce_sum(x)
        tape.backward(loss)
        with pytest.raises(StateError):
            tape.backward(loss)

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(DimensionError):
            tape.backward(y)

    def test_tape_is_topologically_ordered(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with ad.Tape() as tape:
            a = ad.mul(x, x)
            b = ad.add(a, x)
            ad.reduce_sum(ad.matmul(b, a))
        seen = {id(x)}
        for node in tape.nodes:
            for inp in node.inputs:
                # every non-leaf input must have been produced earlier
                assert id(inp) in seen or not inp.requires_grad
            seen.add(id(node.output))

    def test_composite_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 4, 8, 8))
        k = rng.standard_normal((3, 4, 3, 3))
        w = rng.standard_normal((48, 5))

        def model(xi, ki, wi):
            h = ad.relu(ad.conv2d(xi, ki, padding=(1, 1)))
            h = ad.pool2d(h, (2, 2), mode="max")
            h = ad.reshape(h, (1, 48))
            h = ad.sigmoid(ad.matmul(h, wi))
            return ad.reduce_sum(ad.mul(h, h))

        grad_of(model, x, k, w, rtol=1e-4)

    def test_forward_backward_deterministic(self):
        rng = np.random.default_rng(12)
        x_data = rng.standard_normal((3, 5))
        w_data = rng.standard_normal((5, 4))

        def run():
            x = ad.Tensor(x_data, requires_grad=True)
            w = ad.Tensor(w_data, requires_grad=True)
            with ad.Tape() as tape:
                h = ad.dropout(ad.relu(ad.matmul(x, w)), 0.3, seed=7, training=True)
                loss = ad.reduce_mean(ad.mul(h, h))
            grads = tape.backward(loss, params=[x, w])
            return loss.item(), grads[x].copy(), grads[w].copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)

    def test_randomized_op_gradients(self):
        # randomized shapes up to 4x8x8 across the op set
        rng = np.random.default_rng(13)
        for trial in range(3):
            c = int(rng.integers(1, 4))
            t = int(rng.integers(4, 8))
            f = int(rng.integers(4, 8))
            x = rng.standard_normal((c, t, f))
            k = rng.standard_normal((2, c, 3, 3))
            grad_of(
                lambda a, b: ad.reduce_mean(
                    ad.sigmoid(ad.pool2d(ad.conv2d(a, b, padding=(1, 1)), (2, 2), "mean"))),
                x, k, rtol=1e-4)


class TestGatherConcat:
    def test_gather_rows_forward(self):
        x = ad.Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.gather_rows(x, [0, 0, 3])
        np.testing.assert_array_equal(out.data, [[0, 1, 2], [0, 1, 2], [9, 10, 11]])

    def test_gather_rows_accumulates_gradient(self):
        x = ad.Tensor(np.zeros((3, 2)), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.reduce_sum(ad.gather_rows(x, [1, 1, 2]))
        grads = tape.backward(out, params=[x])
        np.testing.assert_array_equal(grads[x], [[0, 0], [2, 2], [1, 1]])

    def test_concat_gradient(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 2))
        grad_of(lambda x, y: ad.reduce_sum(ad.mul(ad.concat([x, y], axis=1),
                                                  ad.concat([x, y], axis=1))),
                a, b, rtol=1e-6)
