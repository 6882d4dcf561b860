import math
import weakref

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
    grads = ad.backward(loss, params=tensors, tape=tape)
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
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        k = np.full((1, 1, 1, 1), 2.0)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k))
        np.testing.assert_array_equal(out.data, [[[[2.0, 4.0], [6.0, 8.0]]]])

    def test_two_by_two_ones_kernel(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        # direct summation oracle over the single valid placement
        expected = x.sum()
        out = ad.conv2d(ad.Tensor(x[None, None]), ad.Tensor(np.ones((1, 1, 2, 2))))
        assert out.data.shape == (1, 1, 1, 1)
        assert out.item() == expected == 10.0

    def test_output_extents_with_padding(self):
        x = np.zeros((3, 1, 5, 6))
        k = np.zeros((2, 1, 3, 3))
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(k), padding=(1, 1))
        assert out.shape == (3, 2, 5, 6)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(DimensionError):
            ad.conv2d(ad.Tensor(np.zeros((1, 1, 2, 2))), ad.Tensor(np.zeros((1, 1, 4, 4))))

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ad.conv2d(ad.Tensor(np.zeros((1, 2, 4, 4))), ad.Tensor(np.zeros((1, 3, 2, 2))))

    def test_non_4d_input_rejected(self):
        with pytest.raises(DimensionError):
            ad.conv2d(ad.Tensor(np.zeros((1, 4, 4))), ad.Tensor(np.zeros((1, 1, 2, 2))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2, 5, 6))
        k = rng.standard_normal((3, 2, 3, 3))
        grad_of(lambda a, b: ad.reduce_sum(ad.mul(ad.conv2d(a, b, padding=(1, 1)),
                                                  ad.conv2d(a, b, padding=(1, 1)))),
                x, k, rtol=1e-5)


class TestPool2d:
    def test_max_pool(self):
        out = ad.pool2d(ad.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]), (2, 2))
        assert out.item() == 4.0

    def test_remainder_dropped(self):
        x = np.arange(15.0).reshape(1, 1, 3, 5)
        out = ad.pool2d(ad.Tensor(x), (2, 2))
        assert out.shape == (1, 1, 1, 2)

    def test_max_gradient_routes_to_argmax(self):
        x = ad.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]], requires_grad=True)
        with ad.Tape() as tape:
            out = ad.pool2d(x, (2, 2))
        grads = ad.backward(out, params=[x], tape=tape)
        np.testing.assert_array_equal(grads[x], [[[[0.0, 0.0], [0.0, 1.0]]]])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_max_gradient_with_ties_routes_to_first_maximum(self, monkeypatch, threads):
        """With exact ties the gradient is the one at an input whose first
        maximum (row-major in its window) is raised above the others."""
        use_op_threads(monkeypatch, threads)
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=(3, 2, 4, 6)).astype(np.float64)   # many ties
        w = rng.standard_normal((3, 2, 2, 2))

        def loss(a):
            return ad.reduce_sum(ad.mul(ad.pool2d(a, (2, 3)), w))

        # d loss / d pool2d = w: each chunk's backward starts from its rows of w
        _, (grad,) = on_slices(lambda a: ad.pool2d(a, (2, 3)), w, [x])
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
            ad.pool2d(ad.Tensor(np.zeros((1, 1, 2, 2))), (3, 1))

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            ad.pool2d(ad.Tensor(np.zeros((1, 1, 2, 2))), (0, 1))

    def test_non_4d_input_rejected(self):
        with pytest.raises(DimensionError):
            ad.pool2d(ad.Tensor(np.zeros((1, 2, 2))), (1, 1))


def use_op_threads(monkeypatch, n):
    """``n`` op threads and 2-row chunks, so small batches run many chunks."""
    monkeypatch.setattr(ad, "_OP_THREADS", n)
    monkeypatch.setattr(ad, "_CHUNK", 2)
    monkeypatch.setattr(ad, "_executor", None)


def on_slices(op, seed, batched, shared=()):
    """``op(*batched, *shared)`` and the gradients w.r.t. its inputs, with
    each batch chunk of the ``batched`` arrays run on an op thread and
    its own tape, its backward pass started from its rows of ``seed``.
    The ``shared`` arrays' gradients are summed over the batch: each
    chunk's share, added in chunk order, as the model entry points do."""
    split = ad.BatchSplit(len(seed))
    shared = [ad.Tensor(a, requires_grad=True) for a in shared]

    def run(i):
        rows = split.rows[i]
        sliced = [ad.Tensor(a[rows], requires_grad=True) for a in batched]
        with ad.Tape() as tape:
            out = op(*sliced, *shared)
        grads = ad.backward(out, sliced + shared, tape=tape, grad=seed[rows])
        return out.data, [grads[t] for t in sliced], [grads[t] for t in shared]

    parts = split.run(run)
    shared_grads = parts[0][2]
    for p in parts[1:]:
        shared_grads = [total + g for total, g in zip(shared_grads, p[2])]
    return (np.concatenate([p[0] for p in parts]),
            [np.concatenate([p[1][k] for p in parts]) for k in range(len(batched))]
            + shared_grads)


def _block_tail(fused, x, b, window, w):
    """Output, x gradient and b gradient of ``sum(w * tail(x, b))``, where the
    tail is ``add_relu_pool`` or the add -> relu -> max-pool chain it fuses,
    each batch chunk on an op thread: a bias's gradient is summed over
    the batch, a residual branch's is taken per clip."""
    def chain(xt, bt):
        out = ad.relu(ad.add(xt, bt))
        return ad.pool2d(out, window) if window != (1, 1) else out

    tail = (lambda xt, bt: ad.add_relu_pool(xt, bt, window)) if fused else chain
    if b.shape == x.shape:
        out, grads = on_slices(tail, w, [x, b])
    else:
        out, grads = on_slices(tail, w, [x], [b])
    return out, *grads


class TestAddReluPool:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("window", [(1, 1), (2, 3), (3, 4)])
    @pytest.mark.parametrize("data", ["ties", "normal"])
    @pytest.mark.parametrize("b_kind", ["bias", "residual"])
    def test_bytes_equal_the_unfused_chain(self, monkeypatch, threads, window, data, b_kind):
        use_op_threads(monkeypatch, threads)
        rng = np.random.default_rng(6)
        shape = (5, 3, 4, 6)
        b_shape = (3, 1, 1) if b_kind == "bias" else shape
        if data == "ties":      # 0/1 inputs and integer biases: exact ties everywhere
            x = rng.integers(0, 2, size=shape).astype(np.float64)
            b = rng.integers(-1, 2, size=b_shape).astype(np.float64)
        else:
            x = rng.standard_normal(shape)
            b = np.clip(rng.standard_normal(b_shape), -1.0, 1.0)
        x[:, :, :3, :4] = -2.0 - np.abs(x[:, :, :3, :4])   # windows all <= 0 after the add
        w = rng.standard_normal((5, 3, 4 // window[0], 6 // window[1]))
        fused = _block_tail(True, x, b, window, w)
        chain = _block_tail(False, x, b, window, w)
        for got, want in zip(fused, chain):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert (threads == 1) == (ad._executor is None)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 4, 6))
        b = rng.standard_normal((3, 1, 1))
        w = rng.standard_normal((2, 3, 2, 3))
        for window in ((2, 2), (1, 1)):
            ww = w if window == (2, 2) else np.ones(x.shape)
            grad_of(lambda a, c, window=window, ww=ww:
                    ad.reduce_sum(ad.mul(ad.add_relu_pool(a, c, window), ww)), x, b, rtol=1e-5)

    def test_shape_errors(self):
        x = ad.Tensor(np.zeros((1, 2, 4, 4)))
        with pytest.raises(DimensionError):
            ad.add_relu_pool(x, ad.Tensor(np.zeros((3, 1, 1))))
        with pytest.raises(DimensionError):
            ad.add_relu_pool(x, ad.Tensor(np.zeros((2, 2, 4, 4))))   # would broadcast x up
        with pytest.raises(DimensionError):
            ad.add_relu_pool(ad.Tensor(np.zeros((2, 4, 4))), ad.Tensor(np.zeros((2, 1, 1))))
        with pytest.raises(DimensionError):
            ad.add_relu_pool(x, ad.Tensor(np.zeros((2, 1, 1))), (5, 1))
        with pytest.raises(ConfigurationError):
            ad.add_relu_pool(x, ad.Tensor(np.zeros((2, 1, 1))), (0, 1))


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
        grads = ad.backward(out, params=[x], tape=tape)
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
        out = ad.bce_on_probs(ad.sigmoid(ad.Tensor([[0.0]])), np.array([[1.0]]))
        np.testing.assert_allclose(out.item(), math.log(2.0), rtol=1e-12)

    def test_never_nan_for_huge_logits(self):
        z = np.array([[-1e4, -10.0, 0.0, 10.0, 1e4]])
        y = np.array([[1.0, 0.0, 1.0, 1.0, 0.0]])
        out = ad.bce_on_probs(ad.sigmoid(ad.Tensor(z)), y)
        assert math.isfinite(out.item())

    def test_rejects_non_binary_targets(self):
        with pytest.raises(ValidationError):
            ad.bce_on_probs(ad.Tensor([[0.5]]), np.array([[0.5]]))

    def test_probs_form_matches_logits_form(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((2, 5))
        y = (rng.random((2, 5)) < 0.5).astype(np.float64)
        via_probs = ad.bce_on_probs(ad.sigmoid(ad.Tensor(z)), y).item()
        # logit form: softplus(z) - z*y, with softplus(z) = max(z,0) + log1p(exp(-|z|))
        via_logits = np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z))))
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
        grads = ad.backward(loss, params=[x], tape=tape)
        np.testing.assert_array_equal(grads[x], [2.0, 4.0])

    def test_unused_input_gets_zeros(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        unused = ad.Tensor([[5.0]], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.reduce_sum(x)
        grads = ad.backward(loss, params=[x, unused], tape=tape)
        np.testing.assert_array_equal(grads[unused], [[0.0]])

    def test_double_backward_is_state_error(self):
        x = ad.Tensor([1.0], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.reduce_sum(x)
        ad.backward(loss, tape=tape)
        with pytest.raises(StateError):
            ad.backward(loss, tape=tape)

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(DimensionError):
            ad.backward(y, tape=tape)

    def test_tape_is_topologically_ordered(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with ad.Tape() as tape:
            a = ad.mul(x, x)
            b = ad.add(a, x)
            ad.reduce_sum(ad.matmul(b, a))
        seen = set()
        for node in tape.nodes:
            for parent in node.parents:
                # every parent node must have been recorded earlier
                assert parent in seen or parent is x
            seen.add(node)
        assert [node.name for node in tape.nodes] == ["mul", "add", "matmul", "sum"]

    def test_composite_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 4, 8, 8))
        k = rng.standard_normal((3, 4, 3, 3))
        w = rng.standard_normal((48, 5))

        def model(xi, ki, wi):
            h = ad.relu(ad.conv2d(xi, ki, padding=(1, 1)))
            h = ad.pool2d(h, (2, 2))
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
            grads = ad.backward(loss, params=[x, w], tape=tape)
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
            x = rng.standard_normal((1, c, t, f))
            k = rng.standard_normal((2, c, 3, 3))
            grad_of(
                lambda a, b: ad.reduce_mean(
                    ad.sigmoid(ad.pool2d(ad.conv2d(a, b, padding=(1, 1)), (2, 2)))),
                x, k, rtol=1e-4)


class TestRetention:
    """A tape keeps only the arrays its vjps read; the forward pass frees the rest."""

    @staticmethod
    def run(forward, leaves, keep):
        """Record ``forward(watch)`` and replay it from its scalar loss.

        ``watch(t)`` returns ``t`` after taking a weak reference to its
        array, and with ``keep`` a strong reference to ``t`` too.  Returns
        which watched arrays were freed by the end of the forward pass, and
        the gradients of ``leaves``.
        """
        refs, held = [], []

        def watch(t):
            refs.append(weakref.ref(t.data))
            if keep:
                held.append(t)
            return t

        with ad.Tape() as tape:
            loss = forward(watch)
        freed = [ref() is None for ref in refs]
        grads = ad.backward(loss, leaves, tape=tape)
        return freed, [grads[t] for t in leaves]

    def check(self, forward, leaves, freed):
        got, grads = self.run(forward, leaves, keep=False)
        assert got == freed
        kept, reference = self.run(forward, leaves, keep=True)
        assert kept == [False] * len(freed)
        for g, r in zip(grads, reference):
            assert g.tobytes() == r.tobytes()

    def test_conv_output_feeding_add_relu_pool(self):
        rng = np.random.default_rng(31)
        x = ad.Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
        k = ad.Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((3, 1, 1)), requires_grad=True)

        def forward(watch):
            out = ad.add_relu_pool(watch(ad.conv2d(x, k, padding=(1, 1))), b, (2, 2))
            return ad.reduce_sum(ad.mul(out, out))

        self.check(forward, [x, k, b], freed=[True])

    def test_attention_scores(self, monkeypatch):
        rng = np.random.default_rng(32)
        q, k, v = (ad.Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
                   for _ in range(3))
        scale, softmax = ad.scale, ad.softmax

        def forward(watch):
            # the raw scores (scale's input) and the scaled ones (softmax's)
            monkeypatch.setattr(ad, "scale", lambda a, c: scale(watch(a), c))
            monkeypatch.setattr(ad, "softmax", lambda a: softmax(watch(a)))
            out = ad.attention(q, k, v, heads=2)
            return ad.reduce_sum(ad.mul(out, out))

        self.check(forward, [q, k, v], freed=[True, True])

    @pytest.mark.parametrize("frozen", [True, False])
    def test_im2col_columns_kept_only_for_the_kernel_gradient(self, monkeypatch, frozen):
        rng = np.random.default_rng(33)
        x = ad.Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
        k = ad.Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=not frozen)
        im2col = ad._im2col

        def forward(watch):
            def watched(*args):
                cols, to, fo = im2col(*args)
                return watch(cols), to, fo

            monkeypatch.setattr(ad, "_im2col", watched)
            h = ad.conv2d(x, k, padding=(1, 1))
            return ad.reduce_sum(ad.mul(h, h))

        self.check(forward, [x] if frozen else [x, k], freed=[frozen])


class TestGatherConcat:
    def test_gather_rows_forward(self):
        x = ad.Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.gather_rows(x, [0, 0, 3])
        np.testing.assert_array_equal(out.data, [[0, 1, 2], [0, 1, 2], [9, 10, 11]])

    def test_gather_rows_accumulates_gradient(self):
        x = ad.Tensor(np.zeros((3, 2)), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.reduce_sum(ad.gather_rows(x, [1, 1, 2]))
        grads = ad.backward(out, params=[x], tape=tape)
        np.testing.assert_array_equal(grads[x], [[0, 0], [2, 2], [1, 1]])

    def test_concat_gradient(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 2))
        grad_of(lambda x, y: ad.reduce_sum(ad.mul(ad.concat([x, y], axis=1),
                                                  ad.concat([x, y], axis=1))),
                a, b, rtol=1e-6)
