import numpy as np
import pytest

from avrobust import autodiff as ad
from avrobust.errors import DimensionError
from avrobust.optim import Adam


def test_first_step_is_signed_lr():
    # bias-corrected first step: -lr * g / (|g| + ~eps) ~= -lr * sign(g) for |g| >> eps
    p = ad.Tensor([10.0, -4.0, 2.0], requires_grad=True)
    g = np.array([3.0, -0.5, 1e3])
    opt = Adam({"p": p}, lr=0.1)
    before = p.data.copy()
    opt.step({"p": g})
    np.testing.assert_allclose(p.data - before, -0.1 * np.sign(g), rtol=1e-6)


def test_zero_gradient_is_fixed_point():
    p = ad.Tensor([[1.0, 2.0]], requires_grad=True)
    opt = Adam({"p": p}, lr=0.5)
    for _ in range(50):
        opt.step({"p": np.zeros((1, 2))})
    np.testing.assert_array_equal(p.data, [[1.0, 2.0]])


def test_bit_identical_trajectories():
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal((4, 3)) for _ in range(100)]

    def run():
        p = ad.Tensor(np.ones((4, 3)), requires_grad=True)
        opt = Adam({"p": p}, lr=1e-2)
        for g in grads:
            opt.step({"p": g})
        return p.data

    np.testing.assert_array_equal(run(), run())


def test_shape_mismatch_rejected():
    p = ad.Tensor([1.0, 2.0], requires_grad=True)
    opt = Adam({"p": p})
    with pytest.raises(DimensionError):
        opt.step({"p": np.zeros((3,))})


def test_state_round_trip_continues_identically():
    rng = np.random.default_rng(1)
    grads = [rng.standard_normal(5) for _ in range(20)]

    p1 = ad.Tensor(np.zeros(5), requires_grad=True)
    opt1 = Adam({"p": p1}, lr=1e-2)
    for g in grads:
        opt1.step({"p": g})

    p2 = ad.Tensor(np.zeros(5), requires_grad=True)
    opt2 = Adam({"p": p2}, lr=1e-2)
    for g in grads[:10]:
        opt2.step({"p": g})
    state = {k: v.copy() for k, v in opt2.state_arrays().items()}
    p3 = ad.Tensor(p2.data.copy(), requires_grad=True)
    opt3 = Adam({"p": p3}, lr=1e-2)
    opt3.load_state_arrays(state, t=opt2.t)
    for g in grads[10:]:
        opt3.step({"p": g})
    np.testing.assert_array_equal(p1.data, p3.data)
