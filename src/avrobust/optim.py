"""Adam optimizer with bias correction over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import DimensionError

__all__ = ["Adam"]


class Adam:
    """Standard bias-corrected Adam over a ``{name: Tensor}`` parameter dict.

    Updates are applied in the dict's insertion order, so two optimizers
    constructed from identically-ordered parameters and fed identical
    gradients produce bit-identical trajectories.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self, grads):
        """Apply one update from a ``{name: grad}`` map."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise DimensionError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"{name!r} shape {p.data.shape}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_arrays(self):
        """Moment tensors for checkpointing, keyed by a stable naming scheme."""
        out = {}
        for name in self.params:
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays, t):
        for name, p in self.params.items():
            m = arrays[f"adam.m.{name}"]
            v = arrays[f"adam.v.{name}"]
            if m.shape != p.data.shape or v.shape != p.data.shape:
                raise DimensionError(f"optimizer state shape mismatch for {name!r}")
            self.m[name] = m.astype(np.float64)
            self.v[name] = v.astype(np.float64)
        self.t = int(t)
