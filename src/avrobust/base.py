"""Helpers shared by the audio, model, attack and metric code.

``check_array`` coerces to a finite, non-empty float64 array of a given rank;
``check_binary_targets`` accepts only {0,1} multi-hot targets.  Both
raise ``ValidationError`` (``DimensionError`` for a wrong rank).
``minibatches`` is the one seeded batch order that training and the
attack draw from.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidationError


def check_array(x, name="array", ndim=None, dtype=np.float64):
    """Coerce to a finite, non-empty ``dtype`` ndarray (None keeps x's), enforcing dimensionality."""
    arr = np.asarray(x, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or Inf")
    return arr


def check_binary_targets(y, name="targets"):
    """Validate a {0,1} multi-hot target array and return it as float64."""
    arr = np.asarray(y, dtype=np.float64)
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValidationError(f"{name} must contain only 0 and 1")
    return arr


def minibatches(rng, n, batch_size, steps):
    """Yield ``steps`` index batches over ``range(n)``.

    Each pass over the data is one ``rng.permutation(n)`` cut into
    batches of ``batch_size``; a pass's last batch may be shorter, and
    the next batch starts a fresh permutation.
    """
    order = np.empty(0, dtype=np.intp)
    for _ in range(steps):
        if order.size == 0:
            order = rng.permutation(n)
        yield order[:batch_size]
        order = order[batch_size:]
