"""Lp-ball projections, normalized-gradient PGD, and universal perturbations.

The PGD update is ``delta <- P_eps(delta + s * alpha * g / ||g||_p)``
with ``s = +1`` ascending the classification loss (the default: the
attack maximizes loss) or ``s = -1`` for the literal descent form of
the update equation; both directions are one config flag apart.  For
the infinity norm the normalized gradient defaults to ``sign(g)``, the
steepest-ascent direction in that geometry, with the literal
``g / max|g|`` available behind a switch.

A universal perturbation is one (T,F) delta shared across every clip:
each step takes the batch-mean gradient of the loss with respect to
the shared delta, then projects back onto the ball and the mask
support.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .base import check_binary_targets, minibatches
from .container import atomic_write_bytes, json_field, read_feature_file, tensor_bytes
from .errors import ConfigurationError, DimensionError, FormatError, ValidationError

__all__ = [
    "NORMS", "project", "normalize_gradient",
    "Mask", "AttackConfig", "Perturbation",
    "pgd_step", "train_universal_perturbation",
    "save_perturbation", "load_perturbation",
]

NORMS = ("l1", "l2", "linf")


def _check_norm(norm):
    if norm not in NORMS:
        raise ConfigurationError(f"norm must be one of {NORMS}, got {norm!r}")
    return norm


def project(v, norm, eps):
    """Euclidean projection of v onto the Lp ball of radius eps.

    linf clamps elementwise; l2 rescales radially when outside; l1 uses
    the sort-and-threshold rule: soft-threshold by the unique theta >= 0
    with sum(max(|v_i| - theta, 0)) == eps whenever ||v||_1 > eps.
    """
    _check_norm(norm)
    eps = float(eps)
    if eps <= 0.0:
        raise ConfigurationError(f"projection radius must be positive, got {eps}")
    v = np.asarray(v, dtype=np.float64)
    if norm == "linf":
        return np.clip(v, -eps, eps)
    if norm == "l2":
        n = float(np.sqrt(np.sum(v * v)))
        if n <= eps:
            return v.copy()
        return v * (eps / n)
    mags = np.abs(v).reshape(-1)
    if mags.sum() <= eps:
        return v.copy()
    u = np.sort(mags)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    rho = int(np.max(np.nonzero(u - (css - eps) / j > 0.0)[0])) + 1
    theta = (css[rho - 1] - eps) / rho
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


def normalize_gradient(g, norm, linf_mode="sign"):
    """Scale a gradient to unit Lp norm; zero gradients map to zeros."""
    _check_norm(norm)
    g = np.asarray(g, dtype=np.float64)
    if norm == "linf":
        if linf_mode == "sign":
            return np.sign(g)
        peak = float(np.max(np.abs(g)))
        return np.zeros_like(g) if peak == 0.0 else g / peak
    n = float(np.abs(g).sum()) if norm == "l1" else float(np.sqrt(np.sum(g * g)))
    if n == 0.0:
        return np.zeros_like(g)
    return g / n


@dataclass(frozen=True)
class Mask:
    """Optional frequency/temporal support constraint, half-open ranges."""
    freq: tuple | None = None     # (f_lo, f_hi) over mel bins
    time: tuple | None = None     # (t_lo, t_hi) over frames

    def validate(self, shape):
        t, f = shape
        for rng, extent, what in ((self.freq, f, "frequency"), (self.time, t, "temporal")):
            if rng is None:
                continue
            lo, hi = rng
            if not (0 <= lo < hi <= extent):
                raise ValidationError(
                    f"{what} mask [{lo},{hi}) outside the feature geometry "
                    f"[0,{extent})")

    def array(self, shape):
        """Dense 0/1 support over a (T,F) grid; all-ones when unconstrained."""
        self.validate(shape)
        m = np.zeros(shape)
        t_lo, t_hi = self.time if self.time else (0, shape[0])
        f_lo, f_hi = self.freq if self.freq else (0, shape[1])
        m[t_lo:t_hi, f_lo:f_hi] = 1.0
        return m

    def to_dict(self):
        return {"f_lo": None if self.freq is None else self.freq[0],
                "f_hi": None if self.freq is None else self.freq[1],
                "t_lo": None if self.time is None else self.time[0],
                "t_hi": None if self.time is None else self.time[1]}

    @classmethod
    def from_dict(cls, d, source="mask"):
        """Inverse of ``to_dict``; None when no range is set.  An end that is
        not an int, or a range with one end only, is a ``FormatError``."""
        if d is None:
            return None
        ranges = []
        for lo, hi in (("f_lo", "f_hi"), ("t_lo", "t_hi")):
            ends = tuple(json_field(d, key, source, int, default=None) for key in (lo, hi))
            if (ends[0] is None) != (ends[1] is None):
                raise FormatError(f"{source}: keys {lo!r} and {hi!r} must be set together")
            ranges.append(None if ends[0] is None else ends)
        if ranges == [None, None]:
            return None
        return cls(freq=ranges[0], time=ranges[1])


@dataclass(frozen=True)
class AttackConfig:
    norm: str = "l2"
    epsilon: float = 0.3
    alpha: float = 0.01
    steps: int | None = None           # None -> ceil(epsilon / alpha)
    mask: Mask | None = None
    seed: int = 0
    direction: str = "ascent"          # ascent | descent
    linf_normalize: str = "sign"       # sign | scale
    random_start: bool = False
    batch_size: int = 32

    def __post_init__(self):
        _check_norm(self.norm)
        for name in ("epsilon", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        if self.steps is not None and self.steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.direction not in ("ascent", "descent"):
            raise ConfigurationError(f"direction must be ascent or descent, got {self.direction!r}")
        if self.linf_normalize not in ("sign", "scale"):
            raise ConfigurationError("linf_normalize must be 'sign' or 'scale'")

    def resolved_steps(self):
        if self.steps is not None:
            return int(self.steps)
        return max(1, math.ceil(self.epsilon / self.alpha))

    def to_dict(self):
        """The sidecar's attack keys; an unset mask is a dict of nulls."""
        return {"norm": self.norm, "epsilon": self.epsilon, "alpha": self.alpha,
                "steps": self.resolved_steps(),
                "mask": (self.mask or Mask()).to_dict(),
                "seed": self.seed, "direction": self.direction,
                "linf_normalize": self.linf_normalize,
                "random_start": self.random_start, "batch_size": self.batch_size}


def pgd_step(delta, grad, cfg):
    """One projected step: mask, normalize, step, project, re-mask."""
    delta = np.asarray(delta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if delta.shape != grad.shape:
        raise DimensionError(
            f"delta shape {delta.shape} does not match gradient shape {grad.shape}")
    support = None
    if cfg.mask is not None:
        support = cfg.mask.array(delta.shape)
        grad = grad * support
    direction = 1.0 if cfg.direction == "ascent" else -1.0
    step = direction * cfg.alpha * normalize_gradient(grad, cfg.norm, cfg.linf_normalize)
    out = project(delta + step, cfg.norm, cfg.epsilon)
    if support is not None:
        out = out * support
    return out


@dataclass
class Perturbation:
    """A universal delta plus the constraints and provenance it was trained under."""
    delta: np.ndarray
    config: AttackConfig
    provenance: dict

    def validate(self):
        norm = self.config.norm
        d = self.delta
        value = {"l1": np.abs(d).sum(),
                 "l2": np.sqrt(np.sum(d * d)),
                 "linf": np.abs(d).max() if d.size else 0.0}[norm]
        if value > self.config.epsilon + 1e-9:
            raise ValidationError(
                f"perturbation {norm} norm {value} exceeds epsilon {self.config.epsilon}")
        if self.config.mask is not None:
            outside = 1.0 - self.config.mask.array(d.shape)
            if np.any(d * outside != 0.0):
                raise ValidationError("perturbation is nonzero outside its mask support")
        return self


def _data_digest(audio, labels):
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(audio).tobytes())
    h.update(np.ascontiguousarray(labels).tobytes())
    return h.hexdigest()


def train_universal_perturbation(model, audio, labels, cfg, video=None,
                                 provenance=None, step_hook=None):
    """Train one shared delta over a training split.

    Starting from zero (or a seeded random point inside the ball), each
    update takes the batch-mean gradient of the loss w.r.t. the shared
    delta over a seeded shuffled batch and applies one PGD step.  Runs
    exactly ``cfg.resolved_steps()`` updates.
    """
    audio = np.asarray(audio)
    labels = check_binary_targets(labels)
    if audio.ndim != 3 or audio.shape[0] == 0:
        raise ValidationError("universal perturbation training requires a non-empty "
                              "(clips, frames, bins) feature array")
    shape = audio.shape[1:]
    if cfg.mask is not None:
        cfg.mask.validate(shape)
    rng = np.random.default_rng(cfg.seed)
    if cfg.random_start:
        delta = project(rng.uniform(-cfg.epsilon, cfg.epsilon, size=shape),
                        cfg.norm, cfg.epsilon)
        if cfg.mask is not None:
            delta = delta * cfg.mask.array(shape)
    else:
        delta = np.zeros(shape)
    steps = cfg.resolved_steps()
    for step, idx in enumerate(minibatches(rng, audio.shape[0], cfg.batch_size, steps)):
        _, grad = model.loss_and_input_grad(
            audio[idx], labels[idx], video=None if video is None else video[idx], delta=delta)
        delta = pgd_step(delta, grad, cfg)
        if step_hook is not None:
            step_hook(step, delta)
    prov = {"manifest_hash": provenance or _data_digest(audio, labels),
            "steps_run": steps, "seed": cfg.seed}
    return Perturbation(delta=delta, config=cfg, provenance=prov).validate()


def save_perturbation(path, perturbation):
    """AVFB delta (float64) plus a JSON sidecar with constraints and provenance."""
    path = Path(path)
    perturbation.validate()
    atomic_write_bytes(path, tensor_bytes(perturbation.delta, dtype="float64"))
    prov = perturbation.provenance
    sidecar = dict(perturbation.config.to_dict(), manifest_hash=prov.get("manifest_hash"),
                   steps=prov.get("steps_run", perturbation.config.resolved_steps()))
    atomic_write_bytes(path.with_suffix(".json"),
                       (json.dumps(sidecar, sort_keys=True, indent=1) + "\n").encode())


def load_perturbation(path):
    path = Path(path)
    delta = read_feature_file(path).astype(np.float64)
    sidecar_path = path.with_suffix(".json")
    if not sidecar_path.exists():
        raise FormatError(f"perturbation sidecar {sidecar_path} is missing")
    source = f"perturbation sidecar {sidecar_path}"
    try:
        sidecar = json.loads(sidecar_path.read_text("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{source}: invalid JSON ({exc})") from exc
    number = (int, float)
    steps = json_field(sidecar, "steps", source, int)
    seed = json_field(sidecar, "seed", source, int, default=0)
    try:
        cfg = AttackConfig(
            norm=json_field(sidecar, "norm", source, str),
            epsilon=json_field(sidecar, "epsilon", source, number),
            alpha=json_field(sidecar, "alpha", source, number),
            steps=steps,
            mask=Mask.from_dict(json_field(sidecar, "mask", source, dict, default=None),
                                f"{source}, key 'mask'"),
            seed=seed,
            direction=json_field(sidecar, "direction", source, str, default="ascent"),
            linf_normalize=json_field(sidecar, "linf_normalize", source, str, default="sign"),
            random_start=json_field(sidecar, "random_start", source, bool, default=False),
            batch_size=json_field(sidecar, "batch_size", source, int, default=32))
    except ConfigurationError as exc:
        raise FormatError(f"{source}: {exc}") from exc
    prov = {"manifest_hash": json_field(sidecar, "manifest_hash", source, str, default=None),
            "steps_run": steps, "seed": seed}
    return Perturbation(delta=delta, config=cfg, provenance=prov).validate()
