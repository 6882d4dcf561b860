"""Toy-scale convolutional self-attention classifier and baselines.

The audio encoder stacks 3x3 conv blocks with max-pooling that reduces
the frame rate by exactly 4x, flattens the frequency axis into the
feature width, and feeds transformer blocks (no positional encoding,
so they are frame-permutation equivariant).  Clip-level predictions
come from per-class attention pooling, so every model output is a
probability in (0,1).

Video features can join the audio pipeline at four stages: early
(concatenated to the spectrogram), mid-1/mid-2 (concatenated to the
sequence bottleneck before/after the transformer blocks), or late (a
separate transformer branch whose probabilities are averaged with the
audio branch's).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .base import check_array, check_binary_targets, minibatches
from .container import atomic_write_bytes, json_field, tensor_bytes, tensor_from_bytes
from .errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    ValidationError,
)
from .optim import Adam

__all__ = [
    "FusionStage", "CsnConfig", "CsnModel",
    "ResnetConfig", "ResnetModel",
    "train_model", "TrainResult",
    "save_checkpoint", "load_checkpoint",
]


class FusionStage(str, Enum):
    AUDIO_ONLY = "audio_only"
    EARLY = "early"
    MID1 = "mid1"
    MID2 = "mid2"
    LATE = "late"


def _derive_seed(*parts):
    return int(np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
               .generate_state(1, np.uint32)[0])


def _glorot(rng, shape, fan_in, fan_out):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


@dataclass(frozen=True)
class CsnConfig:
    conv_channels: tuple = (6, 12, 16, 16)
    pool_time: tuple = (4, 1, 1, 1)
    pool_freq: tuple = (2, 2, 2, 2)
    transformer_blocks: int = 2
    heads: int = 4
    width: int = 64
    ff_mult: int = 2
    classes: int = 10
    dropout: float = 0.25
    fusion: FusionStage = FusionStage.AUDIO_ONLY
    n_mels: int = 64
    video_dim: int = 32
    early_video_bins: int = 16

    def __post_init__(self):
        object.__setattr__(self, "fusion", FusionStage(self.fusion))
        if len(self.conv_channels) != len(self.pool_time) or \
                len(self.conv_channels) != len(self.pool_freq):
            raise ConfigurationError(
                "conv_channels, pool_time, and pool_freq must have equal length")
        if int(np.prod(self.pool_time)) != 4:
            raise ConfigurationError(
                f"pool_time factors must multiply to 4 (40 Hz -> 10 Hz), "
                f"got {self.pool_time}")
        if self.width % self.heads != 0:
            raise ConfigurationError(
                f"width {self.width} not divisible by heads {self.heads}")
        feat_bins = self.input_bins()
        if feat_bins % int(np.prod(self.pool_freq)) != 0:
            raise ConfigurationError(
                f"input bins {feat_bins} not divisible by the frequency "
                f"pooling product {int(np.prod(self.pool_freq))}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0,1), got {self.dropout}")

    def input_bins(self):
        extra = self.early_video_bins if self.fusion == FusionStage.EARLY else 0
        return self.n_mels + extra

    def encoder_out_bins(self):
        return self.input_bins() // int(np.prod(self.pool_freq))


class _ModelBase:
    """Shared prediction and gradient plumbing over a named-parameter dict."""

    params: dict
    input_mean = None          # per-bin (F,) arrays once fit; None = identity
    input_std = None

    def forward(self, audio, video=None, training=False, seed_base=0):
        raise NotImplementedError

    def set_input_norm(self, mean, std, floor=1e-2):
        """Per-mel-bin standardization constants, fit once from training data.

        Applied inside the forward pass; the attack surface stays the
        raw log-mel features (a delta's effect per bin is scaled by
        1/std of that bin, floored so near-constant bins cannot blow up).
        """
        self.input_mean = np.asarray(mean, dtype=np.float64).reshape(-1)
        std = np.asarray(std, dtype=np.float64).reshape(-1)
        self.input_std = np.maximum(std, floor)

    def fit_input_norm(self, audio, floor=1e-2):
        audio = np.asarray(audio, dtype=np.float64)
        self.set_input_norm(audio.mean(axis=(0, 1)), audio.std(axis=(0, 1)), floor=floor)

    def _standardize(self, audio):
        if self.input_mean is None:
            return audio
        return ad.mul(ad.sub(audio, Tensor(self.input_mean)),
                      Tensor(1.0 / self.input_std))

    def parameter_count(self):
        return sum(p.size for p in self.params.values())

    def predict_proba(self, audio, video=None, delta=None):
        """Forward pass without a tape (inference mode), returns (B,C) probs.

        The batch runs in chunks on the op threads (``autodiff.BatchSplit``);
        a (T,F) ``delta`` is added to each chunk, as ``loss_and_input_grad`` adds it.
        """
        audio, video = _as_array(audio), _as_array(video)
        delta = _delta_tensor(audio, delta)
        split = _batch_split(audio)
        return np.concatenate(split.run(
            lambda i: self.forward(*_slice_inputs(audio, video, split.rows[i], delta)).data))

    def loss_and_param_grads(self, audio, video, targets, training=True, seed_base=0):
        targets = check_binary_targets(targets)
        audio, video = _as_array(audio), _as_array(video)

        def probs(rows):
            return self.forward(*_slice_inputs(audio, video, rows),
                                training=training, seed_base=seed_base)

        loss, grads = _loss_and_grads(_batch_split(audio), probs, targets,
                                      list(self.params.values()))
        return loss, {name: grads[p] for name, p in self.params.items()}

    def loss_and_input_grad(self, audio, targets, video=None, delta=None):
        """Batch-mean loss and its gradient w.r.t. a shared (T,F) delta.

        The delta (zero when None) is added to every clip in the batch, as
        ``predict_proba`` adds it, so its gradient is the batch-mean input
        gradient scaled by the loss's own mean reduction.  Video features,
        when present, are held constant: gradients flow only through the
        audio input.
        """
        audio, video = _as_array(audio), _as_array(video)
        if delta is None:
            delta = np.zeros(audio.shape[-2:])
        delta_t = _delta_tensor(audio, delta, requires_grad=True)
        targets = check_binary_targets(targets)

        def probs(rows):
            return self.forward(*_slice_inputs(audio, video, rows, delta_t), training=False)

        # freeze parameters so backward skips their gradient work entirely
        frozen = [(p, p.requires_grad) for p in self.params.values()]
        for p, _ in frozen:
            p.requires_grad = False
        try:
            loss, grads = _loss_and_grads(_batch_split(audio), probs, targets, [delta_t])
        finally:
            for p, flag in frozen:
                p.requires_grad = flag
        return loss, grads[delta_t]


def _as_array(arr):
    # converted to float64 a chunk at a time, by _slice_inputs
    return None if arr is None else np.asarray(arr)


def _batch_split(audio):
    """The chunks of a (B,T,F) batch; a single (T,F) clip is one chunk."""
    return ad.BatchSplit(1 if audio.ndim == 2 else audio.shape[0])


def _delta_tensor(audio, delta, requires_grad=False):
    """A delta of the clips' exact (T,F) shape as a tensor for ``_slice_inputs``."""
    if delta is None:
        return None
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != audio.shape[-2:]:
        raise DimensionError(f"features shape {audio.shape} does not match "
                             f"perturbation shape {delta.shape}")
    return Tensor(delta, requires_grad=requires_grad)


def _slice_inputs(audio, video, rows, delta=None):
    """One chunk's rows as float64 tensors, the audio plus ``delta`` when it is set.

    A non-finite value in the chunk is a ``ValidationError`` naming the
    audio or the video features; nothing else checks a split for them.
    """
    x = Tensor._wrap(check_array(audio[rows], "audio features"), False)
    if delta is not None:
        x = ad.add(x, delta)
    if video is not None:
        video = Tensor._wrap(check_array(video[rows], "video features"), False)
    return x, video


def _loss_and_grads(split, probs_of, targets, wrt):
    """Batch-mean BCE of ``probs_of(rows)`` and its gradients w.r.t. the tensors ``wrt``.

    Each chunk records its forward pass on its own tape and replays it at
    once, from its rows of the loss's gradient w.r.t. the probabilities,
    so its tape is freed before its op thread takes the next chunk.  Each
    chunk's backward pass returns its share of the gradients of ``wrt``,
    which the calling thread adds to a running sum in chunk order as the
    chunks finish (``BatchSplit.run``).  The loss is taken once, on the
    whole batch.
    """
    def chunk(i):
        rows = split.rows[i]
        with ad.Tape() as tape:
            out = probs_of(rows)
        t = targets[rows]
        if t.shape != out.shape:
            raise DimensionError(f"targets shape {t.shape} does not match probs shape {out.shape}")
        grad = ad.bce_grad(out.data, t, targets.size)
        return out.data, ad.backward(out, wrt, tape=tape, grad=grad)

    outs, grads = [], {}

    def take(result):
        out, more = result
        outs.append(out)
        for p in wrt:
            grads[p] = grads[p] + more[p] if p in grads else more[p]

    split.run(chunk, take)
    # not Tensor(): a non-finite probability must reach the loss, which reports it
    probs = Tensor._wrap(np.concatenate(outs), False)
    return ad.bce_on_probs(probs, targets).item(), grads


class CsnModel(_ModelBase):
    """Convolutional self-attention network with a selectable fusion stage."""

    def __init__(self, config: CsnConfig, seed=0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)
        cfg = config

        c_prev = 1
        for i, c_out in enumerate(cfg.conv_channels):
            self.params[f"audio.conv{i}.w"] = _glorot(
                rng, (c_out, c_prev, 3, 3), c_prev * 9, c_out * 9)
            self.params[f"audio.conv{i}.b"] = _zeros((c_out, 1, 1))
            c_prev = c_out
        flat = c_prev * cfg.encoder_out_bins()
        self.params["audio.proj.w"] = _glorot(rng, (flat, cfg.width), flat, cfg.width)
        self.params["audio.proj.b"] = _zeros((cfg.width,))
        for i in range(cfg.transformer_blocks):
            self._init_transformer(rng, f"audio.tf{i}")
        self._init_pool(rng, "audio.pool")

        if cfg.fusion == FusionStage.EARLY:
            self.params["video.early_proj.w"] = _glorot(
                rng, (cfg.video_dim, cfg.early_video_bins), cfg.video_dim,
                cfg.early_video_bins)
            self.params["video.early_proj.b"] = _zeros((cfg.early_video_bins,))
        elif cfg.fusion in (FusionStage.MID1, FusionStage.MID2):
            self.params["video.mid_proj.w"] = _glorot(
                rng, (cfg.video_dim, cfg.width), cfg.video_dim, cfg.width)
            self.params["video.mid_proj.b"] = _zeros((cfg.width,))
            self.params["audio.mid_reproj.w"] = _glorot(
                rng, (2 * cfg.width, cfg.width), 2 * cfg.width, cfg.width)
            self.params["audio.mid_reproj.b"] = _zeros((cfg.width,))
        elif cfg.fusion == FusionStage.LATE:
            self.params["video.proj.w"] = _glorot(
                rng, (cfg.video_dim, cfg.width), cfg.video_dim, cfg.width)
            self.params["video.proj.b"] = _zeros((cfg.width,))
            for i in range(cfg.transformer_blocks):
                self._init_transformer(rng, f"video.tf{i}")
            self._init_pool(rng, "video.pool")

    def _init_transformer(self, rng, prefix):
        d, ff = self.config.width, self.config.ff_mult * self.config.width
        for name in ("wq", "wk", "wv", "wo"):
            self.params[f"{prefix}.{name}"] = _glorot(rng, (d, d), d, d)
        self.params[f"{prefix}.w1"] = _glorot(rng, (d, ff), d, ff)
        self.params[f"{prefix}.b1"] = _zeros((ff,))
        self.params[f"{prefix}.w2"] = _glorot(rng, (ff, d), ff, d)
        self.params[f"{prefix}.b2"] = _zeros((d,))

    def _init_pool(self, rng, prefix):
        d, c = self.config.width, self.config.classes
        self.params[f"{prefix}.wp"] = _glorot(rng, (d, c), d, c)
        self.params[f"{prefix}.bp"] = _zeros((c,))
        self.params[f"{prefix}.wa"] = _glorot(rng, (d, c), d, c)
        self.params[f"{prefix}.ba"] = _zeros((c,))

    # -- submodules ---------------------------------------------------------

    def encode_audio(self, x):
        """Conv/pool stack: (B,T,F) -> (B, T/4, width) sequence."""
        cfg = self.config
        b, t, f = x.shape
        if t % 4 != 0:
            raise DimensionError(f"frame count {t} not divisible by 4")
        if f != cfg.input_bins():
            raise DimensionError(
                f"feature bins {f} do not match the configured {cfg.input_bins()}")
        h = ad.reshape(x, (b, 1, t, f))
        for i in range(len(cfg.conv_channels)):
            h = ad.conv2d(h, self.params[f"audio.conv{i}.w"], padding=(1, 1))
            h = ad.add_relu_pool(h, self.params[f"audio.conv{i}.b"],
                                 (cfg.pool_time[i], cfg.pool_freq[i]))
        _, c, t4, f_red = h.shape
        h = ad.transpose(h, (0, 2, 1, 3))
        h = ad.reshape(h, (b, t4, c * f_red))
        return ad.add(ad.matmul(h, self.params["audio.proj.w"]), self.params["audio.proj.b"])

    def transformer_block(self, h, prefix, training=False, seed_base=0, tag=0):
        """Residual attention sublayer then residual two-layer feed-forward."""
        cfg = self.config
        p = self.params
        q = ad.matmul(h, p[f"{prefix}.wq"])
        k = ad.matmul(h, p[f"{prefix}.wk"])
        v = ad.matmul(h, p[f"{prefix}.wv"])
        a = ad.attention(q, k, v, heads=cfg.heads)
        a = ad.matmul(a, p[f"{prefix}.wo"])
        a = ad.dropout(a, cfg.dropout, _derive_seed(seed_base, 2 * tag), training)
        h = ad.add(h, a)
        ff = ad.relu(ad.add(ad.matmul(h, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
        ff = ad.add(ad.matmul(ff, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])
        ff = ad.dropout(ff, cfg.dropout, _derive_seed(seed_base, 2 * tag + 1), training)
        return ad.add(h, ff)

    def attention_pool(self, h, prefix="audio.pool"):
        """TALNet-style pooling: attention-weighted per-frame probabilities."""
        p = self.params
        frame_probs = ad.sigmoid(ad.add(ad.matmul(h, p[f"{prefix}.wp"]), p[f"{prefix}.bp"]))
        att_logits = ad.add(ad.matmul(h, p[f"{prefix}.wa"]), p[f"{prefix}.ba"])
        axes = tuple(range(h.ndim - 2)) + (h.ndim - 1, h.ndim - 2)
        weights = ad.softmax(ad.transpose(att_logits, axes))      # (...,C,T)
        probs_t = ad.transpose(frame_probs, axes)
        return ad.reduce_sum(ad.mul(weights, probs_t), axis=-1)   # (...,C)

    def _video_sequence(self, video, proj_w, proj_b, n_rows):
        """(B,H,N) video features -> (B, n_rows, E) projected and upsampled."""
        b, h_dim, n = video.shape
        if h_dim != self.config.video_dim:
            raise DimensionError(
                f"video feature dim {h_dim} does not match configured "
                f"{self.config.video_dim}")
        seq = ad.transpose(video, (0, 2, 1))                       # (B,N,H)
        seq = ad.add(ad.matmul(seq, self.params[proj_w]), self.params[proj_b])
        idx = (np.arange(n_rows) * n) // n_rows                    # nearest-neighbor
        return ad.gather_rows(seq, idx)

    # -- full forward -------------------------------------------------------

    def forward(self, audio, video=None, training=False, seed_base=0):
        cfg = self.config
        if cfg.fusion != FusionStage.AUDIO_ONLY and video is None:
            raise ValidationError(f"fusion stage {cfg.fusion.value!r} requires video features")
        if audio.ndim == 2:
            audio = ad.reshape(audio, (1,) + audio.shape)
        audio = self._standardize(audio)
        b, t, _ = audio.shape

        if cfg.fusion == FusionStage.EARLY:
            vup = self._video_sequence(video, "video.early_proj.w", "video.early_proj.b", t)
            audio = ad.concat([audio, vup], axis=-1)

        h = self.encode_audio(audio)
        t4 = h.shape[1]

        if cfg.fusion == FusionStage.MID1:
            h = self._mid_adapter(h, video, t4)
        for i in range(cfg.transformer_blocks):
            h = self.transformer_block(h, f"audio.tf{i}", training, seed_base, tag=i)
        if cfg.fusion == FusionStage.MID2:
            h = self._mid_adapter(h, video, t4)

        audio_probs = self.attention_pool(h, "audio.pool")
        if cfg.fusion != FusionStage.LATE:
            return audio_probs
        video_probs = self.video_branch(video, training, seed_base)
        return ad.scale(ad.add(audio_probs, video_probs), 0.5)

    def _mid_adapter(self, h, video, t4):
        vseq = self._video_sequence(video, "video.mid_proj.w", "video.mid_proj.b", t4)
        z = ad.concat([h, vseq], axis=-1)
        return ad.add(ad.matmul(z, self.params["audio.mid_reproj.w"]),
                      self.params["audio.mid_reproj.b"])

    def video_branch(self, video, training=False, seed_base=0):
        """Late-fusion branch: projection, 2 transformer blocks, pooling."""
        n = video.shape[-1]
        seq = self._video_sequence(video, "video.proj.w", "video.proj.b", n)
        for i in range(self.config.transformer_blocks):
            seq = self.transformer_block(seq, f"video.tf{i}", training, seed_base,
                                         tag=100 + i)
        return self.attention_pool(seq, "video.pool")


# ---------------------------------------------------------------------------
# residual-convolution baseline


@dataclass(frozen=True)
class ResnetConfig:
    stem_channels: int = 12
    blocks: int = 2
    pool_time: tuple = (4, 1, 1)       # stem pool + one per block
    pool_freq: tuple = (2, 2, 2)
    classes: int = 10
    n_mels: int = 64

    def __post_init__(self):
        if len(self.pool_time) != self.blocks + 1 or len(self.pool_freq) != self.blocks + 1:
            raise ConfigurationError("need one pool factor for the stem plus one per block")
        if int(np.prod(self.pool_time)) != 4:
            raise ConfigurationError(
                f"pool_time factors must multiply to 4, got {self.pool_time}")


class ResnetModel(_ModelBase):
    """Residual conv blocks (identity skip + two 3x3 convs), mean-pooled."""

    def __init__(self, config: ResnetConfig, seed=0):
        self.config = config
        self.params = {}
        rng = np.random.default_rng(seed)
        c = config.stem_channels
        self.params["stem.w"] = _glorot(rng, (c, 1, 3, 3), 9, c * 9)
        self.params["stem.b"] = _zeros((c, 1, 1))
        for i in range(config.blocks):
            for j in (1, 2):
                self.params[f"block{i}.conv{j}.w"] = _glorot(
                    rng, (c, c, 3, 3), c * 9, c * 9)
                self.params[f"block{i}.conv{j}.b"] = _zeros((c, 1, 1))
        self.params["head.w"] = _glorot(rng, (c, config.classes), c, config.classes)
        self.params["head.b"] = _zeros((config.classes,))

    def forward(self, audio, video=None, training=False, seed_base=0):
        cfg = self.config
        if audio.ndim == 2:
            audio = ad.reshape(audio, (1,) + audio.shape)
        audio = self._standardize(audio)
        b, t, f = audio.shape
        if t % 4 != 0:
            raise DimensionError(f"frame count {t} not divisible by 4")
        h = ad.reshape(audio, (b, 1, t, f))
        h = ad.add_relu_pool(ad.conv2d(h, self.params["stem.w"], padding=(1, 1)),
                             self.params["stem.b"], (cfg.pool_time[0], cfg.pool_freq[0]))
        for i in range(cfg.blocks):
            branch = ad.add_relu_pool(
                ad.conv2d(h, self.params[f"block{i}.conv1.w"], padding=(1, 1)),
                self.params[f"block{i}.conv1.b"])
            branch = ad.add(
                ad.conv2d(branch, self.params[f"block{i}.conv2.w"], padding=(1, 1)),
                self.params[f"block{i}.conv2.b"])
            # the residual sum takes the bias's place
            h = ad.add_relu_pool(h, branch, (cfg.pool_time[i + 1], cfg.pool_freq[i + 1]))
        pooled = ad.reduce_mean(ad.reduce_mean(h, axis=-1), axis=-1)   # (B,C_stem)
        # one (1,C_stem) product per clip, so a clip's logits do not depend on the batch
        pooled = ad.reshape(pooled, (b, 1, cfg.stem_channels))
        logits = ad.add(ad.matmul(pooled, self.params["head.w"]), self.params["head.b"])
        return ad.sigmoid(ad.reshape(logits, (b, cfg.classes)))


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    loss_curve: list = field(default_factory=list)    # (step, loss) pairs
    steps: int = 0
    balance_log: list = field(default_factory=list)   # (step, |g_audio|, |g_video|)
    optimizer: Adam | None = None                     # the trained Adam, for checkpoints


def _split_modality(named_grads):
    audio, video = {}, {}
    for name, g in named_grads.items():
        (video if name.startswith("video.") else audio)[name] = g
    return audio, video


def _block_norm(grads):
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def balance_gradients(named_grads):
    """Rescale each modality's gradient block to their geometric-mean norm.

    Returns the post-balancing (audio_norm, video_norm); both equal the
    geometric mean of the raw norms whenever both blocks are nonzero.
    Returns None, changing nothing, when there is no video block.
    """
    audio, video = _split_modality(named_grads)
    if not video:
        return None
    na, nv = _block_norm(audio), _block_norm(video)
    if na == 0.0 or nv == 0.0:
        return na, nv
    target = math.sqrt(na * nv)
    for name in audio:
        named_grads[name] = named_grads[name] * (target / na)
    for name in video:
        named_grads[name] = named_grads[name] * (target / nv)
    return target, target


def train_model(model, audio, labels, video=None, *, steps=200, batch_size=32,
                lr=1e-3, seed=0):
    """Minimize multi-label BCE with a fresh Adam over seeded shuffled batches.

    Fits the model's input normalization first.  A model with video
    parameters has each modality's parameter-gradient block rescaled to a
    common L2 norm before every update (``balance_gradients``).  The loss
    is logged every 10 steps and at the last one; a non-finite loss stops
    training with a ``ValidationError`` naming its (1-based) step.
    Deterministic given (model init, data, seed): shuffling and dropout
    draw from seeds derived from ``seed`` and the step counter.
    """
    audio = np.asarray(audio)
    labels = check_binary_targets(labels)
    n = audio.shape[0]
    if n == 0:
        raise ValidationError("training split is empty")
    opt = Adam(model.params, lr=lr)
    model.fit_input_norm(audio)
    result = TrainResult(optimizer=opt)
    rng = np.random.default_rng(_derive_seed(seed, 0xD5))
    for step, idx in enumerate(minibatches(rng, n, batch_size, steps)):
        loss, grads = model.loss_and_param_grads(
            audio[idx], None if video is None else video[idx], labels[idx], training=True,
            seed_base=_derive_seed(seed, step + 1))
        if not math.isfinite(loss):
            raise ValidationError(f"training loss is {loss} at step {step + 1} of {steps}")
        norms = balance_gradients(grads)
        if norms is not None:
            result.balance_log.append((step, *norms))
        opt.step(grads)
        if (step + 1) % 10 == 0 or step + 1 == steps:
            result.loss_curve.append((step + 1, loss))
    result.steps = steps
    return result


# ---------------------------------------------------------------------------
# checkpoints


_CKPT_MAGIC = b"AVCK"
# stored kind -> (config class, model class)
_CKPT_KINDS = {"csn": (CsnConfig, CsnModel), "resnet": (ResnetConfig, ResnetModel)}


def save_checkpoint(path, model, optimizer=None, step=0, rng_state=None):
    """Persist a model (and optionally optimizer state) to one file.

    Layout: magic, u32 JSON length, JSON index
    {kind, config, tensors: name -> {offset, shape}, step, rng_state,
    optimizer}, then concatenated float64 AVFB blocks at the recorded
    offsets (relative to the end of the JSON).
    """
    kind = next((k for k, (_, cls) in _CKPT_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise ValidationError(f"cannot checkpoint model of type {type(model).__name__}")
    arrays = {name: p.data for name, p in model.params.items()}
    opt_meta = None
    if optimizer is not None:
        arrays.update(optimizer.state_arrays())
        opt_meta = {"lr": optimizer.lr, "beta1": optimizer.beta1,
                    "beta2": optimizer.beta2, "eps": optimizer.eps, "t": optimizer.t}
    table = {}
    blob = bytearray()
    for name in sorted(arrays):
        table[name] = {"offset": len(blob), "shape": list(arrays[name].shape)}
        blob.extend(tensor_bytes(arrays[name], dtype="float64"))
    norm = None
    if model.input_mean is not None:
        norm = {"mean": model.input_mean.tolist(), "std": model.input_std.tolist()}
    index = {"kind": kind, "config": asdict(model.config), "tensors": table,
             "step": int(step), "rng_state": rng_state, "optimizer": opt_meta,
             "input_norm": norm}
    payload = json.dumps(index, sort_keys=True).encode("utf-8")
    data = _CKPT_MAGIC + struct.pack("<I", len(payload)) + payload + bytes(blob)
    atomic_write_bytes(path, data)


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; returns (model, index, optimizer).

    ``index`` is the JSON index dict; ``optimizer`` is the restored Adam,
    or None when the checkpoint was saved without one.  The stored config
    must hold every field of the model's config, and nothing else.  Every
    tensor is validated against the shape the rebuilt model expects; a
    mismatch (e.g. a different class count) raises an error naming the
    offending tensor.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != _CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic at offset 0 in {path}")
    (json_len,) = struct.unpack_from("<I", raw, 4)
    if len(raw) < 8 + json_len:
        raise FormatError("truncated checkpoint index")
    try:
        index = json.loads(raw[8:8 + json_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable checkpoint index: {exc}") from exc
    blob = raw[8 + json_len:]
    source = f"checkpoint index of {path}"
    kind = json_field(index, "kind", source)
    config = json_field(index, "config", source, dict)
    if kind not in _CKPT_KINDS:
        raise FormatError(f"unknown checkpoint kind {kind!r}")
    config_cls, model_cls = _CKPT_KINDS[kind]
    names = {f.name for f in fields(config_cls)}
    try:
        if config.keys() != names:
            raise ValueError(f"missing {sorted(names - config.keys())}, "
                             f"unknown {sorted(config.keys() - names)}")
        # json holds the tuple fields as lists and the fusion stage as its value
        config = config_cls(**{k: tuple(v) if isinstance(v, list) else v
                               for k, v in config.items()})
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise FormatError(f"{source}: key 'config' is not a {kind} config: {exc}") from exc
    model = model_cls(config)
    arrays = {}
    for name, entry in json_field(index, "tensors", source, dict).items():
        offset = json_field(entry, "offset", f"{source}, tensor {name!r}", int)
        shape = json_field(entry, "shape", f"{source}, tensor {name!r}", list)
        try:
            arr, _ = tensor_from_bytes(blob, offset)
        except FormatError as exc:
            raise FormatError(f"tensor {name!r}: {exc}") from exc
        if list(arr.shape) != shape:
            raise FormatError(
                f"tensor {name!r}: stored shape {list(arr.shape)} does not match "
                f"index shape {shape}")
        arrays[name] = arr.astype(np.float64)
    for name, p in model.params.items():
        if name not in arrays:
            raise FormatError(f"tensor {name!r} missing from checkpoint")
        if arrays[name].shape != p.data.shape:
            raise FormatError(
                f"tensor {name!r}: shape {arrays[name].shape} does not match the "
                f"model's expected {p.data.shape}")
        p.data = arrays[name]
    norm = json_field(index, "input_norm", source, dict, default=None)
    if norm is not None:
        # one entry per mel bin: _standardize runs before early fusion adds video bins
        model.set_input_norm(*(_bin_vector(norm, key, f"{source}, key 'input_norm'",
                                           config.n_mels) for key in ("mean", "std")),
                             floor=0.0)
    optimizer = None
    meta = json_field(index, "optimizer", source, dict, default=None)
    if meta is not None:
        meta_source = f"{source}, key 'optimizer'"
        optimizer = Adam(model.params, **{
            key: json_field(meta, key, meta_source, (int, float))
            for key in ("lr", "beta1", "beta2", "eps")})
        for name in optimizer.state_arrays():
            if name not in arrays:
                raise FormatError(f"tensor {name!r} missing from checkpoint")
        optimizer.load_state_arrays(arrays, t=json_field(meta, "t", meta_source, int))
    return model, index, optimizer


def _bin_vector(obj, key, source, bins):
    """``obj[key]`` as a float64 vector of ``bins`` entries, else a ``FormatError``."""
    try:
        vector = np.asarray(json_field(obj, key, source, list), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{source}: key {key!r} is not a list of numbers") from exc
    if vector.shape != (bins,):
        raise FormatError(f"{source}: key {key!r} holds {len(vector)} entries, not {bins}")
    return vector
