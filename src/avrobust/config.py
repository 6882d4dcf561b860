"""Experiment configuration: a strict `[section]` / `key = value` format.

Unknown keys, missing sections, and out-of-range values are rejected
with the offending line number.  Parsing returns the typed config plus
the list of defaults that were applied, so runs can log exactly what
they resolved.  ``serialize_config`` emits every key explicitly, making
parse -> serialize -> parse a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigFileError

__all__ = [
    "DatasetSection", "ModelSection", "TrainSection", "AttackSection",
    "PathsSection", "ExperimentConfig", "SweepPlan",
    "parse_config", "serialize_config",
]


def _parse_bool(raw):
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_ints(raw):
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _parse_floats(raw):
    return tuple(float(part.strip()) for part in raw.split(",") if part.strip())


def _parse_range(raw):
    """Half-open `lo:hi` mask syntax; `none` clears the mask."""
    if raw.lower() in ("none", ""):
        return None
    lo, sep, hi = raw.partition(":")
    if not sep:
        raise ValueError(f"expected lo:hi, got {raw!r}")
    return (int(lo), int(hi))


def _parse_optint(raw):
    if raw.lower() in ("none", "auto", ""):
        return None
    return int(raw)


def _fmt(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _fmt_range(value):
    return "none" if value is None else f"{value[0]}:{value[1]}"


# key -> (parser, formatter, validator or None)
def _positive(name):
    def check(v):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    return check


def _non_negative(name):
    def check(v):
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {v}")
    return check


def _choice(name, options):
    def check(v):
        if v not in options:
            raise ValueError(f"{name} must be one of {options}, got {v!r}")
    return check


_SCHEMA = {
    "dataset": {
        "classes": (int, _fmt, _positive("classes")),
        "train_clips": (int, _fmt, _positive("train_clips")),
        "eval_clips": (int, _fmt, _positive("eval_clips")),
        "duration": (float, _fmt, _positive("duration")),
        "sample_rate": (int, _fmt, _positive("sample_rate")),
        "max_labels": (int, _fmt, _positive("max_labels")),
        "band_lo": (int, _fmt, _non_negative("band_lo")),
        "band_width": (int, _fmt, _positive("band_width")),
        "band_stride": (int, _fmt, _positive("band_stride")),
        "timbres": (str, _fmt, None),
        "amp_lo": (float, _fmt, _positive("amp_lo")),
        "amp_hi": (float, _fmt, _positive("amp_hi")),
        "amp_shape": (float, _fmt, _positive("amp_shape")),
        "dur_lo": (float, _fmt, _positive("dur_lo")),
        "dur_hi": (float, _fmt, _positive("dur_hi")),
        "events_max": (int, _fmt, _positive("events_max")),
        "noise_floor": (float, _fmt, _non_negative("noise_floor")),
        "hum_amp": (float, _fmt, _non_negative("hum_amp")),
        "video_dim": (int, _fmt, _positive("video_dim")),
        "video_windows": (int, _fmt, _positive("video_windows")),
        "video_noise": (float, _fmt, _non_negative("video_noise")),
        "seed": (int, _fmt, None),
    },
    "model": {
        "arch": (str, _fmt, _choice("arch", ("csn", "resnet"))),
        "fusion": (str, _fmt, _choice(
            "fusion", ("audio_only", "early", "mid1", "mid2", "late"))),
        "conv_channels": (_parse_ints, _fmt, None),
        "pool_time": (_parse_ints, _fmt, None),
        "pool_freq": (_parse_ints, _fmt, None),
        "transformer_blocks": (int, _fmt, _positive("transformer_blocks")),
        "heads": (int, _fmt, _positive("heads")),
        "width": (int, _fmt, _positive("width")),
        "ff_mult": (int, _fmt, _positive("ff_mult")),
        "early_video_bins": (int, _fmt, _positive("early_video_bins")),
        "stem_channels": (int, _fmt, _positive("stem_channels")),
        "resnet_blocks": (int, _fmt, _positive("resnet_blocks")),
        "resnet_pool_time": (_parse_ints, _fmt, None),
        "resnet_pool_freq": (_parse_ints, _fmt, None),
    },
    "train": {
        "epochs": (int, _fmt, _positive("epochs")),
        "batch": (int, _fmt, _positive("batch")),
        "lr": (float, _fmt, _positive("lr")),
        "dropout": (float, _fmt, _non_negative("dropout")),
        "seed": (int, _fmt, None),
    },
    "attack": {
        "norm": (str, _fmt, _choice("norm", ("l1", "l2", "linf"))),
        "eps": (float, _fmt, _positive("eps")),
        "alpha": (float, _fmt, _positive("alpha")),
        "steps": (_parse_optint, _fmt, None),
        "freq_mask": (_parse_range, _fmt_range, None),
        "time_mask": (_parse_range, _fmt_range, None),
        "direction": (str, _fmt, _choice("direction", ("ascent", "descent"))),
        "random_start": (_parse_bool, _fmt, None),
        "batch": (int, _fmt, _positive("batch")),
        "seed": (int, _fmt, None),
    },
    "paths": {
        "workdir": (str, _fmt, None),
    },
}


@dataclass(frozen=True)
class DatasetSection:
    classes: int = 10
    train_clips: int = 1600
    eval_clips: int = 400
    duration: float = 10.0
    sample_rate: int = 16000
    max_labels: int = 3
    band_lo: int = 2
    band_width: int = 6
    band_stride: int = 6
    timbres: str = "tone,harmonic,chirp,noise"
    amp_lo: float = 0.0004
    amp_hi: float = 0.003
    amp_shape: float = 1.5
    dur_lo: float = 0.15
    dur_hi: float = 1.2
    events_max: int = 1
    noise_floor: float = 0.0
    hum_amp: float = 1.0
    video_dim: int = 32
    video_windows: int = 10
    video_noise: float = 0.1
    seed: int = 0


@dataclass(frozen=True)
class ModelSection:
    arch: str = "csn"
    fusion: str = "audio_only"
    conv_channels: tuple = (6, 12, 16, 16)
    pool_time: tuple = (4, 1, 1, 1)
    pool_freq: tuple = (2, 2, 2, 2)
    transformer_blocks: int = 2
    heads: int = 4
    width: int = 64
    ff_mult: int = 2
    early_video_bins: int = 16
    stem_channels: int = 12
    resnet_blocks: int = 2
    resnet_pool_time: tuple = (4, 1, 1)
    resnet_pool_freq: tuple = (2, 2, 2)


@dataclass(frozen=True)
class TrainSection:
    epochs: int = 12
    batch: int = 32
    lr: float = 1e-3
    dropout: float = 0.25
    seed: int = 0


@dataclass(frozen=True)
class AttackSection:
    norm: str = "l2"
    eps: float = 0.3
    alpha: float = 0.01
    steps: int | None = None
    freq_mask: tuple | None = None
    time_mask: tuple | None = None
    direction: str = "ascent"
    random_start: bool = False
    batch: int = 32
    seed: int = 0


@dataclass(frozen=True)
class PathsSection:
    workdir: str = ""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    attack: AttackSection = field(default_factory=AttackSection)
    paths: PathsSection = field(default_factory=PathsSection)

    def with_overrides(self, **section_overrides):
        """Functional update, e.g. cfg.with_overrides(attack={'eps': 0.1})."""
        updates = {}
        for section, over in section_overrides.items():
            if over:
                updates[section] = replace(getattr(self, section), **over)
        return replace(self, **updates)


_SECTIONS = {"dataset": DatasetSection, "model": ModelSection,
             "train": TrainSection, "attack": AttackSection, "paths": PathsSection}


def parse_config(text):
    """Parse config text; returns (ExperimentConfig, applied_default_lines)."""
    values: dict[str, dict] = {name: {} for name in _SECTIONS}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigFileError(f"unknown section [{section}]", line=lineno)
            continue
        if section is None:
            raise ConfigFileError("key outside any [section]", line=lineno)
        key, sep, raw_value = line.partition("=")
        if not sep:
            raise ConfigFileError(f"expected key = value, got {line!r}", line=lineno)
        key = key.strip()
        raw_value = raw_value.strip()
        schema = _SCHEMA[section]
        if key not in schema:
            raise ConfigFileError(f"unknown key {key!r} in section [{section}]",
                                  line=lineno)
        parser, _, validator = schema[key]
        try:
            value = parser(raw_value)
            if validator is not None:
                validator(value)
        except (ValueError, TypeError) as exc:
            raise ConfigFileError(f"bad value for {section}.{key}: {exc}",
                                  line=lineno) from exc
        values[section][key] = value

    applied_defaults = []
    sections = {}
    for name, cls in _SECTIONS.items():
        provided = values[name]
        for f in fields(cls):
            if f.name not in provided:
                default = getattr(cls(), f.name)
                applied_defaults.append(f"{name}.{f.name} = {_default_fmt(name, f.name, default)}")
        sections[name] = cls(**provided)
    return ExperimentConfig(**sections), applied_defaults


def _default_fmt(section, key, value):
    formatter = _SCHEMA[section][key][1]
    return formatter(value)


def serialize_config(config):
    """Emit every key explicitly, in schema order."""
    lines = []
    for name in _SECTIONS:
        lines.append(f"[{name}]")
        section = getattr(config, name)
        for key, (_, formatter, _) in _SCHEMA[name].items():
            lines.append(f"{key} = {formatter(getattr(section, key))}")
        lines.append("")
    return "\n".join(lines)


@dataclass
class SweepPlan:
    """One sweep axis: an ordered list of (label, config-overrides) cells.

    ``axis`` picks the CSV layout; overrides touch only the attack
    section except for the fusion/arch axes, which also vary the model.
    """
    axis: str
    cells: list = field(default_factory=list)   # (label: dict, overrides: dict)

    def __post_init__(self):
        if self.axis not in ("freq", "time", "eps", "fusion", "arch"):
            raise ConfigFileError(f"unknown sweep axis {self.axis!r}")
        labels = [tuple(sorted(label.items())) for label, _ in self.cells]
        if len(labels) != len(set(labels)):
            raise ConfigFileError("sweep cell labels must be unique")
