"""Experiment configuration: a strict `[section]` / `key = value` format.

Each key is declared once, as a section dataclass field that carries its
check, and every section checks its keys when it is built: a bad value
from a file, a CLI flag or a sweep cell is a ``ConfigurationError``
naming ``section.key``, with the line number for a file.  Parsing
returns the typed config plus the list of defaults that were applied.
``serialize_config`` emits every key explicitly, making parse ->
serialize -> parse a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigFileError, ConfigurationError

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


_PARSERS = {bool: _parse_bool, int: int, float: float, str: str, tuple: _parse_ints}


def _positive(v):
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"must be positive and finite, got {v}")


def _non_negative(v):
    if not (math.isfinite(v) and v >= 0):
        raise ValueError(f"must be finite and >= 0, got {v}")


def _fraction(v):
    if not 0 <= v < 1:
        raise ValueError(f"must be in [0, 1), got {v}")


def _all_positive(values):
    if not all(v >= 1 for v in values):
        raise ValueError(f"every entry must be >= 1, got {_fmt(values)}")


def _none_or_non_negative(v):
    if v is not None:
        _non_negative(v)


def _range(v):
    # the upper bound is Mask.validate's: only it knows the feature geometry
    if v is not None and not 0 <= v[0] < v[1]:
        raise ValueError(f"must satisfy 0 <= lo < hi, got {_fmt_range(v)}")


def _choice(*options):
    def check(v):
        if v not in options:
            raise ValueError(f"must be one of {options}, got {v!r}")
    return check


def _key(default, check=lambda v: None, parse=None, fmt=_fmt):
    """One key: default, check (raises ``ValueError``), parser (by default the
    one for the default's type) and formatter."""
    return field(default=default, metadata={
        "check": check, "parse": parse or _PARSERS[type(default)], "fmt": fmt})


class _Section:
    """Checks every key of ``[xxx]`` when an ``XxxSection`` is built or replaced."""

    def __post_init__(self):
        section = type(self).__name__.removesuffix("Section").lower()
        for f in fields(self):
            try:
                f.metadata["check"](getattr(self, f.name))
            except (ValueError, TypeError) as exc:
                raise ConfigurationError(f"bad value for {section}.{f.name}: {exc}") from exc


@dataclass(frozen=True)
class DatasetSection(_Section):
    classes: int = _key(10, _positive)
    train_clips: int = _key(1600, _positive)
    eval_clips: int = _key(400, _positive)
    duration: float = _key(10.0, _positive)
    sample_rate: int = _key(16000, _positive)
    max_labels: int = _key(3, _positive)
    band_lo: int = _key(2, _non_negative)
    band_width: int = _key(6, _positive)
    band_stride: int = _key(6, _positive)
    timbres: str = _key("tone,harmonic,chirp,noise")
    amp_lo: float = _key(0.0004, _positive)
    amp_hi: float = _key(0.003, _positive)
    amp_shape: float = _key(1.5, _positive)
    dur_lo: float = _key(0.15, _positive)
    dur_hi: float = _key(1.2, _positive)
    events_max: int = _key(1, _positive)
    noise_floor: float = _key(0.0, _non_negative)
    hum_amp: float = _key(1.0, _non_negative)
    video_dim: int = _key(32, _positive)
    video_windows: int = _key(10, _positive)
    video_noise: float = _key(0.1, _non_negative)
    seed: int = _key(0, _non_negative)


@dataclass(frozen=True)
class ModelSection(_Section):
    arch: str = _key("csn", _choice("csn", "resnet"))
    fusion: str = _key("audio_only", _choice("audio_only", "early", "mid1", "mid2", "late"))
    conv_channels: tuple = _key((6, 12, 16, 16), _all_positive)
    pool_time: tuple = _key((4, 1, 1, 1), _all_positive)
    pool_freq: tuple = _key((2, 2, 2, 2), _all_positive)
    transformer_blocks: int = _key(2, _positive)
    heads: int = _key(4, _positive)
    width: int = _key(64, _positive)
    ff_mult: int = _key(2, _positive)
    early_video_bins: int = _key(16, _positive)
    stem_channels: int = _key(12, _positive)
    resnet_blocks: int = _key(2, _positive)
    resnet_pool_time: tuple = _key((4, 1, 1), _all_positive)
    resnet_pool_freq: tuple = _key((2, 2, 2), _all_positive)


@dataclass(frozen=True)
class TrainSection(_Section):
    epochs: int = _key(12, _positive)
    batch: int = _key(32, _positive)
    lr: float = _key(1e-3, _positive)
    dropout: float = _key(0.25, _fraction)
    seed: int = _key(0, _non_negative)


@dataclass(frozen=True)
class AttackSection(_Section):
    norm: str = _key("l2", _choice("l1", "l2", "linf"))
    eps: float = _key(0.3, _positive)
    alpha: float = _key(0.01, _positive)
    steps: int | None = _key(None, _none_or_non_negative, parse=_parse_optint)
    freq_mask: tuple | None = _key(None, _range, parse=_parse_range, fmt=_fmt_range)
    time_mask: tuple | None = _key(None, _range, parse=_parse_range, fmt=_fmt_range)
    direction: str = _key("ascent", _choice("ascent", "descent"))
    random_start: bool = _key(False)
    batch: int = _key(32, _positive)
    seed: int = _key(0, _non_negative)


@dataclass(frozen=True)
class PathsSection(_Section):
    workdir: str = _key("")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    attack: AttackSection = field(default_factory=AttackSection)
    paths: PathsSection = field(default_factory=PathsSection)

    def with_overrides(self, **section_overrides):
        """Checked functional update, e.g. cfg.with_overrides(attack={'eps': 0.1})."""
        updates = {}
        for section, over in section_overrides.items():
            if over:
                updates[section] = replace(getattr(self, section), **over)
        return replace(self, **updates)


_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)}


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
        f = next((f for f in fields(_SECTIONS[section]) if f.name == key), None)
        if f is None:
            raise ConfigFileError(f"unknown key {key!r} in section [{section}]",
                                  line=lineno)
        try:
            value = f.metadata["parse"](raw_value.strip())
            f.metadata["check"](value)
        except (ValueError, TypeError) as exc:
            raise ConfigFileError(f"bad value for {section}.{key}: {exc}",
                                  line=lineno) from exc
        values[section][key] = value

    applied_defaults = [f"{name}.{f.name} = {f.metadata['fmt'](f.default)}"
                        for name, cls in _SECTIONS.items() for f in fields(cls)
                        if f.name not in values[name]]
    return (ExperimentConfig(**{name: cls(**values[name]) for name, cls in _SECTIONS.items()}),
            applied_defaults)


def serialize_config(config):
    """Emit every key explicitly, in declaration order."""
    lines = []
    for name in _SECTIONS:
        lines.append(f"[{name}]")
        section = getattr(config, name)
        lines += [f"{f.name} = {f.metadata['fmt'](getattr(section, f.name))}"
                  for f in fields(section)]
        lines.append("")
    return "\n".join(lines)


@dataclass
class SweepPlan:
    """One sweep axis: an ordered list of (label, config, attacked) cells.

    ``axis`` picks the CSV layout; only the fusion/arch axes have cells
    that are not attacked (their clean rows).
    """
    axis: str
    cells: list = field(default_factory=list)   # (label: dict, ExperimentConfig, bool)

    def __post_init__(self):
        if self.axis not in ("freq", "time", "eps", "fusion", "arch"):
            raise ConfigFileError(f"unknown sweep axis {self.axis!r}")
        labels = [tuple(sorted(cell[0].items())) for cell in self.cells]
        if len(labels) != len(set(labels)):
            raise ConfigFileError("sweep cell labels must be unique")
