"""Synthetic audio generation and log-mel feature extraction.

Clips are built from per-class events whose spectral content is pinned
to an assigned mel band, so frequency-masked attacks have a controlled
ground truth.  Feature geometry defaults to 400 frames x 64 mel bins
for a 10 s clip at 16 kHz (25 ms frames, hop == frame, no overlap).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .base import check_array
from .errors import ConfigurationError, ValidationError

__all__ = [
    "SynthClass", "ClassBank", "default_class_bank",
    "hz_to_mel", "mel_to_hz", "mel_filterbank", "mel_bin_peaks",
    "mel_power_spectrogram", "log_mel_spectrogram",
    "synth_clip", "hum_bed", "make_video_surrogate",
]

LOG_FLOOR = 1e-6
TIMBRES = ("tone", "harmonic", "chirp", "noise")


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _check_fft_size(n_fft):
    if n_fft < 2 or (n_fft & (n_fft - 1)) != 0:
        raise ConfigurationError(f"n_fft must be a power of two, got {n_fft}")


def mel_filterbank(n_mels, sample_rate, n_fft):
    """Triangular mel filters sampled on the rfft frequency grid.

    Returns an (n_mels, n_fft//2 + 1) matrix; filter m rises from mel
    point m to a peak at point m+1 and falls to zero at point m+2, with
    the n_mels+2 points equally spaced in mel between 0 and Nyquist.
    """
    if n_mels < 2:
        raise ConfigurationError(f"n_mels must be >= 2, got {n_mels}")
    _check_fft_size(n_fft)
    points_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2))
    fft_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    bank = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(n_mels):
        left, center, right = points_hz[m], points_hz[m + 1], points_hz[m + 2]
        up = (fft_freqs - left) / (center - left)
        down = (right - fft_freqs) / (right - center)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    return bank


@lru_cache(maxsize=4)
def _mel_filterbank_cached(n_mels, sample_rate, n_fft):
    """``mel_filterbank`` built once per geometry and shared read-only."""
    bank = mel_filterbank(n_mels, sample_rate, n_fft)
    bank.setflags(write=False)
    return bank


def mel_bin_peaks(n_mels, sample_rate):
    """Peak (center) frequency in Hz of each mel filter."""
    points_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2))
    return points_hz[1:-1]


def _frame_signal(samples, frame_len):
    n = samples.shape[0]
    n_frames = max(1, int(round(n / frame_len)))
    padded = np.zeros(n_frames * frame_len)
    padded[:min(n, n_frames * frame_len)] = samples[:n_frames * frame_len]
    return padded.reshape(n_frames, frame_len)


def mel_power_spectrogram(samples, sample_rate=16000, frame_ms=25.0, hop_ms=25.0,
                          n_mels=64, n_fft=1024):
    """Mel-projected magnitude-squared STFT, before the log."""
    samples = check_array(samples, "waveform", ndim=1)
    frame_len = int(round(sample_rate * frame_ms / 1000.0))
    hop_len = int(round(sample_rate * hop_ms / 1000.0))
    if hop_len != frame_len:
        raise ConfigurationError("non-overlapping frames required: frame_ms must equal hop_ms")
    if samples.shape[0] < frame_len:
        raise ValidationError(
            f"waveform of {samples.shape[0]} samples is shorter than one frame ({frame_len})")
    if n_fft < frame_len:
        raise ConfigurationError(f"n_fft {n_fft} smaller than frame length {frame_len}")
    frames = _frame_signal(samples, frame_len)
    window = np.hanning(frame_len)
    spectrum = np.fft.rfft(frames * window, n=n_fft, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    return power @ _mel_filterbank_cached(n_mels, sample_rate, n_fft).T


def log_mel_spectrogram(samples, sample_rate=16000, frame_ms=25.0, hop_ms=25.0,
                        n_mels=64, n_fft=1024, floor=LOG_FLOOR):
    """T x F log-mel feature matrix: natural log of mel power plus a floor."""
    return np.log(mel_power_spectrogram(samples, sample_rate, frame_ms, hop_ms,
                                        n_mels, n_fft) + floor)


# ---------------------------------------------------------------------------
# synthetic clips


@dataclass(frozen=True)
class SynthClass:
    """One synthetic sound class: a mel band plus a timbre family."""
    class_id: int
    name: str
    band: tuple[int, int]          # mel bins [lo, hi)
    timbre: str                    # tone | harmonic | chirp | noise


@dataclass(frozen=True)
class ClassBank:
    """Class definitions together with the feature geometry they refer to."""
    classes: tuple[SynthClass, ...]
    sample_rate: int = 16000
    n_mels: int = 64
    n_fft: int = 1024

    def __post_init__(self):
        for cls in self.classes:
            lo, hi = cls.band
            if not (0 <= lo < hi <= self.n_mels):
                raise ConfigurationError(
                    f"class {cls.name!r} band {cls.band} outside [0, {self.n_mels})")
            if cls.timbre not in TIMBRES:
                raise ConfigurationError(f"unknown timbre {cls.timbre!r}")

    def __len__(self):
        return len(self.classes)

    def by_id(self, class_id):
        for cls in self.classes:
            if cls.class_id == class_id:
                return cls
        raise ValidationError(f"unknown class id {class_id}")

    def names(self):
        return [c.name for c in self.classes]

    def band_hz(self, cls):
        """Hz interval spanned by the peaks of a class's mel bins."""
        peaks = mel_bin_peaks(self.n_mels, self.sample_rate)
        lo, hi = cls.band
        return float(peaks[lo]), float(peaks[hi - 1])


def default_class_bank(n_classes, n_mels=64, band_lo=2, band_width=6,
                       band_stride=None, timbres=TIMBRES,
                       sample_rate=16000, n_fft=1024):
    """Evenly spaced bands, timbre families cycling through the classes."""
    stride = band_width if band_stride is None else band_stride
    classes = []
    for c in range(n_classes):
        lo = band_lo + c * stride
        hi = lo + band_width
        if hi > n_mels:
            raise ConfigurationError(
                f"class {c} band [{lo},{hi}) exceeds {n_mels} mel bins; "
                "reduce n_classes, band_width, or band_stride")
        timbre = timbres[c % len(timbres)]
        classes.append(SynthClass(c, f"{timbre}_{lo:02d}-{hi:02d}", (lo, hi), timbre))
    return ClassBank(tuple(classes), sample_rate=sample_rate, n_mels=n_mels, n_fft=n_fft)


@lru_cache(maxsize=4)
def hum_bed(seed, n_samples, sample_rate=16000, frame_len=400):
    """Deterministic harmonic-comb background, exactly frame-periodic.

    Every component frequency is an integer multiple of
    sample_rate/frame_len, so with hop == frame the bed's per-frame
    spectrum is bit-identical across frames: a steady machine hum whose
    spectral shape a model can subtract exactly.
    """
    rng = np.random.default_rng(seed)
    base = sample_rate / frame_len
    harmonics = np.arange(3, int((sample_rate / 2) / base) - 2)
    amps = rng.uniform(0.2, 1.0, harmonics.shape[0])
    phases = rng.uniform(0.0, 2.0 * np.pi, harmonics.shape[0])
    t = np.arange(n_samples) / sample_rate
    bed = np.zeros(n_samples)
    for k, a, ph in zip(harmonics, amps, phases):
        bed += a * np.sin(2.0 * np.pi * (k * base) * t + ph)
    bed /= np.max(np.abs(bed))
    bed.setflags(write=False)
    return bed


def _event_times(rng, duration, dur_range):
    length = float(rng.uniform(*dur_range))
    length = min(length, duration)
    onset = float(rng.uniform(0.0, duration - length)) if duration > length else 0.0
    return onset, length


def _envelope(n, sample_rate, ramp_ms=10.0):
    ramp = min(max(1, int(sample_rate * ramp_ms / 1000.0)), n // 2)
    env = np.ones(n)
    if ramp > 1:
        fade = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, ramp)))
        env[:ramp] = fade
        env[-ramp:] = fade[::-1]
    return env


def _render_event(cls, bank, rng, n_samples, sample_rate):
    t = np.arange(n_samples) / sample_rate
    f_lo, f_hi = bank.band_hz(cls)
    margin = 0.2 * (f_hi - f_lo)
    lo, hi = f_lo + margin, f_hi - margin
    if cls.timbre == "tone":
        f = rng.uniform(lo, hi)
        sig = np.sin(2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
    elif cls.timbre == "harmonic":
        f0 = rng.uniform(lo, hi)
        sig = np.zeros(n_samples)
        for k, amp in enumerate((1.0, 0.5, 0.25), start=1):
            if k * f0 < sample_rate / 2:
                sig += amp * np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0.0, 2.0 * np.pi))
    elif cls.timbre == "chirp":
        rate = (hi - lo) / t[-1] if n_samples > 1 else 0.0
        phase = 2.0 * np.pi * (lo * t + 0.5 * rate * t * t)
        sig = np.sin(phase + rng.uniform(0.0, 2.0 * np.pi))
    else:  # band-limited noise burst
        white = rng.standard_normal(n_samples)
        spec = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
        spec[(freqs < f_lo) | (freqs > f_hi)] = 0.0
        sig = np.fft.irfft(spec, n=n_samples)
        peak = np.max(np.abs(sig))
        if peak > 0:
            sig = sig / peak
    return sig * _envelope(n_samples, sample_rate)


def synth_clip(class_set, class_bank, duration=10.0, seed=0, *,
               events_range=(1, 2), dur_range=(0.8, 3.0),
               amp_range=(0.08, 0.5), amp_shape=1.0, noise_floor=0.0,
               hum_amp=0.0, hum_seed=0):
    """Render a labeled clip: seeded events for each class, additively mixed.

    Returns ``(waveform, label_vector)`` where the waveform is
    peak-normalized to 1.0 and the multi-hot label vector marks exactly
    ``class_set``.  ``noise_floor`` adds a per-clip broadband Gaussian
    bed; ``hum_amp`` adds the deterministic harmonic-comb bed shared by
    every clip synthesized with the same ``hum_seed`` (amplitudes are
    relative to pre-normalization event amplitudes).  ``amp_shape``
    skews the log-uniform amplitude draw: 1.0 is plain log-uniform,
    larger values concentrate mass toward ``amp_range[0]``.
    """
    if not class_set:
        raise ValidationError("class_set must be non-empty")
    classes = [class_bank.by_id(cid) for cid in class_set]
    rng = np.random.default_rng(seed)
    sr = class_bank.sample_rate
    n = int(round(duration * sr))
    mix = np.zeros(n)
    for cls in sorted(classes, key=lambda c: c.class_id):
        n_events = int(rng.integers(events_range[0], events_range[1] + 1))
        for _ in range(n_events):
            onset, length = _event_times(rng, duration, dur_range)
            i0 = int(onset * sr)
            n_ev = max(int(length * sr), 16)
            n_ev = min(n_ev, n - i0)
            u = float(rng.random()) ** amp_shape
            amp = float(np.exp(np.log(amp_range[0])
                               + u * (np.log(amp_range[1]) - np.log(amp_range[0]))))
            mix[i0:i0 + n_ev] += amp * _render_event(cls, class_bank, rng, n_ev, sr)
    if hum_amp > 0.0:
        mix += hum_amp * hum_bed(hum_seed, n, sr)
    if noise_floor > 0.0:
        mix += noise_floor * rng.standard_normal(n)
    peak = np.max(np.abs(mix))
    if peak > 0:
        mix = mix / peak
    labels = np.zeros(len(class_bank), dtype=np.float64)
    labels[[c.class_id for c in classes]] = 1.0
    return mix, labels


def make_video_surrogate(labels, h_dim, n_windows, noise_scale, seed, prototype_seed=0):
    """Class-conditioned H x N video-feature stand-in.

    A fixed per-class prototype (drawn once from ``prototype_seed``) is
    summed over the active labels, tiled across the N windows, and
    perturbed with Gaussian noise of scale ``noise_scale``.
    """
    if h_dim < 1 or n_windows < 1:
        raise ConfigurationError("video surrogate needs H >= 1 and N >= 1")
    labels = np.asarray(labels, dtype=np.float64)
    protos = np.random.default_rng(prototype_seed).standard_normal((labels.shape[0], h_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    base = labels @ protos                                   # (H,)
    features = np.tile(base[:, None], (1, n_windows))
    if noise_scale > 0.0:
        features = features + noise_scale * np.random.default_rng(seed).standard_normal(
            (h_dim, n_windows))
    return features
