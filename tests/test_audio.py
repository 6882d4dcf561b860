import numpy as np
import pytest

from avrobust import audio
from avrobust.errors import ConfigurationError, ValidationError


def mel_formula(f):
    # independent evaluation of the mel scale for oracle checks
    return 2595.0 * np.log10(1.0 + f / 700.0)


class TestMelFilterbank:
    def test_rows_nonnegative_with_single_peak(self):
        bank = audio.mel_filterbank(64, 16000, 1024)
        assert bank.shape == (64, 513)
        assert np.all(bank >= 0.0)
        for row in bank:
            assert np.count_nonzero(row == row.max()) == 1
            assert row.max() > 0.0

    def test_center_frequencies_increase(self):
        peaks = audio.mel_bin_peaks(64, 16000)
        assert np.all(np.diff(peaks) > 0)

    def test_peaks_match_mel_formula_within_one_fft_bin(self):
        n_fft = 1024
        sr = 16000
        bank = audio.mel_filterbank(64, sr, n_fft)
        fft_freqs = np.arange(n_fft // 2 + 1) * (sr / n_fft)
        # oracle: invert the mel formula directly for each expected peak
        mel_max = mel_formula(sr / 2.0)
        expected_mel = np.arange(1, 65) * (mel_max / 65.0)
        expected_hz = 700.0 * (10.0 ** (expected_mel / 2595.0) - 1.0)
        bin_width = sr / n_fft
        for m in range(64):
            peak_hz = fft_freqs[np.argmax(bank[m])]
            assert abs(peak_hz - expected_hz[m]) <= bin_width

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            audio.mel_filterbank(1, 16000, 1024)
        with pytest.raises(ConfigurationError):
            audio.mel_filterbank(64, 16000, 1000)

    def test_spectrogram_bank_is_cached_read_only(self):
        cached = audio._mel_filterbank_cached(64, 16000, 1024)
        assert cached is audio._mel_filterbank_cached(64, 16000, 1024)
        assert not cached.flags.writeable
        fresh = audio.mel_filterbank(64, 16000, 1024)
        assert fresh.flags.writeable and fresh is not cached
        np.testing.assert_array_equal(fresh, cached)
        w = np.random.default_rng(0).standard_normal(16000)
        frames = w.reshape(40, 400) * np.hanning(400)
        spectrum = np.fft.rfft(frames, n=1024, axis=1)
        power = spectrum.real ** 2 + spectrum.imag ** 2
        np.testing.assert_array_equal(audio.mel_power_spectrogram(w), power @ fresh.T)


class TestLogMel:
    def test_ten_second_clip_geometry(self):
        w = np.zeros(160000)
        feats = audio.log_mel_spectrogram(w)
        assert feats.shape == (400, 64)

    def test_silence_is_log_floor(self):
        feats = audio.log_mel_spectrogram(np.zeros(16000))
        np.testing.assert_allclose(feats, np.log(1e-6))

    def test_pure_tone_argmax_bin(self):
        sr = 16000
        t = np.arange(sr * 2) / sr
        w = np.sin(2 * np.pi * 1000.0 * t)
        feats = audio.log_mel_spectrogram(w)
        # oracle: nearest filter peak to 1 kHz from the mel formula
        mel_max = mel_formula(sr / 2.0)
        peaks_mel = np.arange(1, 65) * (mel_max / 65.0)
        expected_bin = int(np.argmin(np.abs(peaks_mel - mel_formula(1000.0))))
        assert np.all(feats.argmax(axis=1) == expected_bin)

    def test_scaling_squares_prelog_power(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(16000) * 0.1
        p1 = audio.mel_power_spectrogram(w)
        p2 = audio.mel_power_spectrogram(3.0 * w)
        np.testing.assert_allclose(p2, 9.0 * p1, rtol=1e-10)

    def test_too_short_waveform(self):
        with pytest.raises(ValidationError):
            audio.log_mel_spectrogram(np.zeros(100))

    def test_extraction_is_pure(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal(16000)
        a = audio.log_mel_spectrogram(w)
        b = audio.log_mel_spectrogram(w)
        np.testing.assert_array_equal(a, b)


class TestSynth:
    def setup_method(self):
        self.bank = audio.default_class_bank(10)

    def test_single_tone_band_dominance(self):
        cls = self.bank.classes[0]
        assert cls.timbre == "tone"
        w, labels = audio.synth_clip([0], self.bank, duration=10.0, seed=3)
        power = audio.mel_power_spectrogram(w)
        lo, hi = cls.band
        assert power[:, lo:hi].sum() / power.sum() >= 0.7
        assert labels[0] == 1.0 and labels.sum() == 1.0

    def test_every_tone_clip_dominates_its_band(self):
        for seed in range(5):
            w, _ = audio.synth_clip([4], self.bank, duration=4.0, seed=seed)
            cls = self.bank.by_id(4)
            assert cls.timbre == "tone"
            power = audio.mel_power_spectrogram(w)
            lo, hi = cls.band
            assert power[:, lo:hi].sum() / power.sum() >= 0.7

    def test_multi_class_relative_dominance(self):
        w, _ = audio.synth_clip([0, 1, 2], self.bank, duration=6.0, seed=11)
        power = audio.mel_power_spectrogram(w)
        outside = np.ones(power.shape[1], dtype=bool)
        for cid in (0, 1, 2):
            lo, hi = self.bank.by_id(cid).band
            outside[lo:hi] = False
        out_mean = power[:, outside].mean()
        assert out_mean > 0
        for cid in (0, 1, 2):
            if self.bank.by_id(cid).timbre == "tone":
                lo, hi = self.bank.by_id(cid).band
                assert power[:, lo:hi].mean() >= 3.0 * out_mean

    def test_empty_class_set_rejected(self):
        with pytest.raises(ValidationError):
            audio.synth_clip([], self.bank)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValidationError):
            audio.synth_clip([99], self.bank)

    def test_deterministic_given_seed(self):
        w1, l1 = audio.synth_clip([1, 3], self.bank, duration=2.0, seed=7)
        w2, l2 = audio.synth_clip([1, 3], self.bank, duration=2.0, seed=7)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(l1, l2)

    def test_peak_normalized(self):
        w, _ = audio.synth_clip([2], self.bank, duration=2.0, seed=5)
        assert np.max(np.abs(w)) == pytest.approx(1.0)
        assert np.all(np.abs(w) <= 1.0)

    def test_bank_band_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            audio.default_class_bank(12, band_width=6, band_lo=2)


class TestVideoSurrogate:
    def test_noiseless_single_label_tiles_prototype(self):
        labels = np.zeros(5)
        labels[2] = 1.0
        v = audio.make_video_surrogate(labels, h_dim=16, n_windows=4,
                                       noise_scale=0.0, seed=0, prototype_seed=9)
        assert v.shape == (16, 4)
        for col in range(4):
            np.testing.assert_array_equal(v[:, col], v[:, 0])

    def test_disjoint_label_sets_distinct(self):
        sims = []
        for seed in range(20):
            a = np.zeros(6)
            b = np.zeros(6)
            a[seed % 6] = 1.0
            b[(seed + 1) % 6] = 1.0
            va = audio.make_video_surrogate(a, 32, 3, 0.0, seed=0, prototype_seed=seed)
            vb = audio.make_video_surrogate(b, 32, 3, 0.0, seed=0, prototype_seed=seed)
            ca, cb = va[:, 0], vb[:, 0]
            sims.append(ca @ cb / (np.linalg.norm(ca) * np.linalg.norm(cb)))
        assert max(np.abs(sims)) < 0.9

    def test_deterministic(self):
        labels = np.array([1.0, 0.0, 1.0])
        v1 = audio.make_video_surrogate(labels, 8, 5, 0.3, seed=42, prototype_seed=1)
        v2 = audio.make_video_surrogate(labels, 8, 5, 0.3, seed=42, prototype_seed=1)
        np.testing.assert_array_equal(v1, v2)

    def test_bad_dims(self):
        with pytest.raises(ConfigurationError):
            audio.make_video_surrogate(np.ones(2), 0, 3, 0.0, seed=0)
