import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from avrobust import autodiff as ad
from avrobust import metrics
from avrobust import models as M
from avrobust.errors import ConfigurationError, DimensionError, ValidationError


# ---------------------------------------------------------------------------
# brute-force oracles (kept deliberately naive)


def brute_average_precision(scores, targets):
    """Enumerate the ranking (ties by ascending index) and average
    precision at each positive hit."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    precisions = []
    for rank, idx in enumerate(order, start=1):
        if targets[idx] == 1:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


def brute_roc_auc(scores, targets):
    """Count correctly ordered (positive, negative) pairs, ties as 1/2."""
    pos = [s for s, t in zip(scores, targets) if t == 1]
    neg = [s for s, t in zip(scores, targets) if t == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def phi_lower(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bisect_quantile(p):
    """High-precision oracle for the normal quantile.

    Bisects the well-conditioned lower tail; p > 0.5 goes through the
    complement so the oracle consumes the same float rounding of 1-p
    that the implementation does.
    """
    if p > 0.5:
        return -bisect_quantile(1.0 - p)
    lo, hi = -40.0, 0.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if phi_lower(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert metrics.average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_worked_example(self):
        expected = (1.0 / 1.0 + 2.0 / 3.0) / 2.0
        assert metrics.average_precision([0.9, 0.8, 0.1], [1, 0, 1]) == pytest.approx(expected)

    def test_tie_rule_ascending_index(self):
        # all scores equal, the positive sits at index 0 -> ranked first
        assert metrics.average_precision([0.5, 0.5, 0.5, 0.5], [1, 0, 0, 0]) == 1.0
        # same scores, positive at the last index -> ranked last
        assert metrics.average_precision([0.5, 0.5, 0.5, 0.5], [0, 0, 0, 1]) == 0.25

    def test_no_positives_undefined(self):
        with pytest.raises(ValidationError):
            metrics.average_precision([0.3, 0.2], [0, 0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            b = int(rng.integers(2, 64))
            scores = rng.random(b)
            if rng.random() < 0.4:
                scores = np.round(scores, 1)     # induce ties
            targets = (rng.random(b) < 0.4).astype(float)
            if targets.sum() == 0:
                targets[int(rng.integers(b))] = 1.0
            got = metrics.average_precision(scores, targets)
            want = brute_average_precision(list(scores), list(targets))
            assert got == pytest.approx(want, abs=1e-9)


class TestRocAuc:
    def test_perfect_separation(self):
        assert metrics.roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_worked_example(self):
        assert metrics.roc_auc([0.9, 0.8, 0.1], [1, 0, 1]) == pytest.approx(0.5)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(1)
        scores = rng.random(1000)
        targets = (rng.random(1000) < 0.5).astype(float)
        assert metrics.roc_auc(scores, targets) == pytest.approx(0.5, abs=0.05)

    def test_single_class_undefined(self):
        with pytest.raises(ValidationError):
            metrics.roc_auc([0.3, 0.2], [1, 1])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            b = int(rng.integers(2, 64))
            scores = rng.random(b)
            if rng.random() < 0.4:
                scores = np.round(scores, 1)
            targets = (rng.random(b) < 0.5).astype(float)
            if targets.sum() == 0:
                targets[0] = 1.0
            if targets.sum() == b:
                targets[0] = 0.0
            got = metrics.roc_auc(scores, targets)
            want = brute_roc_auc(list(scores), list(targets))
            assert got == pytest.approx(want, abs=1e-9)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.random(50)
        targets = (rng.random(50) < 0.5).astype(float)
        targets[0], targets[1] = 1.0, 0.0
        base_auc = metrics.roc_auc(scores, targets)
        base_ap = metrics.average_precision(scores, targets)
        for transform in (lambda s: 3.0 * s + 1.0, np.exp, lambda s: s ** 3):
            assert metrics.roc_auc(transform(scores), targets) == pytest.approx(base_auc, abs=1e-12)
            assert metrics.average_precision(transform(scores), targets) == pytest.approx(
                base_ap, abs=1e-12)


class TestDPrime:
    def test_half_is_zero(self):
        assert metrics.d_prime(0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("auc,expected", [
        (0.967, 2.598),
        (0.942, 2.218),
        (0.865, 1.558),
        (0.902, 1.830),
    ])
    def test_reported_anchor_values(self, auc, expected):
        assert metrics.d_prime(auc) == pytest.approx(expected, abs=0.005)

    def test_saturated_ends(self):
        assert metrics.d_prime(1.0) == math.inf
        assert metrics.d_prime(0.0) == -math.inf

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            metrics.d_prime(1.5)

    def test_strictly_increasing(self):
        grid = np.linspace(0.01, 0.99, 200)
        values = [metrics.d_prime(a) for a in grid]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_antisymmetry(self):
        for a in np.concatenate([np.linspace(0.01, 0.5, 50), np.geomspace(1e-6, 0.01, 20)]):
            assert metrics.d_prime(1.0 - a) == pytest.approx(-metrics.d_prime(a), abs=1e-9)

    def test_quantile_matches_bisection_oracle(self):
        pts = np.concatenate([np.geomspace(1e-12, 0.5, 500),
                              1.0 - np.geomspace(1e-12, 0.5, 500)])
        for p in pts:
            assert abs(metrics.normal_quantile(float(p)) - bisect_quantile(float(p))) < 1e-8


class TestReports:
    def _report(self, seed=0, b=40, c=6):
        rng = np.random.default_rng(seed)
        scores = rng.random((b, c))
        targets = (rng.random((b, c)) < 0.3).astype(float)
        targets[0] = 1.0
        targets[1] = 0.0
        return metrics.compute_report(scores, targets, meta={"checkpoint": "abc", "seed": 0})

    def test_report_aggregates_match_brute_force(self):
        rng = np.random.default_rng(4)
        scores = rng.random((50, 8))
        targets = (rng.random((50, 8)) < 0.4).astype(float)
        targets[0] = 1.0
        targets[1] = 0.0
        report = metrics.compute_report(scores, targets)
        aps, aucs = [], []
        for c in range(8):
            col = targets[:, c]
            if col.sum() >= 1 and col.sum() < 50:
                aps.append(brute_average_precision(list(scores[:, c]), list(col)))
                aucs.append(brute_roc_auc(list(scores[:, c]), list(col)))
        assert report.map == pytest.approx(np.mean(aps), abs=1e-9)
        assert report.auc == pytest.approx(np.mean(aucs), abs=1e-9)

    def test_undefined_classes_excluded(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.7]])
        targets = np.array([[1.0, 0.0], [0.0, 0.0]])   # class 1 has no positives
        report = metrics.compute_report(scores, targets)
        assert report.per_class[1].ap is None
        assert report.map == 1.0

    def test_json_round_trip(self):
        report = self._report()
        back = metrics.EvalReport.from_json(report.to_json())
        assert back == report
        assert json.loads(report.to_json())["aggregate"]["map"] == report.map

    def test_saturated_dprime_serializes(self):
        scores = np.array([[0.9], [0.1]])
        targets = np.array([[1.0], [0.0]])
        report = metrics.compute_report(scores, targets)
        assert report.dprime_saturated and report.dprime is None
        back = metrics.EvalReport.from_json(report.to_json())
        assert back.dprime_saturated


class _BinMeanModel(M._ModelBase):
    """Class c's probability is the sigmoid of bin c's mean over the frames.

    No parameters, but the real entry point: ``predict_proba`` chunks the
    split and checks and adds the delta before this forward pass sees it.
    """

    params = {}

    def forward(self, audio, video=None, training=False, seed_base=0):
        return ad.sigmoid(ad.reduce_mean(audio, axis=-2))


class TestEvaluate:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.audio = rng.standard_normal((10, 8, 3))
        self.labels = (rng.random((10, 3)) < 0.4).astype(float)
        self.labels[0] = 1.0
        self.labels[1] = 0.0
        self.model = _BinMeanModel()

    def test_deterministic(self):
        r1 = metrics.evaluate(self.model, self.audio, self.labels)
        r2 = metrics.evaluate(self.model, self.audio, self.labels)
        assert r1 == r2

    def test_zero_perturbation_identity(self):
        clean = metrics.evaluate(self.model, self.audio, self.labels)
        attacked = metrics.evaluate(self.model, self.audio, self.labels,
                                    perturbation=np.zeros((8, 3)))
        assert clean == attacked

    def test_whole_split_and_delta_go_to_predict_proba_once(self, monkeypatch):
        calls, predict = [], self.model.predict_proba

        def spy(audio, video=None, delta=None):
            calls.append((audio, video, delta))
            return predict(audio, video, delta=delta)

        monkeypatch.setattr(self.model, "predict_proba", spy)
        pert = SimpleNamespace(delta=np.full((8, 3), 0.5))
        report = metrics.evaluate(self.model, self.audio, self.labels, perturbation=pert)
        assert len(calls) == 1
        assert calls[0][0] is self.audio and calls[0][2] is pert.delta
        shifted = metrics.evaluate(self.model, self.audio + 0.5, self.labels)
        assert report == shifted

    def test_geometry_mismatch(self):
        with pytest.raises(DimensionError, match="perturbation shape"):
            metrics.evaluate(self.model, self.audio, self.labels,
                             perturbation=np.zeros((9, 3)))

    def test_empty_split(self):
        with pytest.raises(ValidationError):
            metrics.evaluate(self.model, np.zeros((0, 8, 4)), np.zeros((0, 3)))

    @pytest.mark.parametrize("modality", ["audio", "video"])
    def test_non_finite_clip_in_the_last_chunk(self, modality):
        """A split is checked for NaN and Inf one chunk at a time, as the
        model converts it, and the error names the features."""
        video = np.zeros((10, 4, 2))
        assert ad.BatchSplit(10).rows[-1] == slice(5, 10)
        (self.audio if modality == "audio" else video)[8, 1, 1] = np.nan
        with pytest.raises(ValidationError, match=f"{modality} features contains NaN or Inf"):
            metrics.evaluate(self.model, self.audio, self.labels, video=video)


class TestCompareReports:
    def _pair(self):
        rng = np.random.default_rng(6)
        scores = rng.random((30, 5))
        targets = (rng.random((30, 5)) < 0.4).astype(float)
        targets[0] = 1.0
        targets[1] = 0.0
        clean = metrics.compute_report(scores, targets, meta={"checkpoint": "x"})
        noisy = np.clip(scores + rng.normal(0, 0.5, scores.shape), 0, 1)
        attacked = metrics.compute_report(noisy, targets, meta={"checkpoint": "x"})
        return clean, attacked

    def test_identical_reports_zero_drop(self):
        clean, _ = self._pair()
        table = metrics.compare_reports(clean, clean)
        assert all(r["abs_drop"] == 0.0 for r in table.rows if r["abs_drop"] is not None)

    def test_relative_drop_arithmetic(self):
        clean, attacked = self._pair()
        clean.per_class[0].ap = 0.8
        attacked.per_class[0].ap = 0.2
        table = metrics.compare_reports(clean, attacked)
        row = next(r for r in table.rows if r["class_id"] == 0)
        assert row["abs_drop"] == pytest.approx(0.6)
        assert row["rel_drop"] == pytest.approx(0.75)

    def test_sorted_by_drop_and_csv_layout(self):
        clean, attacked = self._pair()
        table = metrics.compare_reports(clean, attacked)
        drops = [r["abs_drop"] for r in table.rows if r["abs_drop"] is not None]
        assert drops == sorted(drops, reverse=True)
        csv = table.to_csv()
        assert csv.splitlines()[0] == "class_id,class_name,ap_clean,ap_attacked,abs_drop,rel_drop"

    def test_mismatched_class_sets_rejected(self):
        clean, attacked = self._pair()
        attacked.per_class = attacked.per_class[:-1]
        with pytest.raises(ValidationError):
            metrics.compare_reports(clean, attacked)

    def test_mismatched_checkpoints_rejected(self):
        clean, attacked = self._pair()
        attacked.meta["checkpoint"] = "other"
        with pytest.raises(ValidationError):
            metrics.compare_reports(clean, attacked)
