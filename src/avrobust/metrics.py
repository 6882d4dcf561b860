"""Multi-label ranking metrics and clean-vs-attacked comparison reports.

Average precision is precision-at-hit averaged over the positives of a
descending-score ranking; score ties are broken by ascending sample
index (documented convention, exercised by the tests).  ROC AUC is the
fraction of correctly ordered (positive, negative) pairs with ties
counting one half, computed through midranks.  d-prime is
sqrt(2) * Phi^-1(AUC).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .base import check_array, check_binary_targets
from .container import json_field
from .errors import ConfigurationError, DimensionError, FormatError, ValidationError

__all__ = [
    "average_precision", "roc_auc", "normal_quantile", "d_prime",
    "ClassMetrics", "EvalReport", "compute_report", "evaluate",
    "ComparisonTable", "compare_reports",
]


def average_precision(scores, targets):
    """AP of one class; raises ValidationError when there is no positive."""
    scores = check_array(scores, "scores", ndim=1)
    targets = check_binary_targets(targets)
    if targets.shape != scores.shape:
        raise ValidationError("scores and targets must have equal length")
    n_pos = int(targets.sum())
    if n_pos == 0:
        raise ValidationError("average precision undefined without positive samples")
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    hits = targets[order]
    cum_pos = np.cumsum(hits)
    ranks = np.arange(1, scores.shape[0] + 1)
    precision_at_hit = cum_pos[hits == 1.0] / ranks[hits == 1.0]
    return float(precision_at_hit.mean())


def roc_auc(scores, targets):
    """Pairwise-ordering AUC with ties counting 1/2 (midrank statistic)."""
    scores = check_array(scores, "scores", ndim=1)
    targets = check_binary_targets(targets)
    if targets.shape != scores.shape:
        raise ValidationError("scores and targets must have equal length")
    n_pos = int(targets.sum())
    n_neg = targets.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC undefined without both positive and negative samples")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.shape[0])
    sorted_scores = scores[order]
    i = 0
    while i < scores.shape[0]:
        j = i
        while j + 1 < scores.shape[0] and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0   # midrank, 1-based
        i = j + 1
    u = ranks[targets == 1.0].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


# Rational approximation to the standard normal quantile (Acklam's
# coefficients); abs error < 1e-8 over (1e-12, 1-1e-12), verified in
# the tests against a bisection oracle on the erfc-based CDF.
_QA = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_QB = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
       -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
       3.754408661907416e+00)
_P_LOW = 0.02425


def normal_quantile(p):
    """Inverse standard normal CDF via a rational approximation."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"quantile argument must be in (0,1), got {p}")
    a, b, c, d = _QA, _QB, _QC, _QD
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def d_prime(auc):
    """Separation index sqrt(2)*Phi^-1(AUC); +/-inf at the saturated ends."""
    if not 0.0 <= auc <= 1.0:
        raise ConfigurationError(f"AUC must be in [0,1], got {auc}")
    if auc == 0.0:
        return -math.inf
    if auc == 1.0:
        return math.inf
    return math.sqrt(2.0) * normal_quantile(auc)


# ---------------------------------------------------------------------------
# evaluation reports


@dataclass
class ClassMetrics:
    class_id: int
    name: str
    ap: float | None          # None when undefined (no positives)
    auc: float | None         # None when only one target value present

    @property
    def defined(self):
        return self.ap is not None and self.auc is not None


@dataclass
class EvalReport:
    meta: dict
    per_class: list[ClassMetrics]
    map: float
    auc: float
    dprime: float | None
    dprime_saturated: bool = False

    def to_json(self):
        agg = {"map": self.map, "auc": self.auc,
               "dprime": None if self.dprime_saturated else self.dprime,
               "dprime_saturated": self.dprime_saturated}
        classes = [{"id": c.class_id, "name": c.name, "ap": c.ap, "auc": c.auc}
                   for c in self.per_class]
        return json.dumps({"meta": self.meta, "aggregate": agg, "classes": classes},
                          sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text, source="report"):
        """Inverse of ``to_json``; a malformed report is a ``FormatError`` naming ``source``."""
        try:
            obj = json.loads(text)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{source}: invalid JSON ({exc})") from exc
        number, optional = (int, float), (int, float, type(None))
        agg = json_field(obj, "aggregate", source, dict)
        agg_source, class_source = f"{source}, key 'aggregate'", f"{source}, key 'classes'"
        saturated = json_field(agg, "dprime_saturated", agg_source, bool, default=False)
        per_class = [ClassMetrics(json_field(c, "id", class_source, int),
                                  json_field(c, "name", class_source, str),
                                  json_field(c, "ap", class_source, optional),
                                  json_field(c, "auc", class_source, optional))
                     for c in json_field(obj, "classes", source, list)]
        return cls(
            meta=json_field(obj, "meta", source, dict), per_class=per_class,
            map=json_field(agg, "map", agg_source, number),
            auc=json_field(agg, "auc", agg_source, number),
            dprime=None if saturated else json_field(agg, "dprime", agg_source, number),
            dprime_saturated=saturated)


def compute_report(scores, targets, class_names=None, meta=None):
    """Per-class AP/AUC plus macro aggregates over the defined classes.

    Classes lacking a positive (or a negative, for AUC) are reported as
    undefined and excluded from the aggregates.
    """
    scores = check_array(scores, "scores", ndim=2)
    targets = check_binary_targets(targets)
    if targets.shape != scores.shape:
        raise ValidationError(
            f"targets shape {targets.shape} does not match scores shape {scores.shape}")
    n_classes = scores.shape[1]
    if class_names is None:
        class_names = [f"class_{c:02d}" for c in range(n_classes)]
    per_class = []
    for c in range(n_classes):
        col_t = targets[:, c]
        n_pos = int(col_t.sum())
        n_neg = col_t.shape[0] - n_pos
        ap = average_precision(scores[:, c], col_t) if n_pos >= 1 else None
        auc = roc_auc(scores[:, c], col_t) if (n_pos >= 1 and n_neg >= 1) else None
        per_class.append(ClassMetrics(c, class_names[c], ap, auc))
    defined = [c for c in per_class if c.defined]
    if not defined:
        raise ValidationError("no class has both positive and negative samples")
    mean_ap = float(np.mean([c.ap for c in defined]))
    mean_auc = float(np.mean([c.auc for c in defined]))
    dp = d_prime(mean_auc)
    saturated = math.isinf(dp)
    return EvalReport(meta=dict(meta or {}), per_class=per_class,
                      map=mean_ap, auc=mean_auc,
                      dprime=None if saturated else dp,
                      dprime_saturated=saturated)


def evaluate(model, audio, labels, video=None, perturbation=None,
             class_names=None, meta=None):
    """Score an eval split and compute its report.

    ``perturbation`` may be a (T,F) array or any object with a ``delta``
    attribute.  The whole split and the delta go to ``predict_proba`` in
    one call, which checks the delta's shape, streams the split in chunks
    and adds the delta to each chunk's clips; converting a chunk rejects
    an empty split and a non-finite clip.
    Evaluation is deterministic: no dropout, fixed clip order.
    """
    audio = np.asarray(audio)
    if audio.ndim != 3:
        raise DimensionError(f"audio features must be 3-dimensional, got shape {audio.shape}")
    labels = check_binary_targets(labels)
    if labels.shape[0] != audio.shape[0]:
        raise ValidationError("labels row count does not match clip count")
    scores = model.predict_proba(audio, video, delta=getattr(perturbation, "delta", perturbation))
    return compute_report(scores, labels, class_names=class_names, meta=meta)


# ---------------------------------------------------------------------------
# clean vs attacked comparison


@dataclass
class ComparisonTable:
    rows: list[dict] = field(default_factory=list)   # sorted by abs_drop desc

    def to_csv(self):
        lines = ["class_id,class_name,ap_clean,ap_attacked,abs_drop,rel_drop"]
        for r in self.rows:
            vals = [str(r["class_id"]), r["class_name"]]
            for key in ("ap_clean", "ap_attacked", "abs_drop", "rel_drop"):
                vals.append("" if r[key] is None else repr(r[key]))
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"


def compare_reports(clean, attacked):
    """Per-class AP drops between a clean and an attacked report."""
    ids_clean = [(c.class_id, c.name) for c in clean.per_class]
    ids_attacked = [(c.class_id, c.name) for c in attacked.per_class]
    if ids_clean != ids_attacked:
        raise ValidationError("reports cover different class sets")
    ck_clean = clean.meta.get("checkpoint")
    ck_attacked = attacked.meta.get("checkpoint")
    if ck_clean and ck_attacked and ck_clean != ck_attacked:
        raise ValidationError(
            f"reports come from different checkpoints: {ck_clean} vs {ck_attacked}")
    rows = []
    for c_clean, c_att in zip(clean.per_class, attacked.per_class):
        if c_clean.ap is None or c_att.ap is None:
            rows.append({"class_id": c_clean.class_id, "class_name": c_clean.name,
                         "ap_clean": c_clean.ap, "ap_attacked": c_att.ap,
                         "abs_drop": None, "rel_drop": None})
            continue
        abs_drop = c_clean.ap - c_att.ap
        rel_drop = abs_drop / c_clean.ap if c_clean.ap > 0 else 0.0
        rows.append({"class_id": c_clean.class_id, "class_name": c_clean.name,
                     "ap_clean": c_clean.ap, "ap_attacked": c_att.ap,
                     "abs_drop": abs_drop, "rel_drop": rel_drop})
    rows.sort(key=lambda r: (-(r["abs_drop"] if r["abs_drop"] is not None else -math.inf),
                             r["class_id"]))
    return ComparisonTable(rows=rows)
