"""Output checks for the benchmark, written apart from the program.

Each check recomputes a result with its own numpy code (or tests a
property the method must have) and raises :class:`CheckFailed` when the
program's output disagrees.  Nothing here compares against a stored
copy of an earlier output.  ``test_checks.py`` shows that every check
fails on a deliberately corrupted output.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program failed one of the benchmark's checks."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# AVFB, parsed from the layout in the README


_AVFB_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def parse_avfb(data):
    """Decode one AVFB file: magic, version, dtype, ndim, reserved, u64 extents."""
    require(len(data) >= 8 and data[:4] == b"AVFB", "AVFB magic missing")
    version, code, ndim, reserved = data[4], data[5], data[6], data[7]
    require(version == 1, f"AVFB version {version} is not 1")
    require(code in _AVFB_DTYPES, f"AVFB dtype code {code} unknown")
    require(reserved == 0, "AVFB reserved byte is not 0")
    extents = struct.unpack_from(f"<{ndim}Q", data, 8)
    dtype = _AVFB_DTYPES[code]
    start = 8 + 8 * ndim
    count = int(np.prod(extents))
    require(len(data) == start + count * dtype.itemsize,
            f"AVFB payload length {len(data) - start} does not fit extents {extents}")
    return np.frombuffer(data, dtype=dtype, offset=start).reshape(extents)


def check_feature_file(path, expected_shape, expected_dtype, program_reader):
    """Own parse of an AVFB file must match the geometry and the program's reader."""
    ours = parse_avfb(Path(path).read_bytes())
    require(ours.shape == tuple(expected_shape),
            f"{Path(path).name}: extents {ours.shape}, expected {tuple(expected_shape)}")
    require(ours.dtype == np.dtype(expected_dtype),
            f"{Path(path).name}: dtype {ours.dtype}, expected {expected_dtype}")
    theirs = program_reader(path)
    require(theirs.shape == ours.shape and theirs.dtype == ours.dtype
            and np.array_equal(theirs, ours),
            f"{Path(path).name}: program reader disagrees with the AVFB spec")
    return ours


# ---------------------------------------------------------------------------
# ranking metrics


def ref_average_precision(scores, targets):
    """Mean over positives of precision at the positive's rank.

    Ranks order scores descending with ties broken by ascending index,
    the convention the program documents.
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets) == 1
    idx = np.arange(scores.size)
    ahead = (scores[None, :] > scores[:, None]) | (
        (scores[None, :] == scores[:, None]) & (idx[None, :] <= idx[:, None]))
    rank = ahead.sum(axis=1)
    pos_ahead = (ahead & targets[None, :]).sum(axis=1)
    return float(np.mean(pos_ahead[targets] / rank[targets]))


def ref_auc(scores, targets):
    """Mann-Whitney statistic: share of (positive, negative) pairs in order."""
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets) == 1
    pos, neg = scores[targets], scores[~targets]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def ref_dprime(auc):
    from scipy.stats import norm
    return math.sqrt(2.0) * float(norm.ppf(auc))


def check_report(report, scores, labels):
    """An EvalReport dict against metrics recomputed from the model's scores."""
    classes = report["classes"]
    require(len(classes) == labels.shape[1], "report class count differs from labels")
    for c, entry in enumerate(classes):
        col = labels[:, c]
        n_pos = int(col.sum())
        if n_pos == 0:
            require(entry["ap"] is None, f"class {c}: AP reported without positives")
            continue
        ap = ref_average_precision(scores[:, c], col)
        require(entry["ap"] is not None and abs(entry["ap"] - ap) <= 1e-9,
                f"class {c}: AP {entry['ap']} != recomputed {ap}")
        if n_pos < col.size:
            auc = ref_auc(scores[:, c], col)
            require(entry["auc"] is not None and abs(entry["auc"] - auc) <= 1e-9,
                    f"class {c}: AUC {entry['auc']} != recomputed {auc}")
    defined = [c for c in classes if c["ap"] is not None and c["auc"] is not None]
    agg = report["aggregate"]
    mean_ap = float(np.mean([c["ap"] for c in defined]))
    mean_auc = float(np.mean([c["auc"] for c in defined]))
    require(abs(agg["map"] - mean_ap) <= 1e-12,
            f"report mAP {agg['map']} is not the mean of its defined APs {mean_ap}")
    require(abs(agg["auc"] - mean_auc) <= 1e-12,
            f"report AUC {agg['auc']} is not the mean of its defined AUCs {mean_auc}")
    if 0.0 < mean_auc < 1.0:
        # Acklam's approximation: |error| < 1e-8 in the quantile, times sqrt(2)
        dp = ref_dprime(mean_auc)
        require(agg["dprime"] is not None and abs(agg["dprime"] - dp) <= 2e-8,
                f"report d-prime {agg['dprime']} != sqrt(2)*ppf(AUC) {dp}")
    return mean_ap


# ---------------------------------------------------------------------------
# perturbations


def lp_norm(delta, norm):
    d = np.abs(np.asarray(delta, dtype=np.float64)).reshape(-1)
    if norm == "l1":
        return float(d.sum())
    if norm == "l2":
        return float(np.sqrt(np.sum(d * d)))
    return float(d.max())


def check_delta(path, expected_shape, eps=None, freq=None):
    """A saved delta: Lp norm within eps, exact zeros outside the mask support."""
    path = Path(path)
    delta = parse_avfb(path.read_bytes()).astype(np.float64)
    side = json.loads(path.with_suffix(".json").read_text())
    require(delta.shape == tuple(expected_shape),
            f"{path.name}: delta shape {delta.shape}, expected {tuple(expected_shape)}")
    if eps is not None:
        require(side["epsilon"] == eps, f"{path.name}: sidecar eps {side['epsilon']} != {eps}")
    norm = lp_norm(delta, side["norm"])
    require(norm <= side["epsilon"] * (1.0 + 1e-9),
            f"{path.name}: {side['norm']} norm {norm} exceeds eps {side['epsilon']}")
    require(np.any(delta != 0.0), f"{path.name}: delta is all zero")
    mask = side["mask"]
    lo, hi = (mask["f_lo"], mask["f_hi"]) if mask["f_lo"] is not None else (None, None)
    if freq is not None or lo is not None:
        require((lo, hi) == tuple(freq or (None, None)),
                f"{path.name}: sidecar mask {(lo, hi)} != requested {freq}")
        outside = np.ones(delta.shape[1], dtype=bool)
        outside[lo:hi] = False
        require(not np.any(delta[:, outside]),
                f"{path.name}: delta is nonzero outside mask bins [{lo},{hi})")
    return delta


# ---------------------------------------------------------------------------
# gradients


def check_finite_differences(loss_at, analytic, coords, h=1e-7, rtol=1e-4, atol=1e-8):
    """Central differences of ``loss_at(coord, offset)`` against ``analytic[coord]``.

    The step is small because the input standardization scales bins by
    up to 100 and ReLU/max-pool kinks sit close: at h=1e-5 a difference
    often straddles one and misses by 1e-3 relative.  A coordinate whose
    difference misses is tried once more at h/10 before it fails.
    """
    for coord in coords:
        g = float(analytic[coord])
        for step in (h, h / 10):
            numeric = (loss_at(coord, step) - loss_at(coord, -step)) / (2.0 * step)
            if abs(numeric - g) <= atol + rtol * max(abs(numeric), abs(g)):
                break
        else:
            raise CheckFailed(
                f"gradient at {coord}: analytic {g!r}, central difference {numeric!r}")


def top_coords(grad, k):
    """The k coordinates of largest |gradient|, as index tuples."""
    flat = np.argsort(-np.abs(grad).reshape(-1), kind="stable")[:k]
    return [tuple(int(i) for i in np.unravel_index(f, grad.shape)) for f in flat]


# ---------------------------------------------------------------------------
# run artifacts


def check_loss_curve(text):
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    require(len(rows) >= 2, f"loss curve has {len(rows)} entries, need 2")
    first, last = float(rows[0][1]), float(rows[-1][1])
    require(math.isfinite(last) and last < first,
            f"final training loss {last} is not below the first {first}")


def check_sweep_csv(text, n_cells, workdir):
    lines = text.strip().splitlines()
    require(lines[0] == "freq_mask,eps,norm,alpha,map,auc,dprime",
            f"unexpected sweep header {lines[0]!r}")
    require(len(lines) == n_cells + 2,
            f"sweep CSV has {len(lines) - 1} rows, expected {n_cells} cells + 1 clean")
    require(not (Path(workdir) / "failures.log").exists(), "sweep left a failures.log")
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def check_same_artifacts(snapshots):
    """Every round's artifact hashes equal the first round's (same seed, one thread)."""
    for i, snap in enumerate(snapshots[1:], start=2):
        diff = sorted(k for k in snap.keys() | snapshots[0].keys()
                      if snap.get(k) != snapshots[0].get(k))
        require(not diff, f"round {i} artifacts differ from round 1: {diff}")


def check_checkpoint_round_trip(path, scratch, video=None):
    """Reload, re-save and reload: same bytes, bit-identical predict_proba."""
    from avrobust import models as M
    model, index, opt = M.load_checkpoint(path)
    M.save_checkpoint(scratch, model, optimizer=opt, step=index["step"],
                      rng_state=index["rng_state"])
    require(Path(scratch).read_bytes() == Path(path).read_bytes(),
            f"{Path(path).name}: re-saved checkpoint differs from the original")
    again, _, _ = M.load_checkpoint(scratch)
    x = np.random.default_rng(7).standard_normal((3, 100, model.config.n_mels))
    v = None if video is None else video[:3]
    require(np.array_equal(model.predict_proba(x, v), again.predict_proba(x, v)),
            f"{Path(path).name}: predict_proba changed across a reload")
