"""End-to-end run plumbing shared by the CLI and the test harness.

Chains synthesize -> train -> attack -> evaluate over an experiment
config, with every artifact written under one workdir:

    workdir/
      manifest.jsonl       one JSON record per clip
      classes.json         class bank (names, bands, timbres)
      features/<id>.avfb   float32 log-mel features
      video/<id>.avfb      float32 surrogate video features
      config.ini           resolved config actually used
      model.ckpt           checkpoint + optimizer state
      loss_curve.csv
      delta.avfb/.json     universal perturbation + sidecar
      report_*.json        EvalReports
      sweep_*.csv          table-layout sweep results

Every artifact is a pure function of (config, seeds), so identical
configs reproduce byte-identical files.

Independent jobs run through ``_map_on_workers``: a pool of forked
workers, one per usable CPU and each pinned to one BLAS thread and one
autodiff op thread, that returns results in job order.  ``run_synth``
and ``generate_dataset`` hand it one job per clip; ``run_sweep`` hands
it one job per row, clean or attacked, after training every checkpoint
in this process.  With one CPU or one job the jobs run here, one after
another, and write the same bytes.

In this process the op threads carry the parallelism: the model entry
points, the one path from a split into the model, cut each batch into
chunks of a few rows, and each op thread runs its chunks' forward and
backward passes, one chunk at a time and each on its own tape
(``autodiff.BatchSplit``); this thread adds the chunks' gradients in
chunk order as they finish.  The chunk boundaries depend only on the
batch size, so every byte is the same at any op-thread count and in a
worker as in this process; ``cli.main`` pins BLAS to one thread.  The entry points
get the split's video whatever the model, and they check the universal
delta and add it to each chunk; evaluation passes ``predict_proba`` the
whole split in one call.  ``load_split`` fills one preallocated array
per split, and a clip whose shape differs from the first clip's is a
``FormatError`` naming it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import audio as au
from . import autodiff as ad
from . import attacks as atk
from . import metrics as mx
from . import models as M
from .config import SweepPlan, serialize_config
from .container import (
    ClipRecord,
    atomic_write_bytes,
    json_field,
    read_feature_file,
    read_manifest,
    write_feature_file,
    write_manifest,
)
from .errors import AvrobustError, FormatError, ValidationError
from .models import _derive_seed

__all__ = [
    "ArrayDataset", "build_class_bank", "generate_dataset",
    "run_synth", "load_split", "train_in_memory", "run_train", "run_attack", "run_eval",
    "run_report", "build_sweep_plan", "run_sweep", "file_sha256",
]


@dataclass
class ArrayDataset:
    audio: np.ndarray          # (B,T,F) float32
    video: np.ndarray          # (B,H,N) float32
    labels: np.ndarray         # (B,C) float64 multi-hot
    ids: list
    class_names: list


def file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_class_bank(ds):
    timbres = tuple(t.strip() for t in ds.timbres.split(",") if t.strip())
    return au.default_class_bank(
        ds.classes, band_lo=ds.band_lo, band_width=ds.band_width,
        band_stride=ds.band_stride, timbres=timbres,
        sample_rate=ds.sample_rate)


def _clip_arrays(ds, bank, split, index):
    """Deterministically synthesize one clip's features, video, and labels."""
    seed = _derive_seed(ds.seed, 0 if split == "train" else 1, index)
    rng = np.random.default_rng(_derive_seed(seed, 17))
    n_labels = int(rng.integers(1, ds.max_labels + 1))
    class_set = sorted(rng.choice(ds.classes, size=n_labels, replace=False).tolist())
    wave, labels = au.synth_clip(
        class_set, bank, duration=ds.duration, seed=seed,
        events_range=(1, ds.events_max), dur_range=(ds.dur_lo, ds.dur_hi),
        amp_range=(ds.amp_lo, ds.amp_hi), amp_shape=ds.amp_shape,
        noise_floor=ds.noise_floor,
        hum_amp=ds.hum_amp, hum_seed=_derive_seed(ds.seed, 31))
    feats = au.log_mel_spectrogram(wave, sample_rate=ds.sample_rate).astype(np.float32)
    video = au.make_video_surrogate(
        labels, ds.video_dim, ds.video_windows, ds.video_noise,
        seed=_derive_seed(seed, 23),
        prototype_seed=_derive_seed(ds.seed, 29)).astype(np.float32)
    return feats, video, labels, seed


# ---------------------------------------------------------------------------
# worker pool


def _openblas_thread_setter():
    """numpy's bundled OpenBLAS ``set_num_threads``, or None where it cannot be reached."""
    import ctypes
    try:
        from numpy._core import _multiarray_umath
        fn = getattr(ctypes.CDLL(_multiarray_umath.__file__),
                     "scipy_openblas_set_num_threads64_", None)
    except (ImportError, OSError):
        return None
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
    return fn


def _init_worker(set_blas_threads):
    set_blas_threads(1)
    ad._OP_THREADS = 1


def _map_on_workers(fn, jobs):
    """``[fn(*job) for job in jobs]``, computed on a pool of forked workers.

    One worker per usable CPU and at most one per job, each pinned to one
    BLAS thread and one autodiff op thread: two workers with two threads
    each would oversubscribe the cores.  Jobs go out in chunks of about a
    quarter of each worker's share, so hundreds of small jobs are not as
    many pipe round trips.  Falls back to this process, one job after another, when
    there is one CPU or job, or when the BLAS thread count cannot be set.
    Results keep job order; an exception raised by any job re-raises here
    and the jobs not yet started are cancelled.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(jobs))
    set_blas_threads = _openblas_thread_setter() if workers > 1 else None
    if set_blas_threads is None:
        return [fn(*job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # fork: workers start with this process's imports and state instead of
    # re-importing numpy, and the initializer is inherited, not pickled; the
    # fork context launches every worker before the executor starts its own
    # threads, OpenBLAS quiesces its thread pool across a fork, and autodiff
    # drops its op-thread executor in the child
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(set_blas_threads,))
    try:
        return list(pool.map(fn, *zip(*jobs),
                             chunksize=max(1, len(jobs) // (4 * workers))))
    finally:
        pool.shutdown(cancel_futures=True)


def generate_dataset(ds, split):
    """Build one split fully in memory (no files)."""
    bank = build_class_bank(ds)
    count = ds.train_clips if split == "train" else ds.eval_clips
    clips = _map_on_workers(_clip_arrays, [(ds, bank, split, i) for i in range(count)])
    feats, video, labels, _ = zip(*clips)
    return ArrayDataset(np.stack(feats), np.stack(video), np.stack(labels),
                        [f"{split}_{i:05d}" for i in range(count)], bank.names())


def _synth_clip(ds, bank, split, index, workdir):
    """Write one clip's ``features/`` and ``video/`` files; returns its record."""
    feats, video, labels, seed = _clip_arrays(ds, bank, split, index)
    clip_id = f"{split}_{index:05d}"
    write_feature_file(workdir / "features" / f"{clip_id}.avfb", feats)
    write_feature_file(workdir / "video" / f"{clip_id}.avfb", video)
    return ClipRecord(id=clip_id, features=f"features/{clip_id}.avfb",
                      video=f"video/{clip_id}.avfb",
                      labels=[int(c) for c in np.flatnonzero(labels)],
                      split=split, seed=seed)


def run_synth(config, workdir):
    """Synthesize both splits to disk; returns the manifest path.

    Each clip is one ``_map_on_workers`` job that writes its own feature
    files; the manifest (in clip order), class bank and resolved config
    are written here once every clip is on disk.
    """
    workdir = Path(workdir)
    (workdir / "features").mkdir(parents=True, exist_ok=True)
    (workdir / "video").mkdir(parents=True, exist_ok=True)
    ds = config.dataset
    bank = build_class_bank(ds)
    records = _map_on_workers(_synth_clip, [
        (ds, bank, split, i, workdir)
        for split, count in (("train", ds.train_clips), ("eval", ds.eval_clips))
        for i in range(count)])
    manifest_path = workdir / "manifest.jsonl"
    write_manifest(manifest_path, records)
    classes = [{"id": c.class_id, "name": c.name, "band": list(c.band),
                "timbre": c.timbre} for c in bank.classes]
    atomic_write_bytes(workdir / "classes.json",
                       (json.dumps({"classes": classes, "n_mels": bank.n_mels,
                                    "sample_rate": bank.sample_rate},
                                   sort_keys=True, indent=1) + "\n").encode())
    atomic_write_bytes(workdir / "config.ini", serialize_config(config).encode())
    return manifest_path


def load_split(workdir, split, n_classes):
    """Read one split of a synthesized dataset back into arrays.

    Every clip's features and video must have the shape and dtype of the
    split's first clip; a clip that differs is a ``FormatError`` naming it.
    """
    workdir = Path(workdir)
    records = [r for r in read_manifest(workdir / "manifest.jsonl") if r.split == split]
    if not records:
        raise ValidationError(f"manifest has no {split!r} split")
    arrays = {"features": None, "video": None}
    labels = np.zeros((len(records), n_classes))
    for k, rec in enumerate(records):
        for c in rec.labels:
            if not 0 <= c < n_classes:
                raise ValidationError(f"clip {rec.id!r} has label {c}, outside the "
                                      f"{n_classes} configured classes")
        for what, out in arrays.items():
            arr = read_feature_file(workdir / getattr(rec, what))
            if out is None:
                out = arrays[what] = np.empty((len(records),) + arr.shape, arr.dtype)
            if arr.shape != out.shape[1:] or arr.dtype != out.dtype:
                raise FormatError(
                    f"clip {rec.id!r}: {what} are {arr.dtype} {arr.shape}, the "
                    f"{split} split's first clip's are {out.dtype} {out.shape[1:]}")
            out[k] = arr
        labels[k, rec.labels] = 1.0
    names = _class_names(workdir, n_classes)
    return ArrayDataset(arrays["features"], arrays["video"], labels,
                        [r.id for r in records], names)


def _class_names(workdir, n_classes):
    """One name per configured class, from ``classes.json`` when there is one."""
    path = Path(workdir) / "classes.json"
    if not path.exists():
        return [f"class_{c:02d}" for c in range(n_classes)]
    source = f"class bank {path}"
    try:
        obj = json.loads(path.read_text("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{source}: invalid JSON ({exc})") from exc
    classes = json_field(obj, "classes", source, list)
    if len(classes) != n_classes:
        raise FormatError(f"{source}: key 'classes' holds {len(classes)} entries, "
                          f"not the {n_classes} configured classes")
    return [json_field(c, "name", f"{source}, key 'classes'", str) for c in classes]


def build_model(config, n_mels, n_classes):
    m, t = config.model, config.train
    if m.arch == "resnet":
        cfg = M.ResnetConfig(
            stem_channels=m.stem_channels, blocks=m.resnet_blocks,
            pool_time=m.resnet_pool_time, pool_freq=m.resnet_pool_freq,
            classes=n_classes, n_mels=n_mels)
        return M.ResnetModel(cfg, seed=t.seed)
    cfg = M.CsnConfig(
        conv_channels=m.conv_channels, pool_time=m.pool_time, pool_freq=m.pool_freq,
        transformer_blocks=m.transformer_blocks, heads=m.heads, width=m.width,
        ff_mult=m.ff_mult, classes=n_classes, dropout=t.dropout,
        fusion=m.fusion, n_mels=n_mels,
        video_dim=config.dataset.video_dim, early_video_bins=m.early_video_bins)
    return M.CsnModel(cfg, seed=t.seed)


def train_in_memory(config, train_data):
    """Build and train a model on an in-memory split; returns (model, result).

    The one training path: ``run_train`` and the sweeps go through here.
    """
    t = config.train
    model = build_model(config, train_data.audio.shape[2], train_data.labels.shape[1])
    steps = t.epochs * max(1, math.ceil(train_data.audio.shape[0] / t.batch))
    result = M.train_model(model, train_data.audio, train_data.labels, video=train_data.video,
                           steps=steps, batch_size=t.batch, lr=t.lr, seed=t.seed)
    return model, result


def run_train(config, workdir, out=None):
    """Train from the workdir manifest; writes checkpoint + loss curve CSV."""
    workdir = Path(workdir)
    if not (workdir / "manifest.jsonl").exists():
        raise ValidationError(f"no manifest.jsonl under {workdir}; run synth first")
    model, result = train_in_memory(
        config, load_split(workdir, "train", config.dataset.classes))
    ckpt_path = Path(out) if out else workdir / "model.ckpt"
    M.save_checkpoint(ckpt_path, model, optimizer=result.optimizer, step=result.steps,
                      rng_state={"seed": config.train.seed, "step": result.steps})
    curve = "step,loss\n" + "".join(f"{s},{l!r}\n" for s, l in result.loss_curve)
    atomic_write_bytes(workdir / "loss_curve.csv", curve.encode())
    return ckpt_path


def attack_config_from(config):
    a = config.attack
    mask = None
    if a.freq_mask is not None or a.time_mask is not None:
        mask = atk.Mask(freq=a.freq_mask, time=a.time_mask)
    return atk.AttackConfig(norm=a.norm, epsilon=a.eps, alpha=a.alpha, steps=a.steps,
                            mask=mask, seed=a.seed, direction=a.direction,
                            random_start=a.random_start, batch_size=a.batch)


def run_attack(config, workdir, checkpoint, out=None):
    """Train a universal perturbation on the train split; writes delta files."""
    workdir = Path(workdir)
    model, _, _ = M.load_checkpoint(checkpoint)
    train_data = load_split(workdir, "train", config.dataset.classes)
    pert = atk.train_universal_perturbation(
        model, train_data.audio, train_data.labels, attack_config_from(config),
        video=train_data.video, provenance=file_sha256(workdir / "manifest.jsonl"))
    out_path = Path(out) if out else workdir / "delta.avfb"
    atk.save_perturbation(out_path, pert)
    return out_path


def run_eval(config, workdir, checkpoint, perturbation=None, out=None):
    """Evaluate the eval split, optionally under a saved perturbation."""
    workdir = Path(workdir)
    model, _, _ = M.load_checkpoint(checkpoint)
    eval_data = load_split(workdir, "eval", config.dataset.classes)
    pert = None
    pert_id = "clean"
    if perturbation is not None:
        pert = atk.load_perturbation(perturbation)
        pert_id = file_sha256(perturbation)
    meta = {"checkpoint": file_sha256(checkpoint), "perturbation": pert_id,
            "seed": config.train.seed}
    report = mx.evaluate(model, eval_data.audio, eval_data.labels, video=eval_data.video,
                         perturbation=pert, class_names=eval_data.class_names,
                         meta=meta)
    out_path = Path(out) if out else workdir / (
        "report_clean.json" if pert is None else "report_attacked.json")
    atomic_write_bytes(out_path, (report.to_json() + "\n").encode())
    return out_path


def run_report(clean_path, attacked_path, out):
    clean, attacked = (mx.EvalReport.from_json(Path(path).read_bytes(), source=str(path))
                       for path in (clean_path, attacked_path))
    table = mx.compare_reports(clean, attacked)
    atomic_write_bytes(out, table.to_csv().encode())
    return Path(out)


# ---------------------------------------------------------------------------
# sweeps


def _mask_label(rng):
    return "No" if rng is None else f"{rng[0]}-{rng[1]}"


def build_sweep_plan(axis, config, masks=None, eps_list=None, fusions=None,
                     arches=None):
    """Expand one sweep axis into labeled ``(label, config, attacked)`` cells.

    freq/time axes cross the mask values with the eps list (``run_sweep``
    adds one clean row); the fusion/arch axes produce a clean and an
    attacked cell per variant.  Every cell's config, and every eps on any
    axis, is checked here, so a bad value is a ``ConfigurationError``
    before any work.
    """
    eps_configs = [config.with_overrides(attack={"eps": eps})
                   for eps in (eps_list or [config.attack.eps])]
    cells = []
    if axis in ("freq", "time"):
        key = "freq_mask" if axis == "freq" else "time_mask"
        for mask in (masks if masks is not None else [None]):
            for eps_config in eps_configs:
                cells.append(({"mask": _mask_label(mask), "eps": eps_config.attack.eps},
                              eps_config.with_overrides(attack={key: mask}), True))
    elif axis == "eps":
        cells += [({"eps": c.attack.eps}, c, True) for c in eps_configs]
    elif axis in ("fusion", "arch"):
        key, column, variants = (
            ("fusion", "fusion", fusions or ["early", "mid1", "mid2", "late"])
            if axis == "fusion" else ("arch", "model", arches or ["csn", "resnet"]))
        for variant in variants:
            cell_config = config.with_overrides(model={key: variant})
            cells += [({column: variant, "attack": "yes" if attacked else "no"},
                       cell_config, attacked) for attacked in (False, True)]
    return SweepPlan(axis=axis, cells=cells)


_CLEAN_HEADS = {"freq": "No,-,-,-", "time": "No,-,-,-", "eps": "-,-,-"}
_SWEEP_HEADERS = {
    "freq": "freq_mask,eps,norm,alpha,map,auc,dprime",
    "time": "time_mask,eps,norm,alpha,map,auc,dprime",
    "eps": "eps,norm,alpha,map,auc,dprime",
    "fusion": "fusion,attack,map,auc,dprime",
    "arch": "model,attack,map,auc,dprime",
}


def _fmt_dprime(report):
    if report.dprime is None:       # saturated: the AUC is exactly 0 or 1
        return "-inf" if report.auc < 0.5 else "inf"
    return f"{report.dprime:.6f}"


def _report_cells(report):
    return f"{report.map:.6f},{report.auc:.6f},{_fmt_dprime(report)}"


def _sweep_row(config, workdir, ckpt, report_out, delta_out, error):
    """Evaluate one sweep row, attacking first when ``delta_out`` is set.

    Returns (report path, None), or (None, error repr) when the row
    fails; a row whose checkpoint failed to train returns that ``error``.
    Takes and returns only paths and config, so it runs unchanged in a
    pool worker.  Only an ``AvrobustError`` becomes a returned failure.
    """
    if error is not None:
        return None, error
    try:
        delta = None if delta_out is None else run_attack(config, workdir, ckpt,
                                                          out=delta_out)
        return run_eval(config, workdir, ckpt, perturbation=delta, out=report_out), None
    except AvrobustError as exc:
        return None, repr(exc)


def run_sweep(config, workdir, plan, out=None):
    """Run every cell, reusing checkpoints whenever the model is unchanged.

    Emits one CSV row per cell (plus one clean row for attack-axis
    sweeps).  A row that raises an ``AvrobustError`` is logged to
    failures.log and skipped; the partial CSV is still written and the
    failures returned.  Any other exception is a bug and propagates.

    Every distinct checkpoint is trained first, in this process, whose op
    threads split each training batch.  Then every row, clean or
    attacked, is one ``_map_on_workers`` job; rows and failures keep plan
    order, so every file matches a one-process run.
    """
    workdir = Path(workdir)
    out_path = Path(out) if out else workdir / f"sweep_{plan.axis}.csv"
    attack_axis = plan.axis in _CLEAN_HEADS
    rows = []   # (failures.log name, CSV head, config, file tag or None for a clean row)
    if attack_axis and plan.cells:
        rows.append(("clean", _CLEAN_HEADS[plan.axis], config, None))
    for label, cell_config, attacked in plan.cells:
        head = ",".join(str(v) for v in label.values())
        if attack_axis:
            head += f",{cell_config.attack.norm},{cell_config.attack.alpha}"
        tag = "_".join(str(v) for v in label.values()).replace(":", "-")
        rows.append((label, head, cell_config, tag if attacked else None))

    trained = {}    # model and train sections -> (checkpoint, training error repr or None)
    jobs = []
    for _, _, cell_config, tag in rows:
        key = json.dumps({"model": cell_config.model.__dict__,
                          "train": cell_config.train.__dict__}, sort_keys=True,
                         default=str)
        if key not in trained:     # numbered among the checkpoints that trained
            done = sum(error is None for _, error in trained.values())
            ckpt = workdir / f"model_{plan.axis}_{done}.ckpt"
            try:
                trained[key] = run_train(cell_config, workdir, out=ckpt), None
            except AvrobustError as exc:
                trained[key] = ckpt, repr(exc)
        ckpt, error = trained[key]
        report_out, delta_out = workdir / f"{ckpt.stem}_clean.json", None
        if tag is not None:
            report_out = workdir / f"report_{plan.axis}_{tag}.json"
            delta_out = workdir / f"delta_{plan.axis}_{tag}.avfb"
        jobs.append((cell_config, workdir, ckpt, report_out, delta_out, error))

    lines, failures = [_SWEEP_HEADERS[plan.axis]], []
    for (name, head, _, _), (report_path, error) in zip(
            rows, _map_on_workers(_sweep_row, jobs)):
        if error is None:
            report = mx.EvalReport.from_json(report_path.read_text(), source=str(report_path))
            lines.append(f"{head},{_report_cells(report)}")
        else:
            failures.append(f"{name}: {error}")
    atomic_write_bytes(out_path, ("\n".join(lines) + "\n").encode())
    if failures:
        atomic_write_bytes(workdir / "failures.log",
                           ("\n".join(failures) + "\n").encode())
    return out_path, failures
