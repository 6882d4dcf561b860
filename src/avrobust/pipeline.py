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
it the attacked cells, after training every checkpoint in this process.  With one CPU or one
job the jobs run here, one after another, and write the same bytes.
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
    read_feature_file,
    read_manifest,
    write_feature_file,
    write_manifest,
)
from .errors import AvrobustError, ValidationError
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
    """Read one split of a synthesized dataset back into arrays."""
    workdir = Path(workdir)
    records = [r for r in read_manifest(workdir / "manifest.jsonl") if r.split == split]
    if not records:
        raise ValidationError(f"manifest has no {split!r} split")
    feats, video, labels = [], [], []
    for rec in records:
        feats.append(read_feature_file(workdir / rec.features))
        video.append(read_feature_file(workdir / rec.video))
        row = np.zeros(n_classes)
        row[rec.labels] = 1.0
        labels.append(row)
    names = _class_names(workdir, n_classes)
    return ArrayDataset(np.stack(feats), np.stack(video), np.stack(labels),
                        [r.id for r in records], names)


def _class_names(workdir, n_classes):
    path = Path(workdir) / "classes.json"
    if path.exists():
        obj = json.loads(path.read_text())
        return [c["name"] for c in obj["classes"]]
    return [f"class_{c:02d}" for c in range(n_classes)]


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
        fusion=M.FusionStage(m.fusion), n_mels=n_mels,
        video_dim=config.dataset.video_dim, early_video_bins=m.early_video_bins)
    return M.CsnModel(cfg, seed=t.seed)


def _needs_video(config):
    return config.model.arch == "csn" and config.model.fusion != "audio_only"


def train_in_memory(config, train_data):
    """Build and train a model on an in-memory split; returns (model, result).

    The one training path: ``run_train`` and the sweeps go through here.
    """
    t = config.train
    model = build_model(config, train_data.audio.shape[2], train_data.labels.shape[1])
    steps = t.epochs * max(1, math.ceil(train_data.audio.shape[0] / t.batch))
    video = train_data.video if _needs_video(config) else None
    result = M.train_model(model, train_data.audio, train_data.labels, video=video,
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
    cfg = attack_config_from(config)
    if cfg.mask is not None:
        cfg.mask.validate(train_data.audio.shape[1:])
    video = train_data.video if _needs_video(config) else None
    pert = atk.train_universal_perturbation(
        model, train_data.audio, train_data.labels, cfg, video=video,
        provenance=file_sha256(workdir / "manifest.jsonl"))
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
        if pert.delta.shape != eval_data.audio.shape[1:]:
            raise ValidationError(
                f"perturbation geometry {pert.delta.shape} does not match the "
                f"dataset's {eval_data.audio.shape[1:]}")
        pert_id = file_sha256(perturbation)
    meta = {"checkpoint": file_sha256(checkpoint), "perturbation": pert_id,
            "seed": config.train.seed}
    video = eval_data.video if _needs_video(config) else None
    report = mx.evaluate(model, eval_data.audio, eval_data.labels, video=video,
                         perturbation=pert, class_names=eval_data.class_names,
                         meta=meta)
    out_path = Path(out) if out else workdir / (
        "report_clean.json" if pert is None else "report_attacked.json")
    atomic_write_bytes(out_path, (report.to_json() + "\n").encode())
    return out_path


def run_report(clean_path, attacked_path, out):
    clean = mx.EvalReport.from_json(Path(clean_path).read_text())
    attacked = mx.EvalReport.from_json(Path(attacked_path).read_text())
    table = mx.compare_reports(clean, attacked)
    atomic_write_bytes(out, table.to_csv().encode())
    return Path(out)


# ---------------------------------------------------------------------------
# sweeps


def _mask_label(rng):
    return "No" if rng is None else f"{rng[0]}-{rng[1]}"


def build_sweep_plan(axis, config, masks=None, eps_list=None, fusions=None,
                     arches=None):
    """Expand one sweep axis into labeled config-override cells.

    freq/time axes cross the mask values with the eps list and include
    one clean row; the fusion/arch axes produce a clean and an attacked
    row per variant.
    """
    eps_values = list(eps_list) if eps_list else [config.attack.eps]
    cells = []
    if axis in ("freq", "time"):
        key = "freq_mask" if axis == "freq" else "time_mask"
        for mask in (masks if masks is not None else [None]):
            for eps in eps_values:
                label = {"mask": _mask_label(mask), "eps": eps}
                cells.append((label, {"attack": {key: mask, "eps": eps}}))
    elif axis == "eps":
        for eps in eps_values:
            cells.append(({"eps": eps}, {"attack": {"eps": eps}}))
    elif axis == "fusion":
        for fusion in (fusions or ["early", "mid1", "mid2", "late"]):
            for attacked in (False, True):
                cells.append(({"fusion": fusion, "attack": "yes" if attacked else "no"},
                              {"model": {"fusion": fusion},
                               "_attacked": attacked}))
    elif axis == "arch":
        for arch in (arches or ["csn", "resnet"]):
            for attacked in (False, True):
                cells.append(({"model": arch, "attack": "yes" if attacked else "no"},
                              {"model": {"arch": arch}, "_attacked": attacked}))
    return SweepPlan(axis=axis, cells=cells)


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


def _attacked_cell(cell_config, workdir, ckpt, axis, label):
    """Attack and evaluate one sweep cell: (report path, None) or (None, error repr).

    Takes and returns only paths and config, so it runs unchanged in a
    pool worker.  Only an ``AvrobustError`` becomes a returned failure.
    """
    tag = "_".join(str(v) for v in label.values()).replace(":", "-")
    try:
        delta_path = run_attack(cell_config, workdir, ckpt,
                                out=workdir / f"delta_{axis}_{tag}.avfb")
        return run_eval(cell_config, workdir, ckpt, perturbation=delta_path,
                        out=workdir / f"report_{axis}_{tag}.json"), None
    except AvrobustError as exc:
        return None, repr(exc)


def run_sweep(config, workdir, plan, out=None):
    """Run every cell, reusing checkpoints whenever the model is unchanged.

    Emits one CSV row per cell (plus one clean row for attack-axis
    sweeps).  A cell that raises an ``AvrobustError`` is logged to
    failures.log and skipped; the partial CSV is still written and the
    failures returned.  Any other exception is a bug and propagates.

    Training every checkpoint and the clean evaluations run first, in
    this process.  The attacked cells then run through
    ``_map_on_workers``; rows and failures keep plan order, so every
    file matches a one-process run.  Training stays here because
    parameter gradients depend on the BLAS thread count; the
    input-gradient attack and the evaluation do not at the shapes tested.
    """
    workdir = Path(workdir)
    out_path = Path(out) if out else workdir / f"sweep_{plan.axis}.csv"
    lines = [_SWEEP_HEADERS[plan.axis]]
    failures = []
    checkpoints: dict[str, Path] = {}
    reports_cache: dict[str, mx.EvalReport] = {}

    def checkpoint_for(cell_config):
        key = json.dumps({"model": cell_config.model.__dict__,
                          "train": cell_config.train.__dict__}, sort_keys=True,
                         default=str)
        if key not in checkpoints:
            path = workdir / f"model_{plan.axis}_{len(checkpoints)}.ckpt"
            run_train(cell_config, workdir, out=path)
            checkpoints[key] = path
        return checkpoints[key]

    def clean_report(cell_config, ckpt):
        key = str(ckpt)
        if key not in reports_cache:
            path = run_eval(cell_config, workdir, ckpt,
                            out=workdir / f"{Path(ckpt).stem}_clean.json")
            reports_cache[key] = mx.EvalReport.from_json(path.read_text())
        return reports_cache[key]

    if plan.axis in ("freq", "time", "eps") and plan.cells:
        try:
            ckpt = checkpoint_for(config)
            clean = clean_report(config, ckpt)
            prefix = {"freq": "No,-,-,-", "time": "No,-,-,-", "eps": "-,-,-"}[plan.axis]
            lines.append(f"{prefix},{_report_cells(clean)}")
        except AvrobustError as exc:
            failures.append(f"clean: {exc!r}")

    # (label, attack config, clean report, error repr) per cell, in plan order;
    # an attacked cell has neither report nor error until its job has run
    cells, jobs = [], []
    for label, overrides in plan.cells:
        overrides = dict(overrides)
        attacked = overrides.pop("_attacked", True)
        try:
            cell_config = config.with_overrides(**overrides)
            ckpt = checkpoint_for(cell_config)
            report = None if attacked else clean_report(cell_config, ckpt)
        except AvrobustError as exc:
            cells.append((label, None, None, repr(exc)))
            continue
        if attacked:
            jobs.append((cell_config, workdir, ckpt, plan.axis, label))
        cells.append((label, cell_config.attack, report, None))

    results = iter(_map_on_workers(_attacked_cell, jobs))
    for label, a, report, error in cells:
        if report is None and error is None:
            report_path, error = next(results)
            if error is None:
                report = mx.EvalReport.from_json(Path(report_path).read_text())
        if error is not None:
            failures.append(f"{label}: {error}")
        elif plan.axis in ("freq", "time"):
            lines.append(f"{label['mask']},{label['eps']},{a.norm},{a.alpha},"
                         f"{_report_cells(report)}")
        elif plan.axis == "eps":
            lines.append(f"{label['eps']},{a.norm},{a.alpha},{_report_cells(report)}")
        elif plan.axis == "fusion":
            lines.append(f"{label['fusion']},{label['attack']},{_report_cells(report)}")
        else:
            lines.append(f"{label['model']},{label['attack']},{_report_cells(report)}")

    atomic_write_bytes(out_path, ("\n".join(lines) + "\n").encode())
    if failures:
        atomic_write_bytes(workdir / "failures.log",
                           ("\n".join(failures) + "\n").encode())
    return out_path, failures
