#!/usr/bin/env python3
"""Benchmark of the avrobust workbench: one workload per fresh process.

    python3 perfbench/run.py --workload attack_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The process pins BLAS to one
thread before numpy loads, builds its inputs from ``--seed`` (set-up),
then repeats whole rounds of the workload's CLI calls through
``avrobust.cli.main`` until ``--seconds`` have passed (measured phase),
and finally checks the outputs with the code in ``checks.py``.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
``setup_s``, ``wall_s`` and ``peak_rss_mb``; with ``--trace 1`` the
per-layer self times and counts of ``tracing.py``.  See README.md.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy is imported, anywhere

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

N_CLASSES = 10              # the default class count, kept by every workload

# Fixed warm-up: every traced boundary runs once during set-up, on a
# 1-s late-fusion dataset independent of the seed, so first-call costs
# land in setup_s rather than in the first measured round.
WARMUP_INI = {
    "dataset": {"train_clips": 8, "eval_clips": 8, "duration": 1.0},
    "model": {"fusion": "late"},
    "train": {"epochs": 1, "batch": 8},
    "attack": {"steps": 1, "batch": 8},
}

# criteria 7/8 geometry: 2.5-s clips, 4-bin class bands over bins 0-40
SWEEP_INI = {
    "dataset": {"band_lo": 0, "band_width": 4, "band_stride": 4,
                "timbres": "tone,chirp,noise", "duration": 2.5,
                "dur_lo": 0.15, "dur_hi": 1.0, "train_clips": 160, "eval_clips": 60},
    "train": {"epochs": 3, "dropout": 0.1},
    "attack": {"norm": "l2", "alpha": 0.02, "steps": 15},
}
SWEEP_MASKS = [None, (0, 40), (40, 64)]          # none, in-band, uninformative
SWEEP_EPS = [0.15, 0.3]

# One 32-clip batch per step, so the logged losses (steps 10 and 20) are
# measured on the same clips and the loss check does not ride on batch noise.
FUSION_INI = {
    "dataset": {"train_clips": 32, "eval_clips": 8},
    "train": {"epochs": 20},
}
FUSIONS = ["early", "late"]

# A quarter of the default clip count (default 10-s geometry), so that a
# run holds several rounds: single rounds of the full 2000-clip dataset
# varied 8.4-16.7 s with the machine's load.
SYNTH_INI = {
    "dataset": {"train_clips": 400, "eval_clips": 100},
    "model": {"fusion": "late"},
}
VICTIM_INI = {
    "dataset": {"train_clips": 16, "eval_clips": 8},
    "model": {"fusion": "late"},
    "train": {"epochs": 1, "batch": 8},
    "attack": {"steps": 2, "batch": 8, "freq_mask": "0:40"},
}


def process_age():
    """Seconds since this process started, from /proc when available."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rpartition(")")[2].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None where it cannot be asked."""
    import ctypes
    import glob
    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def write_ini(path, sections):
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Operation:
    """One CLI call through the public entry point, timed, output captured."""

    def __init__(self, argv):
        from avrobust.cli import main
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.code = main(argv)
            except SystemExit as exc:
                self.code = exc.code
            except Exception:   # noqa: BLE001 - a traceback is a failed operation
                traceback.print_exc()
                self.code = "traceback"
        self.seconds = time.perf_counter() - start
        self.argv = argv
        self.stderr = err.getvalue()

    def require_ok(self):
        from checks import CheckFailed
        if self.code != 0:
            raise CheckFailed(f"set-up call {self.argv[0]} exited {self.code}:\n"
                              f"{self.stderr[-2000:]}")
        return self


# ---------------------------------------------------------------------------
# workloads: setup() makes the inputs, run_round() is the user's job and
# returns (attempted, failed, seconds), check() verifies the last round;
# a round runs in a child process and hands back its figures and files


class Workload:
    def __init__(self, workdir, seed, tracer):
        self.dir = workdir
        self.seed = str(seed)
        self.tracer = tracer
        self.snapshots = []

    def cli(self, command, ini, workdir, *extra):
        return Operation([command, "--config", str(ini), "--workdir", str(workdir),
                          "--seed", self.seed, *extra])

    def warm_up(self):
        wd = self.dir / "warmup"
        ini = write_ini(self.dir / "warmup.ini", WARMUP_INI)
        for command, extra in (("synth", ()), ("train", ()), ("attack", ()),
                               ("eval", ("--perturbation", str(wd / "delta.avfb")))):
            Operation([command, "--config", str(ini), "--workdir", str(wd),
                       "--seed", "0", *extra]).require_ok()

    def make_inputs(self, calls):
        """Run the seed's set-up CLI calls in a child process.

        This process's heap, which every round inherits, then holds the
        same history (imports and the seed-0 warm-up) whatever the seed.
        Made here, the inputs left it in a seed-dependent state: the
        rounds of one seed of ``synth_eval`` peaked at 298 MB and of
        another at 360 MB, every round alike.
        """
        from checks import CheckFailed

        def job():
            try:
                for command, ini, workdir, *extra in calls:
                    self.cli(command, ini, workdir, *extra).require_ok()
            except CheckFailed as exc:
                return {"error": str(exc)}
            return {"error": None}

        result = in_child(job, self.tracer)
        if result is None or result["error"]:
            raise CheckFailed(result["error"] if result else "set-up process failed")

    def snapshot(self):
        """Artifact hashes of the round just run; every round must match the first."""
        self.snapshots.append({p.name: sha(p) if p.is_file() else None
                               for p in self.artifacts()})


class AttackSweep(Workload):
    """Frequency-mask sweep against one audio-only victim on 2.5-s clips."""

    OPERATIONS = len(SWEEP_MASKS) * len(SWEEP_EPS) + 1     # cells plus the clean row

    def setup(self):
        self.warm_up()
        self.ini = write_ini(self.dir / "sweep.ini", SWEEP_INI)
        self.data = self.dir / "data"
        self.make_inputs([("synth", self.ini, self.data)])
        self.keep = {p.name for p in self.data.iterdir()}

    def run_round(self):
        for p in self.data.iterdir():          # previous round's outputs
            if p.name not in self.keep:
                p.unlink()
        masks = ",".join("none" if m is None else f"{m[0]}:{m[1]}" for m in SWEEP_MASKS)
        eps = ",".join(str(e) for e in SWEEP_EPS)
        op = self.cli("sweep", self.ini, self.data, "--axis", "freq",
                      "--masks", masks, "--eps-list", eps)
        cells = self.OPERATIONS
        if op.code == 0:
            return cells, 0, op.seconds
        log(f"sweep exited {op.code}:\n{op.stderr[-2000:]}")
        failures = self.data / "failures.log"
        failed = len(failures.read_text().splitlines()) if op.code == 4 and \
            failures.exists() else cells
        return cells, failed, op.seconds

    def artifacts(self):
        return sorted(p for p in self.data.iterdir()
                      if p.name not in self.keep and p.is_file())

    def check(self):
        import numpy as np
        import checks as C
        from avrobust import models as M
        from avrobust.container import read_feature_file

        rows = C.check_sweep_csv((self.data / "sweep_freq.csv").read_text(),
                                 len(SWEEP_MASKS) * len(SWEEP_EPS), self.data)
        ckpt = self.data / "model_freq_0.ckpt"
        C.check_checkpoint_round_trip(ckpt, self.dir / "resaved.ckpt")
        model, _, _ = M.load_checkpoint(ckpt)
        evals = read_split(self.data, "eval", N_CLASSES)
        shape = evals[0].shape[1:]
        for path in (self.data / "features").iterdir():
            if path.name.startswith("eval_"):
                C.check_feature_file(path, shape, "float32", read_feature_file)
        for row in rows:
            if row["eps"] == "-":
                report = self.data / "model_freq_0_clean.json"
                delta = None
            else:
                tag = f"{row['freq_mask']}_{row['eps']}"
                report = self.data / f"report_freq_{tag}.json"
                mask = None if row["freq_mask"] == "No" else \
                    tuple(int(v) for v in row["freq_mask"].split("-"))
                delta = C.check_delta(self.data / f"delta_freq_{tag}.avfb", shape,
                                      eps=float(row["eps"]), freq=mask)
            obj = json.loads(report.read_text())
            scores = program_scores(model, evals[0], None, delta)
            mean_ap = C.check_report(obj, scores, evals[2])
            C.require(abs(float(row["map"]) - mean_ap) <= 5e-7,
                      f"sweep row {row} mAP differs from its report's mean AP {mean_ap}")

        # input gradient at the in-band, largest-eps delta against central
        # differences, on the delta's support: elsewhere the input is the
        # frame-periodic hum, whose max-pool windows hold exact ties, where
        # the loss has one-sided derivatives only
        delta = C.parse_avfb((self.data / f"delta_freq_0-40_{SWEEP_EPS[-1]}.avfb")
                             .read_bytes()).astype(np.float64)
        train_audio, _, train_labels = read_split(self.data, "train", N_CLASSES)
        audio, labels = train_audio[:8].astype(np.float64), train_labels[:8]
        _, grad = model.loss_and_input_grad(audio, labels, delta=delta)

        def loss_at(coord, offset):
            d = delta.copy()
            d[coord] += offset
            return model.loss_and_input_grad(audio, labels, delta=d)[0]

        C.check_finite_differences(loss_at, grad,
                                   C.top_coords(np.where(delta != 0.0, grad, 0.0), 4))
        C.check_same_artifacts(self.snapshots)


class FusionTrain(Workload):
    """Early- and late-fusion training on default 10-s clips, B=32."""

    OPERATIONS = len(FUSIONS)

    def setup(self):
        self.warm_up()
        self.ini = write_ini(self.dir / "fusion.ini", FUSION_INI)
        self.data = self.dir / "data"
        self.make_inputs([("synth", self.ini, self.data)])

    def run_round(self):
        for p in self.artifacts():             # previous round's outputs
            p.unlink(missing_ok=True)
        failed, seconds = 0, 0.0
        for fusion in FUSIONS:
            op = self.cli("train", self.ini, self.data, "--fusion", fusion,
                          "--out", str(self.data / f"model_{fusion}.ckpt"))
            seconds += op.seconds
            if op.code != 0:
                log(f"train --fusion {fusion} exited {op.code}:\n{op.stderr[-2000:]}")
                failed += 1
            else:     # run_train writes loss_curve.csv next to the data; keep each
                os.replace(self.data / "loss_curve.csv", self.curve(fusion))
        return self.OPERATIONS, failed, seconds

    def curve(self, fusion):
        return self.data / f"loss_curve_{fusion}.csv"

    def artifacts(self):
        return [self.data / f"model_{f}.ckpt" for f in FUSIONS] + \
            [self.curve(f) for f in FUSIONS]

    def check(self):
        import numpy as np
        import checks as C
        from avrobust import models as M

        train_audio, train_video, train_labels = read_split(self.data, "train", N_CLASSES)
        audio = train_audio[:4].astype(np.float64)
        video = train_video[:4].astype(np.float64)
        labels = train_labels[:4]
        for fusion in FUSIONS:
            C.check_loss_curve(self.curve(fusion).read_text())
            ckpt = self.data / f"model_{fusion}.ckpt"
            C.check_checkpoint_round_trip(ckpt, self.dir / "resaved.ckpt", video=video)
            model, _, _ = M.load_checkpoint(ckpt)
            _, grads = model.loss_and_param_grads(audio, video, labels, training=False)

            for name in sorted(grads):    # conv/projection kernels, queries, FF out, pools
                if not name.endswith((".w", ".wq", ".w2", ".wa", ".wp")):
                    continue
                param = model.params[name]

                def loss_at(coord, offset, param=param):
                    saved = param.data
                    param.data = saved.copy()
                    param.data[coord] += offset
                    try:
                        return model.loss_and_param_grads(audio, video, labels,
                                                          training=False)[0]
                    finally:
                        param.data = saved

                C.check_finite_differences(loss_at, grads[name],
                                           C.top_coords(grads[name], 1))
        C.check_same_artifacts(self.snapshots)


class SynthEval(Workload):
    """Synthesize a 10-s dataset, then a clean and an attacked eval of a fixed victim."""

    OPERATIONS = 3          # synth, clean eval, attacked eval

    def setup(self):
        self.warm_up()
        self.victim = self.dir / "victim"
        victim_ini = write_ini(self.dir / "victim.ini", VICTIM_INI)
        self.make_inputs([(command, victim_ini, self.victim)
                          for command in ("synth", "train", "attack")])
        self.ini = write_ini(self.dir / "synth.ini", SYNTH_INI)
        self.data = self.dir / "data"

    def run_round(self):
        shutil.rmtree(self.data, ignore_errors=True)
        ckpt = ["--checkpoint", str(self.victim / "model.ckpt")]
        ops = [self.cli("synth", self.ini, self.data),
               self.cli("eval", self.ini, self.data, *ckpt,
                        "--out", str(self.data / "report_clean.json")),
               self.cli("eval", self.ini, self.data, *ckpt,
                        "--perturbation", str(self.victim / "delta.avfb"),
                        "--out", str(self.data / "report_attacked.json"))]
        for op in ops:
            if op.code != 0:
                log(f"{op.argv[0]} exited {op.code}:\n{op.stderr[-2000:]}")
        return len(ops), sum(op.code != 0 for op in ops), sum(op.seconds for op in ops)

    def artifacts(self):
        return [self.data / "manifest.jsonl", self.data / "report_clean.json",
                self.data / "report_attacked.json",
                self.data / "features" / "train_00000.avfb",
                self.data / "video" / "eval_00000.avfb"]

    def check(self):
        import checks as C
        from avrobust import models as M
        from avrobust.container import read_feature_file

        ds = SYNTH_INI["dataset"]
        records = [json.loads(line) for line in
                   (self.data / "manifest.jsonl").read_text().splitlines()]
        C.require(len(records) == ds["train_clips"] + ds["eval_clips"],
                  f"manifest lists {len(records)} clips")
        for rec in records:     # 10 s at 40 frames/s x 64 mels; 32 dims x 10 windows
            C.check_feature_file(self.data / rec["features"], (400, 64), "float32",
                                 read_feature_file)
            C.check_feature_file(self.data / rec["video"], (32, 10), "float32",
                                 read_feature_file)
        audio, video, labels = read_split(self.data, "eval", N_CLASSES)
        model, _, _ = M.load_checkpoint(self.victim / "model.ckpt")
        delta = C.check_delta(self.victim / "delta.avfb", (400, 64), freq=(0, 40))
        for name, d in (("report_clean.json", None), ("report_attacked.json", delta)):
            report = json.loads((self.data / name).read_text())
            C.check_report(report, program_scores(model, audio, video, d), labels)
        C.check_same_artifacts(self.snapshots)


WORKLOADS = {"attack_sweep": AttackSweep, "fusion_train": FusionTrain,
             "synth_eval": SynthEval}


# ---------------------------------------------------------------------------
# helpers shared by the checks


def in_child(job, tracer):
    """Run ``job()`` in a forked child of this process and return its dict.

    The parent waits for the child; the child hands back its result (and
    its spans, when traced) through a pipe and everything else as files.
    Returns None when the child ended without a result.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            if tracer:
                tracer.start_fork()
            result = job()
            if tracer:
                result["trace"] = tracer.fork_result()
            payload = json.dumps(result)
            with os.fdopen(wfd, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except BaseException:   # noqa: BLE001 - the parent sees no result
            traceback.print_exc()
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, encoding="utf-8") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        result = json.loads(payload)
    except ValueError:
        log(f"child process ended without a result (wait status {status})")
        return None
    if tracer:
        tracer.merge_fork(result.pop("trace"))
    return result


def run_round(workload, tracer):
    """One round in a child forked from the set-up process; its figures.

    Every round so starts from the state set-up left, as a user's CLI
    call starts in a fresh process.  Rounds run one after the other in
    one process would inherit each other's heap instead: glibc's malloc
    then trims and refaults it (~1.3M minor faults per sweep round)
    until, at a round that differs from run to run, it stops, and the
    round takes a quarter less time.
    """
    def job():
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        n, bad, seconds = workload.run_round()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        return {"attempted": n, "failed": bad, "seconds": seconds,
                "user_s": r1.ru_utime - r0.ru_utime,
                "faults": r1.ru_minflt - r0.ru_minflt, "rss_mb": r1.ru_maxrss / 1024}

    started = time.perf_counter()
    result = in_child(job, tracer)
    if result is None:
        n = workload.OPERATIONS
        result = {"attempted": n, "failed": n, "seconds": time.perf_counter() - started,
                  "user_s": 0.0, "faults": 0, "rss_mb": 0.0}
    return result


def read_split(workdir, split, n_classes):
    """(audio, video, labels) of one split, read with the benchmark's own AVFB parser."""
    import numpy as np
    from checks import parse_avfb
    recs = [json.loads(line) for line in
            (workdir / "manifest.jsonl").read_text().splitlines()]
    recs = [r for r in recs if r["split"] == split]
    audio = np.stack([parse_avfb((workdir / r["features"]).read_bytes()) for r in recs])
    video = np.stack([parse_avfb((workdir / r["video"]).read_bytes()) for r in recs])
    labels = np.zeros((len(recs), n_classes))
    for i, r in enumerate(recs):
        labels[i, r["labels"]] = 1.0
    return audio, video, labels


def program_scores(model, audio, video, delta, batch=64):
    """The model's scores on (features + delta), batched as the program's eval batches."""
    import numpy as np
    x = audio.astype(np.float64)
    if delta is not None:
        x = x + delta
    out = [model.predict_proba(x[i:i + batch], None if video is None else video[i:i + batch])
           for i in range(0, x.shape[0], batch)]
    return np.concatenate(out)


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "avrobust" / "cli.py").is_file():
        log(f"no avrobust sources under {src}; run from a source checkout")
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(tracing.Tracer())
    import checks
    import numpy
    log(f"numpy {numpy.__version__}, BLAS threads {blas_threads()}")

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](workdir, args.seed, tracer)
    correct, attempted, failed, rounds = True, 0, 0, []
    try:
        try:
            workload.setup()
        except checks.CheckFailed as exc:
            log(f"set-up failed: {exc}")
            return 1
        setup_s = process_age()
        if tracer:
            tracer.phase = "measured"
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            r = run_round(workload, tracer)
            n, bad = r["attempted"], r["failed"]
            attempted, failed = attempted + n, failed + bad
            rounds.append(r["seconds"])
            workload.snapshot()
            log(f"round {len(rounds)}: {r['seconds']:.3f} s wall, {r['user_s']:.3f} s user, "
                f"{bad}/{n} failed, {r['faults']} minor page faults, "
                f"peak RSS {r['rss_mb']:.1f} MB")
        if tracer:
            tracer.active = False
        # read before the checks, which load outputs the program's job does not
        rss_kb = {who: resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
        log(f"peak RSS: this process {rss_kb[resource.RUSAGE_SELF] / 1024:.1f} MB, "
            f"children {rss_kb[resource.RUSAGE_CHILDREN] / 1024:.1f} MB")
        # the checks run whatever the exit codes were, so missing or partial
        # outputs make the run incorrect; a failed check fails the operations
        # of the checked (last) round that had not failed already
        try:
            started = time.perf_counter()
            workload.check()
            log(f"output checks passed in {time.perf_counter() - started:.1f} s")
        except Exception as exc:   # noqa: BLE001 - malformed output fails a check too
            log(f"CHECK FAILED: {exc!r}")
            correct = False
            failed += n - bad
        if tracer:
            values = tracer.metrics(len(rounds))
            units = {k: ("s" if k.endswith("_s") else
                         "bytes" if k.startswith("container.bytes") else "count")
                     for k in values}
            metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(values)}
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(trace_path)
            log(f"traced wall_s {statistics.median(rounds):.4f}; spans in {trace_path}")
        else:
            metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                       "wall_s": {"value": statistics.median(rounds), "unit": "s"},
                       "peak_rss_mb": {"value": max(rss_kb.values()) / 1024.0, "unit": "MB"}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
