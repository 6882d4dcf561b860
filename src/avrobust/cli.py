"""Command-line interface: synth | train | attack | eval | sweep | report.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 validation error.
The workdir comes from [paths] in the config, the AVROBUST_WORKDIR
environment variable, or ./runs, in that order.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import pipeline
from .config import ExperimentConfig, _parse_floats, _parse_range, parse_config
from .errors import ConfigurationError, FormatError, ValidationError

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

# glibc mallopt parameters (<malloc.h>) and the values main() sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 1 << 30), (_M_TRIM_THRESHOLD, 1 << 30), (_M_ARENA_MAX, 1))
_heap_policy = None         # mallopt's return values, once applied


def keep_heap_mapped():
    """Make glibc's malloc keep freed memory mapped for the next step; once per process.

    Every tape step allocates and frees the same 1-75 MB arrays.  By
    default glibc serves the largest from fresh mappings and hands the
    freed top of its heap back to the kernel, and the next step
    page-faults it all in again.  With this policy every block under
    1 GiB comes from the heap, and the heap is trimmed only when 1 GiB
    of its top is free.  The op threads allocate from that one heap too,
    where glibc would give each thread its own.  Forked pool workers
    inherit the policy.  It changes no computed byte.  Returns mallopt's
    return values (1 is success), or None where the C library has no
    ``mallopt``.
    """
    global _heap_policy
    if _heap_policy is None:
        import ctypes
        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (OSError, TypeError, AttributeError):
            return None
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
        _heap_policy = tuple(mallopt(param, value) for param, value in _HEAP_POLICY)
    return _heap_policy


def _parse_option(flag, parse, raw):
    """Parse one option value with the config file's parser."""
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: {exc}") from exc


def _load_config(args):
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file {path} not found")
        config, defaults = parse_config(path.read_text("utf-8"))
    else:
        config, defaults = ExperimentConfig(), ["<all defaults>"]
    for line in defaults:
        print(f"config default applied: {line}", file=sys.stderr)

    # every override is checked as the config file's keys are
    attack_over = {key: getattr(args, key) for key in ("norm", "eps", "alpha", "steps")
                   if getattr(args, key, None) is not None}
    for key, flag in (("freq_mask", "--freq-mask"), ("time_mask", "--time-mask")):
        if getattr(args, key, None) is not None:
            attack_over[key] = _parse_option(flag, _parse_range, getattr(args, key))
    model_over = {}
    if getattr(args, "fusion", None):
        model_over["fusion"] = args.fusion
    seed_over = {}
    if getattr(args, "seed", None) is not None:
        seed_over = {"seed": args.seed}
        attack_over.setdefault("seed", args.seed)
    return config.with_overrides(
        attack=attack_over, model=model_over,
        dataset=dict(seed_over), train=dict(seed_over))


def _workdir(config, args):
    override = getattr(args, "workdir", None)
    wd = override or config.paths.workdir or os.environ.get("AVROBUST_WORKDIR") or "runs"
    return Path(wd)


def _add_common(sub):
    sub.add_argument("--config", help="experiment config file")
    sub.add_argument("--workdir", help="override the working directory")
    sub.add_argument("--seed", type=int, help="override dataset/train/attack seeds")
    sub.add_argument("--out", help="output path override")
    sub.add_argument("--fusion", choices=["audio_only", "early", "mid1", "mid2", "late"])
    sub.add_argument("--norm", choices=["l1", "l2", "linf"])
    sub.add_argument("--eps", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--steps", type=int)
    sub.add_argument("--freq-mask", dest="freq_mask", metavar="LO:HI")
    sub.add_argument("--time-mask", dest="time_mask", metavar="LO:HI")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="avrobust",
        description="Universal adversarial perturbations against a toy "
                    "audio/visual event tagger.")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("synth", help="synthesize the dataset"))
    _add_common(subs.add_parser("train", help="train a model on the train split"))

    p_attack = subs.add_parser("attack", help="train a universal perturbation")
    _add_common(p_attack)
    p_attack.add_argument("--checkpoint", help="victim checkpoint (default workdir/model.ckpt)")

    p_eval = subs.add_parser("eval", help="evaluate clean or attacked")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint")
    p_eval.add_argument("--perturbation", help="saved delta to apply")

    p_sweep = subs.add_parser("sweep", help="run a table-layout sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         choices=["freq", "time", "eps", "fusion", "arch"])
    p_sweep.add_argument("--masks", help="comma list of lo:hi or none", default=None)
    p_sweep.add_argument("--eps-list", dest="eps_list",
                         help="comma list of epsilon values", default=None)
    p_sweep.add_argument("--fusions", help="comma list of fusion stages", default=None)
    p_sweep.add_argument("--arches", help="comma list of architectures", default=None)

    p_report = subs.add_parser("report", help="compare clean vs attacked reports")
    p_report.add_argument("--clean", required=True)
    p_report.add_argument("--attacked", required=True)
    p_report.add_argument("--out", required=True)
    return parser


def _run(args):
    if args.command == "report":
        path = pipeline.run_report(args.clean, args.attacked, args.out)
        print(f"wrote {path}")
        return EXIT_OK

    config = _load_config(args)
    workdir = _workdir(config, args)

    if args.command == "synth":
        workdir.mkdir(parents=True, exist_ok=True)
        path = pipeline.run_synth(config, workdir)
        print(f"wrote {path}")
        return EXIT_OK

    if args.command == "train":
        path = pipeline.run_train(config, workdir, out=args.out)
        print(f"wrote {path}")
        return EXIT_OK

    if args.command == "attack":
        ckpt = args.checkpoint or workdir / "model.ckpt"
        path = pipeline.run_attack(config, workdir, ckpt, out=args.out)
        print(f"wrote {path}")
        return EXIT_OK

    if args.command == "eval":
        ckpt = args.checkpoint or workdir / "model.ckpt"
        path = pipeline.run_eval(config, workdir, ckpt,
                                 perturbation=args.perturbation, out=args.out)
        print(f"wrote {path}")
        return EXIT_OK

    if args.command == "sweep":
        masks = eps_list = None
        if args.masks is not None:
            masks = [_parse_option("--masks", _parse_range, m.strip())
                     for m in args.masks.split(",") if m.strip()]
        if args.eps_list is not None:
            eps_list = _parse_option("--eps-list", _parse_floats, args.eps_list)
        fusions = args.fusions.split(",") if args.fusions else None
        arches = args.arches.split(",") if args.arches else None
        plan = pipeline.build_sweep_plan(args.axis, config, masks=masks,
                                         eps_list=eps_list, fusions=fusions,
                                         arches=arches)
        path, failures = pipeline.run_sweep(config, workdir, plan, out=args.out)
        print(f"wrote {path}")
        if failures:
            print(f"{len(failures)} sweep cell(s) failed; see failures.log",
                  file=sys.stderr)
            return EXIT_VALIDATION
        return EXIT_OK

    raise ConfigurationError(f"unknown command {args.command!r}")


def main(argv=None):
    keep_heap_mapped()
    # the op threads carry all in-process parallelism; BLAS threads would
    # oversubscribe the cores, and parameter gradients depend on their count
    set_blas_threads = pipeline._openblas_thread_setter()
    if set_blas_threads is not None:
        set_blas_threads(1)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, FormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
