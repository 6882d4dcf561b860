"""Traced mode: spans and counts at the public boundaries of each module.

The program is not changed.  ``install`` replaces module attributes and
class methods of ``avrobust`` with wrappers that record a span (name,
start, end, parent, phase) in memory and bump counters at the same
boundary.  A layer's self time is its span's duration minus the spans
it directly caused.  Functions another module imported by name are
rebound there too, so every call site goes through the wrapper.  A
child process (a measured round, or the seed's set-up calls) hands its
spans and counts back to the parent (``fork_result``, ``merge_fork``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute path) for every traced boundary
BOUNDARIES = [
    ("cli.main", "cli", "main"),
    ("pipeline.run_sweep", "pipeline", "run_sweep"),
    ("pipeline.run_synth", "pipeline", "run_synth"),
    ("pipeline.run_train", "pipeline", "run_train"),
    ("pipeline.run_attack", "pipeline", "run_attack"),
    ("pipeline.run_eval", "pipeline", "run_eval"),
    ("pipeline.load_split", "pipeline", "load_split"),
    ("audio.synth_clip", "audio", "synth_clip"),
    ("audio.log_mel_spectrogram", "audio", "log_mel_spectrogram"),
    ("audio.make_video_surrogate", "audio", "make_video_surrogate"),
    ("container.write_feature_file", "container", "write_feature_file"),
    ("container.read_feature_file", "container", "read_feature_file"),
    ("models.loss_and_param_grads", "models", "_ModelBase.loss_and_param_grads"),
    ("models.balance_gradients", "models", "balance_gradients"),
    ("models.loss_and_input_grad", "models", "_ModelBase.loss_and_input_grad"),
    ("models.predict_proba", "models", "_ModelBase.predict_proba"),
    ("models.encode_audio", "models", "CsnModel.encode_audio"),
    ("models.transformer_block", "models", "CsnModel.transformer_block"),
    ("models.attention_pool", "models", "CsnModel.attention_pool"),
    ("models.video_branch", "models", "CsnModel.video_branch"),
    ("models.save_checkpoint", "models", "save_checkpoint"),
    ("models.load_checkpoint", "models", "load_checkpoint"),
    ("autodiff.conv2d", "autodiff", "conv2d"),
    ("autodiff.pool2d", "autodiff", "pool2d"),
    ("autodiff.matmul", "autodiff", "matmul"),
    ("autodiff.attention", "autodiff", "attention"),
    ("autodiff.backward", "autodiff", "backward"),
    ("optim.adam_step", "optim", "Adam.step"),
    ("attacks.pgd_step", "attacks", "pgd_step"),
    ("metrics.evaluate", "metrics", "evaluate"),
    ("metrics.compute_report", "metrics", "compute_report"),
]


def _tape_nodes(args, kwargs):
    """Length of the tape a ``backward(loss, params, tape)`` call replays."""
    from avrobust import autodiff
    tape = kwargs.get("tape") or (args[2] if len(args) > 2 else None) \
        or autodiff._active_tape()
    return len(tape.nodes)


# counts taken at a boundary: span name -> (count metric, fn(args, kwargs) -> amount)
COUNTERS = {
    "pipeline.load_split": ("pipeline.load_split_calls", lambda a, k: 1),
    "audio.synth_clip": ("audio.clips", lambda a, k: 1),
    "container.write_feature_file": ("container.bytes_written",
                                     lambda a, k: os.path.getsize(a[0])),
    "container.read_feature_file": ("container.bytes_read",
                                    lambda a, k: os.path.getsize(a[0])),
    "autodiff.backward": ("autodiff.tape_nodes", _tape_nodes),
    "optim.adam_step": ("optim.adam_steps", lambda a, k: 1),
    "attacks.pgd_step": ("attacks.pgd_steps", lambda a, k: 1),
}
# counted after the call (the file exists only then)
_AFTER = {"container.write_feature_file"}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, phase]
        self.stack = []
        self.phase = "setup"
        self.active = True
        self.counts = defaultdict(lambda: defaultdict(float))   # phase -> name -> n
        self.backward_calls = defaultdict(int)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        after = name in _AFTER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counter and not after:
                self.counts[self.phase][counter[0]] += counter[1](args, kwargs)
            if name == "autodiff.backward":
                self.backward_calls[self.phase] += 1
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.phase]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
                if counter and after:
                    self.counts[self.phase][counter[0]] += counter[1](args, kwargs)

        return traced

    def start_fork(self):
        """In a child process: count the child's own calls from here."""
        self.fork_base = len(self.spans)
        self.counts[self.phase] = defaultdict(float)
        self.backward_calls[self.phase] = 0

    def fork_result(self):
        return {"spans": self.spans[self.fork_base:], "counts": self.counts[self.phase],
                "backward_calls": self.backward_calls[self.phase]}

    def merge_fork(self, result):
        """In the parent: add a child's calls.  The child's span indices
        continue this list, which does not change while the child runs."""
        self.spans.extend(result["spans"])
        for name, amount in result["counts"].items():
            self.counts[self.phase][name] += amount
        self.backward_calls[self.phase] += result["backward_calls"]

    def self_times(self):
        """phase -> span name -> summed self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            out[phase][name] += end - start - child[i]
        return out

    def metrics(self, rounds):
        """Per-layer values for one set-up plus one measured round."""
        selfs = self.self_times()
        values = {}
        for prefix, _, _ in BOUNDARIES:
            values[prefix + "_s"] = selfs["setup"][prefix] + selfs["measured"][prefix] / rounds
        for count_name, _ in COUNTERS.values():
            if count_name == "autodiff.tape_nodes":
                calls = sum(self.backward_calls.values())
                total = sum(c[count_name] for c in self.counts.values())
                values[count_name] = total / calls if calls else 0.0
            else:
                values[count_name] = (self.counts["setup"][count_name]
                                      + self.counts["measured"][count_name] / rounds)
        return values

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                name, start, end, parent, phase = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "phase": phase}) + "\n")


def install(tracer):
    """Wrap every boundary; returns the tracer."""
    importlib.import_module("avrobust.cli")      # imports every other module
    mods = [m for n, m in list(sys.modules.items())
            if n == "avrobust" or n.startswith("avrobust.")]
    for name, mod_name, attr in BOUNDARIES:
        mod = sys.modules[f"avrobust.{mod_name}"]
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            setattr(owner, fn_name, tracer.wrap(name, owner.__dict__[fn_name]))
            continue
        original = getattr(mod, fn_name)
        wrapped = tracer.wrap(name, original)
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    return tracer
