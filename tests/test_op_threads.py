"""The conv stack's kernels split the batch over op threads, exactly.

Every test lowers the split threshold to 0 so that the toy shapes below
split too; batches of 5 and 7 do not divide evenly over 2 or 3 threads,
and a batch of 1 cannot split at all.
"""

import os
import signal
import sys
import time
import traceback
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from avrobust import autodiff as ad
from avrobust import models as M
from avrobust import pipeline

TOY = dict(conv_channels=(2, 3), pool_time=(2, 2), pool_freq=(2, 2),
           transformer_blocks=1, heads=2, width=8, ff_mult=2, classes=3,
           dropout=0.2, n_mels=16, video_dim=4, early_video_bins=4)


def toy_model(kind):
    if kind == "resnet":
        return M.ResnetModel(M.ResnetConfig(stem_channels=4, blocks=1, pool_time=(2, 2),
                                            pool_freq=(2, 2), classes=3, n_mels=16), seed=3)
    return M.CsnModel(M.CsnConfig(fusion=M.FusionStage(kind), **TOY), seed=3)


def toy_data(n, seed=0):
    rng = np.random.default_rng(seed)
    audio = rng.standard_normal((n, 8, 16))
    video = rng.standard_normal((n, 4, 3))
    labels = (rng.random((n, 3)) < 0.4).astype(np.float64)
    return audio, video, labels


def use_op_threads(monkeypatch, n):
    monkeypatch.setattr(ad, "_OP_THREADS", n)
    monkeypatch.setattr(ad, "_SPLIT_MIN", 0)
    monkeypatch.setattr(ad, "_executor", None)


def train_and_probe(kind):
    """Everything a training run and the attack/eval entry points leave, as bytes."""
    audio, video, labels = toy_data(11)
    video = None if kind == "resnet" else video
    model = toy_model(kind)
    # 11 clips in batches of 5: every epoch has two batches of 5 and one of 1
    result = M.train_model(model, audio, labels, video, steps=12, batch_size=5, seed=4)
    out = {f"param {k}": p.data.tobytes() for k, p in model.params.items()}
    out.update({f"adam {k}": v.tobytes() for k, v in result.optimizer.state_arrays().items()})
    out["loss curve"] = repr(result.loss_curve).encode()
    for n in (7, 1):
        v = None if video is None else video[:n]
        loss, grad = model.loss_and_input_grad(audio[:n], labels[:n], video=v)
        out[f"input grad {n}"] = repr(loss).encode() + grad.tobytes()
        out[f"probs {n}"] = model.predict_proba(audio[:n], v).tobytes()
    return out


@pytest.mark.parametrize("kind", ["early", "late", "resnet"])
def test_training_and_gradients_identical_at_any_op_thread_count(monkeypatch, kind):
    runs = {}
    for threads in (1, 2, 3):
        use_op_threads(monkeypatch, threads)
        runs[threads] = train_and_probe(kind)
        # one thread never starts the pool; more threads do
        assert (ad._executor is None) == (threads == 1)
    for threads in (2, 3):
        assert runs[threads].keys() == runs[1].keys()
        for name in runs[1]:
            assert runs[threads][name] == runs[1][name], (threads, name)


def run_in_child(fn, timeout=120.0):
    """Run ``fn()`` in a forked child; its exit status (0 when it returned), or
    None when the child was still running after ``timeout`` seconds and was killed."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fn()
            code = 0
        except BaseException:      # noqa: BLE001 - reported through the exit code
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return None


def test_forked_child_runs_pooled_forward(monkeypatch):
    """A fork inherits the op pool but none of its threads; the child makes its own."""
    use_op_threads(monkeypatch, 2)
    audio, video, labels = toy_data(5)
    model = toy_model("early")
    model.loss_and_param_grads(audio, video, labels)
    assert ad._executor is not None
    expected = model.predict_proba(audio, video)

    def child():
        assert np.array_equal(model.predict_proba(audio, video), expected)

    assert run_in_child(child) == 0


def _train_job(seed):
    audio, video, labels = toy_data(7, seed)
    model = toy_model("late")
    M.train_model(model, audio, labels, video, steps=3, batch_size=5, seed=seed)
    return ad._OP_THREADS, [p.data.tobytes() for p in model.params.values()]


def test_pool_workers_train_with_one_op_thread(monkeypatch):
    """Forked pool workers, started after this process split a batch, train
    with one op thread and match an in-process run."""
    if pipeline._openblas_thread_setter() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set; no pool")
    use_op_threads(monkeypatch, 2)
    expected = [_train_job(seed)[1] for seed in (1, 2)]
    assert ad._executor is not None
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def child():
        results = pipeline._map_on_workers(_train_job, [(1,), (2,)])
        assert [threads for threads, _ in results] == [1, 1]
        assert [params for _, params in results] == expected

    assert run_in_child(child) == 0


def test_only_kernels_with_enough_work_split(monkeypatch):
    monkeypatch.setattr(ad, "_OP_THREADS", 2)
    monkeypatch.setattr(ad, "_executor", None)
    ad.relu(ad.Tensor(np.ones((2, ad._SPLIT_MIN // 2 - 1))))
    assert ad._executor is None
    # a product as small as a conv weight gradient still splits: its operands count
    k = ad._SPLIT_MIN // 4
    ad.matmul(ad.Tensor(np.ones((2, 3, k))), ad.Tensor(np.ones((2, k, 2))))
    assert ad._executor is not None


class KeepingExecutor:
    """Runs each job at once and keeps its callable and arguments, as an op
    thread holds a finished job until it takes the next one."""

    def __init__(self):
        self.jobs = []

    def submit(self, fn, *args):
        self.jobs.append((fn, args))
        future = Future()
        future.set_result(fn(*args))
        return future


def test_op_threads_keep_no_array_past_a_split(monkeypatch):
    # a kernel's arrays are freed in the calling thread, in program order,
    # however long an op thread holds on to the job it ran
    use_op_threads(monkeypatch, 3)
    monkeypatch.setattr(ad, "_executor", KeepingExecutor())
    def summing(a):
        return lambda s: a[s].sum()

    x = np.ones((5, 4))
    freed = weakref.ref(x)
    ad._over_batch(summing(x), 5, x.size)
    assert len(ad._executor.jobs) == 2
    del x
    assert freed() is None
