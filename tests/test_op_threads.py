"""Each op thread runs its batch chunks' forward and backward passes, exactly.

Batches of 5 and 7 do not divide evenly into chunks of 2 or 3 rows or
over 2 or 3 threads, a batch of 1 cannot split at all, and a 2-D input
is a single clip.
"""

import os
import signal
import sys
import time
import tracemalloc
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


def use_op_threads(monkeypatch, n, chunk=2):
    """``n`` op threads and chunks of ``chunk`` rows, so small batches run many chunks."""
    monkeypatch.setattr(ad, "_OP_THREADS", n)
    monkeypatch.setattr(ad, "_CHUNK", chunk)
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
    delta = np.random.default_rng(1).standard_normal(audio.shape[1:]) * 0.1
    for n in (7, 5, 1, "one clip"):
        rows = slice(0, 1) if n == "one clip" else slice(0, n)
        clips = audio[0] if n == "one clip" else audio[rows]     # (T,F) or (B,T,F)
        v = None if video is None else video[rows]
        loss, grad = model.loss_and_input_grad(clips, labels[rows], video=v,
                                               delta=np.full(audio.shape[1:], 0.01))
        out[f"input grad {n}"] = repr(loss).encode() + grad.tobytes()
        out[f"probs {n}"] = model.predict_proba(clips, v).tobytes()
        # the delta each chunk adds is the delta added to the whole batch
        out[f"attacked probs {n}"] = model.predict_proba(clips, v, delta=delta).tobytes()
        assert out[f"attacked probs {n}"] == model.predict_proba(clips + delta, v).tobytes()
    return out


KINDS = ["audio_only", "early", "mid1", "mid2", "late", "resnet"]


@pytest.mark.parametrize("kind", KINDS)
def test_training_and_gradients_identical_at_any_op_thread_count(monkeypatch, kind):
    for chunk in (1, 2, 3, ad._CHUNK):
        runs = {}
        for threads in (1, 2, 3):
            use_op_threads(monkeypatch, threads, chunk)
            runs[threads] = train_and_probe(kind)
            # one thread never starts the pool; more threads do
            assert (ad._executor is None) == (threads == 1)
        expected = runs.pop(1)
        for threads, run in runs.items():
            assert run.keys() == expected.keys()
            for name in expected:
                assert run[name] == expected[name], (chunk, threads, name)


@pytest.mark.parametrize("kind", KINDS)
def test_chunk_size_moves_only_gradient_sums(monkeypatch, kind):
    """Every output is exactly its rows of an unsplit call, dropout included,
    whatever the chunk size; only the order of a gradient's batch sum moves."""
    audio, video, labels = toy_data(11)
    video = None if kind == "resnet" else video
    model = toy_model(kind)
    runs = []
    for chunk in (1, 2, 3, ad._CHUNK):
        use_op_threads(monkeypatch, 2, chunk)
        loss, grads = model.loss_and_param_grads(audio, video, labels, seed_base=5)
        input_loss, input_grad = model.loss_and_input_grad(audio, labels, video=video)
        runs.append((repr((loss, input_loss)), model.predict_proba(audio, video).tobytes(),
                     grads, input_grad))
    for forward, probs, grads, input_grad in runs[1:]:
        assert (forward, probs) == runs[0][:2]
        for name, g in grads.items():
            np.testing.assert_allclose(g, runs[0][2][name], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(input_grad, runs[0][3], rtol=1e-12, atol=1e-15)


def test_batch_split_chunks(monkeypatch):
    use_op_threads(monkeypatch, 2, chunk=3)
    sizes = {n: [len(range(n)[rows]) for rows in ad.BatchSplit(n).rows] for n in (1, 2, 7, 13)}
    # the fewest chunks of at most 3 rows, an even count so 2 threads share them equally
    assert sizes == {1: [1], 2: [1, 1], 7: [1, 2, 2, 2], 13: [2, 2, 2, 2, 2, 3]}
    assert ad.BatchSplit(1).rows == [slice(None)]       # one chunk: an unsplit call
    use_op_threads(monkeypatch, 1, chunk=3)
    assert ad.BatchSplit(3).rows == [slice(0, 1), slice(1, 3)]
    assert len(ad.BatchSplit(7).rows) == 4


@pytest.mark.parametrize("chunk", [2, 3, 8])
def test_batch_split_ignores_the_op_thread_count(monkeypatch, chunk):
    """The chunk boundaries, and so the order of a gradient's chunk sum,
    are the same in every process: a pool worker's, at one op thread, too."""
    rows = {}
    for threads in (1, 2, 3):
        use_op_threads(monkeypatch, threads, chunk)
        rows[threads] = {n: ad.BatchSplit(n).rows for n in (1, 2, 7, 8, 13, 32, 100)}
    assert rows[1] == rows[2] == rows[3]


def test_split_takes_each_chunk_in_order_as_it_finishes(monkeypatch):
    """The caller takes results in chunk order; at one op thread it takes
    each chunk's before it runs the next, so no result waits for the join."""
    for threads in (1, 3):
        use_op_threads(monkeypatch, threads, chunk=2)
        split = ad.BatchSplit(13)
        events = []
        split.run(lambda i: events.append(("run", i)) or i, lambda i: events.append(("take", i)))
        m = len(split.rows)
        assert [i for what, i in events if what == "take"] == list(range(m))
        if threads == 1:
            assert events == [(what, i) for i in range(m) for what in ("run", "take")]


def traced_step_peak(monkeypatch, chunk):
    """Peak traced bytes of one B=16 training step at one op thread."""
    use_op_threads(monkeypatch, 1, chunk)
    rng = np.random.default_rng(0)
    audio = rng.standard_normal((16, 100, 64))
    labels = (rng.random((16, 10)) < 0.3).astype(np.float64)
    model = M.CsnModel(M.CsnConfig(), seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.loss_and_param_grads(audio, None, labels)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_chunks_bound_a_steps_memory(monkeypatch):
    """Each chunk's tape is freed before the next chunk runs, and its
    parameter gradients are added to the running sum as it finishes, so
    2-row chunks hold a quarter of 8-row chunks' activations."""
    assert traced_step_peak(monkeypatch, 2) < traced_step_peak(monkeypatch, 8) / 2


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
    # a chunk's arrays are freed in the calling thread, in program order,
    # however long an op thread holds on to the job it ran
    use_op_threads(monkeypatch, 3)
    monkeypatch.setattr(ad, "_executor", KeepingExecutor())
    split = ad.BatchSplit(5)

    def summing(a):
        return lambda i: a[split.rows[i]].sum()

    x = np.ones((5, 4))
    freed = weakref.ref(x)
    assert split.run(summing(x)) == [4.0, 4.0, 4.0, 8.0]      # 5 rows in 4 chunks
    assert len(ad._executor.jobs) == 2
    del x
    assert freed() is None


class SliceFailure(Exception):
    pass


@pytest.mark.parametrize("phase", ["forward", "backward"])
def test_failing_slice_reraises_and_blocks_no_thread(monkeypatch, phase):
    """One chunk raises while the others run: chunk 1 in its forward pass,
    while chunk 2 runs on the next thread, or chunk 0 in its backward pass.
    The caller gets the chunk's own exception, and the op threads are free
    for the next batch."""
    use_op_threads(monkeypatch, 3)
    audio, _, labels = toy_data(7)
    model = toy_model("resnet")
    expected = model.predict_proba(audio)
    forward, backward = model.forward, ad.backward
    # 7 rows in 2-row chunks: chunks 0 and 1 start at rows 0 and 1
    assert [rows.start for rows in ad.BatchSplit(7).rows[:2]] == [0, 1]

    def failing_forward(*args, **kwargs):
        if ad._local.chunk == 1:
            time.sleep(0.2)         # chunk 2, on the next thread, runs meanwhile
            raise SliceFailure("chunk 1 forward")
        return forward(*args, **kwargs)

    def failing_backward(*args, **kwargs):
        if ad._local.chunk == 0:
            raise SliceFailure("chunk 0 backward")
        return backward(*args, **kwargs)

    def child():
        if phase == "forward":
            model.forward = failing_forward
        else:
            ad.backward = failing_backward
        with pytest.raises(SliceFailure, match=phase):
            model.loss_and_param_grads(audio, None, labels)
        model.forward, ad.backward = forward, backward
        assert np.array_equal(model.predict_proba(audio), expected)

    assert run_in_child(child, timeout=60.0) == 0
