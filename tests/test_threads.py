"""conv2d's strips on two threads: the same bits as on one, the caller's
wait for the worker on every path, which runs use the pool, and the memory
a split run holds."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from srkit import graph
from srkit.graph import run_graph
from srkit.models import build_span_baseline, build_spanv2, random_conv
from srkit.rewrites import decorate_for_reparam
from srkit.selftest import rand_tensor
from srkit.tensor import conv2d, conv_strips

tensor = graph.tensor  # the package's own `tensor` is a function

MODELS = {
    "spanv2": lambda: build_spanv2(seed=0),
    "span": lambda: build_span_baseline(seed=0),
    "spanv2_train_form": lambda: decorate_for_reparam(build_spanv2(seed=3)),
}


def _sha(t):
    return hashlib.sha256(t.data.tobytes()).hexdigest()


def _submits(monkeypatch):
    """The (first, end) output rows of each run conv2d hands the pool, as a
    list that fills as they are handed."""
    runs, pool = [], tensor._pool

    class Recording:
        def submit(self, fn, lo, hi, ws):
            runs.append((lo, hi))
            return pool().submit(fn, lo, hi, ws)

    monkeypatch.setattr(tensor, "_pool", Recording)
    return runs


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize(
    "n, h, w",
    [(1, 96, 256), (1, 256, 256), (1, 512, 256), (1, 17, 19), (1, 61, 63), (2, 96, 256)],
    ids=["96x256", "256x256", "512x256", "patch_17x19", "patch_61x63", "batch2_96x256"],
)
def test_one_and_two_threads_give_the_same_bits(monkeypatch, rng, model, n, h, w):
    # Each strip's GEMM has the same shape on either thread, so the split
    # changes no bit. A streamed run splits its dense convs; a patch is one
    # strip, whose workspace holds one thread's buffers, and never splits.
    g = MODELS[model]()
    x = rand_tensor(rng, n, 3, h, w)
    monkeypatch.setattr(tensor, "_WORKERS", 1)
    one = run_graph(g, x, "fused")
    monkeypatch.setattr(tensor, "_WORKERS", 2)
    submits = _submits(monkeypatch)
    two = run_graph(g, x, "fused")
    assert _sha(two) == _sha(one)
    assert bool(submits) == (h > 64) == (len(graph._compiled(g, h, w).plan.strips) > 1)


def test_runs_split_whole_strips_of_an_ungrouped_conv():
    # The caller's run first and longest, each thread at least
    # _SPLIT_STRIPS strips; a grouped conv's batch of small GEMMs stays on one.
    dense, depthwise = random_conv(np.random.default_rng(0), 8, 8), random_conv(np.random.default_rng(0), 8, 8, groups=8)
    assert tensor._SPLIT_STRIPS == 2
    assert tensor._runs(dense, 6, 2, 2) == [(0, 6)]  # 3 strips
    assert tensor._runs(dense, 8, 2, 2) == [(0, 4), (4, 8)]
    assert tensor._runs(dense, 9, 2, 2) == [(0, 6), (6, 9)]  # 5 strips, the last of 1 row
    assert tensor._runs(dense, 40, 2, 1) == [(0, 40)]
    assert tensor._runs(depthwise, 40, 2, 2) == [(0, 40)]


def _split_call(rng):
    """A 32->32 3x3 conv of a 20x256 plane, which runs in 2-row strips, and
    a workspace that holds both threads' buffers."""
    spec = random_conv(rng, 32, 32)
    x = rand_tensor(rng, 1, 32, 20, 256)
    rows, floats, *_ = conv_strips(1, 20, 256, spec, None, None, 2)
    assert rows == 2 and floats > conv_strips(1, 20, 256, spec, None, None)[1]
    return x, spec, np.empty(floats, np.float32)


def test_a_conv_splits_only_given_a_workspace_for_both_threads(monkeypatch, rng):
    x, spec, ws = _split_call(rng)
    monkeypatch.setattr(tensor, "_WORKERS", 2)
    submits = _submits(monkeypatch)
    whole = conv2d(x, spec)  # allocates one thread's workspace
    small = conv2d(x, spec, None, ws[: conv_strips(1, 20, 256, spec, None, None)[1]])
    assert submits == []
    split = conv2d(x, spec, None, ws)
    assert submits == [(10, 20)]
    assert _sha(split) == _sha(small) == _sha(whole)


def test_the_workers_error_is_raised_once_it_has_stopped(monkeypatch, rng):
    x, spec, ws = _split_call(rng)
    monkeypatch.setattr(tensor, "_WORKERS", 2)
    matmul, main, stopped = np.matmul, threading.main_thread(), []

    def failing(*args):
        if threading.current_thread() is main:
            return matmul(*args)
        time.sleep(0.05)
        stopped.append(time.perf_counter())
        raise RuntimeError("the worker's GEMM failed")

    with monkeypatch.context() as m:
        m.setattr(np, "matmul", failing)
        with pytest.raises(RuntimeError, match="the worker's GEMM failed"):
            conv2d(x, spec, None, ws)
        assert len(stopped) == 1
    # the pool's thread outlives its error, and the next run has its bits
    g, y = build_spanv2(seed=0), rand_tensor(rng, 1, 3, 96, 256)
    submits = _submits(monkeypatch)
    two = run_graph(g, y, "fused")
    monkeypatch.setattr(tensor, "_WORKERS", 1)
    assert submits and _sha(two) == _sha(run_graph(g, y, "fused"))


def test_the_caller_raises_only_once_the_worker_has_stopped(monkeypatch, rng):
    x, spec, ws = _split_call(rng)
    monkeypatch.setattr(tensor, "_WORKERS", 2)
    matmul, main, strips = np.matmul, threading.main_thread(), []

    def failing(*args):
        if threading.current_thread() is main:
            raise RuntimeError("the caller's GEMM failed")
        time.sleep(0.02)
        strips.append(time.perf_counter())
        return matmul(*args)

    with monkeypatch.context() as m:
        m.setattr(np, "matmul", failing)
        with pytest.raises(RuntimeError, match="the caller's GEMM failed"):
            conv2d(x, spec, None, ws)
        raised = time.perf_counter()
        time.sleep(0.05)
    assert len(strips) == 5 and max(strips) < raised  # the worker's 5 strips, all before


def test_unfused_and_one_strip_runs_hand_the_pool_nothing(monkeypatch, rng):
    monkeypatch.setattr(tensor, "_WORKERS", 2)
    submits = _submits(monkeypatch)
    g = build_spanv2(seed=0)
    run_graph(g, rand_tensor(rng, 1, 3, 96, 256), "unfused")
    run_graph(g, rand_tensor(rng, 1, 3, 61, 63), "fused")
    assert submits == []
    run_graph(g, rand_tensor(rng, 1, 3, 96, 256), "fused")
    assert submits


def test_concurrent_runs_share_one_pool_and_keep_their_bits(monkeypatch, rng):
    # More calling threads than cores, switching every few microseconds:
    # the first split calls race to start the one pool, every caller's
    # worker run queues on its one thread, and each caller waits for its own.
    g, x = build_span_baseline(seed=0), rand_tensor(rng, 1, 3, 96, 256)
    monkeypatch.setattr(tensor, "_WORKERS", 1)
    want = _sha(run_graph(g, x, "fused"))
    monkeypatch.setattr(tensor, "_WORKERS", 2)
    monkeypatch.setattr(tensor, "_pools", [])
    got = []
    callers = [threading.Thread(target=lambda: got.extend(_sha(run_graph(g, x, "fused")) for _ in range(2)))
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        for pool in tensor._pools:
            pool.shutdown()
    assert not any(t.is_alive() for t in callers)
    assert got == [want] * 8 and len(tensor._pools) == 1


def test_the_thread_count_changes_no_strip(monkeypatch, rng):
    # The strips are sized for two threads' workspace whatever the thread
    # count, so a run forced to one thread runs the same GEMMs; it
    # allocates one thread's workspace, and the pool adds nothing.
    g, x = build_span_baseline(seed=0), rand_tensor(rng, 1, 3, 96, 256)
    sizes, conv = [], graph.conv2d
    monkeypatch.setattr(graph, "conv2d", lambda a, spec, out, ws: sizes.append(ws.size) or conv(a, spec, out, ws))
    submits = _submits(monkeypatch)
    for workers in (1, 2):
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        run_graph(g, x, "fused")
        assert bool(submits) == (workers == 2)
    run = graph._compiled(g, 96, 256)
    one, two = run.plan.ws_floats
    assert one < two and sizes == [one] * (len(sizes) // 2) + [two] * (len(sizes) // 2)


def _held_mib(g, x):
    """tracemalloc peak of one fused run_graph beyond the memory held
    before it and the output's own bytes, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run_graph(g, x, "fused")
        return (tracemalloc.get_traced_memory()[1] - base - out.data.nbytes) / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "model, h, before",
    [("spanv2", 256, 6.963), ("spanv2", 512, 6.963), ("span", 256, 8.130), ("span", 512, 8.268)],
    ids=["spanv2_256x256", "spanv2_512x256", "span_256x256", "span_512x256"],
)
def test_a_split_run_holds_at_most_one_more_threads_conv_buffers(monkeypatch, rng, model, h, before):
    # `before`: held beyond the output, second call, when every conv ran on
    # one thread. The second thread adds one column block of a body conv;
    # the plan's strips count it against the budget, and SPAN's fall from 19
    # rows to 14, so SPAN holds less than before.
    monkeypatch.setattr(tensor, "_WORKERS", 2)
    g = MODELS[model]()
    x = rand_tensor(rng, 1, 3, h, 256)
    run_graph(g, x, "fused")  # compiles
    body = replace(g.node("b1.conv_b").spec, padding=(0, 1))
    one_thread = conv_strips(1, 256, 256, body, 1, 1, 2)[1] - conv_strips(1, 256, 256, body, 1, 1)[1]
    assert _held_mib(g, x) <= before + 4 * one_thread / 2**20


CHILD = """
import hashlib, json
import numpy as np
from srkit import graph
from srkit.models import build_span_baseline, build_spanv2
from srkit.rewrites import decorate_for_reparam
from srkit.selftest import rand_tensor
tensor = graph.tensor
pool, submits = tensor._pool, []
tensor._pool = lambda: submits.append(1) or pool()
got = {}
for name, g in (("spanv2", build_spanv2(seed=0)), ("span", build_span_baseline(seed=0)),
                ("spanv2_train_form", decorate_for_reparam(build_spanv2(seed=3)))):
    x = rand_tensor(np.random.default_rng(0), 1, 3, 96, 256)
    for workers in (1, 2):
        tensor._WORKERS = workers
        out = graph.run_graph(g, x, "fused").data
        got[f"{name}/{workers}"] = hashlib.sha256(out.tobytes()).hexdigest()
print(json.dumps({"sha256": got, "submits": len(submits)}))
"""


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_the_split_keeps_the_bits_on_another_gemm_kernel(core):
    # OpenBLAS picks its sgemm kernel from the CPU; OPENBLAS_CORETYPE, set
    # for the child alone, makes it load the one an AVX2 (Haswell) or AVX
    # (Sandybridge) host gets, and OPENBLAS_VERBOSE=2 has it name the
    # kernel it loaded.
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2")
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode < 0 or f"Core: {core}" not in proc.stdout + proc.stderr:
        pytest.skip(f"this CPU cannot run OpenBLAS's {core} kernel: {proc.stderr.strip()[-200:]}")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["submits"] > 0
    for name in MODELS:
        assert doc["sha256"][f"{name}/1"] == doc["sha256"][f"{name}/2"], name
