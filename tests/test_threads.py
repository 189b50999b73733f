"""A fused run on two threads, two strips in flight or a conv2d call's
strips split: the same bits as on one, the caller's wait for the worker on
every path, which runs use the pool, and the memory a two-thread run holds."""

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
    """What each call hands the pool, as a list that fills as they are
    handed: the (first, end) output rows of a conv2d call's run, or "odd
    strips" for a fused run's odd strips."""
    handed, pool = [], tensor._pool

    class Recording:
        def submit(self, fn, *args):
            handed.append(args[:2] if len(args) == 3 else "odd strips")  # conv2d's (lo, hi, ws)
            return pool().submit(fn, *args)

    monkeypatch.setattr(tensor, "_pool", Recording)
    return handed


def _force_two_strips(monkeypatch, rows):
    """Make fused runs stream with two strips in flight in strips of `rows`
    input rows, whatever the budget; no compiled run is kept."""
    monkeypatch.setattr(graph, "_strip_rows", lambda lay, one, budget: rows)
    monkeypatch.setattr(graph, "_wave", lambda lay, h, rows, budget: (rows, graph._plan(lay, h, rows, 2)))
    monkeypatch.setattr(graph, "_RUNS_KEPT", 0)


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize(
    "n, h, w",
    [(1, 96, 256), (1, 256, 256), (1, 512, 256), (1, 17, 19), (1, 61, 63), (2, 96, 256)],
    ids=["96x256", "256x256", "512x256", "patch_17x19", "patch_61x63", "batch2_96x256"],
)
def test_one_and_two_threads_give_the_same_bits(monkeypatch, rng, model, n, h, w):
    # Each strip's GEMM has the same shape on either thread, so neither two
    # strips in flight (SPANV2 and its training form) nor the split of a
    # conv's strips (SPAN) changes a bit. A patch is one strip, and never
    # splits.
    g = MODELS[model]()
    x = rand_tensor(rng, n, 3, h, w)
    monkeypatch.setattr(tensor, "_WORKERS", 1)
    one = run_graph(g, x, "fused")
    monkeypatch.setattr(tensor, "_WORKERS", 2)
    submits = _submits(monkeypatch)
    two = run_graph(g, x, "fused")
    plan = graph._compiled(g, h, w).plan
    assert _sha(two) == _sha(one)
    assert bool(submits) == (h > 64) == (len(plan.strips) > 1)
    # two strips in flight hand the pool their odd strips, once a call, and
    # never a conv's rows: the pool's one thread is running those strips
    assert (submits == ["odd strips"]) == (plan.in_flight == 2 and h > 64) == (model != "span" and h > 64)


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


def test_a_conv_splits_only_when_its_caller_asks(monkeypatch, rng):
    # The caller passes the split: a fused run of two strips in flight has
    # the pool's one thread running its odd strips, so its convs must not
    # hand it theirs, whatever workspace they are given.
    x, spec, ws = _split_call(rng)
    monkeypatch.setattr(tensor, "_WORKERS", 2)
    submits = _submits(monkeypatch)
    whole = conv2d(x, spec)  # allocates one thread's workspace
    big = conv2d(x, spec, None, ws)  # room for two threads, asked for one
    assert submits == []
    split = conv2d(x, spec, None, ws, 2)
    allocated = conv2d(x, spec, None, None, 2)  # allocates both threads' buffers
    assert submits == [(10, 20)] * 2
    monkeypatch.setattr(tensor, "_WORKERS", 1)
    capped = conv2d(x, spec, None, ws, 2)  # never on more than _WORKERS threads
    assert submits == [(10, 20)] * 2
    assert _sha(split) == _sha(allocated) == _sha(capped) == _sha(big) == _sha(whole)


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
            conv2d(x, spec, None, ws, 2)
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
            conv2d(x, spec, None, ws, 2)
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
    # the first two-thread runs race to start the one pool, every caller's
    # worker job (SPAN's conv runs, SPANV2's odd strips) queues on its one
    # thread, and each caller waits for its own, with no deadlock.
    for g in (build_span_baseline(seed=0), build_spanv2(seed=0)):
        x = rand_tensor(rng, 1, 3, 96, 256)
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
        assert not any(t.is_alive() for t in callers), g.name
        assert got == [want] * 8 and len(tensor._pools) == 1, g.name


def test_the_thread_count_changes_no_strip(monkeypatch, rng):
    # A plan is compiled whatever the thread count, so a run forced to one
    # thread runs the same GEMMs. One strip in flight (SPAN): its strips are
    # sized for two threads' conv workspace; one thread allocates one
    # thread's, and the pool adds nothing. Two strips in flight (SPANV2):
    # each thread has one thread's workspace.
    for g, flight in ((build_span_baseline(seed=0), 1), (build_spanv2(seed=0), 2)):
        plans = []
        for workers in (1, 2):
            monkeypatch.setattr(tensor, "_WORKERS", workers)
            plans.append(graph._compile(g, 96, 256).plan)
        same = [(p.strips, p.shapes, p.carry, p.ws_floats, p.in_flight) for p in plans]
        assert same[0] == same[1] and plans[0].in_flight == flight
    g, x = build_span_baseline(seed=0), rand_tensor(rng, 1, 3, 96, 256)
    sizes, conv = [], graph.conv2d
    monkeypatch.setattr(graph, "conv2d", lambda a, spec, out, ws, workers: sizes.append(ws.size) or conv(a, spec, out, ws, workers))
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
    # rows to 14, so SPAN holds less than before. SPANV2 runs two strips in
    # flight, sized by their own bytes, and holds less still.
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


# -- two strips in flight ----------------------------------------------------


@pytest.mark.parametrize("n", [1, 2], ids=["batch1", "batch2"])
@pytest.mark.parametrize(
    "h, w, rows", [(256, 256, None), (2048, 256, None), (339, 510, 5)], ids=["256x256", "2048x256", "339x510"]
)
@pytest.mark.parametrize("model", ["spanv2", "spanv2_train_form"])
def test_two_strips_in_flight_give_one_threads_bits(monkeypatch, rng, model, h, w, rows, n):
    # Each thread runs its strips' actions unchanged, so every GEMM has the
    # shape it has on one thread. The images' strips run in turn, so at
    # batch 2 image 1's first strip waits for image 0's last, on the other
    # thread. Two strips do not fit the budget at 339x510 and are forced
    # there, in 5-row strips; 71 of them, an odd count, so image 1's even
    # strips run on the pool's thread.
    g = MODELS[model]()
    if rows:
        _force_two_strips(monkeypatch, rows)
    x = rand_tensor(rng, n, 3, h, w)
    monkeypatch.setattr(tensor, "_WORKERS", 1)
    one = run_graph(g, x, "fused")
    monkeypatch.setattr(tensor, "_WORKERS", 2)
    submits = _submits(monkeypatch)
    two = run_graph(g, x, "fused")
    plan = graph._compiled(g, h, w).plan
    assert plan.in_flight == 2 and submits == ["odd strips"]
    assert rows is None or len(plan.strips) % 2 == 1
    assert _sha(two) == _sha(one)


def _fail_on(monkeypatch, who, after):
    """np.matmul that raises on thread `who` ("worker": the pool's, else the
    caller's) at its GEMM number `after` there, 50 ms after it is called,
    and takes 5 ms longer on the other thread, so that thread is mid-strip
    when the error is raised; returns the perf_counter times each of the
    other thread's GEMMs ended and when the failing one raised, as lists
    that fill as they run."""
    matmul, calls, others, raised = np.matmul, [], [], []

    def failing(*args, **kwargs):
        mine = threading.current_thread().name.startswith("srkit") == (who == "worker")
        if not mine:
            time.sleep(0.005)
            out = matmul(*args, **kwargs)
            others.append(time.perf_counter())
            return out
        calls.append(1)
        if len(calls) == after:
            time.sleep(0.05)
            raised.append(time.perf_counter())
            raise RuntimeError(f"the {who}'s GEMM failed")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", failing)
    return others, raised


@pytest.mark.parametrize("who", ["worker", "caller"])
def test_a_thread_that_fails_mid_strip_stops_both_and_is_raised_after(monkeypatch, rng, who):
    # A thread's error releases the other's waits, so the caller neither
    # hangs nor raises before both threads have stopped; the error raised
    # is the failing thread's own, and the pool's thread serves the next run.
    g, x = build_spanv2(seed=0), rand_tensor(rng, 1, 3, 256, 256)
    monkeypatch.setattr(tensor, "_WORKERS", 2)
    want = _sha(run_graph(g, x, "fused"))
    assert graph._compiled(g, 256, 256).plan.in_flight == 2
    got: list = []

    def call():
        try:
            run_graph(g, x, "fused")
        except Exception as e:
            got.append((e, time.perf_counter()))

    with monkeypatch.context() as m:
        others, raised = _fail_on(m, who, 40)
        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "the caller hangs"
        time.sleep(0.05)
    (error, at), = got
    assert str(error) == f"the {who}'s GEMM failed" and len(raised) == 1
    assert others and max(others) < at and raised[0] < at
    assert _sha(run_graph(g, x, "fused")) == want


@pytest.mark.parametrize("g", [build_spanv2(seed=0), build_span_baseline(seed=0)], ids=["spanv2", "span"])
def test_two_strips_run_where_two_fit_and_one_elsewhere(g):
    # SPANV2's two strips at 256^2 fit _GRAPH_BYTES in 10 rows and hold
    # less than its 20-row strips on one strip in flight; SPAN's long skips
    # keep 16-19 header rows, and two of its strips do not fit in 4 rows,
    # so it keeps the one-strip plan: 14 rows, 19 strips, its convs split.
    run = graph._compile(g, 256, 256)
    budget = graph._GRAPH_BYTES
    if not g.fusion_groups:  # SPAN
        assert (run.rows, len(run.plan.strips), run.plan.in_flight) == (14, 19, 1)
        four = graph._plan(run.lay, 256, 4, 2)
        assert 4 * graph._two_strip_floats(four) > budget
        return
    assert run.plan.in_flight == 2 and 4 * graph._two_strip_floats(run.plan) <= budget
    more = graph._plan(run.lay, 256, run.rows + 1, 2)
    assert 4 * graph._two_strip_floats(more) > budget


@pytest.mark.parametrize("g", [build_spanv2(seed=0), decorate_for_reparam(build_spanv2(seed=3))],
                         ids=["spanv2", "spanv2_train_form"])
def test_a_two_strip_plan_makes_no_more_than_its_rows_a_strip(g):
    # Its first strip ends the input step's lead early, so no strip makes
    # more input rows than `rows` and no band is sized for the first
    # strip's reach; one strip in flight, the first strip makes its rows
    # and the lead.
    run = graph._compile(g, 256, 256)
    lead = graph._lead(run.lay)
    assert run.plan.in_flight == 2 and lead > 0
    made = [rows_in[1] - rows_in[0] for _, rows_in, _ in run.plan.strips]
    assert max(made) == run.rows and run.plan.strips[0][2] == (0, 0)
    one = graph._plan(run.lay, 256, run.rows)
    assert [rows_in[1] - rows_in[0] for _, rows_in, _ in one.strips][0] == run.rows + lead
    assert max(s[2] for s in run.plan.shapes) < max(s[2] for s in one.shapes)


@pytest.mark.parametrize("g", [build_spanv2(seed=0), build_span_baseline(seed=0)], ids=["spanv2", "span"])
def test_a_header_is_copied_out_after_its_bands_last_writer(g):
    # The next strip waits for the carry rows of a band it uses, so a band
    # read late in a strip (SPANV2's input by `near`, SPAN's head by
    # cat_conv) must be copied out after its last writer, not its last
    # reader, or strip k + 1 waits for the end of strip k.
    run = graph._compile(g, 256, 256)
    for program in run.plan.programs:
        for a, act in enumerate(program):
            for b, _, _ in act.copied_out:
                writes = [i for i, later in enumerate(program) if later.out is not None and later.out[0] == b]
                assert (writes and writes[-1] == a) or (not writes and b in act.takes), (a, b)
                assert b in act.releases
