import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from srkit import fusion, graph
from srkit.fusion import BranchGroup, LoraFactors
from srkit.graph import FusionGroup, ModelGraph, Node, infer_shapes, run_graph, validate_graph
from srkit.metrics import count_flops
from srkit.models import build_span_baseline, build_spanv2, random_conv
from srkit.rewrites import decorate_for_reparam
from srkit.selftest import assert_close, rand_tensor
from srkit.tensor import Band, ConvSpec, ShapeError, Tensor, Tiles, conv_strips

# perfbench's spanv2-patches shapes: odd, non-square, sides 17 to 63
PATCH_SHAPES = [
    (17, 19), (29, 19), (23, 37), (35, 29), (31, 41), (43, 35), (37, 47), (49, 41),
    (43, 53), (53, 47), (49, 57), (57, 53), (55, 59), (61, 57), (61, 63),
]


def _conv(cin, cout, k=3, groups=1):
    return random_conv(np.random.default_rng(0), cin, cout, k=k, groups=groups)


def _graph(nodes, output=None, groups=()):
    return ModelGraph("g", list(nodes), output or nodes[-1].name, fusion_groups=list(groups))


def _gated(attn=None, mul_inputs=("sm", "at"), attn_src="a", fin_src=None, groups=None):
    """out = (input + a) * conv1x1(a) with a = conv3x3(input): one fusion group.

    The keyword arguments break one fusion-group rule at a time: the gate's
    weights, what the mul consumes, what the 1x1 conv reads (a or relu(a)),
    and a second consumer `fin = out + fin_src` after the group.
    """
    nodes = [
        Node("input", "input", (), channels=4),
        Node("a", "conv", ("input",), spec=_conv(4, 4)),
        Node("r", "relu", ("a",)),
        Node("at", "conv", (attn_src,), spec=attn or _conv(4, 4, k=1)),
        Node("sm", "add", ("input", "a")),
        Node("out", "mul", mul_inputs),
        Node("fin", "add", ("out", fin_src)),
    ]
    if attn_src != "r":
        del nodes[2]
    if fin_src is None:
        del nodes[-1]
    fg = FusionGroup(conv="at", add="sm", mul="out")
    return _graph(nodes, groups=[fg] if groups is None else groups)


def _inp(c=3):
    return Node("input", "input", (), channels=c)


MALFORMED = {
    "no leading input": (
        _graph([Node("a", "relu", ()), _inp()]),
        "exactly one input node",
    ),
    "duplicate name": (
        _graph([_inp(), Node("a", "relu", ("input",)), Node("a", "relu", ("a",))]),
        "duplicate node name 'a'",
    ),
    "unknown op": (
        _graph([_inp(), Node("a", "softmax", ("input",))]),
        "unknown op 'softmax'",
    ),
    "forward reference": (
        _graph([_inp(), Node("a", "relu", ("b",)), Node("b", "relu", ("input",))]),
        "consumes 'b' before it is defined",
    ),
    "output not a node": (
        _graph([_inp(), Node("a", "relu", ("input",))], output="nope"),
        "graph output 'nope' is not a node",
    ),
    "dangling node": (
        _graph([_inp(), Node("a", "relu", ("input",)), Node("b", "relu", ("input",))]),
        "dangling nodes (no consumer): ['a']",
    ),
    "relu without input": (
        _graph([_inp(), Node("a", "relu", ())]),
        "relu 'a' has 0 inputs, takes 1",
    ),
    "add with one input": (
        _graph([_inp(), Node("s", "add", ("input",))]),
        "add 's' has 1 inputs, takes 2",
    ),
    "concat without inputs": (
        _graph([_inp(), Node("c", "concat", ())]),
        "concat 'c' has 0 inputs, takes one or more",
    ),
    "conv width mismatch": (
        _graph([_inp(), Node("a", "conv", ("input",), spec=_conv(4, 4))]),
        "conv 'a' expects 4 channels, producer provides 3",
    ),
    "add mixed widths": (
        _graph(
            [
                _inp(),
                Node("a", "conv", ("input",), spec=_conv(3, 4)),
                Node("s", "add", ("input", "a")),
            ]
        ),
        "add 's' mixes widths 3 and 4",
    ),
    "mul mixed widths": (
        _graph(
            [
                _inp(),
                Node("a", "conv", ("input",), spec=_conv(3, 4)),
                Node("m", "mul", ("a", "input")),
            ]
        ),
        "mul 'm' mixes widths 4 and 3",
    ),
    "add mixed extents": (
        _graph(
            [
                _inp(),
                Node("a", "conv", ("input",), spec=replace(_conv(3, 3, k=1), padding=(1, 1))),
                Node("s", "add", ("input", "a")),
            ]
        ),
        "add 's' mixes extents 1x1 and 3x3",
    ),
    "mul mixed extents": (
        _graph(
            [
                _inp(),
                Node("a", "conv", ("input",), spec=replace(_conv(3, 3, k=1), padding=(0, 2))),
                Node("m", "mul", ("input", "a")),
            ]
        ),
        "mul 'm' mixes extents 1x1 and 1x5",
    ),
    # 2h x 2w against (h + 1) x (w + 1): equal for a 1x1 input, not for 2x2
    "concat mixed extents": (
        _graph(
            [
                _inp(),
                Node("a", "conv", ("input",), spec=_conv(3, 12, k=1)),
                Node("up", "pixel_shuffle", ("a",), upscale=2),
                Node("b", "conv", ("input",), spec=replace(_conv(3, 3, k=2), padding=(1, 1))),
                Node("c", "concat", ("up", "b")),
            ]
        ),
        "concat 'c' mixes extents 4x4 and 3x3",
    ),
    "pixel_shuffle not divisible": (
        _graph([_inp(), Node("up", "pixel_shuffle", ("input",), upscale=2)]),
        "3 channels not divisible by 4",
    ),
    "input without channels": (
        _graph([Node("input", "input", ()), Node("a", "relu", ("input",))]),
        "must declare channels",
    ),
    "conv without weights": (
        _graph([_inp(), Node("a", "conv", ("input",))]),
        "neither spec nor branches",
    ),
    "group names unknown node": (
        _gated(groups=[FusionGroup(conv="nope", add="sm", mul="out")]),
        "names a node the graph lacks",
    ),
    "group names wrong ops": (
        _gated(groups=[FusionGroup(conv="sm", add="at", mul="out")]),
        "does not name conv/add/mul nodes",
    ),
    "group conv not 1x1": (
        _gated(attn=_conv(4, 4, k=3)),
        "must be a plain 1x1 conv",
    ),
    "group conv grouped": (
        _gated(attn=_conv(4, 4, k=1, groups=2)),
        "must be a plain 1x1 conv",
    ),
    "group mul inputs": (
        _gated(mul_inputs=("sm", "a"), fin_src="at"),
        "must consume the conv and add",
    ),
    "group without shared f3": (
        _gated(attn_src="r"),
        "must share f3",
    ),
    "group conv with second consumer": (
        _gated(fin_src="at"),
        "conv/add outputs must feed only the mul",
    ),
    "node in two groups": (
        _gated(groups=[FusionGroup("at", "sm", "out")] * 2),
        "appears in two fusion groups",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_validate_rejects_malformed_graph(case):
    g, fragment = MALFORMED[case]
    with pytest.raises(ShapeError) as exc:
        validate_graph(g)
    assert fragment in str(exc.value)


def test_gated_fixture_is_valid():
    validate_graph(_gated())


@pytest.mark.parametrize("upscale", [0, -2, None])
def test_pixel_shuffle_rejects_bad_upscale(upscale):
    g = _graph([_inp(), Node("up", "pixel_shuffle", ("input",), upscale=upscale)])
    with pytest.raises(ShapeError, match="upscale must be an integer >= 1"):
        validate_graph(g)


def test_run_graph_calls_kernels_through_graph_globals(monkeypatch, rng):
    # Rebinding a kernel's name in srkit.graph must reach every call the
    # executor makes; outside-in tracers depend on it.
    calls = {"relu": 0, "fused_attention": 0}

    def counting(name):
        fn = getattr(graph, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(graph, name, counting(name))
    g = build_spanv2(seed=0)
    run_graph(g, rand_tensor(rng, 1, 3, 6, 7), mode="fused")
    assert calls["relu"] == sum(n.op == "relu" for n in g.nodes) == 10
    assert calls["fused_attention"] == len(g.fusion_groups) == 5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_run_graph_rejects_non_finite_input(rng, bad):
    g = build_spanv2(c=4, blocks=1, seed=0)
    data = rand_tensor(rng, 1, 3, 5, 6).data.copy()
    data[0, 1, 2, 3] = bad
    with pytest.raises(ValueError, match="graph 'spanv2': input contains non-finite values"):
        run_graph(g, Tensor(data))


def test_a_rejected_input_compiles_no_run(rng):
    # The input is checked before either mode plans. Checked after, a
    # 4-channel 300x200 input to SPANV2 spent 6-12 ms compiling, and it and
    # a NaN input each took one of the graph's _RUNS_KEPT kept sizes.
    g = build_spanv2(seed=0)
    run_graph(g, rand_tensor(rng, 1, 3, 5, 6), "fused")
    kept = vars(g).get("_runs")
    nan = rand_tensor(rng, 1, 3, 7, 5).data.copy()
    nan[0, 2, 3, 4] = np.nan
    for x, error in ((rand_tensor(rng, 1, 4, 300, 200), ShapeError), (Tensor(nan), ValueError)):
        with pytest.raises(error):
            run_graph(g, x, "fused")
        assert vars(g).get("_runs") is kept


def _cat_graph(readers):
    """cat = concat(a, b) of two convs on the input, then `readers`, which
    read cat and end in the output node."""
    nodes = [
        _inp(),
        Node("a", "conv", ("input",), spec=_conv(3, 2)),
        Node("b", "conv", ("input",), spec=_conv(3, 1)),
        Node("cat", "concat", ("a", "b")),
        *readers,
    ]
    return _graph(nodes)


PLAIN = Node("cat_conv", "conv", ("cat",), spec=_conv(3, 4))
RANK1 = LoraFactors(np.ones((3, 9), np.float32), np.ones((12, 3), np.float32), 1)
LORA = Node("cat_conv", "conv", ("cat",), spec=_conv(3, 4), lora=RANK1)


@pytest.mark.parametrize(
    "readers",
    [
        [PLAIN],
        [PLAIN, Node("cat_conv2", "conv", ("cat",), spec=_conv(3, 4, k=1)),
         Node("sum", "add", ("cat_conv", "cat_conv2"))],
        [PLAIN, Node("r", "relu", ("cat",)), Node("r_conv", "conv", ("r",), spec=_conv(3, 4)),
         Node("sum", "add", ("cat_conv", "r_conv"))],
        [LORA],
        [],
    ],
    ids=["conv", "two_convs", "conv_and_relu", "lora_conv", "graph_output"],
)
def test_fused_builds_a_concat_only_for_a_reader_other_than_a_plain_conv(monkeypatch, rng, readers):
    # Fused holds a concat that only convs read as its inputs' bands, which
    # each conv copies into its own band; a reader that needs a plane (the
    # relu, the graph output) makes fused hold the concat in one band,
    # filled with its inputs' rows, never through graph.concat_channels.
    calls = []
    concat = graph.concat_channels
    monkeypatch.setattr(graph, "concat_channels", lambda parts: calls.append(1) or concat(parts))
    g = _cat_graph(readers)
    x = rand_tensor(rng, 1, 3, 5, 7)
    fused = run_graph(g, x, mode="fused")
    assert calls == []
    # no fusion groups, so the two plans do the same arithmetic
    assert np.array_equal(fused.data, run_graph(g, x, mode="unfused").data)
    assert len(calls) == 1  # unfused is the literal op-by-op run


@pytest.mark.parametrize(
    "g",
    [build_span_baseline(seed=3), decorate_for_reparam(build_spanv2(seed=3))],
    ids=["span", "spanv2_train_form"],
)
def test_models_fused_match_unfused(rng, g):
    # SPAN's `cat` and SPANV2's `fuse.cat` are read in place in fused mode
    x = rand_tensor(rng, 1, 3, 11, 9)
    assert_close(run_graph(g, x, "fused"), run_graph(g, x, "unfused"))


@pytest.mark.parametrize("mode", graph.MODES)
@pytest.mark.parametrize("n", [1, 2])
def test_a_graph_whose_output_is_its_input_returns_the_input(rng, mode, n):
    # A one-step schedule: fused mode compiles no plan and runs nothing.
    g = _graph([_inp()])
    x = rand_tensor(rng, n, 3, 7, 5)
    assert run_graph(g, x, mode).data.tobytes() == x.data.tobytes()
    assert mode == "unfused" or graph._compiled(g, 7, 5).plan is None


def test_fused_lowers_branches_beside_a_node_of_their_name(rng):
    # A branch group's lowered convs and adds take names no node has, so a
    # node already named like one is neither shadowed nor read in its place.
    branches = BranchGroup((_conv(3, 3), replace(_conv(3, 3, k=1), bias=None)), include_identity=True)
    nodes = [
        _inp(),
        Node("x.branch0", "conv", ("input",), spec=_conv(3, 3)),
        Node("x.sum2", "relu", ("x.branch0",)),
        Node("x", "conv", ("x.sum2",), branches=branches),
        Node("out", "add", ("x", "x.branch0")),
    ]
    g = _graph(nodes)
    x = rand_tensor(rng, 1, 3, 5, 7)
    assert np.array_equal(run_graph(g, x, "fused").data, run_graph(g, x, "unfused").data)


def _held_mib(g, x, mode):
    """tracemalloc peak of one run_graph beyond the memory held before it
    and the output's own bytes, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run_graph(g, x, mode=mode)
        return (tracemalloc.get_traced_memory()[1] - base - out.data.nbytes) / 2**20
    finally:
        tracemalloc.stop()


def _most_held_mib(g, x, runs=3):
    """The most a fused run_graph held of `runs` runs (_held_mib): with two
    strips in flight, a run's peak depends on how the two threads' strips
    happen to overlap, and one run can miss the worst of them."""
    return max(_held_mib(g, x, "fused") for _ in range(runs))


@pytest.mark.parametrize(
    "g",
    [build_spanv2(seed=3), build_span_baseline(seed=3), decorate_for_reparam(build_spanv2(seed=3)),
     build_spanv2(s=1, seed=3)],
    ids=["spanv2", "span", "spanv2_train_form", "spanv2_x1"],
)
@pytest.mark.parametrize(
    "n, h, w",
    [(1, 17, 19), (1, 61, 63), (1, 64, 64)] + [(2, h, w) for h, w in PATCH_SHAPES],
    ids=["17x19", "61x63", "64x64"] + [f"batch2_{h}x{w}" for h, w in PATCH_SHAPES],
)
def test_one_strip_fused_is_bitwise_unfused(monkeypatch, rng, g, n, h, w):
    # Images whose whole-plane run fits the budget run alone as one strip of
    # the streamed walk: each conv reads explicit zero rows at the image
    # border with row padding 0, the rows unfused's padded band holds, and
    # the attention step's pass is bitwise the triple's. Unfused sizes its
    # conv strips per image, so a batch runs each image's GEMMs as it would
    # alone.
    x = rand_tensor(rng, n, 3, h, w)
    unfused = run_graph(g, x, "unfused")
    runs = _record_runs(monkeypatch)
    pads = []
    conv = graph.conv2d
    monkeypatch.setattr(graph, "conv2d", lambda a, spec, *rest: pads.append(spec.padding[0]) or conv(a, spec, *rest))
    assert np.array_equal(run_graph(g, x, "fused").data, unfused.data) and [r.rows for r in runs] == [h]
    assert pads and set(pads) <= {0}


@pytest.mark.parametrize(
    "g", [build_spanv2(seed=3), decorate_for_reparam(build_spanv2(seed=3))], ids=["spanv2", "spanv2_train_form"]
)
@pytest.mark.parametrize("budget", [1 << 17, 1 << 16, 1 << 14], ids=["1<<17", "1<<16", "1<<14"])
def test_one_strip_attention_is_bitwise_whatever_the_budget(monkeypatch, rng, g, budget):
    # A small strip budget shrinks every conv's strips, the gate conv's
    # too: at 1 << 16 and 1 << 14 unfused's 1x1 gate conv runs GEMMs of 567
    # and 126 columns, under OpenBLAS's 10^6-MAC small-product threshold,
    # which round unlike a whole-plane product. The fused gate GEMMs run in
    # the same row strips, so the patch, still one strip, stays bitwise
    # unfused.
    monkeypatch.setattr(graph.tensor, "_STRIP_FLOATS", budget)
    x = rand_tensor(rng, 1, 3, 61, 63)
    fused = run_graph(g, x, "fused")
    assert graph._compiled(g, 61, 63).rows == 61
    assert np.array_equal(fused.data, run_graph(g, x, "unfused").data)


def test_fused_patch_memory(rng):
    # Held beyond the output at 61x63, a benchmark patch: about 3.1 MiB
    # (SPANV2) and 3.5 (SPAN) when this was written. Building SPANV2's
    # fuse.cat (0.73 MiB) or SPAN's cat (1.6 MiB) breaks the bound. The
    # training form held 5.1 MiB when its convs ran unlowered, each on a
    # plane of its own, and 3.0 lowered to plain convs and adds.
    cases = (
        (build_spanv2(seed=0), 3.35),
        (build_span_baseline(seed=0), 3.75),
        (decorate_for_reparam(build_spanv2(seed=0)), 3.35),
    )
    for g, bound in cases:
        held = _held_mib(g, rand_tensor(rng, 1, 3, 61, 63), "fused")
        assert held <= bound, (g.name, held)


def test_fused_span_never_holds_its_concat_plane(rng):
    # Held beyond the output at 256^2: the 112-channel cat plane (28 MiB)
    # with its four parts alive made 44 MiB; read in place, the peak is 32 MiB.
    g = build_span_baseline(seed=0)
    x = rand_tensor(rng, 1, 3, 256, 256)
    held = {mode: _held_mib(g, x, mode) for mode in ("fused", "unfused")}
    assert held["fused"] <= 33 < 43 <= held["unfused"], held


def test_spanv2_runs_near_late_and_its_head_in_parts(rng):
    # Held beyond the output at 256^2 when `near` (12 MiB) ran first and was
    # held across the blocks, and fuse.dw built its 80-channel plane (20 MiB)
    # with both inputs alive: 32 MiB fused, 40 MiB unfused.
    g = build_spanv2(seed=0)
    x = rand_tensor(rng, 1, 3, 256, 256)
    held = {mode: _held_mib(g, x, mode) for mode in ("fused", "unfused")}
    assert held["fused"] <= 23 and held["unfused"] <= 31, held


def _steps(g):
    gates = graph._fusion_gates(g)
    reads = {n.name: gates[n.name][1:] if n.name in gates else n.inputs for n in g.nodes}
    return graph._schedule(g, reads), reads


@pytest.mark.parametrize(
    "g",
    [build_spanv2(seed=0), build_span_baseline(seed=0),
     decorate_for_reparam(build_spanv2(c=8, blocks=2, seed=0)), _gated(fin_src="input")],
    ids=["spanv2", "span", "spanv2_train_form", "gated"],
)
def test_schedule_is_a_topological_order_of_what_the_output_needs(g):
    steps, reads = _steps(g)
    names = [n.name for n in steps]
    grouped = {name for fg in g.fusion_groups for name in (fg.conv, fg.add)}
    needed, todo = set(), [g.output]
    while todo:
        name = todo.pop()
        if name not in needed:
            needed.add(name)
            todo.extend(reads[name])
    assert len(names) == len(set(names)) and set(names) == needed
    assert not needed & grouped
    for i, n in enumerate(steps):
        assert set(reads[n.name]) <= set(names[:i]), n.name


def test_schedule_runs_the_deeper_input_first():
    spanv2 = [n.name for n in _steps(build_spanv2(seed=0))[0]]
    assert spanv2[-6:] == ["b5.out", "near", "fuse.cat", "fuse.dw", "fuse.pw", "up"]
    span = build_span_baseline(seed=0)
    assert [n.name for n in _steps(span)[0]] == [n.name for n in span.nodes]


GROUPED_TAILS = {
    "pw": [Node("pw", "conv", ("grouped",), spec=_conv(9, 2, k=1))],
    "output": [],
    "relu": [Node("r", "relu", ("grouped",))],
}


@pytest.mark.parametrize(
    "widths, calls, tail",
    [((2, 4), 2, "pw"), ((1, 5), 1, "pw"), ((2, 4), 2, "output"), ((1, 5), 1, "output"),
     ((2, 4), 1, "relu"), ((1, 5), 1, "relu")],
    ids=["aligned", "misaligned", "aligned_output", "misaligned_output", "aligned_relu", "misaligned_relu"],
)
def test_grouped_conv_passes_parts_that_fall_on_group_boundaries(monkeypatch, rng, widths, calls, tail):
    # cat = concat(a, b) -> grouped conv (3 groups of 2 channels) -> a 1x1
    # conv, nothing (the grouped conv is the output) or a relu. Only convs
    # and the output read a value held as parts, so a relu reader makes the
    # grouped conv one call into one band.
    a, b = widths
    nodes = [
        _inp(),
        Node("a", "conv", ("input",), spec=_conv(3, a)),
        Node("b", "conv", ("input",), spec=_conv(3, b)),
        Node("cat", "concat", ("a", "b")),
        Node("grouped", "conv", ("cat",), spec=_conv(6, 9, groups=3)),
        *GROUPED_TAILS[tail],
    ]
    g = _graph(nodes)
    seen = []
    conv = graph.conv2d
    monkeypatch.setattr(graph, "conv2d", lambda x, spec, *rest: seen.append(x) or conv(x, spec, *rest))
    x = rand_tensor(rng, 1, 3, 5, 7)
    fused = run_graph(g, x, mode="fused")
    assert len(seen) == 2 + calls + (tail == "pw")  # a and b, the grouped conv's calls, pw
    if tail == "pw":
        # pw reads the grouped conv's output unbuilt: its bands, one per call
        assert isinstance(seen[-1], (Tiles, Band)) and len(Tiles.of(seen[-1]).tiles) == calls
    assert np.array_equal(fused.data, run_graph(g, x, mode="unfused").data)


def test_shape_and_flop_queries_never_form_a_lora_product(monkeypatch):
    g = decorate_for_reparam(build_spanv2(c=8, blocks=2, seed=0))
    calls = []
    product = fusion.lora_delta_spec

    def counting(*args):
        calls.append(1)
        return product(*args)

    for mod in (fusion, graph):
        monkeypatch.setattr(mod, "lora_delta_spec", counting, raising=False)
    validate_graph(g)
    infer_shapes(g, 16, 16)
    # the count made when each LoRA delta was a B @ A conv spec: bias-free
    # and ungrouped, plus one add per output element
    assert count_flops(g, 16, 16) == 2_168_832
    assert calls == []
    run_graph(g, Tensor.zeros(1, 3, 4, 4))  # the live LoRA convs still form it
    assert len(calls) == sum(n.lora is not None for n in g.nodes) > 0


# -- strip streaming ---------------------------------------------------------

def _record_runs(monkeypatch):
    """The compiled run each fused run_graph passes its executor, as a list
    that fills as they run."""
    runs, stream = [], graph._stream

    def recording(*args, **kwargs):
        runs.append(inspect.signature(stream).bind(*args, **kwargs).arguments["run"])
        return stream(*args, **kwargs)

    monkeypatch.setattr(graph, "_stream", recording)
    return runs


def _stream_in_strips(monkeypatch, g, x, rows):
    """Make fused runs stream in strips of `rows` input rows, and record the
    compiled run each run_graph uses. No compiled run is kept, so a run
    kept from an earlier forced height cannot stand in for this one."""
    monkeypatch.setattr(graph, "_GRAPH_BYTES", 0)  # no image fits one strip
    monkeypatch.setattr(graph, "_strip_rows", lambda lay, one, budget: rows)
    monkeypatch.setattr(graph, "_RUNS_KEPT", 0)
    return _record_runs(monkeypatch)


def _odd_geometry():
    """Convs that shrink, grow and keep the height around a pixel_shuffle:
    output rows that read only zero rows, and strips in units of 2 rows."""
    nodes = [
        _inp(),
        Node("shrink", "conv", ("input",), spec=replace(_conv(3, 8), padding=(0, 1))),
        Node("grow", "conv", ("shrink",), spec=replace(_conv(8, 8, k=1), padding=(2, 0))),
        Node("up", "pixel_shuffle", ("grow",), upscale=2),
        Node("tall", "conv", ("up",), spec=replace(_conv(2, 3, k=5), padding=(1, 2))),
    ]
    return _graph(nodes)


STREAMED = [
    build_spanv2(seed=3),
    build_span_baseline(seed=3),
    decorate_for_reparam(build_spanv2(seed=3)),
    _gated(fin_src="input"),
    _odd_geometry(),
]
STREAMED_IDS = ["spanv2", "span", "spanv2_train_form", "gated", "odd_geometry"]


STRIPS = {  # id: ((n, h, w), strip rows)
    "odd_4": ((1, 37, 53), 4),
    "odd_7": ((1, 37, 53), 7),
    "one_row": ((1, 1, 9), 4),
    "shorter_than_a_strip": ((1, 3, 10), 4),
    "batch2": ((2, 13, 11), 4),
    "batch3": ((3, 9, 6), 6),
    # tall and narrow: most strips repeat one program unplanned, and at
    # batch 2 all of the first image's come before the second image's
    "tall_4": ((1, 600, 40), 4),
    "tall_batch2_5": ((2, 600, 40), 5),
}


_STRIP_CASES = [  # odd_geometry's first conv takes at least 3 rows
    (g, name, case)
    for g, name in zip(STREAMED, STREAMED_IDS)
    for case, ((_, h, _), _) in STRIPS.items()
    if name != "odd_geometry" or h > 3
]


@pytest.mark.parametrize(
    "g, shape, rows",
    [(g, *STRIPS[case]) for g, _, case in _STRIP_CASES],
    ids=[f"{case}-{name}" for _, name, case in _STRIP_CASES],
)
def test_streamed_fused_matches_unfused_and_the_one_strip_run(monkeypatch, rng, g, shape, rows):
    # SPANV2's receptive radius is 16 rows and SPAN's 21, so strips of 4-7
    # rows end inside the halos of many nodes; the last strip of 37 rows in
    # 4-row strips is one row. A conv strip gets its neighbours' real rows
    # with row padding 0; a wrong row anywhere would differ from unfused.
    n, h, w = shape
    x = rand_tensor(rng, n, g.nodes[0].channels, h, w)
    whole, unfused = run_graph(g, x, "fused"), run_graph(g, x, "unfused")
    runs = _stream_in_strips(monkeypatch, g, x, rows)
    pads = []
    conv = graph.conv2d
    monkeypatch.setattr(graph, "conv2d", lambda a, spec, *rest: pads.append(spec.padding[0]) or conv(a, spec, *rest))
    streamed = run_graph(g, x, "fused")
    assert [r.rows for r in runs] == [rows] and set(pads) <= {0}
    # a run of fewer rows a strip than the image has streams, whatever
    # height its output has
    assert (len(runs[0].plan.strips) > 1) == (rows < h)
    # Strips change GEMM widths and so roundings, which untrained SPAN's
    # products of activations grow with its outputs (to 1e6 and beyond):
    # the absolute tolerance is taken relative to the output's peak.
    atol = 1e-6 * max(1.0, float(np.abs(unfused.data).max()))
    assert_close(streamed, unfused, atol=atol)
    assert_close(streamed, whole, atol=atol)


def _two_strips_in(monkeypatch, rows):
    """Make fused runs stream with two strips in flight in strips of `rows`
    input rows, whatever the budget, on two threads, and record the
    compiled run each run_graph uses; no compiled run is kept."""
    monkeypatch.setattr(graph, "_strip_rows", lambda lay, one, budget: rows)
    monkeypatch.setattr(graph, "_wave", lambda lay, h, rows, budget: (rows, graph._plan(lay, h, rows, 2)))
    monkeypatch.setattr(graph, "_RUNS_KEPT", 0)
    monkeypatch.setattr(graph.tensor, "_WORKERS", 2)
    return _record_runs(monkeypatch)


@pytest.mark.parametrize(
    "g, shape, rows",
    [(g, *STRIPS[case]) for g, name, case in _STRIP_CASES if name != "span"],
    ids=[f"{case}-{name}" for _, name, case in _STRIP_CASES if name != "span"],
)
def test_two_strips_in_flight_match_unfused_and_one_thread(monkeypatch, rng, g, shape, rows):
    # Strips shorter than the input step's lead, whose first strips make no
    # output row; convs that shrink and grow around a mid-graph shuffle; and
    # batches whose next image's first strip waits for the last one's carry
    # rows on the other thread. Two threads give one thread's bits, within
    # 1e-5 / 1e-6 of unfused. (Untrained SPAN never runs two strips, and
    # amplifies its first strip's other GEMM widths past the tolerance.)
    n, h, w = shape
    x = rand_tensor(rng, n, g.nodes[0].channels, h, w)
    unfused = run_graph(g, x, "unfused")
    runs = _two_strips_in(monkeypatch, rows)
    two = run_graph(g, x, "fused")
    monkeypatch.setattr(graph.tensor, "_WORKERS", 1)
    one = run_graph(g, x, "fused")
    assert [r.plan.in_flight == 2 for r in runs] == [rows < h] * 2
    assert np.array_equal(two.data, one.data)
    _close_to_unfused(two, unfused)


def _close_to_unfused(fused, unfused, msg=""):
    atol = 1e-6 * max(1.0, float(np.abs(unfused.data).max()))
    assert_close(fused, unfused, atol=atol, msg=msg)


def test_a_valid_conv_streams_in_the_strips_its_input_rows_make(rng):
    # An unpadded conv makes its output 2 rows shorter than the input, so a
    # plan that counted the output's rows from the input's planned 13,243
    # strips at 512x256, of which 2 did any work.
    g = _graph([
        _inp(),
        Node("valid", "conv", ("input",), spec=replace(_conv(3, 12), padding=(0, 1))),
        Node("up", "pixel_shuffle", ("valid",), upscale=2),
    ])
    x = rand_tensor(rng, 1, 3, 512, 256)
    fused = run_graph(g, x, "fused")
    run = graph._compiled(g, 512, 256)
    assert run.rows < 512 and len(run.plan.strips) <= -(-512 // run.rows) + 1
    _close_to_unfused(fused, run_graph(g, x, "unfused"))


def test_a_mid_graph_shuffle_behind_a_sibling_path_streams(monkeypatch, rng):
    # `up_a` is read by a conv that lags `up_b`'s path, which the concat
    # reads alongside it: a shuffle must still make whole multiples of its
    # scale a strip, where it once made an odd row count and failed.
    g = _graph([
        _inp(4),
        Node("r", "relu", ("input",)),
        Node("up_a", "pixel_shuffle", ("r",), upscale=2),
        Node("conv", "conv", ("up_a",), spec=_conv(1, 2)),
        Node("m", "mul", ("r", "input")),
        Node("up_b", "pixel_shuffle", ("m",), upscale=2),
        Node("cat", "concat", ("conv", "up_b")),
    ])
    x = rand_tensor(rng, 1, 4, 16, 17)
    unfused = run_graph(g, x, "unfused")
    runs = _stream_in_strips(monkeypatch, g, x, 4)
    _close_to_unfused(run_graph(g, x, "fused"), unfused)
    assert [r.rows for r in runs] == [4] and len(runs[0].plan.strips) > 1


def _random_graph(rng):
    """A small valid graph of random wiring, and its input channels.

    It is a chain of steps on the current value: convs of kernel 1, 3 or 5
    with row padding 0, k // 2 or more (some grouped); relu; an add, mul or
    concat with an earlier value of the same extents; an attention fusion
    group; and a fork into two paths that meet in a concat or add after
    each changes the extents alike: a pixel_shuffle (at most one in the
    graph) or a conv of one kernel and padding. Every value is read.
    """
    nodes, groups = [_inp(int(rng.choice([2, 4, 8])))], []
    c = {"input": nodes[0].channels}  # each value's channels
    same = ["input"]  # the values of the current value's extents
    shuffled = False

    def add(op, inputs, channels, **kw):
        name = f"n{len(nodes)}"
        nodes.append(Node(name, op, tuple(inputs), **kw))
        c[name] = channels
        return name

    def conv(src, cout, k, padding):
        cin = c[src]
        grouped = cin % 2 == 0 and cout % 2 == 0 and rng.random() < 0.3
        spec = replace(_conv(cin, cout, k=k, groups=2 if grouped else 1), padding=padding)
        return add("conv", [src], cout, spec=spec)

    def keeps_extents(src, widths=(2, 4, 8)):
        if rng.random() < 0.5:
            return add("relu", [src], c[src])
        k = int(rng.choice([1, 3, 5]))
        return conv(src, int(rng.choice(widths)), k, (k // 2, k // 2))

    cur = "input"
    for _ in range(rng.integers(2, 7)):
        kind = rng.choice(["conv", "relu", "join", "attention", "fork"])
        if kind == "conv":
            k = int(rng.choice([1, 3, 5]))
            padding = (int(rng.choice([0, k // 2, k // 2 + 1, k // 2 + 2])), int(rng.choice([0, k // 2, k // 2 + 1])))
            cur = conv(cur, int(rng.choice([2, 4, 8])), k, padding)
            same = [cur] if padding != (k // 2, k // 2) else same + [cur]
        elif kind == "relu" or (kind == "join" and len(same) < 2):
            cur = add("relu", [cur], c[cur])
            same.append(cur)
        elif kind == "join":
            y = same[rng.integers(len(same) - 1)]
            op = rng.choice(["add", "mul", "concat"]) if c[y] == c[cur] else "concat"
            cur = add(op, [cur, y][:: rng.choice([1, -1])], c[cur] + c[y] if op == "concat" else c[cur])
            same.append(cur)
        elif kind == "attention":
            res = add("relu", [cur], c[cur])
            gate = add("conv", [cur], c[cur], spec=_conv(c[cur], c[cur], k=1))
            total = add("add", [res, cur][:: rng.choice([1, -1])], c[cur])
            cur = add("mul", [gate, total][:: rng.choice([1, -1])], c[cur])
            groups.append(FusionGroup(gate, total, cur))
            same.append(cur)
        else:
            shuffle = not shuffled and c[cur] % 4 == 0 and rng.random() < 0.7
            k = int(rng.choice([1, 3, 5]))
            padding = (int(rng.choice([0, k // 2 + 1])), k // 2)
            ends = []
            for _ in range(2):  # a path, and its sibling
                v = keeps_extents(cur, (4, 8)) if rng.random() < 0.5 else cur
                v = add("pixel_shuffle", [v], c[v] // 4, upscale=2) if shuffle else conv(v, 4, k, padding)
                ends.append(keeps_extents(v) if rng.random() < 0.5 else v)
            a, b = ends
            cur = add("add", ends, c[a]) if c[a] == c[b] and rng.random() < 0.5 else add("concat", ends, c[a] + c[b])
            shuffled |= shuffle
            same = [cur]
    return _graph(nodes, groups=groups), nodes[0].channels


def test_random_graphs_fused_match_unfused(monkeypatch):
    # Seeded random graphs, fused in one strip and in 4-row strips, against
    # unfused: unpadded convs, padded ones that grow the image, shuffles
    # mid-graph and lagging skips, where plans have hung, taken memory
    # without bound or failed.
    rng = np.random.default_rng(2026)
    for i in range(150):
        while True:
            g, channels = _random_graph(rng)
            n, h, w = int(rng.integers(1, 3)), int(rng.integers(5, 41)), int(rng.integers(5, 41))
            if min(min(shape) for shape in infer_shapes(g, h, w).values()) >= 1:
                break
        validate_graph(g)
        x = rand_tensor(rng, n, channels, h, w)
        unfused = run_graph(g, x, "unfused")
        _close_to_unfused(run_graph(g, x, "fused"), unfused, msg=f"graph {i}, one strip")
        with monkeypatch.context() as m:
            runs = _stream_in_strips(m, g, x, 4)
            _close_to_unfused(run_graph(g, x, "fused"), unfused, msg=f"graph {i}, 4-row strips")
        # each strip ends 4 input rows' worth of output rows further on
        up = 2 if any(node.op == "pixel_shuffle" for node in g.nodes) else 1
        assert len(runs[0].plan.strips) == -(-infer_shapes(g, h, w)[g.output][1] // (4 * up)), i


# each case's convs that fused mode runs once per part of their input
GROUPED_CUTS = {"aligned": 1, "misaligned": 0, "chain": 2, "output": 1, "relu": 0, "shuffle": 1, "batch2": 1}


def _grouped_graph(rng, case):
    """cat = concat(a, b) of two convs -> a grouped conv -> a 1x1 conv, of
    random widths and geometry; a and b end on the grouped conv's group
    boundaries except in "misaligned". "chain" adds a second grouped conv
    whose groups are the first's, "output" ends the graph at the grouped
    conv, "relu" has a relu read it, and "shuffle" makes a and b after a
    mid-graph pixel_shuffle."""
    cg = int(rng.integers(2 if case == "misaligned" else 1, 4))  # channels a group
    wa, wb = (cg * int(rng.integers(1, 3)) for _ in range(2))
    if case == "misaligned":
        wa, wb = wa + 1, wb - 1

    def geometry():
        k = int(rng.choice([1, 3, 5]))
        return k, (int(rng.choice([0, k // 2, k // 2 + 1])), k // 2)

    def conv(cin, cout, groups=1, geo=None):
        k, padding = geo or geometry()
        return replace(random_conv(rng, cin, cout, k=k, groups=groups), padding=padding)

    nodes, src, c = [_inp()], "input", 3
    if case == "shuffle":
        nodes += [Node("wide", "conv", ("input",), spec=_conv(3, 8)), Node("up", "pixel_shuffle", ("wide",), upscale=2)]
        src, c = "up", 2
    groups, og, geo = (wa + wb) // cg, int(rng.integers(1, 3)), geometry()
    nodes += [
        Node("a", "conv", (src,), spec=conv(c, wa, geo=geo)),
        Node("b", "conv", (src,), spec=conv(c, wb, geo=geo)),
        Node("cat", "concat", ("a", "b")),
        Node("grouped", "conv", ("cat",), spec=conv(wa + wb, groups * og, groups)),
    ]
    last, c = "grouped", groups * og
    if case == "chain":
        nodes.append(Node("grouped2", "conv", ("grouped",), spec=conv(c, groups, groups)))
        last, c = "grouped2", groups
    if case == "relu":
        nodes.append(Node("r", "relu", ("grouped",)))
        last = "r"
    if case != "output":
        nodes.append(Node("pw", "conv", (last,), spec=_conv(c, 3, k=1)))
    return _graph(nodes)


@pytest.mark.parametrize("case", list(GROUPED_CUTS))
def test_grouped_convs_are_cut_at_their_concats_parts(monkeypatch, case):
    # Seeded concat -> grouped conv graphs, fused in one strip and in 4-row
    # strips, against unfused. Fused mode runs a plain conv that only convs
    # read, whose concat input's parts fall on its group boundaries, once
    # per part, joined by a concat its readers read in parts (_lowered).
    rng = np.random.default_rng(25)
    for i in range(6):
        g = _grouped_graph(rng, case)
        validate_graph(g)
        n, h, w = 2 if case == "batch2" else 1, int(rng.integers(9, 33)), int(rng.integers(9, 33))
        lowered = graph._lowered(g, infer_shapes(g, h, w))
        cut = [m.name for m in lowered.nodes if m.op == "concat" and g.node(m.name).op == "conv"]
        assert len(cut) == GROUPED_CUTS[case], (i, cut)
        x = rand_tensor(rng, n, 3, h, w)
        unfused = run_graph(g, x, "unfused")
        _close_to_unfused(run_graph(g, x, "fused"), unfused, msg=f"graph {i}, one strip")
        with monkeypatch.context() as m:
            runs = _stream_in_strips(m, g, x, 4)
            _close_to_unfused(run_graph(g, x, "fused"), unfused, msg=f"graph {i}, 4-row strips")
        up = 2 if case == "shuffle" else 1
        assert len(runs[0].plan.strips) == -(-infer_shapes(g, h, w)[g.output][1] // (4 * up)), i


def _conv_flops(spec, out, bias=True, groups=None):
    groups = spec.groups if groups is None else groups
    macs = spec.out_channels * spec.in_channels // groups * spec.kernel[0] * spec.kernel[1]
    return (macs + spec.out_channels * (bias and spec.bias is not None)) * out.h * out.w


# FLOPs of a call from its arguments and output, as perfbench's tracer counts
# them: a LoRA conv is its spec, a bias-free ungrouped delta and their sum; the
# fused attention step the 1x1 conv, its bias, the add and the mul
KERNEL_FLOPS = {
    "conv2d": lambda a, out: _conv_flops(a[1], out),
    "lora_forward": lambda a, out: _conv_flops(a[1], out)
    + _conv_flops(a[1], out, bias=False, groups=1)
    + out.numel,
    "relu": lambda a, out: out.numel,
    "add": lambda a, out: out.numel,
    "mul": lambda a, out: out.numel,
    "fused_attention": lambda a, out: (a[2].in_channels + 2 + (a[2].bias is not None)) * out.numel,
}


def _count_kernel_flops(monkeypatch):
    """Count each kernel call's FLOPs from its arguments and result, with
    wrappers that forward *args, **kwargs as perfbench's tracer does; and
    record each conv call's input and output extents. Returns both lists,
    which fill as the kernels run."""
    flops, convs = [], []
    for name, count in KERNEL_FLOPS.items():
        def counting(*args, fn=getattr(graph, name), name=name, count=count, **kwargs):
            out = fn(*args, **kwargs)
            flops.append(count(args, out))
            if name == "conv2d":
                convs.append((args[0].shape, args[1], out.shape))
            return out

        monkeypatch.setattr(graph, name, counting)
    return flops, convs


@pytest.mark.parametrize("g", STREAMED, ids=STREAMED_IDS)
def test_streamed_kernel_flops_sum_to_count_flops(monkeypatch, rng, g):
    # a row computed twice, or one never computed, moves the sum
    x = rand_tensor(rng, 2, g.nodes[0].channels, 37, 21)
    runs = _stream_in_strips(monkeypatch, g, x, 4)
    flops, _ = _count_kernel_flops(monkeypatch)
    run_graph(g, x, "fused")
    assert [r.rows for r in runs] == [4] and sum(flops) == 2 * count_flops(g, 37, 21)


@pytest.mark.parametrize("h, w", [(61, 63), (256, 256)], ids=["61x63", "256x256"])
@pytest.mark.parametrize("g", [build_spanv2(seed=0), build_span_baseline(seed=0)], ids=["spanv2", "span"])
def test_kernel_flops_sum_to_count_flops_in_the_engines_strips(monkeypatch, rng, g, h, w):
    # One strip at 61x63 and the engine's own strips at 256^2, as perfbench
    # traces them: the kernels' FLOPs add up to count_flops, and each conv
    # reports its plane's extents, never its band's.
    runs = _record_runs(monkeypatch)
    flops, convs = _count_kernel_flops(monkeypatch)
    run_graph(g, rand_tensor(rng, 1, 3, h, w), "fused")
    assert ([r.rows for r in runs] == [h]) == (h == 61) and sum(flops) == count_flops(g, h, w)
    for (n, _, hin, win), spec, out in convs:
        (kh, kw), (ph, pw) = spec.kernel, spec.padding
        assert out == (n, spec.out_channels, hin + 2 * ph - kh + 1, win + 2 * pw - kw + 1) and win == w


@pytest.mark.parametrize("g", STREAMED, ids=STREAMED_IDS)
def test_every_fused_conv_writes_into_a_band(monkeypatch, rng, g):
    # One strip and 4-row strips: the output step's conv too writes its rows
    # into its rows of the output plane, never into a plane of its own.
    outs = []
    conv = graph.conv2d
    monkeypatch.setattr(graph, "conv2d", lambda a, spec, out=None, *rest: outs.append(out) or conv(a, spec, out, *rest))
    x = rand_tensor(rng, 1, g.nodes[0].channels, 13, 11)
    run_graph(g, x, "fused")
    _stream_in_strips(monkeypatch, g, x, 4)
    run_graph(g, x, "fused")
    assert outs and all(isinstance(out, Band) for out in outs)


@pytest.mark.parametrize(
    "g", [build_spanv2(seed=0), build_span_baseline(seed=0), decorate_for_reparam(build_spanv2(seed=0))],
    ids=["spanv2", "span", "spanv2_train_form"],
)
@pytest.mark.parametrize("size", [(61, 63), (256, 256), "4-row strips"], ids=["61x63", "256x256", "4-row_strips"])
def test_the_plan_workspace_serves_every_kernel(monkeypatch, rng, g, size):
    # Given a workspace smaller than it needs, a kernel allocates its own
    # on every call: each conv2d needs the floats conv_strips gives its own
    # operands, and each fused_attention those of its gate conv's strips.
    h, w = (61, 63) if size == "4-row strips" else size
    x = rand_tensor(rng, 1, 3, h, w)
    if size == "4-row strips":
        _stream_in_strips(monkeypatch, g, x, 4)
    calls = []  # (kernel, workspace floats, floats it needs)
    conv, attention = graph.conv2d, graph.fused_attention

    def conv2d(a, spec, out, ws, workers):
        src = a.pad if type(a) is Band else None
        calls.append(("conv2d", ws.size, conv_strips(a.shape[0], out.h, a.shape[3], spec, src, out.pad, workers)[1]))
        return conv(a, spec, out, ws, workers)

    def fused_attention(a, f3, gate, counter, out, ws):
        calls.append(("fused_attention", ws.size, conv_strips(1, a.shape[2], a.shape[3], gate, None, None)[1]))
        return attention(a, f3, gate, counter, out, ws)

    monkeypatch.setattr(graph, "conv2d", conv2d)
    monkeypatch.setattr(graph, "fused_attention", fused_attention)
    run_graph(g, x, "fused")
    kernels = {"conv2d", "fused_attention"} if g.fusion_groups else {"conv2d"}
    assert {k for k, _, _ in calls} == kernels
    assert [c for c in calls if c[1] < c[2]] == []


def test_fused_memory_beyond_the_output_is_flat_in_height(rng):
    # Whole-plane, fused SPANV2 held 7.0, 22.0 and 42.0 MiB at these
    # heights and SPAN 9.5, 32.0 and 62.0.
    for g in (build_spanv2(seed=0), build_span_baseline(seed=0)):
        held = [_most_held_mib(g, rand_tensor(rng, 1, 3, h, 256)) for h in (64, 256, 512)]
        assert max(held) - min(held) <= 0.5 and max(held) <= 12, (g.name, held)


def test_a_growing_graph_streams_in_memory_flat_in_height(rng):
    # _odd_geometry's output is 2 rows taller than twice its input. Planned
    # from the input's rows, its first strip was the whole image: 12.1 MiB
    # held at 512 rows and 22.2 at 1024. What a two-strip run holds depends
    # on how its threads' strips overlap (5.06-5.68 MiB from run to run), so
    # each run is held to its plan's count, which is the same at both heights.
    g = _odd_geometry()
    bounds = []
    for h in (512, 1024):
        plan = graph._compiled(g, h, 256).plan
        assert plan.in_flight == 2, h
        bounds.append(4 * graph._two_strip_floats(plan) / 2**20)
        x = rand_tensor(rng, 1, 3, h, 256)
        held = [_held_mib(g, x, "fused") for _ in range(3)]
        assert max(held) <= bounds[-1], (h, held, bounds[-1])
    assert bounds[0] == bounds[1], bounds


def test_strip_rows_count_a_band_after_a_mid_graph_shuffle_at_its_scale(rng):
    # The bands after the shuffle hold 4 rows per input row. Counted as
    # one, the strips were 4 times too tall: 16.2 MiB held against the 6 MiB
    # budget, at both heights. While the output conv wrote its rows into a
    # plane of their own, copied into the output, it held 8.3 MiB.
    g = _graph([
        _inp(),
        Node("wide", "conv", ("input",), spec=_conv(3, 48)),
        Node("up", "pixel_shuffle", ("wide",), upscale=4),
        Node("a", "conv", ("up",), spec=_conv(3, 8)),
        Node("r", "relu", ("a",)),
        Node("out", "conv", ("r",), spec=_conv(8, 3)),
    ])
    held = [_most_held_mib(g, rand_tensor(rng, 1, 3, h, 256)) for h in (256, 512)]
    assert max(held) <= 7 and max(held) - min(held) <= 0.5, held


def test_reused_bands_do_not_leak_between_runs(rng):
    # One process, runs of every shape in turn: stale header rows or zero
    # columns left in a buffer by an earlier run or image would show. A
    # one-strip run is bitwise unfused; a streamed one within 1e-5 / 1e-6.
    g = build_spanv2(seed=0)
    runs = [(g, 1, 256, 256), (g, 1, 17, 19), (g, 1, 96, 256), (g, 1, 1, 9), (g, 1, 9, 1),
            (g, 2, 61, 63), (g, 1, 256, 256), (decorate_for_reparam(build_spanv2(seed=3)), 1, 96, 256)]
    for model, n, h, w in runs:
        x = rand_tensor(rng, n, 3, h, w)
        fused, unfused = run_graph(model, x, "fused"), run_graph(model, x, "unfused")
        if graph._compiled(model, h, w).rows == h:  # one strip
            assert np.array_equal(fused.data, unfused.data), (n, h, w)
        else:
            assert_close(fused, unfused, msg=f"{n}x{h}x{w}")


_NAN_GRAPHS = {"spanv2": build_spanv2(seed=3), "span": build_span_baseline(seed=3),
               "spanv2_train_form": decorate_for_reparam(build_spanv2(seed=3)), "spanv2_x1": build_spanv2(s=1, seed=3)}
_NAN_CASES = {  # id: (graph, shapes, forced strip rows or None)
    **{name: (g, [(1, 1, 9), (1, 9, 1), (2, 61, 63), (1, 96, 256), (1, 256, 256)], None)
       for name, g in _NAN_GRAPHS.items()},
    **{f"tall_batch2_5-{name}": (g, [(2, 600, 40)], 5) for name, g in _NAN_GRAPHS.items()},
}


@pytest.mark.parametrize("g, shapes, rows", _NAN_CASES.values(), ids=_NAN_CASES.keys())
def test_fused_reads_no_row_before_it_is_written(monkeypatch, rng, g, shapes, rows):
    # Bands start uninitialised but for their zero columns; the plan zeroes
    # every row a kernel reads that no step writes (above and past the
    # image). With every fresh float32 buffer filled with NaN, one-strip and
    # streamed runs keep their bits, SPANV2's with two strips in flight on
    # two threads, each with bands of its own, and match the unfused run.
    # The tall image streams in forced 5-row strips, two in flight, most of
    # them appended unplanned.
    monkeypatch.setattr(graph.tensor, "_WORKERS", 2)
    if rows:
        monkeypatch.setattr(graph, "_strip_rows", lambda lay, one, budget: rows)
        monkeypatch.setattr(graph, "_RUNS_KEPT", 0)
    xs = [rand_tensor(rng, n, 3, h, w) for n, h, w in shapes]
    want = [run_graph(g, x, "fused").data for x in xs]
    unfused = [run_graph(g, x, "unfused").data for x in xs]
    one_strip = [graph._compiled(g, h, w).rows == h for _, h, w in shapes]
    if rows:
        assert graph._compiled(g, 600, 40).plan.in_flight == 2
    else:
        assert (graph._compiled(g, 256, 256).plan.in_flight == 2) == (g.fusion_groups != [])
    empty = np.empty

    def nan_filled(shape, dtype=float, *args, **kwargs):
        a = empty(shape, dtype, *args, **kwargs)
        if a.dtype == np.float32:
            a.fill(np.nan)
        return a

    monkeypatch.setattr(np, "empty", nan_filled)
    for shape, x, y, ref, one in zip(shapes, xs, want, unfused, one_strip):
        got = run_graph(g, x, "fused").data
        assert np.array_equal(got, y), shape
        # a wrong plan that reads only rows it writes keeps its own bits;
        # streamed, the absolute tolerance is relative to the output's peak
        # (1e26 for SPAN at 600x40), as in the strip tests above
        if one:
            assert np.array_equal(got, ref), shape
        else:
            assert_close(got, ref, atol=1e-6 * max(1.0, float(np.abs(ref).max())), msg=str(shape))


@pytest.mark.parametrize(
    "g, bound",
    [(build_spanv2(seed=0), graph._GRAPH_BYTES / 2**20), (build_span_baseline(seed=0), 7.6)],
    ids=["spanv2", "span"],
)
@pytest.mark.parametrize("h, w", [(256, 256), (2048, 256)], ids=["256x256", "2048x256"])
def test_a_streamed_run_holds_each_band_only_in_its_strip(rng, g, bound, h, w):
    # Held beyond the output on a second call, the compiled run kept. Each
    # band is allocated at its first action in a strip and dropped after its
    # last. Packed into arenas per plane width, SPANV2 held 6.99 MiB at 256^2
    # and SPAN 7.80. SPAN still holds more than _GRAPH_BYTES: the bands'
    # halo rows, which _strip_rows does not count.
    x = rand_tensor(rng, 1, 3, h, w)
    run_graph(g, x, "fused")
    held = _held_mib(g, x, "fused")
    assert held <= bound, held


@pytest.mark.parametrize(
    "g, h",
    [(build_spanv2(seed=0), 61), (build_spanv2(seed=0), 256),
     (decorate_for_reparam(build_spanv2(seed=0)), 61), (decorate_for_reparam(build_spanv2(seed=0)), 256)],
    ids=["one_strip", "streamed", "train_form_one_strip", "train_form_streamed"],
)
def test_a_second_fused_run_builds_no_conv_spec(monkeypatch, rng, g, h):
    # The row-padding-0, per-part and LoRA delta convs a fused run derives
    # are built and checked once per compile and kept in the compiled run: a
    # second run validates no weights.
    x = rand_tensor(rng, 1, 3, h, h)
    run_graph(g, x, "fused")
    built = []
    check = ConvSpec.__post_init__
    monkeypatch.setattr(ConvSpec, "__post_init__", lambda spec: built.append(1) or check(spec))
    run_graph(g, x, "fused")
    assert built == []


# -- compiled runs -----------------------------------------------------------

PLANNERS = ("_compile", "_fusion_gates", "_lowered", "_schedule", "infer_shapes", "_layout", "_strip_rows", "_plan",
            "_progress")


def _count_planner_calls(monkeypatch):
    """Count the calls of every function that plans a fused run, in a dict
    that fills as runs plan."""
    calls = dict.fromkeys(PLANNERS, 0)
    for name in PLANNERS:
        def counting(*args, fn=getattr(graph, name), name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(graph, name, counting)
    return calls


@pytest.mark.parametrize("budget, rows", [(graph._GRAPH_BYTES, 37), (0, 4)], ids=["one_strip", "streamed"])
def test_a_second_fused_run_at_one_size_builds_no_plan(monkeypatch, rng, budget, rows):
    # The first run at a size compiles it and keeps it on the graph; the
    # second only binds its buffers and runs the kernels, to the same bits.
    monkeypatch.setattr(graph, "_GRAPH_BYTES", budget)  # 0: every image streams, in 4-row strips
    g = build_spanv2(seed=0)
    x = rand_tensor(rng, 1, 3, 37, 21)
    runs = _record_runs(monkeypatch)
    first = run_graph(g, x, "fused")
    calls = _count_planner_calls(monkeypatch)
    second = run_graph(g, x, "fused")
    assert calls == dict.fromkeys(PLANNERS, 0) and [r.rows for r in runs] == [rows, rows]
    assert np.array_equal(second.data, first.data)


@pytest.mark.parametrize("budget, plans", [(graph._GRAPH_BYTES, 1), (0, 2)], ids=["one_strip", "streamed"])
def test_a_compile_plans_the_image_as_one_strip_first(monkeypatch, rng, budget, plans):
    # The one-strip plan gives _strip_rows its bands' lifetimes and its
    # workspace. An image that fits runs that plan; any other is planned
    # again in strips.
    monkeypatch.setattr(graph, "_GRAPH_BYTES", budget)  # 0: every image streams
    calls = _count_planner_calls(monkeypatch)
    run_graph(build_spanv2(seed=0), rand_tensor(rng, 1, 3, 37, 21), "fused")
    assert calls["_plan"] == plans and calls["_strip_rows"] == 1


@pytest.mark.parametrize("g", [build_spanv2(seed=0), build_span_baseline(seed=0)], ids=["spanv2", "span"])
def test_a_plans_size_is_flat_in_height(monkeypatch, g):
    # A strip that does the same as the one before shares its program, and
    # the strips that repeat a repeated program are appended unplanned, so
    # a taller image adds strips, not programs, and its compile plans no
    # more strips (_progress calls). Strip k ends (k + 1) * rows input
    # rows' worth of output rows on, less the input step's lead with two
    # strips in flight (see _plan).
    calls = _count_planner_calls(monkeypatch)
    progress = []
    for h in (256, 2048):
        calls["_progress"] = 0
        progress.append((graph._compile(g, h, 256), calls["_progress"]))
    (short, planned_short), (tall, planned_tall) = progress
    assert short.rows < 256 and len(tall.plan.programs) <= len(short.plan.programs)
    assert planned_tall == planned_short
    for run in (short, tall):
        rows_out, scale = run.lay.shape[-1][1], run.lay.scale[-1]
        lead = graph._lead(run.lay) if run.plan.in_flight == 2 else 0
        assert len(run.plan.strips) == -(-(rows_out + lead * scale) // (run.rows * scale))


def _replace_node(g):
    i = [n.name for n in g.nodes].index("b1.conv_b")
    g.nodes[i] = replace(g.nodes[i], spec=replace(g.nodes[i].spec, weight=-g.nodes[i].spec.weight))


def _assign_spec(g):
    g.node("b2.conv_a").spec = _conv(8, 8, k=1)


def _drop_group(g):
    g.fusion_groups.pop()


@pytest.mark.parametrize("change, groups", [(_replace_node, 2), (_assign_spec, 2), (_drop_group, 1)],
                         ids=["replace_node", "assign_spec", "drop_group"])
def test_kept_runs_follow_in_place_changes(monkeypatch, rng, change, groups):
    # A graph changed in place after a fused run runs as changed: a run kept
    # from before would give the old conv's rows, or run the dropped group's
    # attention step where the changed graph has its conv, add and mul.
    g = build_spanv2(c=8, blocks=2, seed=0)
    x = rand_tensor(rng, 1, 3, 13, 11)
    run_graph(g, x, "fused")
    change(g)
    validate_graph(g)
    calls = []
    attention = graph.fused_attention
    monkeypatch.setattr(graph, "fused_attention", lambda *args: calls.append(1) or attention(*args))
    assert np.array_equal(run_graph(g, x, "fused").data, run_graph(g, x, "unfused").data)
    assert len(calls) == groups


def test_a_graph_keeps_the_runs_of_its_last_sizes(monkeypatch, rng):
    # _RUNS_KEPT + 1 sizes: the last _RUNS_KEPT are kept, the first is not.
    g = build_spanv2(c=4, blocks=1, seed=0)
    xs = [rand_tensor(rng, 1, 3, 3, 3 + i) for i in range(graph._RUNS_KEPT + 1)]
    for x in xs:
        run_graph(g, x, "fused")
    calls = _count_planner_calls(monkeypatch)
    for x in xs[1:]:
        run_graph(g, x, "fused")
    assert calls["_compile"] == 0
    run_graph(g, xs[0], "fused")
    assert calls["_compile"] == 1
