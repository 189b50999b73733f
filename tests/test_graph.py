import numpy as np
import pytest

from srkit import graph
from srkit.graph import FusionGroup, ModelGraph, Node, run_graph, validate_graph
from srkit.models import build_spanv2, random_conv
from srkit.selftest import rand_tensor
from srkit.tensor import ShapeError, Tensor


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
