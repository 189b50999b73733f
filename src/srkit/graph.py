"""Declarative model graphs and their reference executor.

A ModelGraph is an ordered list of named nodes wired by name: one input, one
output, skip/concat fan-in allowed. Conv nodes may additionally carry a
training-form decoration (a LoRA branch or a parallel-branch group) that the
executor runs live and the fuse rewrites fold away.

Attention triples (1x1 conv, add, mul) registered as fusion groups execute
through the fused single-pass operator in "fused" mode and through the
literal three-op reference in "unfused" mode; both modes accept a traffic
counter.

Each op's output shape, FLOPs and execution are one entry of OPS; adding an
op means adding one entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .fusion import (
    BranchGroup,
    LoraFactors,
    TrafficCounter,
    branch_forward,
    fused_attention,
    lora_forward,
    reference_attention,
)
from .tensor import (
    ConvSpec,
    ShapeError,
    Tensor,
    add,
    concat_channels,
    conv2d,
    mul,
    pixel_shuffle,
    relu,
)

MODES = ("unfused", "fused")


@dataclass
class Node:
    name: str
    op: str
    inputs: tuple[str, ...] = ()
    spec: ConvSpec | None = None
    channels: int | None = None  # input nodes only
    upscale: int | None = None  # pixel_shuffle nodes only
    lora: LoraFactors | None = None
    branches: BranchGroup | None = None

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        """The node's weight arrays with their archive names, in archive order."""
        if self.spec is not None:
            yield f"{self.name}.weight", self.spec.weight
            if self.spec.bias is not None:
                yield f"{self.name}.bias", self.spec.bias
        if self.lora is not None:
            yield f"{self.name}.lora_a", self.lora.a
            yield f"{self.name}.lora_b", self.lora.b
        if self.branches is not None:
            for i, b in enumerate(self.branches.branches):
                yield f"{self.name}.branch{i}.weight", b.weight
                if b.bias is not None:
                    yield f"{self.name}.branch{i}.bias", b.bias


@dataclass
class FusionGroup:
    """Names of the (1x1 conv, residual add, gating mul) attention triple."""

    conv: str
    add: str
    mul: str


@dataclass
class ModelGraph:
    name: str
    nodes: list[Node]
    output: str
    meta: dict = field(default_factory=dict)
    fusion_groups: list[FusionGroup] = field(default_factory=list)

    def node(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"no node named {name!r}")

    def conv_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.op == "conv"]

    def validate(self) -> None:
        validate_graph(self)


def validate_graph(g: ModelGraph) -> None:
    """Check the graph is a single-source, single-sink DAG with consistent widths."""
    seen: set[str] = set()
    sources = [n for n in g.nodes if n.op == "input"]
    if len(sources) != 1 or g.nodes[0].op != "input":
        raise ShapeError("graph must start with exactly one input node")
    for n in g.nodes:
        if n.name in seen:
            raise ShapeError(f"duplicate node name {n.name!r}")
        if n.op not in OPS:
            raise ShapeError(f"unknown op {n.op!r} in node {n.name!r}")
        arity = OPS[n.op].arity
        if (len(n.inputs) != arity) if arity is not None else not n.inputs:
            takes = "one or more" if arity is None else arity
            raise ShapeError(f"{n.op} {n.name!r} has {len(n.inputs)} inputs, takes {takes}")
        for ref in n.inputs:
            if ref not in seen:
                raise ShapeError(
                    f"node {n.name!r} consumes {ref!r} before it is defined"
                )
        seen.add(n.name)
    if g.output not in seen:
        raise ShapeError(f"graph output {g.output!r} is not a node")
    consumers = _consumer_counts(g)
    dangling = [
        n.name for n in g.nodes if n.name != g.output and consumers[n.name] == 0
    ]
    if dangling:
        raise ShapeError(f"dangling nodes (no consumer): {dangling}")
    infer_shapes(g, 1, 1)  # raises on width mismatches; extents are not checked
    group_names = set()
    for fg in g.fusion_groups:
        if not {fg.conv, fg.add, fg.mul} <= seen:
            raise ShapeError(f"fusion group {fg} names a node the graph lacks")
        conv, addn, muln = g.node(fg.conv), g.node(fg.add), g.node(fg.mul)
        if conv.op != "conv" or addn.op != "add" or muln.op != "mul":
            raise ShapeError(f"fusion group {fg} does not name conv/add/mul nodes")
        if conv.spec is None or conv.spec.kernel != (1, 1) or conv.spec.groups != 1:
            raise ShapeError(f"fusion group conv {fg.conv!r} must be a plain 1x1 conv")
        if set(muln.inputs) != {fg.conv, fg.add}:
            raise ShapeError(f"fusion group mul {fg.mul!r} must consume the conv and add")
        if conv.inputs[0] not in addn.inputs:
            raise ShapeError(
                f"fusion group {fg.mul!r}: the 1x1 conv and the add must share f3"
            )
        if consumers[fg.conv] != 1 or consumers[fg.add] != 1:
            raise ShapeError(
                f"fusion group {fg.mul!r}: conv/add outputs must feed only the mul"
            )
        if g.output in (fg.conv, fg.add):
            raise ShapeError("graph output cannot be inside a fusion group")
        for name in (fg.conv, fg.add, fg.mul):
            if name in group_names:
                raise ShapeError(f"node {name!r} appears in two fusion groups")
            group_names.add(name)


def _consumer_counts(g: ModelGraph) -> dict[str, int]:
    counts = {n.name: 0 for n in g.nodes}
    for n in g.nodes:
        for ref in n.inputs:
            counts[ref] += 1
    return counts


# --------------------------------------------------------------------------
# the op table


Shape = tuple[int, int, int]  # (c, h, w) of one batch item


class Op(NamedTuple):
    """Everything the engine knows about one graph op.

    shape(node, input shapes) -> output shape, raising ShapeError on bad
    wiring; the input node's one input shape is the graph input's.
    flops(node, output shape) -> FLOPs for one batch item, one per MAC plus
    one per bias add and elementwise op; data movement is free.
    run(node, *input tensors) -> output tensor; the input node receives the
    graph input. Rules call the kernels through this module's globals at call
    time, so rebinding e.g. `graph.conv2d` reaches every execution.
    arity: the number of inputs a node takes; None means one or more.
    """

    shape: Callable[[Node, list[Shape]], Shape]
    flops: Callable[[Node, Shape], int]
    run: Callable[..., Tensor]
    arity: int | None = 1


def _free(n: Node, out: Shape) -> int:
    return 0


def _numel(n: Node, out: Shape) -> int:
    return out[0] * out[1] * out[2]


def _input_shape(n: Node, ins: list[Shape]) -> Shape:
    if n.channels is None:
        raise ShapeError(f"input node {n.name!r} must declare channels")
    return ins[0]


def _conv_shape(n: Node, ins: list[Shape]) -> Shape:
    if n.spec is not None:
        spec = n.spec
    elif n.branches is not None:
        spec = n.branches.branches[0]
    else:
        raise ShapeError(f"conv node {n.name!r} has neither spec nor branches")
    cin, h, w = ins[0]
    if spec.in_channels != cin:
        raise ShapeError(
            f"conv {n.name!r} expects {spec.in_channels} channels, "
            f"producer provides {cin}"
        )
    (kh, kw), (ph, pw) = spec.kernel, spec.padding
    return spec.out_channels, h + 2 * ph - kh + 1, w + 2 * pw - kw + 1


def _spec_flops(spec: ConvSpec, h: int, w: int) -> int:
    macs = spec.out_channels * (spec.in_channels // spec.groups) * spec.kernel[0] * spec.kernel[1]
    bias = spec.out_channels if spec.bias is not None else 0
    return (macs + bias) * h * w


def _conv_flops(n: Node, out: Shape) -> int:
    c, h, w = out
    if n.branches is not None:
        # every branch, plus summing the parallel branch outputs
        extra = len(n.branches.branches) - 1 + (1 if n.branches.include_identity else 0)
        return sum(_spec_flops(b, h, w) for b in n.branches.branches) + extra * c * h * w
    total = _spec_flops(n.spec, h, w)
    if n.lora is not None:
        # the live low-rank branch conv (bias-free, ungrouped) and the add
        kh, kw = n.spec.kernel
        total += (c * n.spec.in_channels * kh * kw + c) * h * w
    return total


def _run_conv(n: Node, x: Tensor) -> Tensor:
    if n.branches is not None:
        return branch_forward(x, n.branches)
    if n.lora is not None:
        return lora_forward(x, n.spec, n.lora)
    return conv2d(x, n.spec)


def _same_width_shape(n: Node, ins: list[Shape]) -> Shape:
    (a, h, w), (b, _, _) = ins
    if a != b:
        raise ShapeError(f"{n.op} {n.name!r} mixes widths {a} and {b}")
    return a, h, w


def _concat_shape(n: Node, ins: list[Shape]) -> Shape:
    return sum(c for c, _, _ in ins), ins[0][1], ins[0][2]


def _shuffle_shape(n: Node, ins: list[Shape]) -> Shape:
    c, h, w = ins[0]
    s = n.upscale
    if not isinstance(s, (int, np.integer)) or s < 1:
        raise ShapeError(f"pixel_shuffle {n.name!r}: upscale must be an integer >= 1, got {s!r}")
    if c % (s * s):
        raise ShapeError(
            f"pixel_shuffle {n.name!r}: {c} channels not divisible by {s * s}"
        )
    return c // (s * s), h * s, w * s


OPS: dict[str, Op] = {
    "input": Op(_input_shape, _free, lambda n, x: x, 0),
    "conv": Op(_conv_shape, _conv_flops, _run_conv),
    "relu": Op(lambda n, ins: ins[0], _numel, lambda n, x: relu(x)),
    "add": Op(_same_width_shape, _numel, lambda n, a, b: add(a, b), 2),
    "mul": Op(_same_width_shape, _numel, lambda n, a, b: mul(a, b), 2),
    "concat": Op(_concat_shape, _free, lambda n, *parts: concat_channels(list(parts)), None),
    "pixel_shuffle": Op(_shuffle_shape, _free, lambda n, x: pixel_shuffle(x, n.upscale)),
}


def infer_shapes(g: ModelGraph, h: int, w: int) -> dict[str, Shape]:
    """(c, h, w) of every node for an h x w input; raises ShapeError on bad wiring."""
    if h < 1 or w < 1:
        raise ShapeError(f"input size must be at least 1x1, got {h}x{w}")
    shapes: dict[str, Shape] = {}
    for n in g.nodes:
        ins = [(n.channels, h, w)] if n.op == "input" else [shapes[r] for r in n.inputs]
        shapes[n.name] = OPS[n.op].shape(n, ins)
    return shapes


# --------------------------------------------------------------------------
# execution


def run_graph(
    g: ModelGraph,
    x: Tensor,
    mode: str = "unfused",
    counter: TrafficCounter | None = None,
) -> Tensor:
    """Execute the graph on x. mode selects the attention execution plan."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    consumers = _consumer_counts(g)
    consumers[g.output] += 1  # keep the sink alive
    by_name = {n.name: n for n in g.nodes}
    gates = {fg.mul: (by_name[fg.conv], by_name[fg.add]) for fg in g.fusion_groups}
    skip = {name for fg in g.fusion_groups for name in (fg.conv, fg.add)}
    env: dict[str, Tensor] = {}
    remaining: dict[str, int] = {}

    def consume(name: str) -> Tensor:
        val = env[name]
        remaining[name] -= 1
        if remaining[name] == 0:
            del env[name]
        return val

    for n in g.nodes:
        if n.name in skip:
            continue
        if n.name in gates:
            out = _run_attention(*gates[n.name], consume, mode, counter)
        elif n.op == "input":
            if x.c != n.channels:
                raise ShapeError(
                    f"graph {g.name!r} expects {n.channels}-channel input, got {x.c}"
                )
            if not np.isfinite(x.data).all():
                raise ValueError(f"graph {g.name!r}: input contains non-finite values")
            out = OPS[n.op].run(n, x)
        else:
            out = OPS[n.op].run(n, *[consume(r) for r in n.inputs])
        env[n.name] = out
        remaining[n.name] = consumers[n.name]
    return env[g.output]


def _run_attention(conv_node: Node, add_node: Node, consume, mode: str, counter) -> Tensor:
    f3_name = conv_node.inputs[0]
    f3 = consume(f3_name)  # the 1x1 conv's reference
    operands = [consume(r) for r in add_node.inputs]  # the add's references
    res = operands[1] if add_node.inputs[0] == f3_name else operands[0]
    fn = fused_attention if mode == "fused" else reference_attention
    return fn(res, f3, conv_node.spec, counter)
