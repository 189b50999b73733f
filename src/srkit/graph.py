"""Declarative model graphs and their reference executor.

A ModelGraph is an ordered list of named nodes wired by name: one input, one
output, skip/concat fan-in allowed. A conv node sums parallel convs: its
spec, its spec and a LoRA delta, or a non-empty branch group with an optional
identity. `_parallel_convs` lists the node's specs once (a LoRA delta's
factors are checked, not multiplied); shapes, FLOPs and the fused row cuts
read that list, the executor runs the decorations live and the fuse
rewrites fold them away. No other op carries conv weights.

`run_graph` runs the nodes the output needs in one schedule, whatever the
mode: a depth-first walk from the output that runs each node's deeper input
first. "unfused" runs every op as written on whole planes, freeing each
value after its last reader: the literal op-by-op oracle. "fused" runs each
attention triple (plain 1x1 conv, add, mul) registered as a fusion group as
one single-pass step on the residual and f3, where "unfused" runs the
three-op reference; both accept a traffic counter.

"fused" streams each image alone: the schedule runs once per strip of input
rows, and each step computes, once, the rows its readers need next. Each
value keeps only the rows its readers will still read (a conv reader's halo,
a skip reader's lag), as tensor.Tiles. An image whose whole-plane run fits
_GRAPH_BYTES is one strip; a larger one runs in strips sized to the budget,
so memory grows with its width, not its height. A conv reads its input's
real neighbour rows with row padding 0, so zero rows appear only at the
image border. How a value is held depends on its op alone: a concat is never
built, its tiles are its inputs', and a plain conv whose input's channel
ranges fall on its group boundaries runs once per range and passes its
outputs on as tiles. A conv copies the tiles it reads into its strip bands;
an op that needs a plane builds the rows it reads.

Each op's output shape, FLOPs, the input rows an output row reads, and
execution are one entry of OPS; adding an op means adding one entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .fusion import (
    BranchGroup,
    LoraFactors,
    TrafficCounter,
    branch_forward,
    check_lora_factors,
    fused_attention,
    lora_forward,
    reference_attention,
)
from .tensor import (
    ConvSpec,
    ShapeError,
    Tensor,
    Tile,
    Tiles,
    add,
    concat_channels,
    conv2d,
    mul,
    pixel_shuffle,
    relu,
)

MODES = ("unfused", "fused")

# Bytes of activations one fused run_graph image aims to hold beyond its
# output. It sets the height of the strips of input rows each image of a
# fused run streams in alone: one strip when the image's whole-plane run
# fits, so memory is bounded by its width, not its height.
_GRAPH_BYTES = 6 << 20


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
        if n.op != "conv" and any(d is not None for d in (n.spec, n.lora, n.branches)):
            raise ShapeError(f"{n.op} {n.name!r} carries conv weights")
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
    _fusion_gates(g)


def _fusion_gates(g: ModelGraph) -> dict[str, tuple[ConvSpec, str, str]]:
    """Map each fusion group's mul to (gate spec, res, f3); raise on a bad group.

    A group computes mul = add(res, f3) * conv1x1(f3), so its mul can run as
    one attention step on res and f3 without the conv and add.
    """
    by_name = {n.name: n for n in g.nodes}
    consumers = _consumer_counts(g)
    gates: dict[str, tuple[ConvSpec, str, str]] = {}
    for fg in g.fusion_groups:
        if not {fg.conv, fg.add, fg.mul} <= by_name.keys():
            raise ShapeError(f"fusion group {fg} names a node the graph lacks")
        conv, addn, muln = by_name[fg.conv], by_name[fg.add], by_name[fg.mul]
        if conv.op != "conv" or addn.op != "add" or muln.op != "mul":
            raise ShapeError(f"fusion group {fg} does not name conv/add/mul nodes")
        spec, f3 = conv.spec, conv.inputs[0]
        if spec is None or conv.lora is not None or spec.kernel != (1, 1) or spec.groups != 1:
            raise ShapeError(f"fusion group conv {fg.conv!r} must be a plain 1x1 conv")
        if set(muln.inputs) != {fg.conv, fg.add}:
            raise ShapeError(f"fusion group mul {fg.mul!r} must consume the conv and add")
        if f3 not in addn.inputs:
            raise ShapeError(
                f"fusion group {fg.mul!r}: the 1x1 conv and the add must share f3"
            )
        if consumers[fg.conv] != 1 or consumers[fg.add] != 1:
            raise ShapeError(
                f"fusion group {fg.mul!r}: conv/add outputs must feed only the mul"
            )
        if fg.mul in gates:  # groups sharing a node fail the checks above unless equal
            raise ShapeError(f"node {fg.mul!r} appears in two fusion groups")
        a, b = addn.inputs
        gates[fg.mul] = spec, (b if a == f3 else a), f3
    return gates


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
    rows(node) -> (top, bottom, scale): output rows [d, e) read input rows
    [d // scale - top, ceil(e / scale) + bottom); rows outside the input are
    zero. A node with scale s computes its rows s at a time.
    """

    shape: Callable[[Node, list[Shape]], Shape]
    flops: Callable[[Node, Shape], int]
    run: Callable[..., Tensor]
    arity: int | None = 1
    rows: Callable[[Node], tuple[int, int, int]] = lambda n: (0, 0, 1)


def _free(n: Node, out: Shape) -> int:
    return 0


def _numel(n: Node, out: Shape) -> int:
    return out[0] * out[1] * out[2]


def _input_shape(n: Node, ins: list[Shape]) -> Shape:
    if n.channels is None:
        raise ShapeError(f"input node {n.name!r} must declare channels")
    return ins[0]


def _parallel_convs(n: Node) -> tuple[list[ConvSpec], bool]:
    """The convs a conv node runs in parallel and sums, and whether its input
    (an identity branch) joins the sum: its spec, or its branch group's
    convs. A LoRA delta on the spec is checked here, never multiplied;
    _conv_flops counts it."""
    if n.branches is not None:
        if n.spec is not None or n.lora is not None or not n.branches.branches:
            raise ShapeError(f"conv node {n.name!r}: branches need a conv and no spec or LoRA")
        return list(n.branches.branches), n.branches.include_identity
    if n.spec is None:
        raise ShapeError(f"conv node {n.name!r} has neither spec nor branches")
    if n.lora is not None:
        try:
            check_lora_factors(n.spec, n.lora)
        except ShapeError as e:
            raise ShapeError(f"conv node {n.name!r}: {e}") from None
    return [n.spec], False


def _conv_shape(n: Node, ins: list[Shape]) -> Shape:
    # Every parallel conv must take the input's width, and they and the
    # identity must give one output shape. Extents are linear in the input's,
    # so convs that agree at one input size agree at all.
    convs, identity = _parallel_convs(n)
    cin, h, w = ins[0]
    parts = [(s.in_channels, s.out_channels, s.kernel, s.padding) for s in convs]
    parts += [(cin, cin, (1, 1), (0, 0))] * identity
    names = [f"branch {i}" for i in range(len(convs))] + ["identity"]
    outs = []
    for name, (ci, co, (kh, kw), (ph, pw)) in zip(names, parts):
        if ci != cin:
            where = "" if n.branches is None else f" {name}"
            raise ShapeError(f"conv {n.name!r}{where} expects {ci} channels, producer provides {cin}")
        outs.append((co, h + 2 * ph - kh + 1, w + 2 * pw - kw + 1))
    _, c0, k0, p0 = parts[0]
    for name, (_, co, k, p), out in zip(names[1:], parts[1:], outs[1:]):
        if co != c0:
            raise ShapeError(f"conv {n.name!r}: {name} gives {co} channels, branch 0 gives {c0}")
        if out != outs[0]:
            raise ShapeError(
                f"conv {n.name!r}: {name} (kernel {k}, padding {p}) and branch 0 "
                f"(kernel {k0}, padding {p0}) give different extents"
            )
    return outs[0]


def _conv_flops(n: Node, out: Shape) -> int:
    # per output pixel: a MAC per weight and an add per bias of each parallel
    # conv, and one add per conv or identity summed onto the first; a LoRA
    # delta is one more conv, ungrouped and bias-free, of its spec's geometry
    convs, identity = _parallel_convs(n)
    c, h, w = out
    flops = sum(s.param_count for s in convs) + (len(convs) - 1 + identity) * c
    if n.lora is not None:
        flops += c * n.spec.in_channels * n.spec.kernel[0] * n.spec.kernel[1] + c
    return flops * h * w


def _run_conv(n: Node, x: Tensor) -> Tensor:
    if n.branches is not None:
        return branch_forward(x, n.branches)
    if n.lora is not None:
        return lora_forward(x, n.spec, n.lora)
    return conv2d(x, n.spec)


def _conv_rows(n: Node) -> tuple[int, int, int]:
    # the rows every parallel conv reads, and the identity's own rows
    convs, identity = _parallel_convs(n)
    top = max([s.padding[0] for s in convs] + [0] * identity)
    bottom = max([s.kernel[0] - 1 - s.padding[0] for s in convs] + [0] * identity)
    return top, bottom, 1


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
    "conv": Op(_conv_shape, _conv_flops, _run_conv, rows=_conv_rows),
    "relu": Op(lambda n, ins: ins[0], _numel, lambda n, x: relu(x)),
    "add": Op(_same_width_shape, _numel, lambda n, a, b: add(a, b), 2),
    "mul": Op(_same_width_shape, _numel, lambda n, a, b: mul(a, b), 2),
    "concat": Op(_concat_shape, _free, lambda n, *parts: concat_channels(list(parts)), None),
    "pixel_shuffle": Op(
        _shuffle_shape, _free, lambda n, x: pixel_shuffle(x, n.upscale), rows=lambda n: (0, 0, n.upscale)
    ),
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


def _schedule(g: ModelGraph, reads: dict[str, tuple[str, ...]]) -> list[Node]:
    """The nodes the output needs, in run order.

    A depth-first walk from the output over `reads` that runs a node's deeper
    input first (Sethi and Ullman's order), so a shallow input such as
    SPANV2's `near` is not held while the deep one is computed. Depth is the
    longest path from the input; ties keep node order.
    """
    by_name = {n.name: n for n in g.nodes}
    index = {n.name: i for i, n in enumerate(g.nodes)}
    depth: dict[str, int] = {}
    for n in g.nodes:  # node order is topological
        depth[n.name] = 1 + max((depth[r] for r in reads[n.name]), default=-1)
    order: dict[str, Node] = {}
    stack = [(g.output, False)]  # (name, whether its inputs have run)
    while stack:
        name, inputs_done = stack.pop()
        if name in order:
            continue
        if inputs_done:
            order[name] = by_name[name]
            continue
        stack.append((name, True))
        first = sorted(reads[name], key=lambda r: (-depth[r], index[r]))
        stack.extend((r, False) for r in reversed(first))
    return list(order.values())


def _check_input(g: ModelGraph, n: Node, x: Tensor) -> None:
    if x.c != n.channels:
        raise ShapeError(f"graph {g.name!r} expects {n.channels}-channel input, got {x.c}")
    if not np.isfinite(x.data).all():
        raise ValueError(f"graph {g.name!r}: input contains non-finite values")


def _plane_bytes(
    steps: list[Node],
    reads: dict[str, tuple[str, ...]],
    last_use: dict[str, int],
    shapes: dict[str, Shape],
) -> int:
    """Bytes one image's whole-plane run holds beyond its input and output:
    the values alive at its widest step."""
    size = {name: 4 * c * h * w for name, (c, h, w) in shapes.items()}
    size[steps[0].name] = 0  # the schedule's one leaf is the input, which the caller holds
    held = peak = 0
    for i, n in enumerate(steps[:-1]):
        held += size[n.name]
        peak = max(peak, held)
        held -= sum(size[r] for r in set(reads[n.name]) if last_use[r] == i)
    return peak


def _row_convs(n: Node) -> list[tuple[ConvSpec | None, int, int]]:
    """Conv node n as its parallel convs with row padding 0, each with the
    rows it skips at the top and bottom of the node's input window; None is
    the identity branch."""
    top, bottom, _ = _conv_rows(n)
    convs, identity = _parallel_convs(n)
    cuts = [
        (replace(s, padding=(0, s.padding[1])), top - s.padding[0], bottom + 1 + s.padding[0] - s.kernel[0])
        for s in convs
    ]
    return cuts + [(None, top, bottom)] * identity


def _run_conv_rows(n: Node, x: Tiles, cuts: list[tuple[ConvSpec | None, int, int]]) -> Tensor | Tiles:
    # a plain conv runs by channel ranges; a branch group's sum is in
    # branch_forward's order: the convs, then the identity
    parts = [x if a == b == 0 else _window(x.tiles, a, x.shape[2] - b, x.shape) for _, a, b in cuts]
    del x  # popped, so each part is freed once its cut has run
    if n.lora is None and n.branches is None:
        return _conv_by_channels(parts.pop(0), cuts[0][0])
    y = None
    for spec, _, _ in cuts:
        part = parts.pop(0)
        if spec is None:
            part = part.build()
        else:
            part = conv2d(part, spec) if n.lora is None else lora_forward(part, spec, n.lora)
        y = part if y is None else add(y, part)
    return y


def _conv_by_channels(x: Tiles, spec: ConvSpec) -> Tensor | Tiles:
    """conv2d(x, spec), run once per channel range of x's tiles when there
    are several and they fall on spec's group boundaries. Each cut keeps its
    groups' weight and bias rows, so its output is its channel range of the
    whole conv's; the outputs are passed on as tiles, and each input range
    is freed once its cut has run."""
    n, _, h, w = x.shape
    ranges = sorted({(c0, c0 + a.shape[1]) for _, c0, a in x.tiles})
    cg, og = spec.in_channels // spec.groups, spec.out_channels // spec.groups
    if len(ranges) == 1 or any(r[1] != q[0] or r[1] % cg for r, q in zip(ranges, ranges[1:])):
        return conv2d(x, spec)
    parts = [
        Tiles(tuple((r0, 0, a) for r0, c0, a in x.tiles if c0 == lo), (n, hi - lo, h, w))
        for lo, hi in ranges
    ]
    del x
    tiles = []
    for lo, hi in ranges:
        rows = slice(lo // cg * og, hi // cg * og)
        bias = None if spec.bias is None else spec.bias[rows]
        cut = dict(in_channels=hi - lo, out_channels=rows.stop - rows.start, groups=(hi - lo) // cg)
        y = conv2d(parts.pop(0), replace(spec, weight=spec.weight[rows], bias=bias, **cut))
        tiles.append((0, rows.start, y.data))
    return Tiles(tuple(tiles), (n, spec.out_channels, y.h, y.w))


def _window(held: Sequence[Tile], lo: int, hi: int, shape: tuple[int, int, int, int]) -> Tiles:
    """Rows [lo, hi) of a plane of `shape` held as tiles, as tiles of the
    window; rows outside the plane are zero, one zero tile per channel range."""
    n, c, h, w = shape
    if (lo, hi) == (0, h):  # the whole plane, all of it held: no views to make
        return Tiles(tuple(held), shape)
    tiles = [
        (max(r0, lo) - lo, c0, a[:, :, max(lo - r0, 0) : hi - r0])
        for r0, c0, a in held
        if max(r0, lo) < min(r0 + a.shape[2], hi)
    ]
    if lo < 0 or hi > h:
        ranges = {(c0, a.shape[1]) for _, c0, a in held} or {(0, c)}
        for z0, z1 in ((lo, min(hi, 0)), (max(lo, h), hi)):
            if z0 < z1:
                tiles += [(z0 - lo, c0, np.zeros((n, cc, z1 - z0, w), np.float32)) for c0, cc in ranges]
    return Tiles(tuple(tiles), (n, c, hi - lo, w))


def _drop_rows(tiles: list[Tile], keep: float) -> None:
    """Drop the rows above row `keep` from tiles, copying out kept tails."""
    tiles[:] = [
        (r0, c0, a) if r0 >= keep else (keep, c0, a[:, :, keep - r0 :].copy())
        for r0, c0, a in tiles
        if r0 + a.shape[2] > keep
    ]


def _stream(
    g: ModelGraph,
    steps: list[Node],
    reads: dict[str, tuple[str, ...]],
    gates: dict[str, tuple[ConvSpec, str, str]],
    shapes: dict[str, Shape],
    x: Tensor,
    rows: int,
    counter: TrafficCounter | None,
) -> Tensor:
    """Fused run of x in strips of `rows` input rows, depth-first: each
    image runs alone, and per strip every step computes the rows its readers
    need next, once, and each value keeps only the rows its readers will
    still read, as tiles. A step reads its inputs' rows by its op's rule;
    a conv reads its input's real neighbour rows with row padding 0
    (_row_convs), so zero rows appear only at the image border. rows ==
    x.h is the one-strip case of the same walk.

    What a step holds depends on its op alone: a concat relabels its
    inputs' tiles and is never built, a plain conv runs per channel range
    when its input's ranges fall on its group boundaries
    (_conv_by_channels), and conv2d copies tiles into its band itself.
    Other ops build the rows they read; the output step builds its rows.
    """
    index = {n.name: j for j, n in enumerate(steps)}
    ins = [[index[r] for r in reads[n.name]] for n in steps]
    readers: list[list[int]] = [[] for _ in steps]
    for j, n in enumerate(steps):
        for r in set(ins[j]):
            readers[r].append(j)
    last, strips = len(steps) - 1, -(-x.h // rows)
    rule = [OPS[n.op].rows(n) for n in steps]
    shape = [(1, *shapes[n.name]) for n in steps]
    height = [h for _, _, h, _ in shape]
    cuts = [_row_convs(n) if n.op == "conv" else None for n in steps]

    def run(j: int, args: list[Tiles]) -> Tensor | Tiles:
        n = steps[j]
        if n.name in gates:
            return fused_attention(*[a.build() for a in args], gates[n.name][0], counter)
        if n.op == "concat":
            return Tiles.concat(args)
        if cuts[j]:  # popped, so _run_conv_rows frees its input's parts as they run
            return _run_conv_rows(n, args.pop(), cuts[j])
        return OPS[n.op].run(n, *[a.build() for a in args])

    # one image in one strip returns its last step's output: no second output plane
    out = None if x.n == strips == 1 else np.empty((x.n, *shapes[g.output]), np.float32)
    for i in range(x.n):
        done = [0] * len(steps)
        held: list[list[Tile]] = [[] for _ in steps]
        done[0], held[0] = x.h, [(0, 0, x.data[i : i + 1])]  # steps[0] is the input

        def first_read(q: int) -> float:
            top, _, s = rule[q]
            return done[q] // s - top if done[q] < height[q] else np.inf

        for k in range(1, strips + 1):
            # how far each step must run, from the output back; all of it at the end
            need = list(height)
            if k < strips:
                need = [0] * last + [height[last] * k * rows // x.h]
                for j in range(last, 0, -1):
                    _, bottom, s = rule[j]
                    e = need[j] = min(-(-need[j] // s) * s, height[j])
                    if e > done[j]:
                        for r in ins[j]:
                            need[r] = max(need[r], min(-(-e // s) + bottom, height[r]))
            for j in range(1, last + 1):
                d, e = done[j], need[j]
                if e <= d:
                    continue
                top, bottom, s = rule[j]  # output rows [d, e) read input rows [lo, hi)
                lo, hi = d // s - top, -(-e // s) + bottom
                args = [_window(held[r], lo, hi, shape[r]) for r in ins[j]]
                done[j] = e
                for r in set(ins[j]) - {0}:  # before the kernel; the caller holds the input
                    _drop_rows(held[r], min(first_read(q) for q in readers[r]))
                y = run(j, args)
                if j < last and isinstance(y, Tiles):
                    held[j] += [(d + r0, c0, a) for r0, c0, a in y.tiles]
                elif j < last:
                    held[j].append((d, 0, y.data))
                elif out is None:
                    out = Tiles.of(y).build().data
                else:
                    out[i : i + 1, :, d:e] = Tiles.of(y).build().data
                del args, y
    return Tensor(out)


def run_graph(
    g: ModelGraph,
    x: Tensor,
    mode: str = "unfused",
    counter: TrafficCounter | None = None,
) -> Tensor:
    """Execute the graph on x. mode selects the execution plan (module docstring)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    gates = _fusion_gates(g)
    reads = {n.name: gates[n.name][1:] if n.name in gates else n.inputs for n in g.nodes}
    steps = _schedule(g, reads)  # a group's conv and add are not in it
    last_use = {r: i for i, n in enumerate(steps) for r in reads[n.name]}
    _check_input(g, steps[0], x)  # steps[0] is the input
    if mode == "fused" and len(steps) > 1:  # an input-only graph has no step to fuse
        # each image runs as one strip when its whole-plane run fits the budget,
        # otherwise in strips of rows whose share of it does, at least 4
        shapes = infer_shapes(g, x.h, x.w)
        plane, budget = _plane_bytes(steps, reads, last_use, shapes), _GRAPH_BYTES
        rows = x.h if plane <= budget else max(4, budget * x.h // plane)
        return _stream(g, steps, reads, gates, shapes, x, rows, counter)
    env = {steps[0].name: x}
    for i, n in enumerate(steps[1:], 1):
        args = [env[r] for r in reads[n.name]]
        for r in reads[n.name]:
            if last_use[r] == i:
                env.pop(r, None)
        if n.name in gates:
            out = reference_attention(*args, gates[n.name][0], counter)
        else:
            out = OPS[n.op].run(n, *args)
        env[n.name] = out
        del args, out  # hold no value past its last reader
    return env[g.output]
