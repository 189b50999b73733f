"""Declarative model graphs and their reference executor.

A ModelGraph is an ordered list of named nodes wired by name: one input, one
output, skip/concat fan-in allowed. A conv node sums parallel convs: its
spec, its spec and a LoRA delta, or a non-empty branch group with an optional
identity. `_parallel_convs` lists the node's specs once (a LoRA delta's
factors are checked, not multiplied); shapes and FLOPs read that list,
"unfused" runs the decorations live, "fused" lowers them to plain convs and
adds, and the fuse rewrites fold them away. No other op carries conv
weights.

`run_graph` runs the nodes the output needs in one schedule, whatever the
mode: a depth-first walk from the output that runs each node's deeper input
first. "unfused" runs every op as written on whole planes, freeing each
value after its last reader: the literal op-by-op oracle. "fused" runs each
attention triple (plain 1x1 conv, add, mul) registered as a fusion group as
one single-pass step on the residual and f3, where "unfused" runs the
three-op reference; both accept a traffic counter.

"fused" streams each image alone by a plan compiled once per graph and
image size and kept on the graph (_compiled), after each LoRA or branch
group conv is lowered to plain convs and adds, and a grouped conv over a
concat of parts on its group boundaries cut into one conv per part
(_lowered), so the plan sees only plain convs. Each strip ends at an
output row, a strip's worth of input rows times the output's scale
further on than the last; the plan lists, for every strip, the kernel
call of each step that makes the rows its readers read to reach it
(_progress), so each row is made once, each call with its resolved conv
spec; a call of run_graph only allocates its buffers and runs the
kernels, each conv2d in the strips it works out from its own operands
(tensor.conv_strips). Each value is held in zero-bordered row bands
(tensor.Band), and each call writes one band, the output step's being its
rows of the output plane: a conv reads its tap windows from its input's
band in place and writes its GEMM rows straight into its reader's band;
relu, add, mul and the attention step write in place into the band of an
input they alone read. Only convs read a value held as parts: a concat
that only convs read is not held, its readers read its inputs' bands; any
other concat is one band filled with a copy of its inputs' rows. A band's
header, the rows its readers still need, is copied from one strip's band
to the next, so a lagging read is one view. A conv reads its input's real
neighbour rows with row padding 0, so zero rows appear only at the image
border. Every run, one strip or many, allocates each band at its first
action in a strip and drops it after its last; a band starts uninitialised
but for its zero columns, and the plan zeroes the rows a kernel reads that
no step writes. An image is planned as one strip first, and runs that plan
when _strip_rows, which counts that plan's bands, headers and two-thread
conv workspace against _GRAPH_BYTES, gives it all its rows. Any other
image streams with two strips in flight, on two threads, in the most rows
whose plan fits two strips' bands, the carry area and two one-thread
workspaces in _GRAPH_BYTES (_wave); where even 4 rows do not fit, it runs
one strip at a time in _strip_rows' rows, each conv splitting its strips
over two threads. Either way its memory grows with its width, not its
height. Nor does its compile's planning: the strips that repeat a
repeated program are appended unplanned (_plan).

Each op's output shape, FLOPs, the input rows an output row reads, and
execution are one entry of OPS; adding an op means adding one entry.
"""

from __future__ import annotations

import threading
from concurrent.futures import wait
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, product
from math import prod
from operator import is_
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import tensor
from .fusion import (
    BranchGroup,
    LoraFactors,
    TrafficCounter,
    branch_forward,
    check_lora_factors,
    fused_attention,
    lora_delta_spec,
    lora_forward,
    reference_attention,
)
from .tensor import (
    Band,
    ConvSpec,
    ShapeError,
    Tensor,
    Tiles,
    add,
    concat_channels,
    conv2d,
    conv_strips,
    mul,
    pixel_shuffle,
    relu,
)

MODES = ("unfused", "fused")

# The kernels _stream calls, as this module binds them when it loads.
_KERNELS = (conv2d, fused_attention, relu, add, mul, pixel_shuffle)

# Bytes of activations one fused run_graph image aims to hold beyond its
# output: its bands, their headers and the workspace. It sets the height of
# the strips of input rows each image of a fused run streams in alone (one
# strip when all its rows fit), so memory is bounded by its width, not its
# height. Two strips in flight are sized by their plan's own bytes, halo
# rows included (_wave): at 256^2, SPANV2 holds 5.5-5.6 MiB (tracemalloc,
# second call) in 10-row strips. One strip in flight is sized by
# _strip_rows, which does not count a band's halo rows, so such an image
# can hold more: at 256^2, SPAN 7.52 MiB (see _strip_rows).
_GRAPH_BYTES = 6 << 20

# numpy's own buffers a kernel call takes beside the plan's workspace (a
# ufunc's, a grouped GEMM's output rows): 0.06-0.10 MiB a call at 256 px
# wide (tracemalloc). _two_strip_floats counts this many on each thread.
_SCRATCH_FLOATS = 1 << 15

# Image sizes a graph keeps its compiled fused run for (see _compiled); the
# oldest goes first. One plan held 29-94 KiB (tracemalloc) for SPANV2, its
# training form and SPAN from 17x19 to 256x512, so at the cap a graph holds
# about 1.5 MiB of them.
_RUNS_KEPT = 16


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
    # raises on mismatched widths or extents; every extent is affine in the
    # input's, so two that agree at two input sizes agree at all
    for size in (1, 2):
        infer_shapes(g, size, size)
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
    graph input. Rules, and the fused stream's band calls (which pass a
    destination band and a workspace positionally), call the kernels through
    this module's globals at call time, so rebinding e.g. `graph.conv2d`
    reaches every execution.
    arity: the number of inputs a node takes; None means one or more.
    rows(node) -> (top, bottom, scale): output rows [d, e) read input rows
    [d // scale - top, ceil(e / scale) + bottom); rows outside the input are
    zero. A node with scale s computes its rows s at a time. The fused plan
    alone reads it, so a conv's rows are its plain spec's.
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
    (kh, _), (ph, _) = n.spec.kernel, n.spec.padding
    return ph, kh - 1 - ph, 1


def _same_extents(n: Node, ins: list[Shape]) -> tuple[int, int]:
    (_, h, w), *rest = ins
    for _, hi, wi in rest:
        if (hi, wi) != (h, w):
            raise ShapeError(f"{n.op} {n.name!r} mixes extents {h}x{w} and {hi}x{wi}")
    return h, w


def _same_shape(n: Node, ins: list[Shape]) -> Shape:
    (a, _, _), (b, _, _) = ins
    if a != b:
        raise ShapeError(f"{n.op} {n.name!r} mixes widths {a} and {b}")
    return a, *_same_extents(n, ins)


def _concat_shape(n: Node, ins: list[Shape]) -> Shape:
    return sum(c for c, _, _ in ins), *_same_extents(n, ins)


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
    "add": Op(_same_shape, _numel, lambda n, a, b: add(a, b), 2),
    "mul": Op(_same_shape, _numel, lambda n, a, b: mul(a, b), 2),
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


def _cut_specs(spec: ConvSpec, widths: list[int]) -> list[ConvSpec] | None:
    """spec's convs on input parts of these widths, in turn, when there are
    several and each falls on spec's group boundaries, else None: each its
    groups' weight and bias rows, so their outputs joined are spec's."""
    cg, og = spec.in_channels // spec.groups, spec.out_channels // spec.groups
    if len(widths) == 1 or any(c % cg for c in widths):
        return None
    cuts = []
    for lo, c in zip(accumulate([0] + widths), widths):
        rows = slice(lo // cg * og, (lo + c) // cg * og)
        bias = None if spec.bias is None else spec.bias[rows]
        cut = dict(in_channels=c, out_channels=c // cg * og, groups=c // cg)
        cuts.append(replace(spec, weight=spec.weight[rows], bias=bias, **cut))
    return cuts


class _Layout(NamedTuple):
    """How a fused run holds the values of a schedule (see _layout)."""

    steps: list[Node]
    ins: list[list[int]]  # each step's inputs, as step indices
    readers: list[list[int]]  # each step's readers, an unheld concat's standing for its own
    rule: list[tuple[int, int, int]]  # each step's OPS rows rule
    scale: list[int]  # each step's rows per input row: its inputs' scale times its rule's
    shape: list[Shape]
    bands: list[tuple[int, int, int]]  # (channels, plane width, zero columns a side)
    chain: list[list[int]]  # each band's writers: its producer, then in-place steps
    # each step's kernel call, None for an unheld concat: (each input's bands,
    # the band it writes or None: its rows of the output plane, and for a
    # conv (spec, zero columns of the band it reads or None: not one band, of
    # the band it writes or 0), else None)
    calls: list[tuple | None]
    gates: dict[int, ConvSpec]  # attention steps' gate convs


def _layout(
    steps: list[Node], reads: dict[str, tuple[str, ...]], gates: dict[str, tuple], shapes: dict[str, Shape]
) -> _Layout:
    """Hold each value of the fused schedule in zero-bordered bands.

    Every conv runs with row padding 0. Only convs read a value held as
    parts: a concat that only convs read is not held, its readers read its
    inputs' bands (a grouped conv cut at its input's parts, see _lowered,
    is such a concat). Every other value is one band, a concat's filled
    with its inputs' rows. A relu, add, mul or attention step that is the
    only reader of an input band writes its rows in place there, so a conv
    and its relu, or conv_c and its attention step, share one band. A band
    that a conv reads has P zero columns on each side, the graph's widest
    conv column padding, so a conv of column padding P reads its windows in
    place and one of kernel width 2P + 1 writes its rows in place; any
    other band has its writing conv's (kw - 1) / 2. The output step writes
    the output plane, a band of no zero columns.
    """
    index = {n.name: j for j, n in enumerate(steps)}
    ins = [[index[r] for r in reads[n.name]] for n in steps]
    last = len(steps) - 1
    direct: list[list[int]] = [[] for _ in steps]
    for j in range(1, last + 1):
        for r in dict.fromkeys(ins[j]):
            direct[r].append(j)
    held = [True] * len(steps)
    readers: list[list[int]] = [[] for _ in steps]
    for j in range(last, -1, -1):  # readers come later in the schedule
        readers[j] = [q for p in direct[j] for q in ([p] if held[p] else readers[p])]
        held[j] = steps[j].op != "concat" or j == last or any(steps[q].op != "conv" for q in readers[j])
    gate = {j: gates[n.name][0] for j, n in enumerate(steps) if n.name in gates}
    parts: list[list[int]] = []  # each value's bands in channel order; an unheld concat's are its inputs'
    bands: list[tuple] = []  # (channels, plane width), then its zero columns
    chain: list[list[int]] = []
    for j, n in enumerate(steps):
        alias = [r for r in dict.fromkeys(ins[j][::-1] if j in gate else ins[j]) if r > 0 and readers[r] == [j]]
        if j == last:
            parts.append([])
        elif not held[j]:
            parts.append([b for r in ins[j] for b in parts[r]])
        elif alias and (n.op in ("relu", "add", "mul") or j in gate):
            parts.append(parts[alias[0]])
            chain[parts[j][0]].append(j)
        else:
            c, _, w = shapes[n.name]
            parts.append([len(bands)])
            bands.append((c, w))
            chain.append([j])
    pad = max([n.spec.padding[1] for n in steps if n.op == "conv"] + [0])
    for b, members in enumerate(chain):
        # the widest column padding P when a conv reads the band, else the
        # writing conv's (kw - 1) / 2, so that it writes its rows in place
        first = steps[members[0]]
        kw = first.spec.kernel[1] if first.op == "conv" else 2 * pad + 1
        bands[b] += (pad if any(steps[q].op == "conv" for q in readers[members[-1]]) or kw % 2 == 0 else kw // 2,)
    calls: list[tuple | None] = []
    for j, n in enumerate(steps):
        write = parts[j][0] if parts[j] else None
        conv = None
        if n.op == "conv":
            spec = replace(n.spec, padding=(0, n.spec.padding[1])) if n.spec.padding[0] else n.spec
            src = parts[ins[j][0]]
            conv = spec, bands[src[0]][2] if len(src) == 1 else None, 0 if write is None else bands[write][2]
        calls.append(([parts[r] for r in ins[j]], write, conv) if held[j] else None)
    rule = [OPS[n.op].rows(n) for n in steps]
    scale: list[int] = []
    for j in range(last + 1):
        scale.append(rule[j][2] * max([scale[r] for r in ins[j]], default=1))
    shape = [shapes[n.name] for n in steps]
    return _Layout(steps, ins, readers, rule, scale, shape, bands, chain, calls, gate)


def _progress(lay: _Layout, target: int, p: list[int]) -> None:
    """Set p to how far each step's rows run in a strip that ends at output
    row `target`: every other step as far as its readers read, in whole
    multiples of its own scale, from the output back (a row past a value's
    last is a zero row)."""
    last = len(lay.steps) - 1
    p[last] = target
    for j in range(last - 1, -1, -1):
        read = max(-(-p[q] // lay.rule[q][2]) + lay.rule[q][1] for q in lay.readers[j])
        s = lay.rule[j][2]
        p[j] = -(-read // s) * s


class _Action(NamedTuple):
    """One kernel call of a fused run, which writes one band: its step's,
    or for the output step its rows of the output plane. The step's op
    picks the kernel (see _stream), and a conv's kernel its own strips.
    Band rows count from each band's top, so strips that do the same share
    their actions (see _plan)."""

    step: int
    takes: tuple  # the bands first used in the strip here, allocated uninitialised
    copied_in: tuple  # (band, header rows) copied in at their tops
    zeros: tuple  # (band, first row, end row or None) zeroed
    args: tuple  # per input, its bands in channel order (band, first row, rows)
    out: tuple | None  # (band, first row, rows) it writes; None: its rows of the output plane
    copied_out: tuple  # (band, first row, header rows) copied out after it
    gives: tuple  # the bands last used in the strip here
    waits: tuple  # the bands whose carry rows the strip uses first here (see _stream)
    releases: tuple  # the bands whose carry rows it uses last here
    spec: ConvSpec | None  # a conv's spec or an attention step's gate conv


class _Plan(NamedTuple):
    """A fused run's strips and the memory they take (see _plan)."""

    programs: list[list[_Action]]  # the strips' distinct action lists
    strips: list[tuple[int, tuple[int, int], tuple[int, int]]]  # (program, input rows, output rows)
    shapes: list[tuple[int, int, int, int]]  # each band's buffer
    carry: list[int]  # the most header rows each band keeps between strips
    ws_floats: tuple[int, int]  # the workspace on one thread, and on two (see _plan)
    in_flight: int  # strips run at once: 1, or 2 on two threads (see _stream)


def _strip_rows(lay: _Layout, one: _Plan, budget: int) -> int:
    """Input rows per strip of a fused run with one strip in flight: as
    many, at least 4, as let the bands held at once, every band's header
    between strips and the two-thread workspace of `one`, the image planned
    as one strip, fit the budget. A band holds its value's scale of rows
    per input row (see _Layout) from its first action in `one` (its takes)
    to its last (its gives), and the bands of one plane width and zero
    columns are counted as the most they hold at once. A band's halo rows are not counted: the
    header at its top, which the carry area holds too, and the rows its
    readers read past the strip. So a streamed run can hold more: at
    256^2, SPANV2's bands, carry area and workspace come to 3.51 + 1.21 +
    1.17 = 5.90 MiB in 20-row strips and SPAN's to 4.46 + 2.02 + 1.04 =
    7.52 in 14-row ones, against a budget of 6 (SPANV2 runs two strips in
    flight instead, see _wave). Capped at the image's height, which runs as
    one strip."""
    p = [0] * len(lay.steps)
    _progress(lay, 1 << 30, p)  # a strip well inside the image
    headers = 0
    for (c, w, pad), members in zip(lay.bands, lay.chain):
        first = [p[q] // lay.rule[q][2] - lay.rule[q][0] for q in lay.readers[members[-1]]]
        headers += c * (w + 2 * pad) * (p[members[0]] - min(first + [p[members[0]]]))
    row = [c * (w + 2 * pad) * lay.scale[members[0]] for (c, w, pad), members in zip(lay.bands, lay.chain)]
    now: dict[tuple[int, int], int] = {}  # the floats a row of the bands of each width holds
    held: dict[tuple[int, int], int] = {}  # the most it held at once
    for act in one.programs[0]:
        for b in act.takes:
            key = lay.bands[b][1:]
            now[key] = now.get(key, 0) + row[b]
            held[key] = max(held.get(key, 0), now[key])
        for b in act.gives:
            now[lay.bands[b][1:]] -= row[b]
    return min(lay.shape[0][1], max(4, (budget - 4 * (headers + one.ws_floats[1])) // (4 * sum(held.values()))))


def _lead(lay: _Layout) -> int:
    """How many input rows the input step runs ahead of the output (its
    rows over its scale) in a strip well inside the image (_progress)."""
    p = [0] * len(lay.steps)
    _progress(lay, lay.scale[-1] << 30, p)
    return max(p[0] - (1 << 30), 0)


def _two_strip_floats(plan: _Plan) -> int:
    """Floats a run of plan holds beyond its output with two strips in
    flight: on each thread, the bands its strip holds at once at their
    buffers' rows, halo rows included, its one-thread workspace and
    _SCRATCH_FLOATS; and the carry area, which both share."""
    most = 0
    for program in plan.programs:
        now = 0
        for act in program:
            now += sum(prod(plan.shapes[b]) for b in act.takes)
            most = max(most, now)
            now -= sum(prod(plan.shapes[b]) for b in act.gives)
    carry = sum(c * k * wb for (_, c, _, wb), k in zip(plan.shapes, plan.carry))
    return 2 * (most + plan.ws_floats[0] + _SCRATCH_FLOATS) + carry


def _wave(lay: _Layout, h: int, rows: int, budget: int) -> tuple[int, _Plan] | None:
    """Input rows per strip with two strips in flight, and the plan of an
    h-row image in them, or None where 4 rows' plan does not fit two strips
    in the budget (_two_strip_floats). Else the search bisects whole plans
    of 5 to `rows` rows and keeps the most rows it finds to fit."""

    def fits(r: int) -> _Plan | None:
        plan = _plan(lay, h, r, 2)
        return plan if 4 * _two_strip_floats(plan) <= budget else None

    # a budget below the two threads' scratch bytes fits no plan, so none is made
    if rows < 4 or 2 * 4 * _SCRATCH_FLOATS > budget or not (plan := fits(4)):
        return None
    lo, hi = 4, rows  # the most rows known to fit, whose plan is `plan`, and the most that may
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = fits(mid)
        lo, hi, plan = (mid, hi, found) if found else (lo, mid - 1, plan)
    return lo, plan


def _plan(lay: _Layout, h: int, rows: int, in_flight: int = 1) -> _Plan:
    """The kernel calls of a fused run of an h-row image in strips of `rows`
    input rows (all of it in one when rows >= h) with `in_flight` strips
    run at once (see _stream), and the memory they use.

    Strip k ends at output row (k + 1) * rows times the output's scale, and
    each step's rows run as far as its readers read to reach it (_progress),
    so each row is made once, no value runs ahead of its readers and every
    step makes `rows` times its scale rows a strip. The first strip also
    makes the rows the input step runs ahead of the output, its lead; with
    two strips in flight every strip ends the lead's rows earlier, so that
    no strip makes more than `rows` input rows and no band is sized for the
    first strip's reach. A band is held from its first use in a strip to
    its last. The rows its readers still need, its header, are copied out
    right after the band's last writer in the strip (its producer or an
    in-place step), or where it is copied in when none writes it there, so
    the next strip can take them while its readers still run; and at its
    first use in the next strip in at its top. A band is allocated afresh
    for each strip and starts uninitialised but for its zero columns, so
    the plan zeroes every row a kernel reads that no step writes: the rows
    above and past the image. A strip that does the same as the one before
    shares its actions, one program; once one repeats, the strips that end
    before any step's last row repeat it too and are appended unplanned.
    The workspace is the most conv_strips gives any conv call, or any
    attention step's gate conv, of its rows and operands, on one thread
    and on two, the most a conv splits its strips on (the gate's run on
    one). A one-strip run and each thread of two strips in flight take the
    first; one streamed strip in flight the second when tensor._WORKERS
    lets its convs split, and _strip_rows counts it whatever that is, so
    the thread count changes no strip, and so no GEMM and no bit.
    """
    steps, ins, rule, bands = lay.steps, lay.ins, lay.rule, lay.bands
    height = [hj for _, hj, _ in lay.shape]
    last = len(steps) - 1
    head = [members[0] for members in lay.chain]
    tops = [max([rule[q][0] for q in lay.readers[m[-1]]] + [0]) for m in lay.chain]
    origin = [-t for t in tops]  # the value row at each band's row 0
    header = [0] * len(bands)  # the rows each band keeps from the strip before
    caps, carry = [0] * len(bands), [0] * len(bands)  # each band's buffer rows, and the most header rows it keeps
    done, p = [0] * len(steps), [0] * len(steps)
    programs: list[list[_Action]] = []
    strips: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
    ws_floats = [0, 0]
    lead = _lead(lay) if in_flight == 2 else 0
    step = [rows * s for s in lay.scale]  # the rows each step makes a strip
    while done[last] < height[last]:
        _progress(lay, ((len(strips) + 1) * rows - lead) * lay.scale[last] if rows < h else 1 << 30, p)
        # the next m strips end before every step's last row, where rows clip: they repeat a repeated program
        m = min(-(-(hj - pj) // r) for hj, pj, r in zip(height, p, step)) if strips[1:] else 0
        if m > 0 and strips[-1][0] == strips[-2][0]:
            k, (i0, i1), (o0, o1) = strips[-1]
            for i in range(1, m + 1):
                strips.append((k, (i0 + i * step[0], i1 + i * step[0]), (o0 + i * step[-1], o1 + i * step[-1])))
            done = [d + m * r for d, r in zip(done, step)]
            origin = [o + m * step[j] for o, j in zip(origin, head)]
            continue
        actions: list[list] = []
        touched: dict[int, int] = {}  # each band used in this strip: its last action
        first: dict[int, int] = {}  # its first action
        wrote: dict[int, int] = {}  # its last writer, if one is in the strip
        io = [(0, 0), (0, 0)]

        def use(b: int, end: int, action: list) -> int:
            # band b, held in this strip and made to hold value row `end`
            # and the one after; its origin
            if b not in touched:
                first[b] = len(actions)
                action[1].append(b)
                if header[b]:
                    action[2].append((b, header[b]))
                elif origin[b] == -tops[b]:
                    action[3].append((b, 0, tops[b]))  # the zero rows above the image
                if done[head[b]] == height[head[b]]:
                    action[3].append((b, header[b], None))  # the zero rows past the image
            caps[b] = max(caps[b], end - origin[b] + 1)
            touched[b] = len(actions)
            return origin[b]

        for j in range(len(steps)):
            top, bottom, s = rule[j]
            d, e = done[j], min(max(p[j], 0), height[j])
            if e <= d:
                continue
            if j in (0, last):
                io[j > 0] = (d, e)
            lo, hi = d // s - top, -(-e // s) + bottom
            if lay.calls[j] is not None:  # None: its readers read its inputs' bands
                reads, write, conv = lay.calls[j]
                spec, src, dst = conv or (lay.gates.get(j), None, None)  # a conv's, or the gate conv's
                action: list = [j, [], [], [], [], None, [], spec]
                for bs in reads:
                    action[4].append(tuple((b, lo - use(b, hi, action), hi - lo) for b in bs))
                if write is not None:
                    r0 = d - use(write, e, action)
                    wrote[write] = len(actions)
                    action[5] = write, r0, e - d
                    if head[write] == j and e == height[j]:
                        action[3].append((write, r0 + e - d, None))  # the zero rows past the image
                for k, workers in enumerate((1, 2 if conv else 1) if spec else ()):
                    ws_floats[k] = max(ws_floats[k], conv_strips(1, e - d, lay.shape[ins[j][0]][2], spec, src, dst, workers)[1])
                actions.append(action)
            done[j] = e
        # each action's bands: used in the strip for the last time there,
        # and whose carry rows it uses first and last in the strip
        gives: dict[int, list[int]] = {}
        waits: dict[int, list[int]] = {}
        releases: dict[int, list[int]] = {}
        for b, a in touched.items():
            gives.setdefault(a, []).append(b)
            carried = [first[b]] if header[b] else []  # copied in there
            # the rows its readers, and the steps that write it in place
            # after its producer, have still to read
            members, made = lay.chain[b], done[head[b]]
            keep = [done[m] for m in members[1:] if done[m] < height[m]] + [made]
            keep += [done[q] // rule[q][2] - rule[q][0] for q in lay.readers[members[-1]] if done[q] < height[q]]
            header[b] = made - min(keep)
            carry[b] = max(carry[b], header[b])  # its own rows of one carry area between strips
            if header[b]:  # copied out after its last writer, or where it is copied in
                carried.append(wrote.get(b, first[b]))
                actions[carried[-1]][6].append((b, min(keep) - origin[b], header[b]))
            origin[b] = min(keep)
            if carried:
                waits.setdefault(carried[0], []).append(b)
                releases.setdefault(carried[-1], []).append(b)
        program = [
            _Action(j, tuple(new), tuple(copied_in), tuple(zeros), tuple(args), out, tuple(copied_out),
                    *(tuple(d.get(a, ())) for d in (gives, waits, releases)), spec)
            for a, (j, new, copied_in, zeros, args, out, copied_out, spec) in enumerate(actions)
        ]
        if not programs or program != programs[strips[-1][0]]:
            programs.append(program)
        strips.append((len(programs) - 1, *io))
    shapes = [(1, c, cap, w + 2 * pad) for (c, w, pad), cap in zip(bands, caps)]
    return _Plan(programs, strips, shapes, carry, tuple(ws_floats), in_flight)


def _stream(run: _Run, x: Tensor, counter: TrafficCounter | None) -> Tensor:
    """Fused run of x by its compiled plan. Each action is one kernel call,
    picked by its step, that writes its band: the input's rows copied in,
    conv2d, fused_attention, a concat's inputs' rows copied in,
    pixel_shuffle, or the op's elementwise kernel. The output step's band is
    its rows of the output plane. Every band is allocated uninitialised at
    its first action in a strip, its zero columns zeroed, and dropped after
    its last, so a strip holds only the values alive in it; the plan's zeros
    actions zero every row a kernel reads that no step writes. With many
    strips every header is kept in its band's rows of one carry area,
    allocated once per call. One workspace, sized by the plan for every
    kernel it calls, serves every conv's column block and accumulator and
    every attention step's copied f3 rows and gates. Buffers are per call:
    calls share only the plan.

    The images' strips run in turn, image after image. A plan of two
    strips in flight runs the even ones on the caller's thread and the odd
    ones on the pool's (tensor._pool), each thread with its own bands and
    one-thread workspace, so every kernel call is the one a single thread
    makes and the bits are its bits. Only the carry area crosses strips: a
    strip waits, before it first uses a band's carry rows, for the strip
    that used them last to be done with them. A thread's error stops the
    other at its next wait or strip, and is raised once both have stopped.
    A run with a traffic counter, or with a kernel of this module rebound (a
    tracer's wrapper), runs on the caller's thread alone, as neither is
    known to be thread-safe. A plan of one strip in flight splits each
    streamed conv's strips over tensor._WORKERS threads (see conv2d)."""
    lay, plan = run.lay, run.plan
    last = len(lay.steps) - 1
    own = all(map(is_, (conv2d, fused_attention, relu, add, mul, pixel_shuffle), _KERNELS))
    two = plan.in_flight == 2 and tensor._WORKERS > 1 and counter is None and own
    step = 1 + two
    workers = tensor._WORKERS if plan.in_flight == 1 and len(plan.strips) > 1 else 1
    out: list[np.ndarray] = []  # the output plane, allocated at its first rows
    carry = []
    if len(plan.strips) > 1:
        held = [(1, c, k, wb) for (_, c, _, wb), k in zip(plan.shapes, plan.carry)]
        area = np.empty(sum(map(prod, held)), np.float32)
        carry = [area[o : o + prod(s)].reshape(s) for o, s in zip(accumulate(map(prod, held), initial=0), held)]
    pads = [pad for *_, pad in lay.bands]
    done = [-1] * len(lay.bands)  # the last strip done with each band's carry rows
    errors: list[BaseException] = []
    turn = threading.Condition()

    def strips(first: int) -> None:
        # strips first, first + step, ... of the images' strips in turn,
        # with this thread's buffers
        ws = np.empty(plan.ws_floats[workers > 1], np.float32)
        buf: list[np.ndarray | None] = [None] * len(lay.bands)
        before = [-1] * len(lay.bands)  # the last strip before this one to use each band's carry rows

        def view(parts: tuple, r: int) -> Band | Tiles:
            # the window of step r's value: a band, or its parts' bands as Tiles
            bands = [Band(buf[b], r0, h, pads[b]) for b, r0, h in parts]
            if len(bands) == 1:
                return bands[0]
            return Tiles(tuple(a.interior for a in bands), (1, lay.shape[r][0], bands[0].h, lay.shape[r][2]))

        try:
            for k, (image, (program, rows_in, rows_out)) in enumerate(product(range(x.n), plan.strips)):
                if errors:
                    return
                for act in plan.programs[program] if k % step == first else ():
                    if act.waits and two:
                        with turn:
                            turn.wait_for(lambda: errors or all(done[b] >= before[b] for b in act.waits))
                            if errors:
                                return
                    for b in act.takes:
                        buf[b] = np.empty(plan.shapes[b], np.float32)
                        if pads[b]:  # its zero columns
                            buf[b][..., : pads[b]] = buf[b][..., -pads[b] :] = 0.0
                    for b, h0 in act.copied_in:
                        buf[b][:, :, :h0] = carry[b][:, :, :h0]
                    for b, r0, r1 in act.zeros:
                        buf[b][:, :, r0:r1] = 0.0
                    xs = [view(parts, r) for parts, r in zip(act.args, lay.ins[act.step])]
                    if act.out is not None:
                        b, r0, h0 = act.out
                        dst = Band(buf[b], r0, h0, pads[b])
                    else:  # the output step, into its rows of the output plane
                        with turn:
                            if not out:
                                out.append(np.empty((x.n, *lay.shape[last]), np.float32))
                        d, e = rows_out
                        dst = Band(out[0][image : image + 1], d, e - d, 0)
                    n = lay.steps[act.step]  # each kernel through the module's globals, like OPS
                    if act.step == 0:
                        dst.interior[...] = x.data[image : image + 1, :, rows_in[0] : rows_in[1]]
                    elif n.op == "conv":
                        conv2d(xs[0], act.spec, dst, ws, workers)
                    elif act.step in lay.gates:
                        fused_attention(*xs, act.spec, counter, dst, ws)
                    elif n.op == "concat":
                        np.concatenate(Tiles.concat(xs).tiles, 1, out=dst.interior)
                    elif n.op == "pixel_shuffle":
                        pixel_shuffle(xs[0], n.upscale, dst.interior)
                    else:
                        globals()[n.op](*xs, dst)
                    del xs, dst
                    for b, r0, h0 in act.copied_out:
                        carry[b][:, :, :h0] = buf[b][:, :, r0 : r0 + h0]
                    for b in act.gives:
                        buf[b] = None
                    if act.releases and two:
                        with turn:
                            for b in act.releases:
                                done[b] = k
                            turn.notify_all()
                for act in plan.programs[program]:  # the bands whose carry rows strip k used
                    for b in act.waits:
                        before[b] = k
        except BaseException as e:  # raised by the caller once both threads have stopped
            with turn:
                errors.append(e)
                turn.notify_all()

    if step == 1:
        strips(0)
    else:
        odd = tensor._pool().submit(strips, 1)
        strips(0)
        wait([odd])
    if errors:
        raise errors[0]
    return Tensor(out[0])


class _Run(NamedTuple):
    """Fused run_graph compiled for one graph and image size (_compile)."""

    rows: int  # input rows per strip
    lay: _Layout | None  # None when the graph is its input alone
    plan: _Plan | None


def _reads(g: ModelGraph, gates: dict[str, tuple]) -> dict[str, tuple[str, ...]]:
    """What each node reads: a fusion group's mul its res and f3."""
    return {n.name: gates[n.name][1:] if n.name in gates else n.inputs for n in g.nodes}


def _lowered(g: ModelGraph, shapes: dict[str, Shape]) -> ModelGraph:
    """g, of these shapes, with each training-form conv as plain convs and
    adds, in branch_forward's order: the convs, then the identity. The last
    add keeps the node's name, the others take names no node has; a LoRA
    delta is one bias-free conv. A plain conv that only convs read (or the
    output), whose input is a concat of parts on its group boundaries,
    becomes one conv per part (_cut_specs) and a concat of their outputs
    that keeps its name, so that _layout holds it as the parts' bands."""
    taken = {n.name for n in g.nodes}
    by_name = {n.name: n for n in g.nodes}  # a cut conv's name names its concat
    widths = {name: c for name, (c, _, _) in shapes.items()}  # and its part convs' channels
    conv_read = taken - {r for n in g.nodes if n.op != "conv" for r in n.inputs}  # and the output

    def fresh(name: str) -> str:
        while name in taken:
            name += "'"
        taken.add(name)
        return name

    nodes = []
    for n in g.nodes:
        plain = n.op == "conv" and n.lora is None and n.branches is None
        src = by_name[n.inputs[0]] if plain else n
        cuts = plain and src.op == "concat" and n.name in conv_read
        cuts = cuts and _cut_specs(n.spec, [widths[p] for p in src.inputs])
        if cuts:
            terms = [fresh(f"{n.name}.part{k}") for k in range(len(cuts))]
            widths.update((t, spec.out_channels) for t, spec in zip(terms, cuts))
            nodes += [Node(t, "conv", (p,), spec=spec) for t, p, spec in zip(terms, src.inputs, cuts)]
            nodes.append(Node(n.name, "concat", tuple(terms)))
            by_name[n.name] = nodes[-1]
            continue
        if n.op != "conv" or plain:
            nodes.append(n)
            continue
        convs, identity = _parallel_convs(n)
        if n.lora is not None:
            convs.append(lora_delta_spec(n.spec, n.lora))
        terms = [fresh(f"{n.name}.branch{i}") for i in range(len(convs))] if len(convs) + identity > 1 else [n.name]
        nodes += [Node(t, "conv", n.inputs, spec=spec) for t, spec in zip(terms, convs)]
        terms += [n.inputs[0]] * identity
        total = terms[0]
        for k, t in enumerate(terms[1:], 2):
            nodes.append(Node(n.name if k == len(terms) else fresh(f"{n.name}.sum{k}"), "add", (total, t)))
            total = nodes[-1].name
    return replace(g, nodes=nodes)


def _compile(g: ModelGraph, h: int, w: int) -> _Run:
    """Fused run_graph of g on h x w images: the gates, then the schedule
    and layout of g lowered to plain convs (_lowered), and the image
    planned as one strip. From that plan _strip_rows gives the rows whose
    bands, headers and workspace fit _GRAPH_BYTES; an image of no more
    rows runs that plan. Any other runs two strips in flight where their
    plan fits the budget (_wave), else one, in _strip_rows' rows."""
    gates = _fusion_gates(g)
    g = _lowered(g, infer_shapes(g, h, w))
    reads = _reads(g, gates)
    steps = _schedule(g, reads)  # a group's conv and add are not in it
    if len(steps) == 1:  # an input-only graph has no step to fuse
        return _Run(h, None, None)
    lay = _layout(steps, reads, gates, infer_shapes(g, h, w))
    one = _plan(lay, h, h)
    rows = _strip_rows(lay, one, _GRAPH_BYTES)
    if rows >= h:
        return _Run(rows, lay, one)
    rows, plan = _wave(lay, h, rows, _GRAPH_BYTES) or (rows, _plan(lay, h, rows))
    return _Run(rows, lay, plan)


def _compiled(g: ModelGraph, h: int, w: int) -> _Run:
    """g's fused run on h x w images, compiled once and kept on g.

    g keeps the runs of its last _RUNS_KEPT sizes, keyed by the size and
    the budgets the plan reads, with a stamp of what they read of g: the
    output, the fusion groups' names, and every node and each of its
    fields, by identity. A graph changed in place no longer matches the
    stamp, so its runs are dropped and it runs as changed. The kept runs
    are replaced whole, never changed, so concurrent calls share them."""
    names = [a for fg in g.fusion_groups for a in (fg.conv, fg.add, fg.mul)]
    stamp = (g.output, *names, *g.nodes, *chain.from_iterable(map(dict.values, map(vars, g.nodes))))
    key = (h, w, _GRAPH_BYTES, tensor._STRIP_FLOATS)
    kept, runs = vars(g).get("_runs", ((), {}))
    if len(kept) != len(stamp) or not all(map(is_, kept, stamp)):
        runs = {}
    run = runs.get(key)
    if run is None:
        run = _compile(g, h, w)
        runs = {**runs, key: run}
        while len(runs) > _RUNS_KEPT:
            del runs[next(iter(runs))]
        vars(g)["_runs"] = stamp, runs
    return run


def strips_in_flight(g: ModelGraph, h: int, w: int) -> int:
    """Strips a fused run of g on h x w images runs at once, read from its
    compiled run: 2 when its plan has two in flight and tensor._WORKERS
    gives them two threads, else 1."""
    plan = _compiled(g, h, w).plan
    return 2 if plan is not None and plan.in_flight == 2 and tensor._WORKERS > 1 else 1


def run_graph(
    g: ModelGraph,
    x: Tensor,
    mode: str = "unfused",
    counter: TrafficCounter | None = None,
) -> Tensor:
    """Execute the graph on x. mode selects the execution plan (module docstring)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    # checked before either mode plans; validate_graph puts the input first
    if x.c != g.nodes[0].channels:
        raise ShapeError(f"graph {g.name!r} expects {g.nodes[0].channels}-channel input, got {x.c}")
    if not np.isfinite(x.data).all():
        raise ValueError(f"graph {g.name!r}: input contains non-finite values")
    if mode == "fused":
        run = _compiled(g, x.h, x.w)
        return x if run.plan is None else _stream(run, x, counter)
    gates = _fusion_gates(g)
    reads = _reads(g, gates)
    steps = _schedule(g, reads)  # a group's conv and add are not in it
    last_use = {r: i for i, n in enumerate(steps) for r in reads[n.name]}
    env = {steps[0].name: x}  # steps[0] is the input
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
