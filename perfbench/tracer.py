"""Outside-in per-layer trace of srkit, installed by rebinding module globals.

Every binding of a wrapped function in the loaded `srkit.*` modules is
replaced by a wrapper that records a span (layer, start, end, parent) plus
the counts that belong to that call: FLOPs and computed bytes from the
call's arguments, the attention traffic the engine's own TrafficCounter
reported, and the tracemalloc peak reached while the call was open. Nothing
in srkit itself changes, and uninstall() restores every binding.

A layer's self time is its span's duration minus the time its child spans
cover; `run_graph` self time is therefore executor overhead only.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

from srkit import archive, fusion, graph, metrics, rewrites

# The package re-exports a `tensor()` function that shadows the module name.
tensor = importlib.import_module("srkit.tensor")

MIB = float(1 << 20)

# Conv classes follow the ConvSpec: groups == in_channels > 1 is depthwise,
# a (1, 1) kernel is pointwise, anything else is dense.
CONV_KINDS = ("dense", "depthwise", "pointwise")


def conv_kind(spec) -> str:
    if spec.groups == spec.in_channels > 1:
        return "depthwise"
    if spec.kernel == (1, 1):
        return "pointwise"
    return "dense"


def conv_flops(spec, out) -> int:
    """Multiply-accumulates plus bias adds, the count_flops convention."""
    hw = out.h * out.w
    macs = spec.out_channels * (spec.in_channels // spec.groups) * spec.kernel[0] * spec.kernel[1]
    return macs * hw + (spec.out_channels * hw if spec.bias is not None else 0)


@dataclass
class Span:
    layer: str
    parent: "Span | None"
    start_ns: int
    mem_start: int
    end_ns: int = 0
    child_ns: int = 0
    mem_peak: int = 0
    flops: int = 0
    sub_flops: int = 0  # FLOPs of all descendants
    computed_bytes: int = 0
    traffic: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns

    @property
    def alloc_bytes(self) -> int:
        return max(self.mem_peak - self.mem_start, 0)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    graph_runs: list[tuple] = field(default_factory=list)  # (graph, h, w, traced FLOPs)
    _stack: list[Span] = field(default_factory=list)
    _saved: list[tuple] = field(default_factory=list)

    # -- span bookkeeping -------------------------------------------------

    def _mark_peak(self) -> int:
        # tracemalloc keeps one global peak; fold it into every open span
        # before resetting it, so nested spans each see their own maximum.
        current, peak = tracemalloc.get_traced_memory()
        for s in self._stack:
            s.mem_peak = max(s.mem_peak, peak)
        tracemalloc.reset_peak()
        return current

    def _enter(self, layer: str) -> Span:
        current = self._mark_peak()
        span = Span(layer, self._stack[-1] if self._stack else None, 0, current, mem_peak=current)
        self._stack.append(span)
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _exit(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._mark_peak()
        self._stack.pop()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer, account=None, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter_ns()
            if before is not None:
                args, kwargs = before(args, kwargs)
            name = layer(args) if callable(layer) else layer
            counter = _counter_arg(args, kwargs) if name.endswith("_attention") else None
            traffic_before = counter.total if counter is not None else 0
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counter is not None:
                span.traffic = counter.total - traffic_before
            if account is not None:
                account(span, args, result)
            if span.parent is not None:
                span.parent.sub_flops += span.flops + span.sub_flops
                # The whole wrapper, bookkeeping included, is child time of
                # the parent: tracer cost lowers coverage instead of
                # inflating the parent's self time.
                span.parent.child_ns += time.perf_counter_ns() - t_in
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {
            tensor.conv2d: self._wrap(
                tensor.conv2d, lambda a: f"tensor.conv2d.{conv_kind(a[1])}", _account_conv
            ),
            fusion.fused_attention: self._wrap(
                fusion.fused_attention, "fusion.fused_attention", _account_fused
            ),
            fusion.reference_attention: self._wrap(
                fusion.reference_attention, "fusion.reference_attention"
            ),
            fusion.branch_forward: self._wrap(
                fusion.branch_forward, "fusion.train_form", _account_branches
            ),
            fusion.lora_forward: self._wrap(fusion.lora_forward, "fusion.train_form"),
            graph.run_graph: self._wrap(
                graph.run_graph, "graph.run_graph", self._account_graph, _with_counter
            ),
            metrics.image_to_tensor: self._wrap(metrics.image_to_tensor, "metrics.image_codec"),
            metrics.tensor_to_image: self._wrap(metrics.tensor_to_image, "metrics.image_codec"),
            rewrites.apply_rewrites: self._wrap(rewrites.apply_rewrites, "rewrites.apply_rewrites"),
            rewrites.fuse_equivalence: self._wrap(
                rewrites.fuse_equivalence, "rewrites.fuse_equivalence"
            ),
            archive.load_archive: self._wrap(archive.load_archive, "archive.load_archive"),
            archive.save_archive: self._wrap(archive.save_archive, "archive.save_archive"),
        }
        for fn in (tensor.relu, tensor.add, tensor.mul):
            wrappers[fn] = self._wrap(fn, "tensor.elementwise", _account_elementwise)
        for fn in (tensor.pixel_shuffle, tensor.concat_channels):
            wrappers[fn] = self._wrap(fn, "tensor.layout")
        by_id = {id(fn): w for fn, w in wrappers.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "srkit" and not modname.startswith("srkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, by_id[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _account_graph(self, span, args, result) -> None:
        g, x = args[0], args[1]
        self.graph_runs.append((g, x.h, x.w, span.sub_flops))


def _counter_arg(args, kwargs):
    return args[3] if len(args) > 3 else kwargs.get("counter")


def _with_counter(args, kwargs):
    # Every traced run_graph gets a TrafficCounter, so attention calls report
    # the engine's logical traffic even where the caller passed none.
    if _counter_arg(args, kwargs) is None:
        if len(args) > 3:
            args = (*args[:3], fusion.TrafficCounter(), *args[4:])
        else:
            kwargs = dict(kwargs, counter=fusion.TrafficCounter())
    return args, kwargs


def _account_conv(span, args, out) -> None:
    x, spec = args[0], args[1]
    span.flops = conv_flops(spec, out)
    bias = spec.bias.size if spec.bias is not None else 0
    span.computed_bytes = 4 * (x.numel + spec.weight.size + bias + out.numel)


def _account_elementwise(span, args, out) -> None:
    span.flops = out.numel


def _account_fused(span, args, out) -> None:
    # The fused op does the 1x1 conv, its bias, the add and the mul in one
    # pass; count them as count_flops does for the unfused triple.
    attn, n = args[2], out.numel
    span.flops = attn.in_channels * n + (n if attn.bias is not None else 0) + 2 * n


def _account_branches(span, args, out) -> None:
    group = args[1]
    extra = len(group.branches) - 1 + (1 if group.include_identity else 0)
    span.flops = extra * out.numel  # summing the parallel branch outputs


# -- per-layer metrics ------------------------------------------------------

UNITS = {
    "calls": "count",
    "self_ms": "ms",
    "alloc_mib": "MiB",
    "gflop": "GFLOP",
    "computed_mib": "MiB",
    "traffic_elems": "elem",
    "ms": "ms",
}
LAYERS = {
    **{f"tensor.conv2d.{k}": ("calls", "self_ms", "alloc_mib", "gflop", "computed_mib")
       for k in CONV_KINDS},
    "tensor.elementwise": ("calls", "self_ms", "alloc_mib"),
    "tensor.layout": ("calls", "self_ms", "alloc_mib"),
    "fusion.fused_attention": ("calls", "self_ms", "alloc_mib", "traffic_elems"),
    "fusion.reference_attention": ("calls", "self_ms", "alloc_mib", "traffic_elems"),
    "fusion.train_form": ("calls", "self_ms"),
    "graph.run_graph": ("self_ms",),
    "metrics.image_codec": ("self_ms",),
    "rewrites.apply_rewrites": ("self_ms",),
    "rewrites.fuse_equivalence": ("self_ms",),
    "archive.load_archive": ("ms",),
    "archive.save_archive": ("ms",),
}


def summarize(requests: list[list[Span]], latencies: list[float], setup: list[Span]) -> dict:
    """Per-layer metrics from the spans of each traced request.

    Counts, FLOPs and computed bytes are means per request, self times are
    medians per request, alloc_mib is the largest single-call peak and
    traffic_elems the mean per call. Archive times are per call and include
    the traced set-up, so load_archive is measured on every workload.
    """
    out: dict[str, tuple[float, str]] = {}
    for layer, fields in LAYERS.items():
        mine = [[s for s in spans if s.layer == layer] for spans in requests]
        calls = [s for spans in mine for s in spans]
        for f in fields:
            if f == "calls":
                value = statistics.fmean(len(spans) for spans in mine)
            elif f == "self_ms":
                value = statistics.median(sum(s.self_ns for s in spans) for spans in mine) / 1e6
            elif f == "alloc_mib":
                value = max((s.alloc_bytes for s in calls), default=0) / MIB
            elif f == "gflop":
                value = statistics.fmean(sum(s.flops for s in spans) for spans in mine) / 1e9
            elif f == "computed_mib":
                value = statistics.fmean(sum(s.computed_bytes for s in spans) for spans in mine) / MIB
            elif f == "traffic_elems":
                value = sum(s.traffic for s in calls) / len(calls) if calls else 0.0
            else:  # "ms": whole-call duration, median over calls
                durations = [s.end_ns - s.start_ns for s in calls + [s for s in setup if s.layer == layer]]
                value = statistics.median(durations) / 1e6 if durations else 0.0
            out[f"{layer}.{f}"] = (value, UNITS[f])
    covered = [sum(s.self_ns for s in spans) / 1e9 / lat for spans, lat in zip(requests, latencies)]
    out["trace.coverage"] = (statistics.median(covered), "ratio")
    return out
