"""Fused attention executor and exact re-parameterization rewrites.

Two kinds of "fusion" live here:

* the attention operator y = (x + f3) * (W @ f3 + b), executed either as one
  pass over the spatial grid (fused) or as the literal conv / add / mul
  three-op chain (reference), both with logical memory-traffic accounting;
* weight-level rewrites (kernel composition, LoRA folding, branch collapse)
  that turn a multi-branch or multi-layer linear structure into one plain
  convolution with identical outputs.

Traffic accounting counts element reads/writes of tensor buffers per
execution plan, not hardware cache behavior: a deterministic, machine
independent proxy for the DRAM round-trips the fused operator removes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor import _STRIP_FLOATS, Band, ConvSpec, ShapeError, Tensor, add, conv2d, conv_strips, mul


@dataclass
class TrafficCounter:
    """Logical element accesses (one 32-bit element each) for one run."""

    element_reads: int = 0
    element_writes: int = 0

    def read(self, count: int) -> None:
        self.element_reads += count

    def write(self, count: int) -> None:
        self.element_writes += count

    @property
    def total(self) -> int:
        return self.element_reads + self.element_writes

    def reset(self) -> None:
        self.element_reads = 0
        self.element_writes = 0


@dataclass(frozen=True)
class LoraFactors:
    """Low-rank update delta_W = B @ A for a k x k conv, applied at scale alpha/rank.

    A has shape (rank*k, in_channels*k), B has shape (out_channels*k, rank*k);
    the product reshapes row-major to (out, k, in, k) -> (out, in, k, k).
    """

    a: np.ndarray
    b: np.ndarray
    rank: int
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ShapeError(f"lora rank must be >= 1, got {self.rank}")
        a = np.ascontiguousarray(self.a, dtype=np.float32)
        b = np.ascontiguousarray(self.b, dtype=np.float32)
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError("lora factors must be matrices")
        if b.shape[1] != a.shape[0]:
            raise ShapeError(
                f"lora factors not composable: B is {b.shape}, A is {a.shape}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class BranchGroup:
    """Parallel conv branches (plus optional identity) summed at runtime."""

    branches: tuple[ConvSpec, ...]
    include_identity: bool = False


# --------------------------------------------------------------------------
# attention executor


def _check_attention_operands(x: Tensor, f3: Tensor, attn: ConvSpec) -> None:
    if x.shape != f3.shape:
        raise ShapeError(f"attention: x {x.shape} and f3 {f3.shape} differ")
    if attn.kernel != (1, 1) or attn.groups != 1:
        raise ShapeError(f"attention conv must be 1x1 ungrouped, got {attn.kernel}")
    if attn.in_channels != x.c or attn.out_channels != x.c:
        raise ShapeError(
            f"attention conv is {attn.in_channels}->{attn.out_channels}, "
            f"features have {x.c} channels"
        )


def fused_attention(
    x: Tensor | Band,
    f3: Tensor | Band,
    attn: ConvSpec,
    counter: TrafficCounter | None = None,
    out: Band | None = None,
    ws: np.ndarray | None = None,
) -> Tensor | Band:
    """Single-pass y = (x + f3) * (b + W f3): no intermediate tensor round-trips.

    Plan: per spatial position, the C-vectors of x and f3 are each read once
    and the C outputs written once -> 2N reads + N writes for N = C*H*W. The
    O(C^2) weights are cached, not streamed, and are not counted. The plane
    is computed in the row strips conv_strips gives the gate's 1x1 conv, the
    strips conv2d(f3, attn) runs in reference_attention: each strip's rows
    of f3 are copied into the workspace for its GEMM, one gate buffer is
    reused and y is written once, so no plane holds W f3 + b or x + f3, and
    the output is bitwise reference_attention's whatever the strip budget.
    x and f3 may be Bands; given `out`, a Band (f3's own, for an in-place
    step), y is written there. `ws` is a workspace of at least conv_strips'
    floats, else it allocates its own.
    """
    _check_attention_operands(x, f3, attn)
    n, c, h, w = x.shape
    weight = attn.weight.reshape(c, c)
    bias = 0.0 if attn.bias is None else attn.bias[:, None]
    rows, floats, *_ = conv_strips(n, h, w, attn, None, None)
    if ws is None or ws.size < floats:
        ws = np.empty(floats, np.float32)
    y = np.empty((n, c, h, w), np.float32) if out is None else out.interior
    xa, fa = (v.interior if isinstance(v, Band) else v.data for v in (x, f3))
    for r0 in range(0, h, rows):
        # y overwrites only rows [r0, r1), which later strips never read
        r1 = min(r0 + rows, h)
        fs, gates = ws[: 2 * n * c * (r1 - r0) * w].reshape(2, n, c, (r1 - r0) * w)
        np.copyto(fs.reshape(n, c, r1 - r0, w), fa[:, :, r0:r1])
        np.matmul(weight, fs, out=gates)
        gates += bias
        ys = y[:, :, r0:r1]
        np.add(xa[:, :, r0:r1], fa[:, :, r0:r1], out=ys)
        ys *= gates.reshape(ys.shape)
    if counter is not None:
        numel = x.numel
        counter.read(2 * numel)
        counter.write(numel)
    return Tensor(y) if out is None else out


def reference_attention(
    x: Tensor, f3: Tensor, attn: ConvSpec, counter: TrafficCounter | None = None
) -> Tensor:
    """Three-op reference: conv1x1, add, mul, each materializing its output.

    Plan: conv reads f3 and writes m (N + N), add reads x and f3 and writes
    their sum (2N + N), mul reads both intermediates and writes y (2N + N),
    totalling 5N reads + 3N writes.
    """
    _check_attention_operands(x, f3, attn)
    m = conv2d(f3, attn)
    s = add(x, f3)
    y = mul(s, m)
    if counter is not None:
        numel = x.numel
        counter.read(5 * numel)
        counter.write(3 * numel)
    return y


# --------------------------------------------------------------------------
# weight rewrites


def compose_convs(first: ConvSpec, second: ConvSpec) -> ConvSpec:
    """Collapse conv(second) after conv(first) into one equivalent convolution.

    The composed kernel is the channel-contracted full convolution of the two
    kernels: K[o,i] = sum_m second[o,m] * first[m,i] (kernel extents add up,
    k' = k1 + k2 - 1, paddings add up). The composed bias folds first's bias
    through second's taps: b'_o = b2_o + sum_m b1_m * sum(second[o,m]).

    Equality with sequential execution holds exactly on the interior: with
    zero padding the sequential path zero-fills the intermediate's halo,
    while the composed kernel sees the values a wider intermediate would
    hold, so border rows/cols within second's padding may differ (see
    sequential_extended for the full-plane reference).
    """
    if first.groups != 1 or second.groups != 1:
        raise ShapeError("compose_convs: grouped convolutions are not composable")
    if first.out_channels != second.in_channels:
        raise ShapeError(
            f"compose_convs: first produces {first.out_channels} channels, "
            f"second consumes {second.in_channels}"
        )
    k1h, k1w = first.kernel
    k2h, k2w = second.kernel
    kh, kw = k1h + k2h - 1, k1w + k2w - 1
    weight = np.zeros(
        (second.out_channels, first.in_channels, kh, kw), dtype=np.float32
    )
    for vy in range(k2h):
        for vx in range(k2w):
            taps = second.weight[:, :, vy, vx]  # (out, mid)
            weight[:, :, vy : vy + k1h, vx : vx + k1w] += np.einsum(
                "om,mikl->oikl", taps, first.weight
            )
    bias = None
    if first.bias is not None or second.bias is not None:
        bias = np.zeros(second.out_channels, dtype=np.float32)
        if second.bias is not None:
            bias += second.bias
        if first.bias is not None:
            tap_sums = second.weight.sum(axis=(2, 3))  # (out, mid)
            bias += tap_sums @ first.bias
    return ConvSpec(
        in_channels=first.in_channels,
        out_channels=second.out_channels,
        kernel=(kh, kw),
        padding=(first.padding[0] + second.padding[0], first.padding[1] + second.padding[1]),
        weight=weight,
        bias=bias,
    )


def sequential_extended(first: ConvSpec, second: ConvSpec, x: Tensor) -> Tensor:
    """Run the two convs with the intermediate computed on a widened domain.

    The first conv runs with second's padding added to its own, so the
    intermediate's halo holds true values instead of zero fill; the second
    conv then runs unpadded. This matches the composed conv on the full
    output plane and serves as the exact reference for compose_convs.
    """
    pad = (first.padding[0] + second.padding[0], first.padding[1] + second.padding[1])
    widened, inner = replace(first, padding=pad), replace(second, padding=(0, 0))
    return conv2d(conv2d(x, widened), inner)


def check_lora_factors(base: ConvSpec, lora: LoraFactors) -> None:
    """Raise ShapeError unless B @ A reshapes to an ungrouped kernel of base's
    geometry; checks the factor shapes without forming the product."""
    kh, kw = base.kernel
    if kh != kw:
        raise ShapeError(f"lora requires a square kernel, got {base.kernel}")
    k = kh
    rows, cols = base.out_channels * k, base.in_channels * k
    if lora.b.shape[0] != rows or lora.a.shape[1] != cols:
        raise ShapeError(
            f"lora factors B{lora.b.shape} @ A{lora.a.shape} do not match kernel "
            f"({base.out_channels}, {base.in_channels}, {k}, {k})"
        )
    if lora.a.shape[0] != lora.rank * k:
        raise ShapeError(
            f"lora A has {lora.a.shape[0]} rows, expected rank*k = {lora.rank * k}"
        )


def lora_delta_spec(base: ConvSpec, lora: LoraFactors) -> ConvSpec:
    """The low-rank branch as a bias-free, ungrouped conv with kernel (alpha/r) * B @ A."""
    check_lora_factors(base, lora)
    k = base.kernel[0]
    scale = np.float32(lora.alpha / lora.rank)
    delta = (lora.b @ lora.a) * scale
    kernel = (
        delta.reshape(base.out_channels, k, base.in_channels, k)
        .transpose(0, 2, 1, 3)
        .astype(np.float32)
    )
    return replace(base, weight=kernel, bias=None, groups=1)


def lora_merge(base: ConvSpec, lora: LoraFactors) -> ConvSpec:
    """Fold the low-rank branch into the base weights (bias unchanged)."""
    if base.groups != 1:
        raise ShapeError("lora_merge: grouped base convolutions unsupported")
    return replace(base, weight=base.weight + lora_delta_spec(base, lora).weight)


_COLLAPSE_K = 3


def collapse_branches(branches: list[ConvSpec], include_identity: bool = False) -> ConvSpec:
    """Sum parallel conv branches (and optionally identity) into one 3x3 conv.

    Every branch kernel (odd extents up to 3) is zero-padded to 3x3 around
    its center; the identity contributes a center delta. Because each branch
    runs with same-padding for its own kernel size, the collapsed conv equals
    the branch sum on the full plane, border included.
    """
    if not branches:
        raise ShapeError(
            "collapse_branches: need at least one conv branch (identity alone "
            "does not determine the channel count)"
        )
    ref = branches[0]
    for i, b in enumerate(branches):
        if (b.in_channels, b.out_channels, b.groups) != (
            ref.in_channels,
            ref.out_channels,
            ref.groups,
        ):
            raise ShapeError(
                f"collapse_branches: branch {i} is "
                f"{b.in_channels}->{b.out_channels} (groups={b.groups}), expected "
                f"{ref.in_channels}->{ref.out_channels} (groups={ref.groups})"
            )
        kh, kw = b.kernel
        if kh > _COLLAPSE_K or kw > _COLLAPSE_K or kh % 2 == 0 or kw % 2 == 0:
            raise ShapeError(
                f"collapse_branches: branch {i} kernel {b.kernel} not odd and <= 3x3"
            )
        if b.padding != (kh // 2, kw // 2):
            raise ShapeError(
                f"collapse_branches: branch {i} must use same-padding, "
                f"got kernel {b.kernel} with padding {b.padding}"
            )
    cin, cout, groups = ref.in_channels, ref.out_channels, ref.groups
    weight = np.zeros((cout, cin // groups, _COLLAPSE_K, _COLLAPSE_K), dtype=np.float32)
    for b in branches:
        kh, kw = b.kernel
        oy, ox = (_COLLAPSE_K - kh) // 2, (_COLLAPSE_K - kw) // 2
        weight[:, :, oy : oy + kh, ox : ox + kw] += b.weight
    if include_identity:
        if cin != cout:
            raise ShapeError(
                f"collapse_branches: identity branch needs in == out, got {cin}->{cout}"
            )
        # output channel o's identity tap reads input channel o, its group's o % cg
        cg = cin // groups
        weight[np.arange(cout), np.arange(cout) % cg, 1, 1] += 1.0
    bias = None
    if any(b.bias is not None for b in branches):
        bias = np.zeros(cout, dtype=np.float32)
        for b in branches:
            if b.bias is not None:
                bias += b.bias
    return ConvSpec(
        in_channels=cin,
        out_channels=cout,
        kernel=(_COLLAPSE_K, _COLLAPSE_K),
        padding=(1, 1),
        weight=weight,
        bias=bias,
        groups=groups,
    )


def branch_forward(x: Tensor, group: BranchGroup) -> Tensor:
    """Training-form execution of a branch group: sum of branch outputs."""
    acc: np.ndarray | None = None
    for b in group.branches:
        y = conv2d(x, b)
        acc = y.data.copy() if acc is None else acc + y.data
    if group.include_identity:
        acc = x.data.copy() if acc is None else acc + x.data
    return Tensor(acc)


def lora_forward(x: Tensor, base: ConvSpec, lora: LoraFactors) -> Tensor:
    """Training-form execution of a LoRA conv: base output + branch output."""
    return add(conv2d(x, base), conv2d(x, lora_delta_spec(base, lora)))


def max_errors(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> tuple[float, float]:
    """Max absolute difference, and that max relative to b's peak magnitude.

    The difference is taken in float64, in blocks of at most _STRIP_FLOATS
    elements through one float64 buffer (a contiguous operand is read in
    place), and the blocks' maxima are kept with np.maximum, so a NaN in
    either operand comes through as NaN. Operands of different shapes raise
    ShapeError; they are never broadcast.
    """
    da = a.data if isinstance(a, Tensor) else np.asarray(a)
    db = b.data if isinstance(b, Tensor) else np.asarray(b)
    if da.shape != db.shape:
        raise ShapeError(f"max_errors: operand shapes differ: {da.shape} vs {db.shape}")
    fa, fb = da.reshape(-1), db.reshape(-1)
    buf = np.empty(min(_STRIP_FLOATS, fa.size), np.float64)
    diff = scale = 0.0
    for i in range(0, fa.size, _STRIP_FLOATS):
        ba, bb = fa[i : i + _STRIP_FLOATS], fb[i : i + _STRIP_FLOATS]
        block = buf[: ba.size]
        np.subtract(ba, bb, out=block, dtype=np.float64)
        diff = np.maximum(diff, np.abs(block, out=block).max())
        scale = np.maximum(scale, np.abs(bb, out=block).max())
    diff, scale = float(diff), float(scale)
    return diff, diff / max(scale, 1e-12)
