"""Dense NCHW tensors and the numeric primitives everything else builds on.

All data is 32-bit float, row-major batch/channel/height/width, accumulated
in 32-bit. Convolution is cross-correlation (no kernel flip) with zero
padding and stride 1, the convention of the mainstream DL frameworks, so
exported weights drop in unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when an operand's shape violates an operation's contract."""


def _as_f32(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float32)
    if not np.isfinite(arr).all() and arr.size:
        # Non-finite weights/activations are always a bug upstream.
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class Tensor:
    """Immutable rank-4 float32 array in (n, c, h, w) layout.

    Takes ownership of `data`: the array (or its float32 contiguous copy) is
    marked read-only, so tensors are safe to share across threads.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 4:
            raise ShapeError(f"tensor must be rank 4 (n,c,h,w), got rank {arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeError(f"tensor extents must all be >= 1, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def numel(self) -> int:
        return self.data.size

    @staticmethod
    def zeros(n: int, c: int, h: int, w: int) -> "Tensor":
        return Tensor(np.zeros((n, c, h, w), dtype=np.float32))

    @staticmethod
    def full(n: int, c: int, h: int, w: int, value: float) -> "Tensor":
        return Tensor(np.full((n, c, h, w), value, dtype=np.float32))


def tensor(values) -> Tensor:
    """Build a Tensor from any nested sequence / ndarray of rank 4 (copies)."""
    return Tensor(np.array(values, dtype=np.float32))


@dataclass(frozen=True)
class ChannelParts:
    """The channel parts of a concat, in order, as one conv2d input that is
    never built: conv2d copies each part's rows into its own channel range.
    The parts must agree in (n, h, w)."""

    parts: tuple[Tensor, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ShapeError("concat_channels: need at least one tensor")
        n, _, h, w = self.parts[0].shape
        for i, p in enumerate(self.parts[1:], start=1):
            if (p.n, p.h, p.w) != (n, h, w):
                raise ShapeError(
                    f"concat_channels: part {i} has (n,h,w)=({p.n},{p.h},{p.w}), "
                    f"expected ({n},{h},{w})"
                )

    @property
    def c(self) -> int:
        return sum(p.c for p in self.parts)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        n, _, h, w = self.parts[0].shape
        return n, self.c, h, w

    @property
    def numel(self) -> int:
        return sum(p.numel for p in self.parts)


@dataclass(frozen=True)
class RowParts:
    """Consecutive row ranges of one plane, top to bottom, as one conv2d
    input that is never built: conv2d copies each part into its own rows of
    the band. Parts are arrays, so rows of a tensor pass without a copy; they
    must agree in (n, c, w)."""

    parts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ShapeError("RowParts: need at least one part")
        n, c, _, w = self.parts[0].shape
        for i, p in enumerate(self.parts):
            if p.ndim != 4 or (p.shape[0], p.shape[1], p.shape[3]) != (n, c, w):
                raise ShapeError(f"RowParts: part {i} has shape {p.shape}, expected ({n},{c},*,{w})")

    @property
    def c(self) -> int:
        return self.parts[0].shape[1]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        n, c, _, w = self.parts[0].shape
        return n, c, sum(p.shape[2] for p in self.parts), w

    @property
    def numel(self) -> int:
        return sum(p.size for p in self.parts)


@dataclass(frozen=True)
class ConvSpec:
    """One convolution layer: geometry plus its weights.

    weight has shape (out_channels, in_channels // groups, kh, kw); bias, when
    present, one value per output channel.
    """

    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    padding: tuple[int, int]
    weight: np.ndarray
    bias: np.ndarray | None = None
    groups: int = 1

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ShapeError(f"groups must be >= 1, got {self.groups}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ShapeError(
                f"channels ({self.in_channels}->{self.out_channels}) not divisible "
                f"by groups={self.groups}"
            )
        kh, kw = self.kernel
        if kh < 1 or kw < 1:
            raise ShapeError(f"kernel extents must be >= 1, got {self.kernel}")
        if min(self.padding) < 0:
            raise ShapeError(f"padding must be >= 0, got {self.padding}")
        want = (self.out_channels, self.in_channels // self.groups, kh, kw)
        w = _as_f32(self.weight, "weight")
        if w.shape != want:
            raise ShapeError(f"weight shape {w.shape} != expected {want}")
        w.flags.writeable = False
        object.__setattr__(self, "weight", w)
        if self.bias is not None:
            b = _as_f32(self.bias, "bias")
            if b.shape != (self.out_channels,):
                raise ShapeError(
                    f"bias shape {b.shape} != ({self.out_channels},) (out_channels)"
                )
            b.flags.writeable = False
            object.__setattr__(self, "bias", b)

    @property
    def param_count(self) -> int:
        return self.weight.size + (self.bias.size if self.bias is not None else 0)

    @staticmethod
    def identity(channels: int) -> "ConvSpec":
        w = np.eye(channels, dtype=np.float32).reshape(channels, channels, 1, 1)
        return ConvSpec(channels, channels, (1, 1), (0, 0), w)


# Floats of strip buffers (band, column block, accumulator) one conv2d call
# aims to hold: 2 MiB of float32, the per-core L2. Sets the strip height, so
# conv memory is bounded by this, not by the image.
_STRIP_FLOATS = 1 << 19

# Bytes of activations one fused run_graph image aims to hold beyond its
# output. An image whose whole-plane run fits runs whole; a larger one runs in
# strips of input rows sized to it (graph.run_graph), so its memory is
# bounded by its width, not its height.
_GRAPH_BYTES = 6 << 20


def strip_height(n: int, spec: ConvSpec, w: int) -> int:
    """Output rows conv2d computes per strip on n images w wide: as many as
    keep its strip buffers (band, column block, accumulator) within
    _STRIP_FLOATS."""
    taps, wp = spec.kernel[0] * spec.kernel[1], w + 2 * spec.padding[1]
    row = wp * (spec.in_channels * (1 + taps * (taps > 1)) + spec.out_channels)
    return max(1, _STRIP_FLOATS // (n * row))


def conv2d(x: Tensor | ChannelParts | RowParts, spec: ConvSpec) -> Tensor:
    """Cross-correlate x with spec's kernel (zero padding, stride 1).

    Output spatial extents are h + 2*ph - kh + 1 by w + 2*pw - kw + 1. x may
    be the parts of a channel or row concat; the result is the conv of their
    concat.
    """
    if x.c != spec.in_channels:
        raise ShapeError(
            f"conv2d: input has {x.c} channels, spec expects {spec.in_channels}"
        )
    n, _, h, w = x.shape
    kh, kw = spec.kernel
    ph, pw = spec.padding
    hout = h + 2 * ph - kh + 1
    wout = w + 2 * pw - kw + 1
    if hout < 1 or wout < 1:
        raise ShapeError(
            f"conv2d: kernel {spec.kernel} does not fit padded input {h}x{w} "
            f"(pad {spec.padding})"
        )
    # The output is computed in strips of `rows` output rows. Each strip copies
    # its rows + kh - 1 input rows into a zero-bordered band; no padded plane
    # is built. Every tap reads one contiguous window of the flat band: an
    # output row is computed Wp wide, so its last kw - 1 columns wrap into the
    # next row and are junk, dropped at write-out. For kw > 1 the last tap's
    # window runs kw - 1 elements past the band, hence one extra row. One
    # strided copy stacks the windows into a column block, and one GEMM per
    # strip contracts it with the weights, whatever `groups` is. A 1x1 conv's
    # one window is the whole band, so its GEMM reads the band in place. All
    # strips have one height, so buffers and views are built once; the last
    # strip ends at the last row, recomputing a few rows of the one before it.
    cin, cout, g = spec.in_channels, spec.out_channels, spec.groups
    cg, taps = cin // g, kh * kw
    wp = w + 2 * pw
    most = strip_height(n, spec, w)
    strips = -(-hout // most)
    rows = -(-hout // strips)
    nb, span = rows + kh - 1 + (kw > 1), rows * wp
    band = np.zeros((n, cin, nb, wp), np.float32)
    interior = band[..., pw : pw + w]
    # each input part fills its own channels and rows of the band; a Tensor is one part
    fills, c0, top = [], 0, 0
    if isinstance(x, RowParts):
        for p in x.parts:
            fills.append((0, cin, top, p))
            top += p.shape[2]
    else:
        for p in x.parts if isinstance(x, ChannelParts) else (x,):
            fills.append((c0, c0 + p.c, 0, p.data))
            c0 += p.c
    sn, sc, sr, se = band.strides
    windows = np.ndarray(  # a strided view of the band; as_strided costs 20 us a call
        (n, g, cg, kh, kw, span), np.float32, band, strides=(sn, cg * sc, sc, sr, se, se)
    )
    cols = band if taps == 1 else np.empty((n, g, cg, kh, kw, span), np.float32)
    gemm_cols = cols.reshape(n, g, cg * taps, span)
    # (g, og, cg * kh * kw) against (n, g, cg * kh * kw, span): K is ordered
    # (channel, dy, dx) on both sides
    weight = spec.weight.reshape(g, cout // g, cg * taps)
    acc = np.empty((n, g, cout // g, span), np.float32)
    acc_valid = acc.reshape(n, cout, rows, wp)[..., :wout]  # junk columns dropped
    bias = 0.0 if spec.bias is None else spec.bias[:, None, None]
    out = np.empty((n, cout, hout, wout), np.float32)
    for i in range(strips):
        r0 = min(i * rows, hout - rows)
        # band row j holds input row r0 - ph + j, zero outside the input; the
        # `a` rows above it still hold zeros, as strips only move down
        a = min(max(ph - r0, 0), nb)
        b = max(min(h + ph - r0, nb), a)
        for c0, c1, top, src in fills:  # src holds input rows top, top + 1, ...
            j0, j1 = max(a, top + ph - r0), min(b, top + src.shape[2] + ph - r0)
            if j0 < j1:
                interior[:, c0:c1, j0:j1] = src[:, :, r0 - ph - top + j0 : r0 - ph - top + j1]
        interior[:, :, b:] = 0.0
        if cols is not band:
            np.copyto(cols, windows)
        np.matmul(weight, gemm_cols, acc)
        np.add(acc_valid, bias, out[:, :, r0 : r0 + rows])
    return Tensor(out)


def relu(x: Tensor) -> Tensor:
    return Tensor(np.maximum(x.data, 0.0))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return Tensor(a.data + b.data)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    return Tensor(a.data * b.data)


def pixel_shuffle(x: Tensor, s: int) -> Tensor:
    """Rearrange s*s channel groups into s x s spatial blocks (depth-to-space).

    Channel c*s*s + k lands at offset (k // s, k % s) inside each block; this
    ordering is what makes a center-tap depthwise kernel followed by the
    shuffle reproduce nearest-neighbor upsampling exactly.
    """
    if s < 1:
        raise ShapeError(f"pixel_shuffle: upscale factor must be >= 1, got {s}")
    if s == 1:
        return x
    n, c, h, w = x.shape
    if c % (s * s):
        raise ShapeError(f"pixel_shuffle: {c} channels not divisible by s^2={s * s}")
    co = c // (s * s)
    d = x.data.reshape(n, co, s, s, h, w)
    out = d.transpose(0, 1, 4, 2, 5, 3).reshape(n, co, h * s, w * s)
    return Tensor(out)


def space_to_depth(x: Tensor, s: int) -> Tensor:
    """Inverse of pixel_shuffle: fold s x s spatial blocks into channels."""
    if s < 1:
        raise ShapeError(f"space_to_depth: factor must be >= 1, got {s}")
    if s == 1:
        return x
    n, c, h, w = x.shape
    if h % s or w % s:
        raise ShapeError(f"space_to_depth: spatial {h}x{w} not divisible by s={s}")
    d = x.data.reshape(n, c, h // s, s, w // s, s)
    out = d.transpose(0, 1, 3, 5, 2, 4).reshape(n, c * s * s, h // s, w // s)
    return Tensor(out)


def concat_channels(parts: list[Tensor]) -> Tensor:
    return Tensor(np.concatenate([p.data for p in ChannelParts(tuple(parts)).parts], axis=1))


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= x.c):
        raise ShapeError(f"slice_channels: [{start}:{stop}] out of range for {x.c} channels")
    return Tensor(x.data[:, start:stop])
