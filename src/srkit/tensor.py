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


Tile = tuple[int, int, np.ndarray]  # (first row, first channel, array)


@dataclass(frozen=True)
class Tiles:
    """An (n, c, h, w) plane held as tiles and never built: each tile's
    array holds its rows and channels of the plane, from its first row and
    first channel on. conv2d copies each tile into its own rows and channels
    of the band it fills anyway, so a concat's channel parts or a streamed
    value's row chunks cost no plane of their own. Tiles must not overlap;
    each must have the plane's n and w and lie inside it, and their channel
    rows must add up to the plane's, so that they cover it."""

    tiles: tuple[Tile, ...]
    shape: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        n, c, h, w = self.shape
        area, boxes = 0, []
        for i, (r0, c0, a) in enumerate(self.tiles):
            fits = a.ndim == 4 and (a.shape[0], a.shape[3]) == (n, w)
            if not (fits and 0 <= r0 <= h - a.shape[2] and 0 <= c0 <= c - a.shape[1]):
                where = f"tile {i} {a.shape} at row {r0}, channel {c0}"
                raise ShapeError(f"Tiles: {where} is outside {self.shape}")
            area += a.shape[1] * a.shape[2]
            r1, c1 = r0 + a.shape[2], c0 + a.shape[1]
            for j, (q0, q1, d0, d1) in enumerate(boxes):  # none for the first tile
                if max(r0, q0) < min(r1, q1) and max(c0, d0) < min(c1, d1):
                    raise ShapeError(
                        f"Tiles: tile {j} (rows {q0}:{q1}, channels {d0}:{d1}) overlaps "
                        f"tile {i} (rows {r0}:{r1}, channels {c0}:{c1})"
                    )
            boxes.append((r0, r1, c0, c1))
        if area != c * h:
            raise ShapeError(f"Tiles: tiles cover {area} of the {c * h} channel rows of {self.shape}")

    @staticmethod
    def of(x: Tensor | Tiles) -> Tiles:
        return x if isinstance(x, Tiles) else Tiles(((0, 0, x.data),), x.shape)

    @staticmethod
    def concat(parts: list[Tensor | Tiles]) -> Tiles:
        """The channel concat of parts, as their tiles relabelled; the parts
        must agree in (n, h, w)."""
        if not parts:
            raise ShapeError("concat_channels: need at least one tensor")
        n, _, h, w = parts[0].shape
        tiles, c = [], 0
        for i, p in enumerate(parts):
            pn, pc, ph, pw = p.shape
            if (pn, ph, pw) != (n, h, w):
                got = f"({pn},{ph},{pw}), expected ({n},{h},{w})"
                raise ShapeError(f"concat_channels: part {i} has (n,h,w)={got}")
            tiles += [(r0, c + c0, a) for r0, c0, a in Tiles.of(p).tiles]
            c += pc
        return Tiles(tuple(tiles), (n, c, h, w))

    @property
    def c(self) -> int:
        return self.shape[1]

    @property
    def numel(self) -> int:
        return sum(a.size for _, _, a in self.tiles)

    def build(self) -> Tensor:
        """The plane as one Tensor; a single tile is passed on as it is."""
        if len(self.tiles) == 1:
            return Tensor(self.tiles[0][2])
        out = np.empty(self.shape, np.float32)
        for r0, c0, a in self.tiles:
            out[:, c0 : c0 + a.shape[1], r0 : r0 + a.shape[2]] = a
        return Tensor(out)


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


def conv2d(x: Tensor | Tiles, spec: ConvSpec) -> Tensor:
    """Cross-correlate x with spec's kernel (zero padding, stride 1).

    Output spatial extents are h + 2*ph - kh + 1 by w + 2*pw - kw + 1. x may
    be a plane held as tiles; the result is the conv of the built plane.
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
    # one window is the whole band, so its GEMM reads the band in place. The
    # strips are as even as _STRIP_FLOATS allows, and buffers and views are
    # built once for them; a shorter last strip uses their leading columns,
    # so no output row is computed twice.
    cin, cout, g = spec.in_channels, spec.out_channels, spec.groups
    cg, taps = cin // g, kh * kw
    wp = w + 2 * pw
    most = max(1, _STRIP_FLOATS // (n * wp * (cin * (1 + taps * (taps > 1)) + cout)))
    rows = -(-hout // -(-hout // most))
    nb, span = rows + kh - 1 + (kw > 1), rows * wp
    band = np.zeros((n, cin, nb, wp), np.float32)
    interior = band[..., pw : pw + w]
    tiles = Tiles.of(x).tiles  # each fills its own rows and channels of the band
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
    for r0 in range(0, hout, rows):
        m = min(rows, hout - r0)
        used = np.s_[..., : m * wp]
        # band row j holds input row r0 - ph + j, zero outside the input; the
        # `a` rows above it still hold zeros, as strips only move down
        a = min(max(ph - r0, 0), nb)
        b = max(min(h + ph - r0, nb), a)
        for top, c0, src in tiles:  # band row j holds src row j + k
            k = r0 - ph - top
            j0, j1 = max(a, -k), min(b, src.shape[2] - k)
            if j0 < j1:
                interior[:, c0 : c0 + src.shape[1], j0:j1] = src[:, :, j0 + k : j1 + k]
        interior[:, :, b:] = 0.0
        if cols is not band:
            np.copyto(cols[used], windows[used])
        np.matmul(weight, gemm_cols[used], acc[used])
        np.add(acc_valid[:, :, :m], bias, out[:, :, r0 : r0 + m])
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
    return Tiles.concat(parts).build()


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= x.c):
        raise ShapeError(f"slice_channels: [{start}:{stop}] out of range for {x.c} channels")
    return Tensor(x.data[:, start:stop])
