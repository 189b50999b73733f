"""Dense NCHW tensors and the numeric primitives everything else builds on.

All data is 32-bit float, row-major batch/channel/height/width, accumulated
in 32-bit. Convolution is cross-correlation (no kernel flip) with zero
padding and stride 1, the convention of the mainstream DL frameworks, so
exported weights drop in unchanged.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import product
from math import prod

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


class Band:
    """Rows [r0, r0 + h) of a zero-bordered float32 buffer of shape
    (n, c, rows, w + 2 * pad), as an (n, c, h, w) plane.

    Columns [pad, pad + w) of a row hold the plane's row and the `pad`
    columns on each side are zero, so a conv whose column padding is `pad`
    reads its tap windows from the buffer in place, and elementwise ops run
    over whole rows, zeros included. Rows past r0 + h are there for the
    flat tap windows and writes that run over the last row. The shape,
    numel and so on are the plane's, never the buffer's.
    """

    __slots__ = ("buf", "r0", "h", "pad", "c", "w", "shape", "numel")

    def __init__(self, buf: np.ndarray, r0: int, h: int, pad: int) -> None:
        n, c, _, wb = buf.shape
        self.buf, self.r0, self.h, self.pad = buf, r0, h, pad
        self.c, self.w = c, wb - 2 * pad
        self.shape = (n, c, h, self.w)
        self.numel = n * c * h * self.w

    @property
    def rows(self) -> np.ndarray:
        """The plane's rows, zero columns included."""
        return self.buf[:, :, self.r0 : self.r0 + self.h]

    @property
    def interior(self) -> np.ndarray:
        """The plane itself, a strided view."""
        return self.rows[..., self.pad : self.buf.shape[3] - self.pad]


@dataclass(frozen=True)
class Tiles:
    """An (n, c, h, w) plane held as its channel parts, in channel order,
    and never built. conv2d copies each part into its own channels of the
    band it fills, so a concat's parts cost no plane of their own. Each part
    must have the plane's n, h and w, and their channels must add up to the
    plane's."""

    tiles: tuple[np.ndarray, ...]
    shape: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        n, c, h, w = self.shape
        for i, a in enumerate(self.tiles):
            if a.ndim != 4 or (a.shape[0], *a.shape[2:]) != (n, h, w):
                raise ShapeError(f"Tiles: part {i} {a.shape} does not have the (n, h, w) of {self.shape}")
        held = sum(a.shape[1] for a in self.tiles)
        if held != c:
            raise ShapeError(f"Tiles: parts hold {held} of the {c} channels of {self.shape}")

    @staticmethod
    def of(x: Tensor | Tiles | Band) -> Tiles:
        if isinstance(x, Tiles):
            return x
        return Tiles((x.interior if isinstance(x, Band) else x.data,), x.shape)

    @staticmethod
    def concat(parts: list[Tensor | Tiles]) -> Tiles:
        """The channel concat of parts, as their parts in turn; the parts
        must agree in (n, h, w)."""
        if not parts:
            raise ShapeError("concat_channels: need at least one tensor")
        n, _, h, w = parts[0].shape
        for i, p in enumerate(parts):
            pn, _, ph, pw = p.shape
            if (pn, ph, pw) != (n, h, w):
                got = f"({pn},{ph},{pw}), expected ({n},{h},{w})"
                raise ShapeError(f"concat_channels: part {i} has (n,h,w)={got}")
        tiles = tuple(a for p in parts for a in Tiles.of(p).tiles)
        return Tiles(tiles, (n, sum(p.c for p in parts), h, w))

    @property
    def c(self) -> int:
        return self.shape[1]

    @property
    def numel(self) -> int:
        return sum(a.size for a in self.tiles)

    def build(self) -> Tensor:
        """The plane as one Tensor; a single part is passed on as it is."""
        return Tensor(self.tiles[0] if len(self.tiles) == 1 else np.concatenate(self.tiles, axis=1))


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


# Floats of L2 one kernel's strip of one image may fill with what shares
# the cache while its GEMM runs: the input rows it reads, its column block,
# the BLAS's packed copy of that block and the output rows it writes (the
# blocking rule of Goto and van de Geijn, ACM TOMS 2008). It sets conv2d's
# strip height, whatever the batch, and so fused_attention's, which runs
# its gate conv's strips, so their memory per image is bounded by it, not
# by the image; and tensor_to_image's row block. 1.5 MiB of float32, three quarters of the
# 2 MiB per-core L2 of the host it was swept on, where it ran 32->32 3x3
# convs at 256 px wide fastest (2-row strips; sweep in CHANGES.md). Each
# thread of a split conv2d call runs strips of this height in its own
# core's L2.
_STRIP_FLOATS = 3 << 17


# Threads the engine runs one request on: the caller and the workers of
# _pool, which run a conv2d call's strips or a fused run's odd strips (see
# graph._stream). Set from the cores this process may run on (all of them
# where the platform cannot say which), never from an input; lowering it
# (to 1: one thread) takes effect at the next call.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _openblas() -> tuple | None:
    """set_num_threads, get_num_threads and get_corename of the first OpenBLAS
    mapped into this process (numpy's), under scipy-openblas's names or else
    OpenBLAS's own; None where there is none or no /proc/self/maps."""
    try:
        with open("/proc/self/maps") as fh:
            libs = [ctypes.CDLL(p) for p in sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})]
    except OSError:
        return None
    for lib, prefix, suffix in product(libs, ("scipy_openblas_", "openblas_"), ("64_", "")):
        if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
            fns = [getattr(lib, f"{prefix}{name}{suffix}") for name in ("set_num_threads", "get_num_threads", "get_corename")]
            for fn, argtypes, restype in zip(fns, ([ctypes.c_int], [], []), (None, ctypes.c_int, ctypes.c_char_p)):
                fn.argtypes, fn.restype = argtypes, restype
            return tuple(fns)
    return None


# OpenBLAS runs each GEMM on one thread, set once for the process when this
# module loads: the engine's _WORKERS threads do the parallel work, and on a
# 2-vCPU host OpenBLAS's threads beside them ran a 256^2 request 1.4-1.6x
# slower. Setting OPENBLAS_NUM_THREADS here would do nothing: OpenBLAS read it
# when numpy loaded it.
_set_blas_threads, _get_blas_threads, _get_blas_core = _openblas() or (None, None, None)
if _set_blas_threads is not None:
    _set_blas_threads(1)


def blas_threads() -> int | None:
    """The threads OpenBLAS reports it runs a GEMM on (1); None without OpenBLAS."""
    return None if _get_blas_threads is None else _get_blas_threads()


def blas_core() -> str | None:
    """The kernel set OpenBLAS runs, such as "SkylakeX"; None without OpenBLAS."""
    return None if _get_blas_core is None else _get_blas_core().decode()


# Strips each thread of a split conv2d call runs at least. On the 2-core
# host it was measured on, handing a run to the worker and waiting for it
# took 34-50 us, and a 2-row strip of a 32->32 3x3 conv at 256 px wide
# 230 us; split, such a call of 2, 3, 4 and 10 strips ran in 0.97, 0.95,
# 0.86 and 0.79 of its one-thread time, a 112->28 1x1 conv of 2, 3 and 4
# strips in 1.06, 0.96 and 0.89 (sweep in CHANGES.md).
_SPLIT_STRIPS = 2

_pool_lock = threading.Lock()
_pools: list[ThreadPoolExecutor] = []


def _pool() -> ThreadPoolExecutor:
    """The process's one pool of _WORKERS - 1 threads, started by the first
    split conv2d call or run of two strips in flight; it starts no process."""
    with _pool_lock:
        if not _pools:
            _pools.append(ThreadPoolExecutor(_WORKERS - 1, "srkit-conv"))
        return _pools[0]


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_pools.clear)


def _runs(spec: ConvSpec, hout: int, rows: int, workers: int) -> list[tuple[int, int]]:
    """The output rows [a, b) each thread of a conv2d call of hout rows in
    strips of `rows` runs: contiguous runs of whole strips, the caller's
    first and longest, on as many of `workers` threads as each get at
    least _SPLIT_STRIPS strips, at least one. A grouped conv's GEMM is a
    batch of small products, and split they ran slower (a 32-channel
    depthwise 3x3 conv at 256 px wide in 1.2-1.5 times its one-thread
    time), so a grouped conv runs on one."""
    strips = -(-hout // rows)
    k = max(1, min(workers if spec.groups == 1 else 1, strips // _SPLIT_STRIPS))
    cuts = [-(-strips * i // k) * rows for i in range(k)] + [hout]
    return list(zip(cuts, cuts[1:]))


def conv_strips(
    n: int, hout: int, w: int, spec: ConvSpec, src_pad: int | None, dst_pad: int | None, workers: int = 1
) -> tuple[int, int, bool, bool, bool]:
    """How a conv2d call making hout rows of an n x w input runs, when its
    input is a band of src_pad zero columns a side and its output one of
    dst_pad (None: not one band): (strip rows, as many as _STRIP_FLOATS
    allows one image and as even as can be, whatever n, so each image of
    a batch runs the GEMMs it runs alone; workspace floats, whether it
    reads its tap windows from the input band in place, whether it writes
    its rows straight into the output band, whether its GEMM adds the
    bias). The workspace is the weights with their bias column, read by
    every thread, and for each thread of the call's _runs on at most
    `workers`: the column block, plus the band it fills when it does not
    read one in place, plus the accumulator when it does not write into a
    band."""
    (kh, kw), (ph, pw) = spec.kernel, spec.padding
    cin, cout, taps, wp = spec.in_channels, spec.out_channels, kh * kw, w + 2 * pw
    # _STRIP_FLOATS over what one image's strip puts in L2, Wp floats a
    # row: its rows + kh - 1 (+1) input rows; per output row, a column block
    # row (a 1x1 conv has none, its GEMM reads the input rows), the packed
    # copy of what the GEMM reads and an output row
    halo = cin * (kh - 1 + (kw > 1))
    most = max(1, (_STRIP_FLOATS // wp - halo) // (cin * (1 + taps * (1 + (taps > 1))) + cout))
    rows = -(-hout // -(-hout // most))
    # in place when the band's zero columns are the column padding and
    # there is no row padding; direct when its zero columns take the junk
    in_place, direct = src_pad == pw and ph == 0, dst_pad is not None and 2 * dst_pad == kw - 1
    fold = taps > 1 and spec.groups == 1 and spec.bias is not None
    band = (not in_place) * cin * (rows + kh - 1 + (kw > 1))
    cols = (taps > 1) * (cin * taps + fold) * rows
    own = n * wp * (band + cols + (not direct) * cout * rows)
    floats = len(_runs(spec, hout, rows, workers)) * own + fold * cout * (cin * taps + 1)
    return rows, floats, in_place, direct, fold


def conv2d(
    x: Tensor | Tiles | Band,
    spec: ConvSpec,
    out: Band | None = None,
    ws: np.ndarray | None = None,
    workers: int = 1,
) -> Tensor | Band:
    """Cross-correlate x with spec's kernel (zero padding, stride 1).

    Output spatial extents are h + 2*ph - kh + 1 by w + 2*pw - kw + 1. x may
    be a plane held as channel parts (Tiles) or a Band; the result is the
    conv of the plane.
    Given `out`, a Band of the output's shape, the rows are written into it
    and it is returned. It runs its strips on at most min(workers,
    _WORKERS) threads (see _runs), to the same bits as on one; `ws` is a
    float32 workspace of at least conv_strips' floats for this call's
    operands on those threads, else conv2d allocates its own.
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
    cin, cout, g = spec.in_channels, spec.out_channels, spec.groups
    if out is not None and out.shape != (n, cout, hout, wout):
        raise ShapeError(f"conv2d: output band {out.shape} != {(n, cout, hout, wout)}")
    # The output is computed in strips of `rows` output rows, each from a
    # zero-bordered band of its rows + kh - 1 input rows, Wp = w + 2*pw wide.
    # Every tap reads one contiguous window of the flat band: an output row
    # is computed Wp wide, so its last kw - 1 columns wrap into the next row
    # and are junk. For kw > 1 the last tap's window runs kw - 1 elements
    # past the band's rows, hence one more row. A Band input with the conv's
    # column padding and no row padding is that band already and is read in
    # place; any other input is copied into a band in the workspace, zero
    # rows for the row padding. One strided copy stacks the windows into a
    # column block, and one GEMM per strip contracts it with the weights,
    # whatever `groups` is; an ungrouped kernel of more than one tap with a
    # bias has it as one more weight column, against a row of ones in the
    # column block, so the GEMM adds it and its rows need no second pass. A
    # 1x1 conv's one window is the band itself.
    # When `out` is a band whose zero columns are the junk columns (kw - 1
    # = 2 * out.pad, so its rows are Wp wide too), the GEMM writes its rows
    # there and the junk is re-zeroed; otherwise it writes an accumulator,
    # and the write-out drops the junk. The strips are as even as
    # _STRIP_FLOATS allows; a shorter last strip uses the buffers' leading
    # columns, so no output row is computed twice.
    # Split, the strips run in contiguous runs, one a thread, each with its
    # own band, column block and accumulator; every strip's GEMM has the
    # shape it has on one thread, and the threads write disjoint rows (the
    # junk a run's last GEMM writes into the next row's left zero columns
    # lies before the next run's first GEMM row).
    cg, og, taps, wp = cin // g, cout // g, kh * kw, w + 2 * pw
    src_pad = x.pad if type(x) is Band else None
    workers = min(workers, _WORKERS)
    rows, floats, in_place, direct, fold = conv_strips(
        n, hout, w, spec, src_pad, None if out is None else out.pad, workers
    )
    if ws is None or ws.size < floats:
        ws = np.empty(floats, np.float32)
    runs = _runs(spec, hout, rows, workers)
    shared = fold * cout * (cg * taps + 1)  # the folded weights
    own = (floats - shared) // len(runs)  # one thread's buffers
    bias = None if fold else spec.bias
    # (g, og, cg * kh * kw) against (n, g, cg * kh * kw, span): K is ordered
    # (channel, dy, dx) on both sides
    weight = spec.weight.reshape(g, og, cg * taps)
    if fold:  # the bias as one more column
        folded = ws[:shared].reshape(1, cout, cg * taps + 1)
        folded[..., :-1], folded[..., -1] = weight, spec.bias
        weight = folded
    if direct:
        dst = out.buf.reshape(n, g, og, -1)
        if bias is not None:
            bias = bias.reshape(g, og, 1)
    else:
        bias = 0.0 if bias is None else bias[:, None, None]
        y = out.interior if out is not None else np.empty((n, cout, hout, wout), np.float32)
    nb = rows + kh - 1 + (kw > 1)

    def run(lo: int, hi: int, ws: np.ndarray) -> None:
        # output rows [lo, hi) in strips, with this thread's buffers in ws
        used = 0

        def take(*shape: int) -> np.ndarray:
            nonlocal used
            used += prod(shape)
            return ws[used - prod(shape) : used].reshape(shape)

        if in_place:
            src = x.buf  # a strip's input rows start at buffer row x.r0 + r0
        else:
            src = take(n, cin, nb, wp)  # refilled per strip
            src[:] = 0.0
            interior = src[..., pw : pw + w]
            parts, c0 = [], 0  # each part, and its channels of the band
            for part in Tiles.of(x).tiles:
                parts.append((interior[:, c0 : c0 + part.shape[1]], part))
                c0 += part.shape[1]
        sn, sc, sr, se = src.strides
        if taps > 1:
            cols = take(n, g, cg * taps + fold, rows * wp)
            cols[:, :, cg * taps :] = 1.0  # the bias's row, if it has one
            stack = cols[:, :, : cg * taps].reshape(n, g, cg, kh, kw, rows * wp)
        if not direct:
            acc = take(n, g, og, rows * wp)
            acc_valid = acc.reshape(n, cout, rows, wp)[..., :wout]  # junk columns dropped
        for r0 in range(lo, hi, rows):
            m = min(rows, hout - r0)
            if not in_place:
                # band row j holds input row r0 - ph + j, zero outside the input;
                # the `a` rows above it still hold zeros, as strips only move down
                a = min(max(ph - r0, 0), nb)
                b = max(min(h + ph - r0, nb), a)
                for channels, part in parts:
                    channels[:, :, a:b] = part[:, :, r0 - ph + a : r0 - ph + b]
                interior[:, :, b:] = 0.0
            base = (x.r0 + r0) * wp if in_place else 0
            if taps == 1:
                gemm_cols = src.reshape(n, g, cg, -1)[..., base : base + m * wp]
            else:
                windows = np.ndarray(  # a strided view; as_strided costs 20 us a call
                    (n, g, cg, kh, kw, m * wp), np.float32, src, base * se,
                    (sn, cg * sc, sc, sr, se, se),
                )
                np.copyto(stack[..., : m * wp], windows)
                gemm_cols = cols[..., : m * wp]
            if direct:
                start = (out.r0 + r0) * wp + out.pad
                rows_out = dst[..., start : start + m * wp]
                np.matmul(weight, gemm_cols, rows_out)
                if bias is not None:
                    rows_out += bias
                # each row's junk is the right zero columns of its own row and
                # the left ones of the next
                rows_out.reshape(n, cout, m, wp)[..., wout:] = 0.0
            else:
                np.matmul(weight, gemm_cols, acc[..., : m * wp])
                np.add(acc_valid[:, :, :m], bias, y[:, :, r0 : r0 + m])

    mine = [ws[shared + i * own : shared + (i + 1) * own] for i in range(len(runs))]
    jobs = [_pool().submit(run, *runs[i], mine[i]) for i in range(1, len(runs))]
    try:
        run(*runs[0], mine[0])
    finally:
        wait(jobs)  # the caller returns or raises only once every thread has stopped
    for job in jobs:
        job.result()  # a thread's error, raised here
    return out if out is not None else Tensor(y)


def _operands(out: Band, *xs: Band) -> list[np.ndarray]:
    """What an elementwise op on bands writes and reads: whole rows when
    every operand has out's columns, so zero columns stay zero, else the
    planes alone."""
    for x in xs:
        if x.shape != out.shape:
            raise ShapeError(f"shape mismatch {x.shape} vs {out.shape}")
    if all(x.pad == out.pad for x in xs):
        return [b.rows for b in (out, *xs)]
    return [b.interior for b in (out, *xs)]


def relu(x: Tensor | Band, out: Band | None = None) -> Tensor | Band:
    """max(x, 0); given `out`, a Band (x's own for an in-place relu), x is a
    Band and the result is written there."""
    if out is None:
        return Tensor(np.maximum(x.data, 0.0))
    o, a = _operands(out, x)
    np.maximum(a, 0.0, out=o)
    return out


def add(a: Tensor | Band, b: Tensor | Band, out: Band | None = None) -> Tensor | Band:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    if out is None:
        return Tensor(a.data + b.data)
    o, p, q = _operands(out, a, b)
    np.add(p, q, out=o)
    return out


def mul(a: Tensor | Band, b: Tensor | Band, out: Band | None = None) -> Tensor | Band:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    if out is None:
        return Tensor(a.data * b.data)
    o, p, q = _operands(out, a, b)
    np.multiply(p, q, out=o)
    return out


def pixel_shuffle(x: Tensor | Band, s: int, out: np.ndarray | None = None) -> Tensor | Band | np.ndarray:
    """Rearrange s*s channel groups into s x s spatial blocks (depth-to-space).

    Channel c*s*s + k lands at offset (k // s, k % s) inside each block; this
    ordering is what makes a center-tap depthwise kernel followed by the
    shuffle reproduce nearest-neighbor upsampling exactly. A Band is read in
    place; given `out`, an (n, c / s^2, h * s, w * s) array (a view of a
    bigger plane's rows, say), the result is written there and out returned.
    """
    if s < 1:
        raise ShapeError(f"pixel_shuffle: upscale factor must be >= 1, got {s}")
    if s == 1 and out is None:
        return x
    n, c, h, w = x.shape
    if c % (s * s):
        raise ShapeError(f"pixel_shuffle: {c} channels not divisible by s^2={s * s}")
    co = c // (s * s)
    src = (x.interior if isinstance(x, Band) else x.data).reshape(n, co, s, s, h, w)
    y = np.empty((n, co, h * s, w * s), np.float32) if out is None else out
    # one copy per column offset sx, reading runs of w contiguous source
    # values and writing them s apart; one copy of the whole transposed
    # view read each output row's values from s source planes in turn
    y6 = y.reshape(n, co, h, s, w, s)
    for sx in range(s):
        y6[..., sx] = src[:, :, :, sx].transpose(0, 1, 3, 2, 4)
    return Tensor(y) if out is None else out


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
