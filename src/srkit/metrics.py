"""Measurement protocol: PSNR with border discard, complexity counts, timing.

Conventions pinned here:
* PSNR runs on 8-bit RGB after rounding/clamping, discards a fixed border on
  every side, and caps identical images at 100 dB.
* FLOPs count one per multiply-accumulate, plus one per bias add and one per
  elementwise op (the flops rules of graph.OPS). The demo models' counts
  under it are within 2% of the published G-counts they mimic, not equal
  (README states the gaps).
* Runtime numbers are machine-relative and never part of hard acceptance.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor
from .graph import OPS, ModelGraph, infer_shapes, run_graph, strips_in_flight
from .tensor import _STRIP_FLOATS, ShapeError, Tensor

PSNR_CAP_DB = 100.0


def psnr(pred: np.ndarray, gt: np.ndarray, border: int = 4) -> float:
    """Peak signal-to-noise ratio between 8-bit RGB images, in decibels.

    `border` pixels are discarded on each side before the MSE; identical
    crops return the 100 dB cap. Only uint8 images are taken. The squared
    errors are summed in float64 over blocks of rows through one buffer of
    at most _STRIP_FLOATS floats. Each is an integer of at most 255^2, so
    every partial sum is an exact integer below 2^53 (for crops under 4.6e10
    pixels) and the MSE is the whole-crop mean's, whatever the blocks.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    for img in (pred, gt):
        if img.dtype != np.uint8:
            raise ValueError(f"psnr: expected uint8 images, got {img.dtype}")
    if pred.shape != gt.shape:
        raise ValueError(f"psnr: image shapes differ: {pred.shape} vs {gt.shape}")
    if pred.ndim != 3 or pred.shape[2] != 3:
        raise ValueError(f"psnr: expected (h, w, 3) images, got {pred.shape}")
    if border < 0:
        raise ValueError(f"psnr: border must be >= 0, got {border}")
    h, w, _ = pred.shape
    if h <= 2 * border or w <= 2 * border:
        raise ValueError(
            f"psnr: image {h}x{w} smaller than 2*border+1 = {2 * border + 1}"
        )
    if border:
        pred = pred[border:-border, border:-border]
        gt = gt[border:-border, border:-border]
    h, w, c = pred.shape
    rows = max(1, _STRIP_FLOATS // (w * c))
    buf = np.empty((min(rows, h), w, c), np.float64)
    total = 0.0
    for r0 in range(0, h, rows):
        a, b = pred[r0 : r0 + rows], gt[r0 : r0 + rows]
        block = np.subtract(a, b, out=buf[: len(a)], dtype=np.float64)
        total += float(np.multiply(block, block, out=block).sum())
    mse = total / pred.size
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(255.0**2 / mse))


def image_to_tensor(img: np.ndarray) -> Tensor:
    """(h, w, 3) uint8 -> (1, 3, h, w) float in [0, 1].

    Each channel is divided by float32 255 straight into its plane of the
    one float32 array the tensor keeps, so no other float plane is built.
    """
    img = np.asarray(img)
    h, w, c = img.shape
    arr = np.empty((1, c, h, w), np.float32)
    for k in range(c):
        np.divide(img[:, :, k], np.float32(255.0), out=arr[0, k], dtype=np.float32)
    return Tensor(arr)


def tensor_to_image(t: Tensor) -> np.ndarray:
    """(1, 3, h, w) float in [0, 1] -> rounded, clamped (h, w, 3) uint8.

    Works in blocks of rows through one float buffer of at most the conv
    strip budget, so no float plane the size of the image is built. Raises
    ValueError on a NaN, which has no pixel value; +-inf clamps to 0 or 255.
    """
    if t.shape[:2] != (1, 3):
        raise ShapeError(f"tensor_to_image: expects one 3-channel image (1, 3, h, w), got {t.shape}")
    _, c, h, w = t.shape
    img = np.empty((c, h, w), np.uint8)
    rows = max(1, _STRIP_FLOATS // (c * w))
    buf = np.empty((c, min(rows, h), w), np.float32)
    for r0 in range(0, h, rows):
        src = t.data[0, :, r0 : r0 + rows]
        block = np.clip(src, 0.0, 1.0, out=buf[:, : src.shape[1]])  # scaled in place
        if np.isnan(block.max()):  # checked while the block is in cache
            raise ValueError(f"tensor_to_image: the image has NaN values in rows {r0}-{r0 + block.shape[1] - 1}")
        block *= 255.0
        img[:, r0 : r0 + rows] = np.rint(block, out=block)
    return img.transpose(1, 2, 0)


# --------------------------------------------------------------------------
# complexity counting


def count_params(g: ModelGraph) -> int:
    """Total weight and bias element count over all layers (live form)."""
    return sum(arr.size for n in g.nodes for _, arr in n.tensors())


def count_flops(g: ModelGraph, h: int = 256, w: int = 256) -> int:
    """FLOPs for one (1, c, h, w) forward pass, one FLOP per MAC.

    Elementwise ops cost one per output element; concat and depth-to-space
    are free (pure data movement). Fusion changes memory traffic, never this
    count.
    """
    shapes = infer_shapes(g, h, w)
    return sum(OPS[n.op].flops(n, shapes[n.name]) for n in g.nodes)


# --------------------------------------------------------------------------
# runtime


@dataclass
class RuntimeStats:
    """What bench_runtime measured, and the threads and BLAS that ran it;
    `threads` is read back from OpenBLAS, which the engine pins to one."""

    per_image_ms: list[float]  # each image's mean over its reps
    per_image_min_ms: list[float]
    per_image_median_ms: list[float]
    per_image_iqr_ms: list[float]  # upper minus lower quartile of the reps
    mean_ms: float
    median_ms: float
    peak_mib: float  # largest run_graph allocation peak over the images
    mode: str
    engine_threads: int  # threads a fused run could use: 1 unfused, which runs on one
    strips_in_flight: int  # the most strips a run had in flight, 1 or 2 (graph.strips_in_flight); 1 unfused
    threads: int | None  # threads OpenBLAS reported after the runs; None without OpenBLAS
    blas: str | None  # "name version" of the BLAS numpy was built with
    blas_core: str | None  # the kernel set OpenBLAS runs, such as "SkylakeX"; None without OpenBLAS

    def to_dict(self) -> dict:
        return asdict(self)


def _blas_in_use() -> str | None:
    """Name and version of numpy's BLAS from its build config, or None when
    this numpy cannot report it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # show_config has no dict mode before numpy 1.26
        return None


def _peak_mib(g: ModelGraph, x: Tensor, mode: str) -> float:
    """tracemalloc peak of one run_graph above the memory held before it, in
    MiB; the output counts, as the caller holds it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_graph(g, x, mode=mode)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


@contextmanager
def _thread_limit(threads: int | None):
    """Cap the engine's threads (tensor._WORKERS) at `threads` for the block."""
    workers = tensor._WORKERS
    tensor._WORKERS = min(workers, threads or workers)
    try:
        yield
    finally:
        tensor._WORKERS = workers


def bench_runtime(
    g: ModelGraph,
    images: list[Tensor],
    warmup: int = 1,
    reps: int = 3,
    mode: str = "unfused",
    threads: int | None = 1,
) -> RuntimeStats:
    """Per-image wall-clock of running the graph, after discarded warmups.

    Each image's figure is the mean of `reps` timed runs, the one the
    challenge averages; its min, median and interquartile range are reported
    beside it. One more, untimed run per image measures memory: peak_mib is
    the largest tracemalloc peak of those runs above the memory held before
    each. `threads` caps the engine's threads, which run a fused run's two
    strips in flight or a conv's strips (one by default; None, no cap).
    OpenBLAS runs each GEMM on one thread whatever `threads` is, as the
    engine set it when it loaded. The stats report the engine threads the
    runs had, the strips they had in flight, the BLAS in use, and the
    thread count and kernel set OpenBLAS reports; timings are reported,
    never asserted.
    """
    if reps < 1:
        raise ValueError(f"bench_runtime: reps must be >= 1, got {reps}")
    if warmup < 0:
        raise ValueError(f"bench_runtime: warmup must be >= 0, got {warmup}")
    if threads is not None and threads < 1:
        raise ValueError(f"bench_runtime: threads must be >= 1, got {threads}")
    if not images:
        raise ValueError("bench_runtime: empty image list")
    per_image: list[list[float]] = []
    peak = 0.0
    with _thread_limit(threads):
        engine = tensor._WORKERS if mode == "fused" else 1
        flight = max(strips_in_flight(g, img.h, img.w) for img in images) if mode == "fused" else 1
        for img in images:
            for _ in range(warmup):
                run_graph(g, img, mode=mode)
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                run_graph(g, img, mode=mode)
                times.append((time.perf_counter() - t0) * 1000.0)
            per_image.append(times)
            peak = max(peak, _peak_mib(g, img, mode))
    means = [statistics.mean(t) for t in per_image]
    quartiles = [np.percentile(t, [25, 75]) for t in per_image]
    return RuntimeStats(
        per_image_ms=means,
        per_image_min_ms=[min(t) for t in per_image],
        per_image_median_ms=[statistics.median(t) for t in per_image],
        per_image_iqr_ms=[float(q3 - q1) for q1, q3 in quartiles],
        mean_ms=statistics.mean(means),
        median_ms=statistics.median(means),
        peak_mib=peak,
        mode=mode,
        engine_threads=engine,
        strips_in_flight=flight,
        threads=tensor.blas_threads(),
        blas=_blas_in_use(),
        blas_core=tensor.blas_core(),
    )


def average_set_runtimes(set_means_ms: list[float]) -> float:
    """The challenge's "Ave." column: plain mean of per-set mean runtimes."""
    if not set_means_ms:
        raise ValueError("average_set_runtimes: no set means given")
    return statistics.mean(set_means_ms)
