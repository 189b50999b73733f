"""Measurement protocol: PSNR with border discard, complexity counts, timing.

Conventions pinned here:
* PSNR runs on 8-bit RGB after rounding/clamping, discards a fixed border on
  every side, and caps identical images at 100 dB.
* FLOPs count one per multiply-accumulate, plus one per bias add and one per
  elementwise op (the flops rules of graph.OPS); this is the convention
  under which the reference models' published G-counts reproduce.
* Runtime numbers are machine-relative and never part of hard acceptance.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .graph import OPS, ModelGraph, infer_shapes, run_graph
from .tensor import Tensor

PSNR_CAP_DB = 100.0


def psnr(pred: np.ndarray, gt: np.ndarray, border: int = 4) -> float:
    """Peak signal-to-noise ratio between 8-bit RGB images, in decibels.

    `border` pixels are discarded on each side before the MSE; identical
    crops return the 100 dB cap.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
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
    diff = pred.astype(np.float64) - gt.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(255.0**2 / mse))


def image_to_tensor(img: np.ndarray) -> Tensor:
    """(h, w, 3) uint8 -> (1, 3, h, w) float in [0, 1]."""
    arr = np.asarray(img, dtype=np.float32) / 255.0
    return Tensor(arr.transpose(2, 0, 1)[None])


def tensor_to_image(t: Tensor) -> np.ndarray:
    """(1, 3, h, w) float in [0, 1] -> rounded, clamped (h, w, 3) uint8."""
    arr = np.clip(t.data[0], 0.0, 1.0) * 255.0
    return np.rint(arr).astype(np.uint8).transpose(1, 2, 0)


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
    per_image_ms: list[float]
    mean_ms: float
    median_ms: float
    mode: str
    threads: int | None  # BLAS threads actually pinned; None when nothing was

    def to_dict(self) -> dict:
        return {
            "per_image_ms": self.per_image_ms,
            "mean_ms": self.mean_ms,
            "median_ms": self.median_ms,
            "mode": self.mode,
            "threads": self.threads,
        }


@contextmanager
def _thread_limit(threads: int | None):
    """Pin BLAS threads for the block; yields the pinned count, or None."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        threads = None
    with nullcontext() if threads is None else threadpool_limits(limits=threads):
        yield threads


def bench_runtime(
    g: ModelGraph,
    images: list[Tensor],
    warmup: int = 1,
    reps: int = 3,
    mode: str = "unfused",
    threads: int | None = 1,
) -> RuntimeStats:
    """Per-image wall-clock of running the graph, after discarded warmups.

    Each image's figure is the mean of `reps` timed runs. BLAS threading is
    pinned to `threads` when threadpoolctl is importable (single-threaded by
    default), and the stats report the pin that took effect; timings are
    reported, never asserted.
    """
    if reps < 1:
        raise ValueError(f"bench_runtime: reps must be >= 1, got {reps}")
    if not images:
        raise ValueError("bench_runtime: empty image list")
    per_image: list[float] = []
    with _thread_limit(threads) as pinned:
        for img in images:
            for _ in range(warmup):
                run_graph(g, img, mode=mode)
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                run_graph(g, img, mode=mode)
                times.append((time.perf_counter() - t0) * 1000.0)
            per_image.append(statistics.mean(times))
    return RuntimeStats(
        per_image_ms=per_image,
        mean_ms=statistics.mean(per_image),
        median_ms=statistics.median(per_image),
        mode=mode,
        threads=pinned,
    )


def average_set_runtimes(set_means_ms: list[float]) -> float:
    """The challenge's "Ave." column: plain mean of per-set mean runtimes."""
    if not set_means_ms:
        raise ValueError("average_set_runtimes: no set means given")
    return statistics.mean(set_means_ms)
