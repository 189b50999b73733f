"""srkit benchmark: x4 SR latency, memory and set-up, with a per-layer trace.

    python3 perfbench/run.py --workload spanv2-256 --seed 1 --seconds 10 --trace 0

Run from the repository root; srkit is imported from ./src. One client
sends requests in a closed loop (the next only after the previous returns),
like `srkit infer` and the challenge's per-image runtime. BLAS is pinned to
one thread through the environment, before numpy is imported.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced, then
traced, and prints the per-layer metrics. Every output is checked against a
float64 reference; a request fails if it raises or its check fails. Request
and set-up times are adjusted for host drift with an interleaved calibration
kernel (see Calibration). The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The line before it is a JSON
report: environment stamp, calibration median, raw (unadjusted) times,
failed_share, and the tail percentile with its sample count.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# Set before numpy is first imported (lazily, below), so BLAS starts pinned.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parents[1]
MIB = float(1 << 20)
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# A run needs TAIL_BEYOND + 1 requests for the tail to exist; at 256 px, 16
# (not 11) keeps it off the run's second-fastest request, which swung ~10%
# between runs.
MIN_REQUESTS = 16
CALIB_EVERY_S = 0.25
# The kernel's time per output pixel in a quiet spell of the 2-vCPU host the
# benchmark was tuned on; adjusted times are wall times at that speed.
CALIB_REF_NS_PER_PX = 900.0
SETUP_REPS = (3, 9)  # at least / at most
SETUP_BUDGET_S = 2.0


def _import_srkit():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import srkit
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import srkit from {ROOT / 'src'}: {exc}") from exc
    if Path(srkit.__file__).resolve().parent != ROOT / "src" / "srkit":
        raise SystemExit(f"perfbench: srkit imported from {srkit.__file__}, not this checkout")


# -- environment stamp and drift probe ------------------------------------


def _effective_blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _stamp() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_effective": _effective_blas_threads(),
    }


class Calibration:
    """A fixed numpy-only kernel, timed between requests.

    The kernel is an im2col convolution (32 channels, 3x3) on a side x side
    plane, repeated `reps` times, written with numpy alone so that program
    changes never move it. The shared host switches between fast and slow
    spells within seconds, which moves raw request times by 20-35% between
    runs; the kernel slows with them, most faithfully when its plane matches
    the workload's activations. adjust() scales a request's time by the
    kernel's quiet-host time over its median time around that request.
    """

    def __init__(self, side: int, reps: int) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._side = side
        self._reps = reps
        self._w = rng.random((32, 32 * 9), dtype=np.float32)
        self._x = rng.random((1, 32, side + 2, side + 2), dtype=np.float32)
        self.ref_ms = reps * side * side * CALIB_REF_NS_PER_PX * 1e-6
        self.times: list[float] = []  # perf_counter at each sample's end
        self.samples_ms: list[float] = []

    def run(self) -> None:
        np, side = self._np, self._side
        t0 = time.perf_counter()
        for _ in range(self._reps):
            cols = np.lib.stride_tricks.sliding_window_view(self._x, (3, 3), axis=(2, 3))
            cols = cols.transpose(0, 2, 3, 1, 4, 5).reshape(1, side * side, 32 * 9)
            np.ascontiguousarray((cols @ self._w.T).transpose(0, 2, 1))
        t1 = time.perf_counter()
        self.times.append(t1)
        self.samples_ms.append((t1 - t0) * 1e3)

    def maybe_run(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= CALIB_EVERY_S:
            self.run()

    def adjust(self, t0: float, t1: float) -> float:
        """Request time t1 - t0 at the reference host speed.

        Uses the samples just before and after the request plus any within
        twice its duration on either side: a short request sees the spell it
        ran in, a long one the spells it averaged over.
        """
        d = 2 * (t1 - t0)
        lo = min(bisect.bisect_left(self.times, t0 - d), bisect.bisect_left(self.times, t0) - 1)
        hi = max(bisect.bisect_right(self.times, t1 + d), bisect.bisect_left(self.times, t1) + 1)
        near = self.samples_ms[max(lo, 0) : hi]
        return (t1 - t0) * self.ref_ms / statistics.median(near)


# -- measurement ----------------------------------------------------------


class Run:
    """Drives one prepared workload and tallies requests and failures."""

    def __init__(self, prep, calib: Calibration) -> None:
        self.prep = prep
        self.calib = calib
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.worst_error = 0.0

    def _record_failure(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def verified(self, i: int, out) -> bool:
        try:
            self.worst_error = max(self.worst_error, self.prep.check(i, out))
        except Exception as exc:  # a wrong output counts as a failed request
            self._record_failure(exc)
            return False
        return True

    def request(self, model, i: int) -> tuple[float, float]:
        """Send input i once; returns its (start, end) perf_counter times."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.prep.request(model, self.prep.inputs[i])
        except Exception as exc:  # the request failed; keep measuring
            t1 = time.perf_counter()
            self._record_failure(exc)
            return t0, t1
        t1 = time.perf_counter()
        self.verified(i, out)
        return t0, t1

    def setup_once(self) -> tuple[float, float] | None:
        """load_archive through the first verified output: (start, end)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            model = self.prep.load()
            out = self.prep.request(model, self.prep.inputs[0])
        except Exception as exc:
            self._record_failure(exc)
            return None
        t1 = time.perf_counter()
        return (t0, t1) if self.verified(0, out) else None

    def phase(self, model, seconds: float, min_requests: int, after=None):
        """Whole cycles over the input pool until `seconds` and `min_requests`.

        Returns (raw, adjusted) request times in seconds; adjusted ones are
        at the calibration's reference host speed.
        """
        spans: list[tuple[float, float]] = []
        pool = len(self.prep.inputs)
        start = time.perf_counter()
        while True:
            for i in range(pool):
                self.calib.maybe_run()
                spans.append(self.request(model, i))
                if after is not None:
                    after()
            if time.perf_counter() - start >= seconds and len(spans) >= min_requests:
                break
        self.calib.run()
        return [t1 - t0 for t0, t1 in spans], [self.calib.adjust(t0, t1) for t0, t1 in spans]

    def peak_mem(self, model) -> float:
        """Max over distinct inputs of one request's tracemalloc peak above
        the level before it, in MiB (untimed)."""
        worst = 0
        tracemalloc.start()
        try:
            for i, inp in enumerate(self.prep.inputs):
                self.attempted += 1
                base, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                try:
                    out = self.prep.request(model, inp)
                except Exception as exc:
                    self._record_failure(exc)
                    continue
                _, peak = tracemalloc.get_traced_memory()
                worst = max(worst, peak - base)
                self.verified(i, out)
                del out
        finally:
            tracemalloc.stop()
        return worst / MIB


def _tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def _setup_times(run: Run) -> tuple[list[float], list[float]]:
    """Raw and calibration-adjusted set-up times of the verified set-ups."""
    spans = []
    start = time.perf_counter()
    lo, hi = SETUP_REPS
    while len(spans) < lo or (len(spans) < hi and time.perf_counter() - start < SETUP_BUDGET_S):
        run.calib.run()
        spans.append(run.setup_once())
    run.calib.run()
    good = [s for s in spans if s is not None]
    return [t1 - t0 for t0, t1 in good], [run.calib.adjust(t0, t1) for t0, t1 in good]


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    raw_setups, setups = _setup_times(run)
    model = run.prep.load()
    peak = run.peak_mem(model)
    raw, lat = run.phase(model, seconds, MIN_REQUESTS)
    pct, tail = _tail(lat)
    metrics = {
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
        "peak_mem_mib": (peak, "MiB"),
        "setup_s": (statistics.median(setups) if setups else None, "s"),
    }
    extra = {
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "raw_latency_tail_ms": _tail(raw)[1] * 1e3,
        "raw_throughput_rps": len(raw) / sum(raw),
        "raw_setup_s": statistics.median(raw_setups) if raw_setups else None,
        "latency_tail_percentile": round(pct, 2),
        "latency_samples": len(lat),
        "setup_samples": len(setups),
        "failed_share": run.failed / run.attempted,
    }
    return metrics, extra


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    import tracer as layers

    from srkit import metrics as srmetrics

    half = seconds / 2
    model = run.prep.load()
    _, plain = run.phase(model, half, 3)
    tracer = layers.Tracer()
    requests: list[list] = []
    tracemalloc.start()
    tracer.install()
    try:
        run.setup_once()  # traced once so load_archive has spans everywhere
        model = run.prep.load()
        setup_spans = tracer.take()
        raw, traced = run.phase(model, half, 3, after=lambda: requests.append(tracer.take()))
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    mismatches = [
        (g.name, h, w, got, srmetrics.count_flops(g, h, w))
        for g, h, w, got in tracer.graph_runs
        if got != srmetrics.count_flops(g, h, w)
    ]
    values = layers.summarize(requests, raw, setup_spans)
    values["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    extra = {
        "flops_reconciled_runs": len(tracer.graph_runs) - len(mismatches),
        "flops_mismatches": mismatches[:3],
        "traced_requests": len(traced),
        "untraced_requests": len(plain),
        "failed_share": run.failed / run.attempted,
    }
    return values, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_srkit()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    stamp = _stamp()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        prep = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        calib = Calibration(*prep.calib)
        run = Run(prep, calib)
        measure = per_layer if args.trace else end_to_end
        values, extra = measure(run, args.seconds)
    ok = run.failed == 0 and not extra.get("flops_mismatches")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "stamp": stamp,
        "calib_ms": statistics.median(calib.samples_ms) if calib.samples_ms else None,
        "calib_samples": len(calib.samples_ms),
        "worst_peak_error": run.worst_error,
        "errors": run.errors,
        **extra,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
