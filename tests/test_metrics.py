import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from srkit import metrics, ppm
from srkit.metrics import bench_runtime, image_to_tensor, psnr, tensor_to_image
from srkit.models import build_span_baseline, build_spanv2
from srkit.selftest import rand_tensor, whole_psnr
from srkit.tensor import ShapeError, Tensor


class TestPsnr:
    def test_symmetry(self, rng):
        a = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        b = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        assert psnr(a, b) == pytest.approx(psnr(b, a), abs=1e-12)

    def test_strictly_decreasing_in_mse(self, rng):
        img = rng.integers(0, 200, (16, 16, 3), dtype=np.uint8)
        one = (img + 1).astype(np.uint8)
        two = (img + 2).astype(np.uint8)
        assert psnr(one, img) > psnr(two, img)

    def test_size_mismatch(self, rng):
        a = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        b = rng.integers(0, 256, (16, 17, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="differ"):
            psnr(a, b)

    def test_too_small_for_border(self):
        img = np.zeros((8, 8, 3), np.uint8)
        with pytest.raises(ValueError, match="border"):
            psnr(img, img, border=4)

    def test_holds_one_block_buffer(self, rng):
        # With whole float64 copies of the crops and their squares, a
        # 1356x2040 pair peaked at 125 MiB.
        a = rng.integers(0, 256, (1356, 2040, 3), dtype=np.uint8)
        b = rng.integers(0, 256, (1356, 2040, 3), dtype=np.uint8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = psnr(a, b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * metrics._STRIP_FLOATS + 2**20, peak / 2**20
        assert got == whole_psnr(a, b, 4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint16, np.int64])
    def test_takes_uint8_images_only(self, dtype):
        # A float image in [0, 1] used to score against the 255 peak.
        img = np.zeros((16, 16, 3), np.uint8)
        for a, b in ((img.astype(dtype), img), (img, img.astype(dtype))):
            with pytest.raises(ValueError, match=f"uint8 images, got {np.dtype(dtype)}"):
                psnr(a, b)

    def test_image_tensor_roundtrip(self, rng):
        img = rng.integers(0, 256, (7, 9, 3), dtype=np.uint8)
        assert np.array_equal(tensor_to_image(image_to_tensor(img)), img)

    @pytest.mark.parametrize("h, w", [(1, 1), (7, 9), (31, 2), (61, 63)])
    def test_image_to_tensor_is_the_whole_plane_division(self, rng, h, w):
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        want = (np.asarray(img, dtype=np.float32) / 255.0).transpose(2, 0, 1)[None]
        assert image_to_tensor(img).data.tobytes() == want.tobytes()

    def test_image_to_tensor_builds_one_float_plane(self, rng):
        # Dividing a float32 copy and copying its transpose peaked at 2.0x
        # the plane.
        img = rng.integers(0, 256, (512, 512, 3), dtype=np.uint8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            x = image_to_tensor(img)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * x.data.nbytes, peak / x.data.nbytes

    def test_tensor_to_image_takes_one_rgb_image(self, rng):
        # a batch would encode its first image and drop the rest
        for shape in ((2, 3, 4, 5), (1, 4, 4, 5)):
            with pytest.raises(ShapeError, match="one 3-channel image"):
                tensor_to_image(Tensor(rng.random(shape, dtype=np.float32)))

    def test_tensor_to_image_holds_one_float_plane(self, rng):
        x = Tensor(rng.normal(0.5, 0.6, (1, 3, 512, 512)).astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            img = tensor_to_image(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= x.data.nbytes + img.nbytes + (64 << 10), peak
        want = np.rint(np.clip(x.data[0], 0.0, 1.0) * 255.0).astype(np.uint8)
        assert np.array_equal(img, want.transpose(1, 2, 0))


    @pytest.mark.parametrize("h", [1, 5, 342])
    def test_tensor_to_image_works_in_row_blocks(self, monkeypatch, rng, h):
        # blocks of 2 rows at width 7: a last block of one row, and one block
        # for a 1-row image; the bytes are those of the whole-plane formula
        monkeypatch.setattr(metrics, "_STRIP_FLOATS", 2 * 3 * 7)
        x = Tensor(rng.normal(0.5, 0.6, (1, 3, h, 7)).astype(np.float32))
        want = np.rint(np.clip(x.data[0], 0.0, 1.0) * 255.0).astype(np.uint8)
        assert np.array_equal(tensor_to_image(x), want.transpose(1, 2, 0))
        big = Tensor(rng.normal(0.5, 0.6, (1, 3, 1024, 1024)).astype(np.float32))
        monkeypatch.undo()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            img = tensor_to_image(big)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= img.nbytes + 4 * metrics._STRIP_FLOATS + (64 << 10), peak

    def test_tensor_to_image_rejects_nan_and_clamps_inf(self, monkeypatch):
        # blocks of 2 rows at width 7: a NaN in row 3 is in the second block.
        # It used to encode as a black pixel: NaN cast to uint8 gave 0.
        monkeypatch.setattr(metrics, "_STRIP_FLOATS", 2 * 3 * 7)
        a = np.full((1, 3, 5, 7), 0.5, np.float32)
        a[0, 1, 0, 0], a[0, 2, 4, 6] = np.inf, -np.inf
        img = tensor_to_image(Tensor(a.copy()))
        assert img[0, 0, 1] == 255 and img[4, 6, 2] == 0
        a[0, 2, 3, 4] = np.nan
        with pytest.raises(ValueError, match=r"NaN values in rows 2-3"):
            tensor_to_image(Tensor(a))


class TestBench:
    def test_contract(self, rng):
        g = build_spanv2(c=8, s=2, blocks=2, seed=0)
        images = [rand_tensor(rng, 1, 3, 8, 8) for _ in range(3)]
        stats = bench_runtime(g, images, warmup=1, reps=2)
        assert len(stats.per_image_ms) == 3
        assert all(v > 0 for v in stats.per_image_ms)
        assert stats.median_ms > 0 and stats.mean_ms > 0

    def test_reports_each_images_spread_next_to_its_mean(self, monkeypatch, rng):
        # two images, reps timed 4, 1, 3, 2 ms and 5, 5, 5, 9 ms
        ticks = iter(np.cumsum([0, 4, 0, 1, 0, 3, 0, 2, 0, 5, 0, 5, 0, 5, 0, 9]) / 1000.0)
        monkeypatch.setattr(metrics.time, "perf_counter", lambda: float(next(ticks)))
        g = build_spanv2(c=4, s=2, blocks=1, seed=0)
        images = [rand_tensor(rng, 1, 3, 4, 4) for _ in range(2)]
        stats = bench_runtime(g, images, warmup=0, reps=4).to_dict()
        assert stats["per_image_ms"] == pytest.approx([2.5, 6.0])
        assert stats["per_image_min_ms"] == pytest.approx([1.0, 5.0])
        assert stats["per_image_median_ms"] == pytest.approx([2.5, 5.0])
        assert stats["per_image_iqr_ms"] == pytest.approx([1.5, 1.0])
        assert stats["mean_ms"] == pytest.approx(4.25)

    def test_empty_images_rejected(self):
        g = build_spanv2(c=8, s=2, blocks=1, seed=0)
        with pytest.raises(ValueError, match="empty"):
            bench_runtime(g, [], reps=1)

    def test_reps_validated(self, rng):
        g = build_spanv2(c=8, s=2, blocks=1, seed=0)
        with pytest.raises(ValueError, match="reps"):
            bench_runtime(g, [rand_tensor(rng, 1, 3, 4, 4)], reps=0)

    def test_threads_report_what_openblas_runs(self, rng):
        # The engine pinned OpenBLAS to one thread when it loaded; --threads
        # caps the engine's own threads and leaves OpenBLAS's as they are.
        if metrics.tensor.blas_threads() is None:
            pytest.skip("numpy has no OpenBLAS")
        g = build_spanv2(c=8, s=2, blocks=1, seed=0)
        images = [rand_tensor(rng, 1, 3, 4, 4)]
        for threads in (1, 2, None):
            stats = bench_runtime(g, images, reps=1, threads=threads, mode="fused")
            assert stats.threads == stats.to_dict()["threads"] == metrics.tensor.blas_threads() == 1
            assert stats.blas_core == metrics.tensor.blas_core() and stats.blas_core

    def test_threads_and_core_are_none_without_openblas(self, rng, monkeypatch):
        monkeypatch.setattr(metrics.tensor, "_get_blas_threads", None)
        monkeypatch.setattr(metrics.tensor, "_get_blas_core", None)
        g = build_spanv2(c=8, s=2, blocks=1, seed=0)
        doc = bench_runtime(g, [rand_tensor(rng, 1, 3, 4, 4)], reps=1).to_dict()
        assert doc["threads"] is None and doc["blas_core"] is None

    @pytest.mark.parametrize("threads", [1, 2])
    def test_threads_cap_the_engines_threads(self, rng, monkeypatch, threads):
        # --threads 1 runs every conv on one thread; 2, on as many as the
        # host's usable cores allow, at most 2. The cap holds for the runs
        # alone; unfused never splits a conv.
        seen, run, workers = [], metrics.run_graph, metrics.tensor._WORKERS
        monkeypatch.setattr(metrics, "run_graph", lambda *a, **k: seen.append(metrics.tensor._WORKERS) or run(*a, **k))
        g = build_spanv2(c=8, s=2, blocks=1, seed=0)
        images = [rand_tensor(rng, 1, 3, 4, 4)]
        stats = bench_runtime(g, images, reps=1, threads=threads, mode="fused")
        expected = min(threads, 2, len(os.sched_getaffinity(0)))
        assert stats.engine_threads == stats.to_dict()["engine_threads"] == expected
        assert set(seen) == {expected} and metrics.tensor._WORKERS == workers
        assert bench_runtime(g, images, reps=1, threads=threads, mode="unfused").engine_threads == 1

    def test_reports_the_strips_a_run_had_in_flight(self, rng):
        # Read from the compiled run: SPANV2's 96x256 plan has two strips in
        # flight, which run on two threads only where the engine has two;
        # SPAN's has one, and unfused runs one strip, the whole image.
        images = [rand_tensor(rng, 1, 3, 96, 256)]
        two = min(2, len(os.sched_getaffinity(0)))
        for g, threads, mode, flight in [
            (build_spanv2(seed=0), 2, "fused", two),
            (build_spanv2(seed=0), 1, "fused", 1),
            (build_spanv2(seed=0), 2, "unfused", 1),
            (build_span_baseline(seed=0), 2, "fused", 1),
        ]:
            stats = bench_runtime(g, images, warmup=0, reps=1, threads=threads, mode=mode)
            assert stats.strips_in_flight == stats.to_dict()["strips_in_flight"] == flight, (g.name, threads, mode)

    def test_reports_the_blas_numpy_was_built_with(self, rng):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        g = build_spanv2(c=8, s=2, blocks=1, seed=0)
        stats = bench_runtime(g, [rand_tensor(rng, 1, 3, 4, 4)], reps=1)
        assert stats.blas == f"{blas['name']} {blas['version']}"
        doc = stats.to_dict()
        assert list(doc)[-3:] == ["threads", "blas", "blas_core"] and doc["blas"] == stats.blas

    def test_reports_the_peak_of_one_run(self, rng):
        g = build_spanv2(c=8, s=2, blocks=1, seed=0)
        images = [rand_tensor(rng, 1, 3, 16, 16), rand_tensor(rng, 1, 3, 32, 24)]
        stats = bench_runtime(g, images, warmup=0, reps=1, mode="fused")
        largest_output = 3 * 64 * 48 * 4 / 2**20  # x2 of the 32x24 image
        assert stats.to_dict()["peak_mib"] == stats.peak_mib >= largest_output

    def test_fused_vs_unfused_paired_report(self, rng, capsys):
        # informational comparison; never asserted, only printed
        g = build_spanv2(c=16, s=2, blocks=2, seed=1)
        images = [rand_tensor(rng, 1, 3, 16, 16)]
        fused = bench_runtime(g, images, warmup=1, reps=2, mode="fused")
        unfused = bench_runtime(g, images, warmup=1, reps=2, mode="unfused")
        print(
            f"paired bench (16ch 16x16): fused {fused.mean_ms:.3f} ms "
            f"vs unfused {unfused.mean_ms:.3f} ms"
        )


def _child(*args, **env):
    """Run this Python with `args` in an environment that sets no OpenBLAS
    or OpenMP thread variable, plus `env`."""
    clean = {k: v for k, v in os.environ.items() if not k.startswith(("OPENBLAS_", "OMP_", "GOTO_"))}
    return subprocess.run([sys.executable, *args], env={**clean, **env}, capture_output=True, text=True, timeout=300)


def _bench_child(tmp_path, *args, **env):
    path = tmp_path / "lr.ppm"
    ppm.write_ppm(path, np.random.default_rng(0).integers(0, 256, (16, 20, 3), dtype=np.uint8))
    model = ["--model", "spanv2", "--width", "8", "--blocks", "1", "--upscale", "2", "--reps", "1"]
    return _child("-m", "srkit.cli", "bench", *model, *args, str(path), **env)


def test_importing_srkit_pins_openblas_to_one_thread(tmp_path):
    # Left to itself, OpenBLAS starts one thread per core. Nothing in the
    # child's environment pins it, so the engine must.
    if metrics.tensor.blas_threads() is None:
        pytest.skip("numpy has no OpenBLAS")
    proc = _child("-c", "import importlib, srkit; print(importlib.import_module('srkit.tensor').blas_threads())")
    assert proc.returncode == 0 and proc.stdout.strip() == "1", proc.stderr
    proc = _bench_child(tmp_path, "--threads", "2")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["threads"] == 1 and doc["engine_threads"] == min(2, len(os.sched_getaffinity(0)))


def test_bench_names_the_openblas_kernel_set(tmp_path):
    # OPENBLAS_CORETYPE has OpenBLAS load the kernels an AVX2 host gets, and
    # OPENBLAS_VERBOSE=2 has it name them, as bench must.
    if metrics.tensor.blas_core() is None:
        pytest.skip("numpy has no OpenBLAS")
    proc = _bench_child(tmp_path, OPENBLAS_CORETYPE="Haswell", OPENBLAS_VERBOSE="2")
    if proc.returncode < 0 or "Core: Haswell" not in proc.stdout + proc.stderr:
        pytest.skip(f"this CPU cannot run OpenBLAS's Haswell kernel: {proc.stderr.strip()[-200:]}")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["blas_core"] == "Haswell"
