import math
import sys
import types
from contextlib import nullcontext

import numpy as np
import pytest

from srkit.metrics import (
    average_set_runtimes,
    bench_runtime,
    count_flops,
    count_params,
    image_to_tensor,
    psnr,
    tensor_to_image,
)
from srkit.models import build_span_baseline, build_spanv2, random_conv
from srkit.graph import ModelGraph, Node
from srkit.rewrites import apply_rewrites, decorate_for_reparam
from srkit.selftest import rand_tensor


def single_conv_graph(spec):
    g = ModelGraph(
        name="probe",
        nodes=[
            Node("input", "input", (), channels=spec.in_channels),
            Node("conv", "conv", ("input",), spec=spec),
        ],
        output="conv",
    )
    g.validate()
    return g


class TestPsnr:
    def test_identical_images_capped(self, rng):
        img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        assert psnr(img, img) == 100.0

    def test_constant_offset_exact_value(self, rng):
        img = rng.integers(1, 255, (20, 20, 3), dtype=np.uint8)
        off = (img + 1).astype(np.uint8)
        got = psnr(off, img, border=4)
        assert got == pytest.approx(10 * math.log10(255**2), abs=1e-9)
        assert round(got, 3) == 48.131

    def test_border_corruption_invisible(self, rng):
        img = rng.integers(0, 256, (24, 30, 3), dtype=np.uint8)
        bad = img.copy()
        bad[:4], bad[-4:], bad[:, :4], bad[:, -4:] = 0, 0, 0, 0
        assert psnr(bad, img, border=4) == 100.0
        assert psnr(bad, img, border=0) < 100.0

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

    def test_image_tensor_roundtrip(self, rng):
        img = rng.integers(0, 256, (7, 9, 3), dtype=np.uint8)
        assert np.array_equal(tensor_to_image(image_to_tensor(img)), img)


class TestCounts:
    def test_single_conv_params(self, rng):
        assert random_conv(rng, 3, 32, k=3).param_count == 896

    def test_spanv2_calibration(self):
        g = build_spanv2()
        params = count_params(g)
        assert params == 140_816
        assert abs(params - 139_000) / 139_000 <= 0.02

    def test_baseline_calibration(self):
        g = build_span_baseline()
        params = count_params(g)
        assert params == 150_688
        assert abs(params - 151_000) / 151_000 <= 0.02

    def test_single_conv_flops(self, rng):
        spec = random_conv(rng, 3, 32, k=3)
        g = single_conv_graph(spec)
        assert count_flops(g, 256, 256) == 32 * 3 * 9 * 65_536 + 32 * 65_536
        nobias = random_conv(rng, 3, 32, k=3, bias=False)
        assert count_flops(single_conv_graph(nobias), 256, 256) == 56_623_104

    def test_spanv2_flops_calibration(self):
        flops = count_flops(build_spanv2())
        assert flops == 9_270_460_416
        assert abs(flops - 9.11e9) / 9.11e9 <= 0.03

    def test_baseline_flops_calibration(self):
        flops = count_flops(build_span_baseline())
        assert abs(flops - 9.83e9) / 9.83e9 <= 0.03

    def test_flops_scale_linearly_with_area(self):
        g = build_spanv2()
        assert count_flops(g, 128, 128) * 4 == count_flops(g, 256, 256)
        assert count_flops(g, 64, 128) * 2 == count_flops(g, 128, 128)

    def test_counts_invariant_under_rewrites(self):
        plain = build_spanv2(seed=3)
        train = decorate_for_reparam(plain, seed=3)
        merged, _ = apply_rewrites(train, seed=3)
        assert count_params(merged) == count_params(plain)
        assert count_flops(merged, 64, 64) == count_flops(plain, 64, 64)
        # the live training form carries extra weights, honestly reported
        assert count_params(train) > count_params(plain)


class TestBench:
    def test_contract(self, rng):
        g = build_spanv2(c=8, s=2, blocks=2, seed=0)
        images = [rand_tensor(rng, 1, 3, 8, 8) for _ in range(3)]
        stats = bench_runtime(g, images, warmup=1, reps=2)
        assert len(stats.per_image_ms) == 3
        assert all(v > 0 for v in stats.per_image_ms)
        assert stats.median_ms > 0 and stats.mean_ms > 0

    def test_empty_images_rejected(self):
        g = build_spanv2(c=8, s=2, blocks=1, seed=0)
        with pytest.raises(ValueError, match="empty"):
            bench_runtime(g, [], reps=1)

    def test_reps_validated(self, rng):
        g = build_spanv2(c=8, s=2, blocks=1, seed=0)
        with pytest.raises(ValueError, match="reps"):
            bench_runtime(g, [rand_tensor(rng, 1, 3, 4, 4)], reps=0)

    def test_threads_null_when_nothing_was_pinned(self, rng, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
        g = build_spanv2(c=8, s=2, blocks=1, seed=0)
        stats = bench_runtime(g, [rand_tensor(rng, 1, 3, 4, 4)], reps=1, threads=1)
        assert stats.threads is None
        assert stats.to_dict()["threads"] is None

    def test_threads_report_the_pin(self, rng, monkeypatch):
        pins = []
        fake = types.SimpleNamespace(
            threadpool_limits=lambda limits: pins.append(limits) or nullcontext()
        )
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        g = build_spanv2(c=8, s=2, blocks=1, seed=0)
        images = [rand_tensor(rng, 1, 3, 4, 4)]
        assert bench_runtime(g, images, reps=1, threads=2).threads == 2
        assert bench_runtime(g, images, reps=1, threads=None).threads is None
        assert pins == [2]

    def test_reports_the_blas_numpy_was_built_with(self, rng):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        g = build_spanv2(c=8, s=2, blocks=1, seed=0)
        stats = bench_runtime(g, [rand_tensor(rng, 1, 3, 4, 4)], reps=1)
        assert stats.blas == f"{blas['name']} {blas['version']}"
        doc = stats.to_dict()
        assert list(doc)[-2:] == ["threads", "blas"] and doc["blas"] == stats.blas

    def test_ave_column_semantics(self):
        ave = average_set_runtimes([5.700, 4.810])
        assert ave == pytest.approx(5.255, abs=1e-12)
        assert abs(ave - 5.256) <= 0.002

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
