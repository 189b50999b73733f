import importlib
import re
import tracemalloc

import numpy as np
import pytest

from srkit.fusion import (
    BranchGroup,
    LoraFactors,
    TrafficCounter,
    branch_forward,
    collapse_branches,
    compose_convs,
    fused_attention,
    lora_merge,
    max_errors,
    reference_attention,
)
from srkit.models import build_spanv2, random_conv
from srkit.rewrites import apply_rewrites, decorate_for_reparam, fuse_equivalence
from srkit.selftest import assert_close, rand_tensor, whole_max_errors
from srkit.tensor import ConvSpec, ShapeError, Tensor

tensor_module = importlib.import_module("srkit.tensor")  # srkit.tensor is also a function

SPECIALIZED_WIDTHS = (1, 16, 28, 32, 48, 52)


class TestFusedAttention:
    def test_zero_weight_unit_bias_is_residual(self, rng):
        x, f3 = rand_tensor(rng, 1, 8, 4, 4), rand_tensor(rng, 1, 8, 4, 4)
        attn = ConvSpec(
            8,
            8,
            (1, 1),
            (0, 0),
            np.zeros((8, 8, 1, 1), np.float32),
            bias=np.ones(8, np.float32),
        )
        assert_close(fused_attention(x, f3, attn), x.data + f3.data)

    @pytest.mark.parametrize("c", SPECIALIZED_WIDTHS)
    def test_matches_reference_across_widths(self, c):
        rng = np.random.default_rng(c)
        x, f3 = rand_tensor(rng, 1, c, 6, 6), rand_tensor(rng, 1, c, 6, 6)
        attn = random_conv(rng, c, c, k=1)
        assert_close(
            fused_attention(x, f3, attn), reference_attention(x, f3, attn)
        )

    def test_missing_bias_treated_as_zero(self, rng):
        c = 4
        x, f3 = rand_tensor(rng, 1, c, 3, 3), rand_tensor(rng, 1, c, 3, 3)
        attn = random_conv(rng, c, c, k=1, bias=False)
        assert_close(fused_attention(x, f3, attn), reference_attention(x, f3, attn))

    def test_shape_mismatch(self, rng):
        attn = random_conv(rng, 4, 4, k=1)
        with pytest.raises(ShapeError):
            fused_attention(
                Tensor.zeros(1, 4, 3, 3), Tensor.zeros(1, 4, 3, 4), attn
            )

    def test_rejects_3x3_gate(self, rng):
        attn = random_conv(rng, 4, 4, k=3)
        with pytest.raises(ShapeError, match="1x1"):
            fused_attention(Tensor.zeros(1, 4, 3, 3), Tensor.zeros(1, 4, 3, 3), attn)


    @pytest.mark.parametrize(
        "shape, bias",
        [((1, 32, 129, 131), True), ((2, 32, 64, 70), False), ((3, 80, 3, 5000), True),
         ((1, 1, 1, 1), True)],
        ids=["strips_and_remainder", "batch2_no_bias", "batch3_wide", "one_element"],
    )
    def test_strips_equal_the_whole_plane_formula(self, rng, shape, bias):
        n, c, h, w = shape
        x, f3 = rand_tensor(rng, *shape), rand_tensor(rng, *shape)
        attn = random_conv(rng, c, c, k=1, bias=bias)
        m = np.matmul(attn.weight.reshape(c, c), f3.data.reshape(n, c, h * w))
        if bias:
            m = m + attn.bias[None, :, None]
        want = (x.data + f3.data) * m.reshape(shape)
        assert np.array_equal(fused_attention(x, f3, attn).data, want)

    def test_allocates_its_output_and_one_gate_strip(self, rng):
        # the whole-plane form allocated the gate plane and x + f3 too (16 MiB)
        x, f3 = rand_tensor(rng, 1, 32, 256, 256), rand_tensor(rng, 1, 32, 256, 256)
        attn = random_conv(rng, 32, 32, k=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            y = fused_attention(x, f3, attn)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= y.data.nbytes + 1.5 * 2**20, peak / 2**20

    @pytest.mark.parametrize("budget", [3 << 17, 1 << 17, 1 << 16, 1 << 14])
    def test_bitwise_reference_at_any_budget(self, monkeypatch, budget):
        # The gate GEMMs run in the row strips of the gate conv's
        # conv_strips, those of reference_attention's conv2d, so every GEMM
        # is one the reference runs too, even those narrow enough that
        # OpenBLAS rounds them unlike a wider product.
        monkeypatch.setattr(tensor_module, "_STRIP_FLOATS", budget)
        rng = np.random.default_rng(23)
        for _ in range(150):
            c = int(rng.choice([8, 16, 28, 32, 48]))
            n, h, w = (int(v) for v in rng.integers((1, 1, 1), (3, 90, 90)))
            x, f3 = rand_tensor(rng, n, c, h, w), rand_tensor(rng, n, c, h, w)
            attn = random_conv(rng, c, c, k=1, bias=bool(rng.integers(2)))
            want = reference_attention(x, f3, attn).data
            assert np.array_equal(fused_attention(x, f3, attn).data, want), (n, c, h, w)


class TestTraffic:
    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 16, 5, 7), (1, 52, 9, 3)])
    def test_counts_are_3n_vs_8n_for_all_shapes(self, shape):
        rng = np.random.default_rng(0)
        n, c, h, w = shape
        numel = n * c * h * w
        x, f3 = rand_tensor(rng, *shape), rand_tensor(rng, *shape)
        attn = random_conv(rng, c, c, k=1)
        fused, ref = TrafficCounter(), TrafficCounter()
        fused_attention(x, f3, attn, fused)
        reference_attention(x, f3, attn, ref)
        assert (fused.total, ref.total) == (3 * numel, 8 * numel)

    def test_counter_accumulates_and_resets(self, rng):
        x = rand_tensor(rng, 1, 4, 2, 2)
        attn = random_conv(rng, 4, 4, k=1)
        counter = TrafficCounter()
        fused_attention(x, x, attn, counter)
        fused_attention(x, x, attn, counter)
        assert counter.total == 2 * 3 * x.numel
        counter.reset()
        assert counter.total == 0


class TestComposeConvs:
    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError, match="channels"):
            compose_convs(random_conv(rng, 3, 4, k=3), random_conv(rng, 5, 2, k=3))

    def test_grouped_rejected(self, rng):
        dw = random_conv(rng, 4, 4, k=3, groups=4)
        with pytest.raises(ShapeError, match="grouped"):
            compose_convs(dw, random_conv(rng, 4, 4, k=3))

class TestLora:
    def test_scale_is_alpha_over_rank(self, rng):
        base = random_conv(rng, 1, 1, k=1)
        lora = LoraFactors(
            a=np.ones((4, 1), np.float32), b=np.ones((1, 4), np.float32), rank=4, alpha=2.0
        )
        merged = lora_merge(base, lora)
        # B @ A = 4, scaled by alpha/rank = 0.5
        assert merged.weight[0, 0, 0, 0] - base.weight[0, 0, 0, 0] == pytest.approx(2.0)

    def test_shape_inconsistency_rejected(self, rng):
        base = random_conv(rng, 3, 4, k=3)
        bad = LoraFactors(
            a=np.zeros((6, 8), np.float32), b=np.zeros((12, 6), np.float32), rank=2
        )
        with pytest.raises(ShapeError):
            lora_merge(base, bad)


class TestCollapseBranches:
    def test_identity_plus_zero_conv_is_center_delta(self):
        zero = ConvSpec(3, 3, (3, 3), (1, 1), np.zeros((3, 3, 3, 3), np.float32))
        out = collapse_branches([zero], include_identity=True)
        want = np.zeros((3, 3, 3, 3), np.float32)
        for i in range(3):
            want[i, i, 1, 1] = 1.0
        assert np.array_equal(out.weight, want)

    @pytest.mark.parametrize("groups", [2, 3, 6])
    def test_grouped_identity_matches_the_branch_sum(self, rng, groups):
        # output channel o's identity tap is input channel o, its group's o % cg
        branches = (random_conv(rng, 6, 6, k=3, groups=groups), random_conv(rng, 6, 6, k=1, groups=groups))
        x = rand_tensor(rng, 1, 6, 5, 7)
        merged = collapse_branches(list(branches), include_identity=True)
        assert_close(tensor_module.conv2d(x, merged), branch_forward(x, BranchGroup(branches, True)))

    def test_identity_requires_square_widths(self, rng):
        branches = [random_conv(rng, 3, 5, k=3)]
        with pytest.raises(ShapeError, match="identity"):
            collapse_branches(branches, include_identity=True)

    def test_rejects_even_or_large_kernels(self, rng):
        big = random_conv(rng, 3, 3, k=5)
        with pytest.raises(ShapeError, match="<= 3x3"):
            collapse_branches([big])

    def test_width_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError, match="branch"):
            collapse_branches([random_conv(rng, 3, 3, k=3), random_conv(rng, 3, 4, k=3)])

    def test_bias_is_sum_of_biases(self, rng):
        c = 4
        b1, b2 = random_conv(rng, c, c, k=3), random_conv(rng, c, c, k=1)
        merged = collapse_branches([b1, b2])
        assert_close(merged.bias, b1.bias + b2.bias)


def _peak_bytes(fn, *args):
    """fn(*args) and its tracemalloc peak above the memory held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMaxErrors:
    def test_holds_one_block_buffer(self, rng):
        # With whole float64 copies of both operands, two 12 MiB float32
        # planes peaked at 48 MiB.
        a = rand_tensor(rng, 1, 3, 1024, 1024)
        b = Tensor(a.data + np.float32(1e-3))
        errors, peak = _peak_bytes(max_errors, a, b)
        assert peak <= 8 * tensor_module._STRIP_FLOATS + 2**20, peak / 2**20
        assert errors == whole_max_errors(a.data, b.data)

    @pytest.mark.parametrize("other", [(3, 8, 8), (1, 1, 8, 8), (2, 3, 8, 8)])
    def test_rejects_shapes_it_would_broadcast(self, other):
        a = np.zeros((1, 3, 8, 8), np.float32)
        for x, y in ((a, np.zeros(other, np.float32)), (np.zeros(other, np.float32), a)):
            with pytest.raises(ShapeError, match=rf"{re.escape(str(x.shape))} vs {re.escape(str(y.shape))}"):
                max_errors(x, y)


def test_fuse_equivalence_holds_one_probe_at_a_time(rng):
    # With each probe's outputs still bound while the next probe's
    # training-form run went, two 64x64 probes peaked at 5.79 MiB and one
    # at 5.25.
    train = decorate_for_reparam(build_spanv2(seed=0), seed=0)
    merged, _ = apply_rewrites(train, seed=1)
    probes = [rand_tensor(rng, 1, 3, 64, 64) for _ in range(2)]
    fuse_equivalence(train, merged, probes[:1])  # compiles the fused run kept on merged
    one, one_peak = _peak_bytes(fuse_equivalence, train, merged, probes[:1])
    two, two_peak = _peak_bytes(fuse_equivalence, train, merged, probes)
    assert two_peak <= one_peak + 0.01 * 2**20, (one_peak / 2**20, two_peak / 2**20)
    assert two["end_to_end"]["max_abs_err"] >= one["end_to_end"]["max_abs_err"]
