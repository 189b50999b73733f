import numpy as np
import pytest

from srkit.fusion import (
    LoraFactors,
    TrafficCounter,
    collapse_branches,
    compose_convs,
    fused_attention,
    lora_merge,
    reference_attention,
)
from srkit.models import random_conv
from srkit.selftest import assert_close, rand_tensor
from srkit.tensor import ConvSpec, ShapeError, Tensor

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
