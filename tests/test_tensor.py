import importlib
import tracemalloc

import numpy as np
import pytest

from srkit.selftest import assert_close, brute_conv, rand_tensor
from srkit.tensor import (
    ConvSpec,
    ShapeError,
    Tensor,
    add,
    concat_channels,
    conv2d,
    mul,
    pixel_shuffle,
    relu,
    slice_channels,
    tensor,
)

# The package re-exports a `tensor()` function that shadows the module name.
tensor_module = importlib.import_module("srkit.tensor")

CONV_CASES = pytest.mark.parametrize(
    "n, cin, cout, kernel, padding, groups",
    [
        (1, 3, 4, (3, 3), (1, 1), 1),
        (1, 4, 6, (3, 3), (1, 1), 2),
        (1, 3, 48, (3, 3), (1, 1), 3),
        (1, 5, 3, (1, 1), (0, 0), 1),
        (1, 2, 3, (3, 5), (2, 1), 1),
        (2, 3, 4, (3, 3), (1, 1), 1),
        (1, 3, 4, (3, 3), (0, 0), 1),
        (1, 3, 4, (1, 3), (0, 1), 1),
        (1, 3, 4, (3, 1), (1, 0), 1),
        (1, 3, 4, (3, 3), (2, 2), 1),
        (1, 1, 4, (3, 3), (1, 1), 1),
        (2, 8, 16, (3, 3), (1, 1), 8),
        (1, 3, 2, (5, 6), (0, 0), 1),
        (1, 6, 6, (1, 1), (0, 0), 6),
        (1, 3, 4, (1, 1), (2, 2), 1),
    ],
    ids=[
        "dense3x3",
        "groups2",
        "depthwise3to48",
        "pointwise",
        "kernel3x5",
        "batch2",
        "unpadded3x3",
        "kernel1x3",
        "kernel3x1",
        "pad2",
        "dense1to4",
        "depthwise8to16_batch2",
        "kernel5x6_to_1x1",
        "depthwise1x1",
        "pointwise_pad2",
    ],
)


def _assert_conv_matches_oracle(rng, n, cin, cout, kernel, padding, groups, bias):
    w = rng.normal(0, 0.5, (cout, cin // groups, *kernel)).astype(np.float32)
    b = rng.normal(0, 0.5, cout).astype(np.float32) if bias else None
    spec = ConvSpec(cin, cout, kernel, padding, w, bias=b, groups=groups)
    x = rand_tensor(rng, n, cin, 5, 6)
    assert_close(conv2d(x, spec), brute_conv(x, spec))


class TestTensorType:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError, match="rank"):
            Tensor(np.zeros((2, 3, 4), dtype=np.float32))

    def test_rejects_empty_extent(self):
        with pytest.raises(ShapeError, match=">= 1"):
            Tensor(np.zeros((1, 0, 4, 4), dtype=np.float32))

    def test_data_is_frozen(self):
        t = Tensor.zeros(1, 1, 2, 2)
        with pytest.raises(ValueError):
            t.data[0, 0, 0, 0] = 1.0

    def test_properties(self):
        t = Tensor.zeros(2, 3, 4, 5)
        assert (t.n, t.c, t.h, t.w) == (2, 3, 4, 5)
        assert t.numel == 120


class TestConvSpec:
    def test_weight_shape_checked(self):
        with pytest.raises(ShapeError, match="weight shape"):
            ConvSpec(3, 8, (3, 3), (1, 1), np.zeros((8, 3, 3, 1), np.float32))

    def test_groups_divisibility(self):
        with pytest.raises(ShapeError, match="groups"):
            ConvSpec(3, 8, (1, 1), (0, 0), np.zeros((8, 1, 1, 1), np.float32), groups=2)

    def test_bias_length_checked(self):
        with pytest.raises(ShapeError, match="bias"):
            ConvSpec(
                1, 2, (1, 1), (0, 0), np.zeros((2, 1, 1, 1), np.float32), bias=[1.0]
            )

    def test_param_count(self):
        spec = ConvSpec(
            3,
            32,
            (3, 3),
            (1, 1),
            np.zeros((32, 3, 3, 3), np.float32),
            bias=np.zeros(32, np.float32),
        )
        assert spec.param_count == 3 * 32 * 9 + 32 == 896


class TestConv2d:
    def test_channel_mismatch_names_dimension(self):
        spec = ConvSpec(3, 1, (1, 1), (0, 0), np.ones((1, 3, 1, 1), np.float32))
        with pytest.raises(ShapeError, match="channels"):
            conv2d(Tensor.zeros(1, 2, 4, 4), spec)

    def test_kernel_larger_than_input(self):
        spec = ConvSpec(1, 1, (5, 5), (0, 0), np.ones((1, 1, 5, 5), np.float32))
        with pytest.raises(ShapeError, match="does not fit"):
            conv2d(Tensor.zeros(1, 1, 3, 3), spec)

    def test_output_shape_general(self, rng):
        spec = ConvSpec(
            2,
            3,
            (3, 5),
            (2, 1),
            rng.normal(0, 1, (3, 2, 3, 5)).astype(np.float32),
        )
        out = conv2d(rand_tensor(rng, 1, 2, 8, 9), spec)
        assert out.shape == (1, 3, 8 + 4 - 3 + 1, 9 + 2 - 5 + 1)

    def test_grouped_matches_split_execution(self, rng):
        # groups=2 conv equals two independent half-convs
        w = rng.normal(0, 0.5, (6, 2, 3, 3)).astype(np.float32)
        b = rng.normal(0, 0.5, 6).astype(np.float32)
        spec = ConvSpec(4, 6, (3, 3), (1, 1), w, bias=b, groups=2)
        x = rand_tensor(rng, 1, 4, 5, 5)
        full = conv2d(x, spec)
        lo = conv2d(
            slice_channels(x, 0, 2), ConvSpec(2, 3, (3, 3), (1, 1), w[:3], bias=b[:3])
        )
        hi = conv2d(
            slice_channels(x, 2, 4), ConvSpec(2, 3, (3, 3), (1, 1), w[3:], bias=b[3:])
        )
        assert_close(full, concat_channels([lo, hi]))

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    @CONV_CASES
    def test_matches_brute_force_oracle(self, rng, n, cin, cout, kernel, padding, groups, bias):
        # at these sizes the default strip budget gives one whole-image strip
        _assert_conv_matches_oracle(rng, n, cin, cout, kernel, padding, groups, bias)

    # 1-row strips (with pad 2, the first and last two lie wholly in padding),
    # 2-row strips, which do not divide the 5-row outputs, so the last strip
    # overlaps the one before it, and one strip for the whole image
    @pytest.mark.parametrize("strip_rows", [1, 2, None], ids=["strip1", "strip2", "whole"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    @CONV_CASES
    def test_strips_match_brute_force_oracle(
        self, rng, monkeypatch, n, cin, cout, kernel, padding, groups, bias, strip_rows
    ):
        # conv2d's strip height is its float budget over this per-row cost
        row_floats = n * (6 + 2 * padding[1]) * (cin * (kernel[0] * kernel[1] + 1) + cout)
        budget = 1 << 40 if strip_rows is None else strip_rows * row_floats
        monkeypatch.setattr(tensor_module, "_STRIP_FLOATS", budget)
        _assert_conv_matches_oracle(rng, n, cin, cout, kernel, padding, groups, bias)

    def test_peak_memory_is_a_small_multiple_of_input_and_output(self, rng):
        # No im2col-style copy of the input: beyond its output, one 3x3 conv
        # holds only its strip buffers, not kh*kw copies of the input.
        w = rng.normal(0, 0.1, (32, 32, 3, 3)).astype(np.float32)
        spec = ConvSpec(32, 32, (3, 3), (1, 1), w, bias=np.zeros(32, np.float32))
        x = rand_tensor(rng, 1, 32, 64, 64)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (x.data.nbytes + out.data.nbytes)

    @pytest.mark.parametrize("side", [64, 256])
    def test_memory_above_the_output_does_not_grow_with_the_image(self, rng, side):
        # Strip buffers (band, column block, accumulator) stay near the 2 MiB
        # budget, so a padded plane (8.5 MB at 256^2) would break the bound.
        w = rng.normal(0, 0.1, (32, 32, 3, 3)).astype(np.float32)
        spec = ConvSpec(32, 32, (3, 3), (1, 1), w, bias=np.zeros(32, np.float32))
        x = rand_tensor(rng, 1, 32, side, side)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        strip_bytes = 4 * tensor_module._STRIP_FLOATS
        assert peak - out.data.nbytes <= 1.25 * strip_bytes, peak - out.data.nbytes


class TestElementwise:
    def test_relu_all_negative(self):
        out = relu(Tensor.full(1, 2, 3, 3, -5.0))
        assert np.all(out.data == 0.0)

    def test_add_and_mul(self):
        a, b = tensor([[[[1.0, 2.0]]]]), tensor([[[[3.0, 4.0]]]])
        assert add(a, b).data.reshape(-1).tolist() == [4.0, 6.0]
        assert mul(a, b).data.reshape(-1).tolist() == [3.0, 8.0]

    def test_mul_identity(self, rng):
        x = rand_tensor(rng, 1, 3, 4, 4)
        assert np.array_equal(mul(x, Tensor.full(1, 3, 4, 4, 1.0)).data, x.data)

    def test_mul_per_channel_broadcast(self, rng):
        x = rand_tensor(rng, 2, 3, 4, 4)
        scale = tensor([[[[2.0]], [[0.5]], [[-1.0]]]])
        out = mul(x, scale)
        assert_close(out.data[:, 1], 0.5 * x.data[:, 1])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="mismatch"):
            add(Tensor.zeros(1, 1, 2, 2), Tensor.zeros(1, 1, 2, 3))
        with pytest.raises(ShapeError, match="mismatch"):
            mul(Tensor.zeros(1, 2, 2, 2), Tensor.zeros(1, 2, 2, 3))


class TestPixelShuffle:
    def test_s1_identity(self, rng):
        x = rand_tensor(rng, 1, 4, 3, 3)
        assert pixel_shuffle(x, 1) is x

    def test_divisibility_error(self):
        with pytest.raises(ShapeError, match="divisible"):
            pixel_shuffle(Tensor.zeros(1, 3, 2, 2), 2)

    def test_preserves_value_multiset(self, rng):
        x = rand_tensor(rng, 1, 16, 3, 5)
        out = pixel_shuffle(x, 4)
        assert np.array_equal(np.sort(out.data, axis=None), np.sort(x.data, axis=None))


class TestConcat:
    def test_single_tensor(self, rng):
        a = rand_tensor(rng, 1, 3, 2, 2)
        assert np.array_equal(concat_channels([a]).data, a.data)

    def test_slice_roundtrip_bit_exact(self, rng):
        parts = [rand_tensor(rng, 2, c, 3, 3) for c in (1, 5, 2)]
        cat = concat_channels(parts)
        offsets = [0, 1, 6, 8]
        for part, lo, hi in zip(parts, offsets, offsets[1:]):
            assert np.array_equal(slice_channels(cat, lo, hi).data, part.data)

    def test_spatial_mismatch(self, rng):
        with pytest.raises(ShapeError, match="concat"):
            concat_channels([Tensor.zeros(1, 1, 2, 2), Tensor.zeros(1, 1, 3, 2)])
