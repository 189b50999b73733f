import importlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from srkit.graph import _cut_specs
from srkit.selftest import assert_close, brute_conv, rand_tensor
from srkit.tensor import (
    Band,
    ConvSpec,
    ShapeError,
    Tensor,
    Tiles,
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

_CONV_NAMES = "n, cin, cout, kernel, padding, groups"
_CONV_TABLE = {  # id: (n, cin, cout, kernel, padding, groups)
    "dense3x3": (1, 3, 4, (3, 3), (1, 1), 1),
    "groups2": (1, 4, 6, (3, 3), (1, 1), 2),
    "depthwise3to48": (1, 3, 48, (3, 3), (1, 1), 3),
    "pointwise": (1, 5, 3, (1, 1), (0, 0), 1),
    "kernel3x5": (1, 2, 3, (3, 5), (2, 1), 1),
    "batch2": (2, 3, 4, (3, 3), (1, 1), 1),
    "unpadded3x3": (1, 3, 4, (3, 3), (0, 0), 1),
    "kernel1x3": (1, 3, 4, (1, 3), (0, 1), 1),
    "kernel3x1": (1, 3, 4, (3, 1), (1, 0), 1),
    "pad2": (1, 3, 4, (3, 3), (2, 2), 1),
    "dense1to4": (1, 1, 4, (3, 3), (1, 1), 1),
    "depthwise8to16_batch2": (2, 8, 16, (3, 3), (1, 1), 8),
    "kernel5x6_to_1x1": (1, 3, 2, (5, 6), (0, 0), 1),
    "depthwise1x1": (1, 6, 6, (1, 1), (0, 0), 6),
    "pointwise_pad2": (1, 3, 4, (1, 1), (2, 2), 1),
}
CONV_CASES = pytest.mark.parametrize(
    _CONV_NAMES, list(_CONV_TABLE.values()), ids=list(_CONV_TABLE)
)
_GROUPED = {name: case for name, case in _CONV_TABLE.items() if case[-1] > 1}
GROUPED_CASES = pytest.mark.parametrize(_CONV_NAMES, list(_GROUPED.values()), ids=list(_GROUPED))


def _spec(rng, cin, cout, kernel, padding, groups, bias):
    w = rng.normal(0, 0.5, (cout, cin // groups, *kernel)).astype(np.float32)
    b = rng.normal(0, 0.5, cout).astype(np.float32) if bias else None
    return ConvSpec(cin, cout, kernel, padding, w, bias=b, groups=groups)


def _assert_conv_matches_oracle(rng, n, cin, cout, kernel, padding, groups, bias):
    spec = _spec(rng, cin, cout, kernel, padding, groups, bias)
    x = rand_tensor(rng, n, cin, 5, 6)
    assert_close(conv2d(x, spec), brute_conv(x, spec))


STRIP_ROWS = pytest.mark.parametrize("strip_rows", [1, 2, None], ids=["strip1", "strip2", "whole"])


def _band(data, r0, pad):
    """data as rows [r0, r0 + h) of a band with `pad` zero columns a side;
    the buffer's rows above and below hold junk."""
    n, c, h, w = data.shape
    buf = np.full((n, c, r0 + h + 2, w + 2 * pad), 9.0, np.float32)
    buf[:, :, r0 : r0 + h] = 0.0
    buf[:, :, r0 : r0 + h, pad : pad + w] = data
    return Band(buf, r0, h, pad)


def _set_strip_rows(monkeypatch, n, cin, cout, kernel, padding, groups, strip_rows, h=5, w=6):
    """Make conv2d run strips of `strip_rows` output rows on n x h x w inputs
    (one strip for the whole image when None): set the least budget for
    which conv_strips gives that many rows, or all of a shorter output's,
    and check that it does."""
    weight = np.zeros((cout, cin // groups, *kernel), np.float32)
    spec = ConvSpec(cin, cout, kernel, padding, weight, groups=groups)
    hout = h + 2 * padding[0] - kernel[0] + 1
    want = hout if strip_rows is None else min(strip_rows, hout)

    def rows(budget):
        monkeypatch.setattr(tensor_module, "_STRIP_FLOATS", budget)
        return tensor_module.conv_strips(n, hout, w, spec, None, None)[0]

    lo, hi = 1, 1 << 40  # rows grow with the budget
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if rows(mid) >= want else (mid + 1, hi)
    assert rows(lo) == want, (lo, want)


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
    # is one row, and one strip for the whole image
    @STRIP_ROWS
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    @CONV_CASES
    def test_strips_match_brute_force_oracle(
        self, rng, monkeypatch, n, cin, cout, kernel, padding, groups, bias, strip_rows
    ):
        _set_strip_rows(monkeypatch, n, cin, cout, kernel, padding, groups, strip_rows)
        _assert_conv_matches_oracle(rng, n, cin, cout, kernel, padding, groups, bias)

    # Each strip height with three holders of the 5-row input: channel
    # parts; the plane as rows 3-7 of one band (read in place when its zero
    # columns are the conv's column padding and there is no row padding);
    # and each channel part rows of a band of its own, from its own row and
    # with its own zero columns, as the fused stream passes a concat's parts.
    @pytest.mark.parametrize(
        "strip_rows, tiling",
        [(rows, tiling) for tiling in ("channels", "rows", "grid") for rows in (1, 2, None)],
        ids=[
            f"{strips}{'' if tiling == 'channels' else '_' + tiling}"
            for tiling in ("channels", "rows", "grid")
            for strips in ("strip1", "strip2", "whole")
        ],
    )
    @CONV_CASES
    def test_concat_parts_match_conv_of_concat(
        self, rng, monkeypatch, n, cin, cout, kernel, padding, groups, strip_rows, tiling
    ):
        # The input split 1 / (cin-1)//2 / the rest, empty parts dropped: a
        # 1-channel part leads, every part of a 3-channel input has one
        # channel, and groups2's first group straddles parts 0 and 1.
        sizes = [c for c in (1, (cin - 1) // 2, cin - 1 - (cin - 1) // 2) if c]
        parts = [rand_tensor(rng, n, c, 5, 6) for c in sizes]
        spec = _spec(rng, cin, cout, kernel, padding, groups, bias=True)
        _set_strip_rows(monkeypatch, n, cin, cout, kernel, padding, groups, strip_rows)
        whole = conv2d(concat_channels(parts), spec)
        if tiling == "rows":
            held = _band(concat_channels(parts).data, 3, 1)
        else:
            arrays = (p.data if tiling == "channels" else _band(p.data, 1 + i, i).interior for i, p in enumerate(parts))
            held = Tiles(tuple(arrays), (n, cin, 5, 6))
        assert np.array_equal(conv2d(held, spec).data, whole.data)

    @GROUPED_CASES
    @pytest.mark.parametrize("split", ["first_group", "ones", "off_groups"])
    def test_grouped_conv_maps_parts_to_parts(
        self, rng, n, cin, cout, kernel, padding, groups, split
    ):
        # Cut on group boundaries, the concat of each channel part's conv
        # (_cut_specs) is the whole conv, as the fused run's rewrite has it;
        # 1-channel parts split groups2's groups, and parts off the
        # boundaries (possible only where groups have 2 channels) are not
        # cut: one conv2d reads them all.
        cg = cin // groups
        sizes = {"first_group": [cg, cin - cg], "ones": [1] * cin, "off_groups": [1, cin - 1]}
        parts = [rand_tensor(rng, n, c, 5, 6) for c in sizes[split]]
        spec = _spec(rng, cin, cout, kernel, padding, groups, bias=True)
        whole = conv2d(concat_channels(parts), spec)
        cuts = _cut_specs(spec, sizes[split])
        cut = not any(c % cg for c in sizes[split])
        assert (cuts is not None) == cut
        if cuts:
            outs = [conv2d(part, conv) for part, conv in zip(parts, cuts)]
            assert np.array_equal(concat_channels(outs).data, whole.data)

    # At the default budget both 32-channel convs run their 61 output rows in
    # six strips of 9 and one of 7; the small ones run 3-row strips on 7 rows.
    @pytest.mark.parametrize(
        "n, cin, cout, kernel, padding, groups, h, w, strip_rows",
        [
            (1, 32, 32, (3, 3), (1, 1), 1, 61, 63, None),
            (1, 32, 32, (3, 3), (1, 1), 32, 61, 63, None),
            (1, 5, 3, (1, 1), (0, 0), 1, 7, 6, 3),
            (2, 3, 4, (3, 3), (1, 1), 1, 7, 6, 3),
        ],
        ids=["dense32_61x63", "depthwise32_61x63", "pointwise", "batch2"],
    )
    def test_computes_each_output_row_once(
        self, rng, monkeypatch, n, cin, cout, kernel, padding, groups, h, w, strip_rows
    ):
        if strip_rows is not None:
            _set_strip_rows(monkeypatch, n, cin, cout, kernel, padding, groups, strip_rows, h, w)
        # weights scaled by fan-in keep 288-term float32 sums within the
        # oracle's tolerance
        fan_in = cin // groups * kernel[0] * kernel[1]
        weight = rng.normal(0, fan_in**-0.5, (cout, cin // groups, *kernel)).astype(np.float32)
        bias = rng.normal(0, 0.5, cout).astype(np.float32)
        spec = ConvSpec(cin, cout, kernel, padding, weight, bias=bias, groups=groups)
        x = rand_tensor(rng, n, cin, h, w)
        columns = []  # per GEMM: the output columns of one group, over the batch
        matmul = np.matmul

        def counted(a, b, *args, **kwargs):
            columns.append(b.shape[0] * b.shape[-1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        y = conv2d(x, spec)
        monkeypatch.setattr(np, "matmul", matmul)
        hout = h + 2 * padding[0] - kernel[0] + 1
        assert sum(columns) == n * hout * (w + 2 * padding[1]), columns
        # The oracle's loops take seconds on all 32 output channels of the
        # dense 61x63 conv, so an ungrouped conv is checked on two: one GEMM
        # per strip computes every output channel, so a wrong row shows in each.
        if groups == 1:
            spec = replace(spec, out_channels=2, weight=weight[:2], bias=bias[:2])
        assert_close(y.data[:, : spec.out_channels], brute_conv(x, spec))

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
        # Strip buffers (band, column block, accumulator) stay within the
        # strip budget (1.5 MiB), which also counts the BLAS's packed copy,
        # so a padded plane (8.5 MB at 256^2) would break the bound.
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

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="mismatch"):
            add(Tensor.zeros(1, 1, 2, 2), Tensor.zeros(1, 1, 2, 3))
        with pytest.raises(ShapeError, match="mismatch"):
            mul(Tensor.zeros(1, 2, 2, 2), Tensor.zeros(1, 2, 2, 3))


class TestPixelShuffle:
    def test_s1_identity(self, rng):
        x = rand_tensor(rng, 1, 4, 3, 3)
        assert pixel_shuffle(x, 1) is x

    def test_s1_writes_out(self, rng):
        x = rand_tensor(rng, 1, 4, 3, 3)
        out = np.full(x.shape, np.nan, np.float32)
        assert pixel_shuffle(x, 1, out) is out and np.array_equal(out, x.data)

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

    @pytest.mark.parametrize("odd", [(2, 1, 2, 3), (1, 2, 3, 3), (1, 1, 2, 4)], ids=["n", "h", "w"])
    def test_parts_raise_the_concat_error(self, odd):
        # an unbuilt concat (channel parts) checks (n, h, w) as concat does,
        # and so does a part that does not fit the plane it is said to hold
        parts = [Tensor.zeros(1, 2, 2, 3), Tensor.zeros(*odd)]
        with pytest.raises(ShapeError) as built:
            concat_channels(parts)
        assert "concat_channels: part 1 has (n,h,w)" in str(built.value)
        with pytest.raises(ShapeError) as unbuilt:
            Tiles.concat(parts)
        assert str(unbuilt.value) == str(built.value)
        with pytest.raises(ShapeError, match=r"Tiles: part 1 .* does not have the \(n, h, w\) of"):
            Tiles((parts[0].data, parts[1].data), (1, 2 + parts[1].c, 2, 3))

    def test_parts_describe_their_concat(self, rng):
        # shape, c and numel are what a tracer or a shape check reads of an
        # input, here held as its two channel parts; a missing part, or one
        # too many, is rejected
        parts = [rand_tensor(rng, 2, 1, 3, 4), rand_tensor(rng, 2, 5, 3, 4)]
        built = concat_channels(parts)
        tiles = (parts[0].data, parts[1].data)
        held = Tiles(tiles, built.shape)
        assert (held.shape, held.c, held.numel) == (built.shape, built.c, built.numel)
        assert np.array_equal(held.build().data, built.data)
        with pytest.raises(ShapeError, match=r"Tiles: parts hold 5 of the 6 channels of \(2, 6, 3, 4\)"):
            Tiles(tiles[1:], built.shape)
        with pytest.raises(ShapeError, match="Tiles: parts hold 7 of the 6 channels"):
            Tiles(tiles + tiles[:1], built.shape)
