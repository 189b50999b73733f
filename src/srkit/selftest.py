"""Built-in oracle suite: every derived expected value, recomputed on demand.

Each check re-derives its expectation through an independent route (direct
summation, closed forms, sequential execution, ...) and compares the
production path against it. `run()` prints one line per check and returns
the number of failures, which the CLI turns into the exit status. pytest
runs every check in CHECKS as its own case, so this module is the one copy
of these oracles, and of the tolerance and random-input helpers the tests
share.
"""

from __future__ import annotations

import math
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import fusion, metrics, models, scoring
from .graph import ModelGraph as Graph
from .graph import Node, run_graph
from .tensor import (
    ConvSpec,
    Tensor,
    concat_channels,
    conv2d,
    pixel_shuffle,
    relu,
    slice_channels,
    space_to_depth,
    tensor,
)

RTOL, ATOL = 1e-5, 1e-6


def assert_close(a, b, rtol=RTOL, atol=ATOL, msg="") -> None:
    """allclose on Tensors or arrays: equal shapes, |a - b| <= atol + rtol * |b|, no NaN."""
    a, b = (np.asarray(v.data if isinstance(v, Tensor) else v) for v in (a, b))
    assert a.shape == b.shape, f"{msg} shape {a.shape} != {b.shape}".strip()
    bad = ~np.isclose(a, b, rtol=rtol, atol=atol)
    assert not bad.any(), (
        f"{msg} {bad.sum()} of {bad.size} elements differ, "
        f"max abs error {np.abs(a - b).max():.3g}"
    ).strip()


def rand_tensor(rng, n, c, h, w, scale=1.0) -> Tensor:
    return Tensor((scale * rng.normal(0.0, 1.0, (n, c, h, w))).astype(np.float32))


def brute_conv(x: Tensor, spec: ConvSpec) -> np.ndarray:
    """Direct quadruple-loop cross-correlation; the conv oracle."""
    n, _, h, w = x.shape
    kh, kw = spec.kernel
    ph, pw = spec.padding
    hout, wout = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    padded = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cg = spec.in_channels // spec.groups
    og = spec.out_channels // spec.groups
    out = np.zeros((n, spec.out_channels, hout, wout), dtype=np.float64)
    for b in range(n):
        for o in range(spec.out_channels):
            g = o // og
            for y in range(hout):
                for xx in range(wout):
                    acc = 0.0
                    for i in range(cg):
                        patch = padded[b, g * cg + i, y : y + kh, xx : xx + kw]
                        acc += float((patch * spec.weight[o, i]).sum())
                    if spec.bias is not None:
                        acc += float(spec.bias[o])
                    out[b, o, y, xx] = acc
    return out


# --------------------------------------------------------------------------
# tensor core


def check_conv_scalar():
    out = conv2d(tensor([[[[2.0]]]]), ConvSpec(1, 1, (1, 1), (0, 0), [[[[3.0]]]]))
    assert out.data[0, 0, 0, 0] == 6.0
    rng = np.random.default_rng(0)
    x = rand_tensor(rng, 2, 4, 5, 7)
    assert np.array_equal(conv2d(x, ConvSpec.identity(4)).data, x.data)


def check_conv_brute_force():
    ones = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    spec = ConvSpec(1, 1, (3, 3), (1, 1), np.ones((1, 1, 3, 3), dtype=np.float32))
    out = conv2d(ones, spec)
    assert out.data[0, 0].tolist() == [[4, 6, 4], [6, 9, 6], [4, 6, 4]]
    assert_close(out.data, brute_conv(ones, spec))


def check_conv_depthwise_groups():
    x = tensor([[[[1.0]], [[10.0]]]])
    spec = ConvSpec(2, 2, (1, 1), (0, 0), [[[[2.0]]], [[[3.0]]]], groups=2)
    out = conv2d(x, spec)
    assert out.data.reshape(-1).tolist() == [2.0, 30.0]
    assert_close(out.data, brute_conv(x, spec))


def check_conv_random_vs_brute():
    rng = np.random.default_rng(11)
    x = rand_tensor(rng, 2, 3, 5, 6)
    spec = models.random_conv(rng, 3, 4, k=3)
    assert_close(conv2d(x, spec).data, brute_conv(x, spec))


def check_relu_idempotent():
    rng = np.random.default_rng(1)
    x = rand_tensor(rng, 1, 4, 6, 6)
    once = relu(x)
    assert np.array_equal(relu(once).data, once.data)
    assert relu(tensor([[[[-1.0, 0.0, 2.0, 5.0]]]])).data.reshape(-1).tolist() == [
        0.0,
        0.0,
        2.0,
        5.0,
    ]


def check_pixel_shuffle_layout():
    out = pixel_shuffle(tensor([[[[1.0]], [[2.0]], [[3.0]], [[4.0]]]]), 2)
    assert out.shape == (1, 1, 2, 2)
    assert out.data[0, 0].tolist() == [[1.0, 2.0], [3.0, 4.0]]


def check_pixel_shuffle_roundtrip():
    rng = np.random.default_rng(2)
    x = rand_tensor(rng, 2, 32, 4, 6)
    assert np.array_equal(space_to_depth(pixel_shuffle(x, 4), 4).data, x.data)
    assert np.array_equal(pixel_shuffle(space_to_depth(x, 1), 1).data, x.data)
    y = rand_tensor(rng, 1, 2, 6, 8)
    assert np.array_equal(pixel_shuffle(space_to_depth(y, 2), 2).data, y.data)


def check_concat_roundtrip():
    rng = np.random.default_rng(3)
    a, b = rand_tensor(rng, 1, 48, 4, 4), rand_tensor(rng, 1, 32, 4, 4)
    cat = concat_channels([a, b])
    assert cat.c == 80
    assert np.array_equal(slice_channels(cat, 0, 48).data, a.data)
    assert np.array_equal(slice_channels(cat, 48, 80).data, b.data)


def check_conv_linearity():
    rng = np.random.default_rng(4)
    spec = models.random_conv(rng, 3, 5, k=3, bias=False)
    x, y = rand_tensor(rng, 1, 3, 6, 6), rand_tensor(rng, 1, 3, 6, 6)
    lhs = conv2d(Tensor(2.5 * x.data - 1.5 * y.data), spec)
    rhs = 2.5 * conv2d(x, spec).data - 1.5 * conv2d(y, spec).data
    assert_close(lhs.data, rhs)


# --------------------------------------------------------------------------
# model zoo


def check_block_fused_matches_unfused():
    rng = np.random.default_rng(5)
    block = models.random_block(rng, 32, 32)
    nodes, fg, out = models._block_nodes("b1", block, "input")
    g = Graph("block", [Node("input", "input", (), channels=32), *nodes], out, fusion_groups=[fg])
    g.validate()
    x = rand_tensor(rng, 1, 32, 8, 8)
    assert_close(run_graph(g, x, "fused"), run_graph(g, x, "unfused"))


def check_graph_fused_matches_unfused():
    g = models.build_spanv2(seed=7)
    rng = np.random.default_rng(6)
    x = rand_tensor(rng, 1, 3, 12, 12)
    assert_close(run_graph(g, x, "fused"), run_graph(g, x, "unfused"))


def check_near_pixel_equivalence():
    rng = np.random.default_rng(7)
    spec = models.near_pixel_init(models.random_conv(rng, 3, 48, k=3, groups=3), 4)
    x = rand_tensor(rng, 1, 3, 6, 5)
    got = pixel_shuffle(conv2d(x, spec), 4)
    assert np.array_equal(got.data, models.nearest_upsample(x, 4).data)
    nonzero = spec.weight[spec.weight != 0]
    assert nonzero.size == 48 and np.all(nonzero == 1.0)
    assert np.all(spec.bias == 0.0)


# --------------------------------------------------------------------------
# fusion toolkit


def check_fused_scalar_case():
    x, f3 = tensor([[[[2.0]]]]), tensor([[[[3.0]]]])
    attn = ConvSpec(1, 1, (1, 1), (0, 0), [[[[0.5]]]], bias=[0.1])
    out = fusion.fused_attention(x, f3, attn)
    assert abs(out.data[0, 0, 0, 0] - 8.0) < 1e-6


def check_traffic_counts():
    rng = np.random.default_rng(9)
    x, f3 = rand_tensor(rng, 1, 32, 16, 16), rand_tensor(rng, 1, 32, 16, 16)
    attn = models.random_conv(rng, 32, 32, k=1)
    numel = 32 * 16 * 16
    fused_counter, ref_counter = fusion.TrafficCounter(), fusion.TrafficCounter()
    fusion.fused_attention(x, f3, attn, fused_counter)
    fusion.reference_attention(x, f3, attn, ref_counter)
    assert (fused_counter.element_reads, fused_counter.element_writes) == (
        2 * numel,
        numel,
    )
    assert (ref_counter.element_reads, ref_counter.element_writes) == (
        5 * numel,
        3 * numel,
    )
    assert fused_counter.total == 24576 and ref_counter.total == 65536


def whole_max_errors(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """max_errors on whole float64 copies of its operands."""
    diff = float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max(initial=0.0))
    return diff, diff / max(float(np.abs(b).max(initial=0.0)), 1e-12)


@contextmanager
def _blocks_of(floats: int):
    """Run max_errors and psnr in blocks of at most `floats` floats."""
    kept = fusion._STRIP_FLOATS, metrics._STRIP_FLOATS
    fusion._STRIP_FLOATS = metrics._STRIP_FLOATS = floats
    try:
        yield
    finally:
        fusion._STRIP_FLOATS, metrics._STRIP_FLOATS = kept


def check_max_errors_whole_array_formula():
    rng = np.random.default_rng(31)
    pairs = []
    for shape in ((1, 3, 5, 7), (2, 4, 9, 11), (1, 1, 1, 1), (3, 8, 8)):
        a = rng.normal(0.0, 1.0, shape).astype(np.float32)
        pairs.append((a, (a + rng.normal(0.0, 1e-3, shape)).astype(np.float32)))
    a, b = pairs[1]
    nan, inf = a.copy(), a.copy()
    nan.flat[100] = np.nan  # in a later block than the first, before larger errors
    nan.flat[700] += 5.0
    inf.flat[50], inf.flat[600] = np.inf, -np.inf
    pairs += [(nan, b), (b, nan), (inf, b)]

    def same(x: float, y: float) -> bool:
        return x == y or (math.isnan(x) and math.isnan(y))

    for floats in (1, 7, fusion._STRIP_FLOATS):  # one-element, partial and whole blocks
        with _blocks_of(floats):
            for x, y in pairs:
                got, want = fusion.max_errors(x, y), whole_max_errors(x, y)
                assert all(map(same, got, want)), f"{x.shape} blocks of {floats}: {got} != {want}"
            assert all(map(math.isnan, fusion.max_errors(nan, b))), "a NaN did not come through"
            assert fusion.max_errors(inf, b) == (math.inf, math.inf)


def check_compose_interior():
    rng = np.random.default_rng(10)
    first = models.random_conv(rng, 3, 4, k=3)
    second = models.random_conv(rng, 4, 2, k=3)
    x = rand_tensor(rng, 1, 3, 12, 12)
    seq = conv2d(conv2d(x, first), second)
    comp = conv2d(x, fusion.compose_convs(first, second))
    assert comp.shape == seq.shape
    assert_close(comp.data[:, :, 1:-1, 1:-1], seq.data[:, :, 1:-1, 1:-1])
    ext = fusion.sequential_extended(first, second, x)
    assert_close(comp, ext)


def check_compose_identity_units():
    eye1 = ConvSpec.identity(3)
    out = fusion.compose_convs(eye1, eye1)
    assert np.array_equal(out.weight, eye1.weight)
    delta = np.zeros((1, 1, 3, 3), dtype=np.float32)
    delta[0, 0, 1, 1] = 1.0
    d3 = ConvSpec(1, 1, (3, 3), (1, 1), delta)
    comp = fusion.compose_convs(d3, d3)
    assert comp.kernel == (5, 5) and comp.padding == (2, 2)
    want = np.zeros((1, 1, 5, 5), dtype=np.float32)
    want[0, 0, 2, 2] = 1.0
    assert np.array_equal(comp.weight, want)


def check_compose_bias_constant_input():
    rng = np.random.default_rng(12)
    first = models.random_conv(rng, 3, 5, k=1)
    second = models.random_conv(rng, 5, 2, k=3)
    comp = fusion.compose_convs(first, second)
    assert comp.kernel == (3, 3)
    want_bias = second.bias + second.weight.sum(axis=(2, 3)) @ first.bias
    assert_close(comp.bias, want_bias)
    x = Tensor(np.full((1, 3, 6, 6), 0.75, dtype=np.float32))
    seq = conv2d(conv2d(x, first), second)
    got = conv2d(x, comp)
    assert_close(got.data[:, :, 1:-1, 1:-1], seq.data[:, :, 1:-1, 1:-1])


def check_lora_scalar_and_linearity():
    base = ConvSpec(1, 1, (1, 1), (0, 0), [[[[2.0]]]])
    lora = fusion.LoraFactors(a=[[4.0]], b=[[3.0]], rank=1, alpha=1.0)
    assert fusion.lora_merge(base, lora).weight[0, 0, 0, 0] == 14.0
    rng = np.random.default_rng(24)
    base = models.random_conv(rng, 2, 3, k=3)
    a = rng.normal(0, 0.3, (3, 6)).astype(np.float32)
    b = rng.normal(0, 0.3, (9, 3)).astype(np.float32)
    d1, d2 = (
        fusion.lora_merge(base, fusion.LoraFactors(a, b, 1, alpha)).weight - base.weight
        for alpha in (1.0, 2.0)
    )
    assert np.allclose(d2, 2.0 * d1)


def check_lora_zero_and_forward():
    rng = np.random.default_rng(13)
    base = models.random_conv(rng, 4, 6, k=3)
    zero = fusion.LoraFactors(
        a=np.zeros((6, 12), np.float32), b=np.zeros((18, 6), np.float32), rank=2
    )
    merged = fusion.lora_merge(base, zero)
    assert np.array_equal(merged.weight, base.weight)
    assert np.array_equal(merged.bias, base.bias)
    lora = fusion.LoraFactors(
        a=rng.normal(0, 0.2, (6, 12)).astype(np.float32),
        b=rng.normal(0, 0.2, (18, 6)).astype(np.float32),
        rank=2,
        alpha=1.5,
    )
    x = rand_tensor(rng, 1, 4, 7, 7)
    assert_close(
        conv2d(x, fusion.lora_merge(base, lora)), fusion.lora_forward(x, base, lora)
    )


def check_collapse_branches():
    rng = np.random.default_rng(14)
    c = 6
    branches = [models.random_conv(rng, c, c, k=3), models.random_conv(rng, c, c, k=1)]
    group = fusion.BranchGroup(tuple(branches), include_identity=True)
    merged = fusion.collapse_branches(branches, include_identity=True)
    for _ in range(3):
        x = rand_tensor(rng, 1, c, 7, 7)
        assert_close(conv2d(x, merged), fusion.branch_forward(x, group))
    single = fusion.collapse_branches([branches[0]])
    assert np.array_equal(single.weight, branches[0].weight)
    assert np.array_equal(single.bias, branches[0].bias)


def check_compose_param_bookkeeping():
    rng = np.random.default_rng(15)
    head = models.random_conv(rng, 3, 26, k=3)
    body = models.random_conv(rng, 26, 26, k=3)
    comp = fusion.compose_convs(head, body)
    assert comp.kernel == (5, 5)
    saved = head.param_count + body.param_count - comp.param_count
    assert saved == 4862 and abs(saved - 5000) <= 500, f"parameter saving {saved} not ~5K"


# --------------------------------------------------------------------------
# metrics and scoring


def check_psnr_border_discard():
    rng = np.random.default_rng(21)
    img = rng.integers(0, 256, (24, 30, 3), dtype=np.uint8)
    assert metrics.psnr(img, img) == 100.0
    corrupted = img.copy()
    corrupted[:4, :, :] = 0
    corrupted[-4:, :, :] = 0
    corrupted[:, :4, :] = 0
    corrupted[:, -4:, :] = 0
    assert metrics.psnr(corrupted, img, border=4) == 100.0
    assert metrics.psnr(corrupted, img, border=0) < 100.0
    # offset by +/-1 everywhere (away from saturation) so MSE is exactly 1
    offset = np.where(img == 255, img - 1, img + 1).astype(np.uint8)
    got = metrics.psnr(offset, img, border=4)
    assert abs(got - 10 * math.log10(255**2)) <= 1e-9
    assert round(got, 3) == 48.131


def whole_psnr(pred: np.ndarray, gt: np.ndarray, border: int) -> float:
    """psnr on whole float64 copies of the crops."""
    if border:
        pred, gt = pred[border:-border, border:-border], gt[border:-border, border:-border]
    diff = pred.astype(np.float64) - gt.astype(np.float64)
    mse = float(np.mean(diff * diff))
    return metrics.PSNR_CAP_DB if mse == 0.0 else float(10.0 * np.log10(255.0**2 / mse))


def check_psnr_row_blocks():
    rng = np.random.default_rng(32)
    for h, w in ((9, 13), (16, 30), (41, 23)):
        gt = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        noise = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        pred = np.where(rng.random((h, w, 3)) < 0.3, noise, gt)
        for border in (0, 4):
            row = 3 * (w - 2 * border)
            # one-row blocks, two-row blocks (a partial last one on odd
            # crop heights), three-row blocks and one whole-crop block
            for floats in (1, 2 * row, 3 * row + 2, metrics._STRIP_FLOATS):
                with _blocks_of(floats):
                    for a, b in ((pred, gt), (noise, gt), (gt, gt)):
                        got, want = metrics.psnr(a, b, border), whole_psnr(a, b, border)
                        assert got == want, f"{h}x{w} border {border} blocks of {floats}: {got} != {want}"


def check_param_counts():
    rng = np.random.default_rng(22)
    assert models.random_conv(rng, 3, 32, k=3).param_count == 896
    v2 = metrics.count_params(models.build_spanv2())
    assert v2 == 140_816 and abs(v2 - 139_000) / 139_000 <= 0.02
    span = metrics.count_params(models.build_span_baseline())
    assert span == 150_688 and abs(span - 151_000) / 151_000 <= 0.02


def check_flop_counts():
    g = models.build_spanv2()
    v2 = metrics.count_flops(g)  # the default size, 256x256
    assert v2 == 9_270_460_416 and abs(v2 - 9.11e9) / 9.11e9 <= 0.03
    span = metrics.count_flops(models.build_span_baseline())
    assert abs(span - 9.83e9) / 9.83e9 <= 0.03
    assert metrics.count_flops(g, 128, 128) * 4 == v2
    assert metrics.count_flops(g, 64, 128) * 2 == metrics.count_flops(g, 128, 128)
    rng = np.random.default_rng(23)
    for bias, want in ((False, 56_623_104), (True, 56_623_104 + 32 * 65_536)):
        conv = models.random_conv(rng, 3, 32, bias=bias)
        source = Node("input", "input", (), channels=3)
        probe = Graph("probe", [source, Node("conv", "conv", ("input",), spec=conv)], "conv")
        probe.validate()
        assert metrics.count_flops(probe, 256, 256) == want


def check_runtime_ave_semantics():
    ave = metrics.average_set_runtimes([5.700, 4.810])
    assert abs(ave - 5.255) <= 1e-12
    assert abs(ave - 5.256) <= 0.002  # printed column, rounded upstream


def check_archive_roundtrip_and_rejects():
    import struct
    import tempfile
    from pathlib import Path

    from .archive import ArchiveError, load_archive, save_archive

    g = models.build_spanv2(c=8, s=2, blocks=1, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.srwt"
        save_archive(g, path)
        loaded = load_archive(path)
        assert np.array_equal(
            loaded.node("b1.conv_a").spec.weight, g.node("b1.conv_a").spec.weight
        )
        raw = bytearray(path.read_bytes())
        bad = Path(tmp) / "bad.srwt"
        bad.write_bytes(b"NOPE" + bytes(raw[4:]))
        try:
            load_archive(bad)
        except ArchiveError as exc:
            assert "magic" in str(exc)
        else:
            raise AssertionError("bad magic accepted")
        import json as _json

        (hlen,) = struct.unpack("<I", raw[6:10])
        header = _json.loads(bytes(raw[10 : 10 + hlen]))
        header["tensors"][1]["offset"] = 0
        payload = bytes(raw[10 + hlen :])
        blob = _json.dumps(header).encode()
        overlap = Path(tmp) / "overlap.srwt"
        overlap.write_bytes(b"SRWT" + struct.pack("<HI", 1, len(blob)) + blob + payload)
        try:
            load_archive(overlap)
        except ArchiveError as exc:
            assert "overlap" in str(exc)
        else:
            raise AssertionError("overlapping offsets accepted")


def check_graph_rewrites_preserve_outputs():
    from .rewrites import apply_rewrites, decorate_for_reparam

    rng = np.random.default_rng(30)
    plain = models.build_spanv2(seed=2)
    train = decorate_for_reparam(plain, seed=2)
    merged, reports = apply_rewrites(train, seed=2)
    assert reports, "expected rewrites to fire"
    x = rand_tensor(rng, 1, 3, 8, 8)
    assert_close(run_graph(merged, x), run_graph(train, x))
    assert metrics.count_params(merged) == metrics.count_params(plain)
    assert metrics.count_flops(merged, 64, 64) == metrics.count_flops(plain, 64, 64)
    assert metrics.count_params(train) > metrics.count_params(plain)  # live branches counted


def check_scoring_anchors():
    assert abs(scoring.score_metric(7.65, 7.65) - math.e**2) <= 1e-6 * math.e**2
    for baseline in (7.65, 0.151):
        assert str(scoring.round_half_even(scoring.score_metric(baseline, baseline))) == "7.39"
    runtime = scoring.score_metric(5.256, 7.650)
    params = scoring.score_metric(0.038, 0.151)
    assert str(scoring.round_half_even(runtime)) == "3.95"
    assert str(scoring.round_half_even(params)) == "1.65"
    sub = (3.9515, 6.3034, 6.3823)
    overall = scoring.score_final(sub[0], sub[2], sub[1])
    assert str(scoring.round_half_even(overall)) == "4.43"
    assert scoring.score_final(0.0, 0.0, 0.0) == 0.0


# --------------------------------------------------------------------------
# runner

CHECKS = [
    check_conv_scalar,
    check_conv_brute_force,
    check_conv_depthwise_groups,
    check_conv_random_vs_brute,
    check_relu_idempotent,
    check_pixel_shuffle_layout,
    check_pixel_shuffle_roundtrip,
    check_concat_roundtrip,
    check_conv_linearity,
    check_block_fused_matches_unfused,
    check_graph_fused_matches_unfused,
    check_near_pixel_equivalence,
    check_fused_scalar_case,
    check_traffic_counts,
    check_max_errors_whole_array_formula,
    check_compose_interior,
    check_compose_identity_units,
    check_compose_bias_constant_input,
    check_lora_scalar_and_linearity,
    check_lora_zero_and_forward,
    check_collapse_branches,
    check_compose_param_bookkeeping,
    check_psnr_border_discard,
    check_psnr_row_blocks,
    check_param_counts,
    check_flop_counts,
    check_runtime_ave_semantics,
    check_archive_roundtrip_and_rejects,
    check_graph_rewrites_preserve_outputs,
    check_scoring_anchors,
]


def name_of(check) -> str:
    return check.__name__.removeprefix("check_")


def _describe(exc: Exception) -> str:
    """The exception's message; for a bare `assert`, which has none, its type
    and the failing source line from the traceback, on one line."""
    if str(exc):
        return str(exc)
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__} at {Path(where.filename).name}:{where.lineno}: {where.line}"


def run(verbose: bool = True) -> int:
    failures = 0
    for check in CHECKS:
        name = name_of(check)
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            if verbose:
                print(f"FAIL {name}: {_describe(exc)}")
        else:
            if verbose:
                print(f"ok   {name}")
    if verbose:
        total = len(CHECKS)
        print(f"{total - failures}/{total} checks passed")
    return failures
