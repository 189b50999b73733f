import numpy as np
import pytest

from srkit.graph import ModelGraph, Node, run_graph
from srkit.models import (
    BlockSpec,
    _block_nodes,
    build_span_baseline,
    build_spanv2,
    near_pixel_init,
    nearest_upsample,
    random_block,
    random_conv,
)
from srkit.selftest import assert_close, rand_tensor
from srkit.tensor import ConvSpec, ShapeError, Tensor, conv2d, pixel_shuffle


def zero_block(cin, c):
    def zconv(ci, co, k):
        return ConvSpec(
            ci,
            co,
            (k, k),
            (k // 2, k // 2),
            np.zeros((co, ci, k, k), np.float32),
            bias=np.zeros(co, np.float32),
        )

    return BlockSpec(zconv(cin, c, 3), zconv(c, c, 3), zconv(c, c, 3), zconv(c, c, 1))


def block_forward(x, block, mode="unfused"):
    """Run one attention block as a one-block graph."""
    nodes, fg, out = _block_nodes("b1", block, "input")
    source = Node("input", "input", (), channels=block.conv_a.in_channels)
    g = ModelGraph("block", [source, *nodes], out, fusion_groups=[fg])
    g.validate()
    return run_graph(g, x, mode)


class TestSpabv2Forward:
    def test_all_zero_weights_gate_annihilates(self):
        x = Tensor.full(1, 8, 5, 5, 3.0)
        out = block_forward(x, zero_block(8, 8))
        assert np.all(out.data == 0.0)

    def test_unit_gate_gives_pure_residual(self, rng):
        block = zero_block(4, 4)
        block = BlockSpec(
            block.conv_a,
            block.conv_b,
            block.conv_c,
            ConvSpec(
                4,
                4,
                (1, 1),
                (0, 0),
                np.zeros((4, 4, 1, 1), np.float32),
                bias=np.ones(4, np.float32),
            ),
        )
        x = rand_tensor(rng, 1, 4, 5, 5)
        out = block_forward(x, block)
        # conv weights zero -> f3 = bias = 0, m = 1 -> y = x + f3 = x
        assert_close(out, x)

    def test_width_changing_block_uses_f1_residual(self, rng):
        block = random_block(rng, 3, 16)
        x = rand_tensor(rng, 1, 3, 6, 6)
        out = block_forward(x, block)
        assert out.c == 16  # well-typed despite 3 -> 16 width change

    def test_width_mismatch_error(self, rng):
        block = random_block(rng, 8, 8)
        with pytest.raises(ShapeError):
            block_forward(rand_tensor(rng, 1, 4, 6, 6), block)

    def test_bad_mode(self, rng):
        block = random_block(rng, 4, 4)
        with pytest.raises(ValueError, match="mode"):
            block_forward(rand_tensor(rng, 1, 4, 4, 4), block, mode="turbo")


class TestNearPixel:
    def test_requires_depthwise_shape(self, rng):
        with pytest.raises(ShapeError, match="near-pixel"):
            near_pixel_init(random_conv(rng, 3, 48, k=3), 4)

    def test_equivalent_to_nearest_neighbor_bit_exact(self, rng):
        spec = near_pixel_init(random_conv(rng, 3, 48, k=3, groups=3), 4)
        for _ in range(5):
            x = rand_tensor(rng, 1, 3, 7, 9)
            got = pixel_shuffle(conv2d(x, spec), 4)
            assert np.array_equal(got.data, nearest_upsample(x, 4).data)

    def test_constant_image_stays_constant(self, rng):
        spec = near_pixel_init(random_conv(rng, 3, 48, k=3, groups=3), 4)
        x = Tensor.full(1, 3, 4, 4, 0.6)
        out = pixel_shuffle(conv2d(x, spec), 4)
        assert np.all(out.data == np.float32(0.6))


class TestBuildSpanv2:
    def test_output_shape(self, rng):
        g = build_spanv2(seed=3)
        x = rand_tensor(rng, 1, 3, 16, 16)
        assert run_graph(g, x).shape == (1, 3, 64, 64)

    def test_output_shape_any_input(self, rng):
        g = build_spanv2(seed=3)
        x = rand_tensor(rng, 2, 3, 5, 9)
        assert run_graph(g, x).shape == (2, 3, 20, 36)

    def test_deterministic_for_seed(self):
        a, b = build_spanv2(seed=11), build_spanv2(seed=11)
        wa = a.node("b3.conv_b").spec.weight
        wb = b.node("b3.conv_b").spec.weight
        assert np.array_equal(wa, wb)
        c = build_spanv2(seed=12)
        assert not np.array_equal(wa, c.node("b3.conv_b").spec.weight)

    def test_near_branch_is_nn_at_init(self, rng):
        g = build_spanv2(seed=5)
        near = g.node("near").spec
        x = rand_tensor(rng, 1, 3, 6, 6)
        got = pixel_shuffle(conv2d(x, near), 4)
        assert np.array_equal(got.data, nearest_upsample(x, 4).data)

    def test_concat_width_is_80(self):
        g = build_spanv2()
        assert g.node("fuse.dw").spec.in_channels == 80
        assert g.node("fuse.pw").spec.out_channels == 48

    def test_five_fusion_groups(self):
        assert len(build_spanv2().fusion_groups) == 5

    def test_graph_level_traffic_totals(self, rng):
        from srkit.fusion import TrafficCounter

        g = build_spanv2(seed=4)
        h = w = 6
        x = rand_tensor(rng, 1, 3, h, w)
        per_block = 32 * h * w
        fused, unfused = TrafficCounter(), TrafficCounter()
        run_graph(g, x, mode="fused", counter=fused)
        run_graph(g, x, mode="unfused", counter=unfused)
        assert fused.total == 5 * 3 * per_block
        assert unfused.total == 5 * 8 * per_block


class TestBuildBaseline:
    def test_output_shape(self, rng):
        g = build_span_baseline(seed=2)
        x = rand_tensor(rng, 1, 3, 8, 8, scale=0.3)
        assert run_graph(g, x).shape == (1, 3, 32, 32)

    def test_concat_wiring(self):
        g = build_span_baseline()
        assert g.node("cat").inputs == ("head", "tail", "b1.out", "b5.out")
        assert g.node("cat_conv").spec.in_channels == 4 * 28


@pytest.mark.parametrize(
    "build, sizes",
    [(build_spanv2, {}), (build_spanv2, dict(c=5, s=3, blocks=3)), (build_spanv2, dict(c=8, s=2, blocks=1)),
     (build_span_baseline, {}), (build_span_baseline, dict(c=7, s=2, blocks=2))],
    ids=["spanv2", "spanv2_c5_s3_b3", "spanv2_c8_s2_b1", "span", "span_c7_s2_b2"],
)
def test_the_size_check_counts_the_weights_the_builder_draws(monkeypatch, build, sizes):
    # The whole model's weights are counted from c, s and blocks before any
    # draw; the count is count_params' of the model built.
    from srkit import models
    from srkit.metrics import count_params

    counted, check = [], models._check_sizes
    monkeypatch.setattr(models, "_check_sizes", lambda *args: counted.append(args[-1]) or check(*args))
    g = build(**sizes)
    assert counted == [count_params(g)]
