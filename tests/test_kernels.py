import math

import numpy as np
import pytest

from srkit.kernels import (
    ENTROPY_EPS,
    NS_A,
    NS_B,
    NS_C,
    affinity_loss,
    entropy_attention,
    frobenius_normalize,
    haar_dwt,
    haar_idwt,
    newton_schulz,
    ns_scalar,
    spatial_affinity,
)
from srkit.selftest import rand_tensor
from srkit.tensor import ShapeError, Tensor, tensor


class TestHaar:
    def test_constant_block(self):
        sb = haar_dwt(tensor([[[[1.0, 1.0], [1.0, 1.0]]]]))
        assert sb.ll.data[0, 0, 0, 0] == 2.0
        for band in (sb.hl, sb.lh, sb.hh):
            assert band.data[0, 0, 0, 0] == 0.0

    def test_subband_extents_halved(self, rng):
        sb = haar_dwt(rand_tensor(rng, 2, 3, 8, 12))
        assert sb.ll.shape == (2, 3, 4, 6)
        assert sb.hh.shape == sb.ll.shape

    def test_odd_extent_rejected(self, rng):
        with pytest.raises(ShapeError, match="even"):
            haar_dwt(rand_tensor(rng, 1, 1, 5, 4))

    def test_perfect_reconstruction(self, rng):
        x = rand_tensor(rng, 1, 4, 16, 16)
        back = haar_idwt(haar_dwt(x))
        assert np.abs(back.data - x.data).max() <= 1e-6

    def test_parseval_energy(self, rng):
        x = rand_tensor(rng, 2, 3, 16, 16)
        sb = haar_dwt(x)
        bands = (sb.ll, sb.hl, sb.lh, sb.hh)
        total = sum(float((b.data.astype(np.float64) ** 2).sum()) for b in bands)
        ref = float((x.data.astype(np.float64) ** 2).sum())
        assert abs(total - ref) / ref <= 1e-4

    def test_known_detail_orientation(self):
        # vertical edge within each 2x2 block -> hl carries the difference
        x = tensor([[[[1.0, -1.0], [1.0, -1.0]]]])
        sb = haar_dwt(x)
        assert sb.ll.data[0, 0, 0, 0] == 0.0
        assert sb.hl.data[0, 0, 0, 0] == 2.0
        assert sb.lh.data[0, 0, 0, 0] == 0.0


class TestEntropy:
    def test_unit_variance_closed_form(self, rng):
        data = rng.normal(0, 1, (1, 1, 64, 64)).astype(np.float32)
        data = (data - data.mean()) / data.std()
        h = entropy_attention(Tensor(data))
        assert h[0, 0] == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-5)

    def test_constant_channel_floored(self):
        h = entropy_attention(Tensor.full(1, 2, 4, 4, 7.0))
        want = 0.5 * math.log(2 * math.pi * ENTROPY_EPS)
        assert h[0, 0] == pytest.approx(want, abs=1e-6)
        assert np.isfinite(h).all()

    def test_scaling_raises_by_log2(self, rng):
        x = rand_tensor(rng, 1, 3, 16, 16)
        h1 = entropy_attention(x)
        h2 = entropy_attention(Tensor(2.0 * x.data))
        assert np.allclose(h2 - h1, math.log(2.0), atol=1e-5)

    def test_translation_invariance(self, rng):
        x = rand_tensor(rng, 1, 3, 16, 16)
        shifted = Tensor(x.data + 5.0)
        assert np.allclose(
            entropy_attention(shifted), entropy_attention(x), atol=1e-6
        )

    def test_needs_two_positions(self):
        with pytest.raises(ShapeError):
            entropy_attention(Tensor.zeros(1, 1, 1, 1))


class TestNewtonSchulz:
    def test_zero_fixed_point(self):
        out = newton_schulz(np.zeros((4, 4), np.float32))
        assert np.array_equal(out, np.zeros((4, 4)))

    def test_scalar_polynomial_iteration(self):
        phi1 = NS_A + NS_B + NS_C
        assert phi1 == pytest.approx(0.7010, abs=1e-12)
        got = newton_schulz(np.array([[1.0]], np.float32))
        assert got[0, 0] == pytest.approx(ns_scalar(1.0), abs=1e-3)

    def test_svd_oracle_random(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            x = frobenius_normalize(rng.normal(0, 1, (8, 8)))
            u, s, vt = np.linalg.svd(x.astype(np.float64))
            want = u @ np.diag([ns_scalar(v) for v in s]) @ vt
            got = newton_schulz(x)
            assert np.abs(got - want).max() <= 1e-3, f"trial {trial}"

    def test_rectangular_matrices(self):
        rng = np.random.default_rng(7)
        x = frobenius_normalize(rng.normal(0, 1, (6, 10)))
        u, s, vt = np.linalg.svd(x.astype(np.float64), full_matrices=False)
        want = u @ np.diag([ns_scalar(v) for v in s]) @ vt
        assert np.abs(newton_schulz(x) - want).max() <= 1e-3

    def test_orthogonal_conjugation_commutes(self):
        rng = np.random.default_rng(3)
        x = frobenius_normalize(rng.normal(0, 1, (6, 6)))
        qu, _ = np.linalg.qr(rng.normal(0, 1, (6, 6)))
        qv, _ = np.linalg.qr(rng.normal(0, 1, (6, 6)))
        lhs = newton_schulz((qu @ x @ qv.T).astype(np.float32))
        rhs = qu @ newton_schulz(x) @ qv.T
        assert np.abs(lhs - rhs).max() <= 1e-4

    def test_drives_singular_values_toward_one(self):
        # well-conditioned input: every normalized singular value sits inside
        # the quintic's fast-convergence basin
        rng = np.random.default_rng(5)
        qu, _ = np.linalg.qr(rng.normal(0, 1, (12, 12)))
        qv, _ = np.linalg.qr(rng.normal(0, 1, (12, 12)))
        x = frobenius_normalize(qu @ np.diag(rng.uniform(0.5, 1.0, 12)) @ qv.T)
        sv = np.linalg.svd(newton_schulz(x), compute_uv=False)
        assert sv.max() < 1.6
        assert sv.min() > 0.3

    def test_non_finite_rejected(self):
        bad = np.full((2, 2), np.nan, np.float32)
        with pytest.raises(ValueError, match="finite"):
            newton_schulz(bad)


class TestAffinity:
    def test_identical_lists_zero(self, rng):
        feats = [rand_tensor(rng, 2, 4, 3, 3), rand_tensor(rng, 2, 8, 3, 3)]
        assert affinity_loss(feats, feats) == 0.0

    def test_scale_invariance(self, rng):
        feats = [rand_tensor(rng, 1, 6, 4, 4)]
        scaled = [Tensor(0.25 * feats[0].data)]
        assert affinity_loss(scaled, feats) <= 1e-6

    def test_hand_built_gram(self):
        s = tensor([[[[1.0, 0.0]], [[0.0, 2.0]]]])
        t = tensor([[[[1.0, 1.0]], [[0.0, 0.0]]]])
        a_s = np.array([[1.0, 0.0], [0.0, 1.0]])
        a_t = np.array([[1.0, 1.0], [1.0, 1.0]])
        want = float(np.abs(a_s - a_t).mean())
        assert affinity_loss([s], [t]) == pytest.approx(want, abs=1e-6)

    def test_symmetry(self, rng):
        a = [rand_tensor(rng, 1, 3, 4, 4)]
        b = [rand_tensor(rng, 1, 5, 4, 4)]
        assert affinity_loss(a, b) == pytest.approx(affinity_loss(b, a), abs=1e-12)

    def test_channel_widths_may_differ(self, rng):
        a = [rand_tensor(rng, 2, 3, 4, 4)]
        b = [rand_tensor(rng, 2, 9, 4, 4)]
        assert affinity_loss(a, b) > 0.0

    def test_affinity_matrix_shape(self, rng):
        aff = spatial_affinity(rand_tensor(rng, 2, 5, 3, 4))
        assert aff.shape == (2, 12, 12)

    def test_list_length_mismatch(self, rng):
        with pytest.raises(ShapeError, match="layers"):
            affinity_loss([rand_tensor(rng, 1, 2, 2, 2)], [])

    def test_spatial_mismatch(self, rng):
        with pytest.raises(ShapeError, match="extents"):
            affinity_loss(
                [rand_tensor(rng, 1, 2, 2, 2)], [rand_tensor(rng, 1, 2, 2, 3)]
            )
