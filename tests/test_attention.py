import numpy as np
import pytest

from posecast import autodiff as ad
from posecast.attention import (
    anchor_combination,
    causal_mask,
    pseudo_autoregressive,
    score_matrix,
)
from posecast.autodiff import DimensionError


def rand(rng, *shape):
    return ad.constant(rng.normal(size=shape))


class TestPseudoAutoregressive:
    def test_zero_offsets_reproduce_last_frame(self):
        rng = np.random.default_rng(0)
        last = rng.normal(size=(2, 5, 3))
        offsets = ad.constant(np.zeros((2, 4, 5, 3)))
        out = pseudo_autoregressive(offsets, ad.constant(last))
        for i in range(4):
            assert np.array_equal(out.values[:, i], last)

    def test_scalar_prefix_sum(self):
        offsets = ad.constant(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1)
                              * np.ones((1, 3, 1, 3)))
        last = ad.constant(np.zeros((1, 1, 3)))
        out = pseudo_autoregressive(offsets, last)
        assert np.allclose(out.values[0, :, 0, 0], [1.0, 3.0, 6.0], atol=1e-15)

    def test_matches_dense_lower_triangular_product(self):
        rng = np.random.default_rng(1)
        t = 6
        offsets = rng.normal(size=(2, t, 4, 3))
        last = rng.normal(size=(2, 4, 3))
        out = pseudo_autoregressive(ad.constant(offsets), ad.constant(last))
        s = np.tril(np.ones((t, t)))
        expected = np.einsum("ik,bkvd->bivd", s, offsets) + last[:, None]
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_telescoping_recovers_offsets(self):
        rng = np.random.default_rng(2)
        offsets = rng.normal(size=(1, 5, 3, 3))
        out = pseudo_autoregressive(
            ad.constant(offsets), ad.constant(rng.normal(size=(1, 3, 3)))
        ).values
        diffs = np.diff(out, axis=1)
        assert np.allclose(diffs, offsets[:, 1:], atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            pseudo_autoregressive(
                ad.constant(np.zeros((1, 4, 5, 3))), ad.constant(np.zeros((1, 4, 3)))
            )


class TestScoreMatrix:
    def test_zero_scores_causal_rows_are_uniform(self):
        t = 5
        q = ad.constant(np.zeros((1, t, 4, 3)))
        k = ad.constant(np.zeros((1, t, 4, 3)))
        mix = score_matrix(q, k)
        w = mix.values[0, 0]
        for i in range(t):
            expected = np.zeros(t)
            expected[: i + 1] = 1.0 / (i + 1)
            assert np.allclose(w[i], expected, atol=1e-15)

    def test_single_anchor_rows_are_one(self):
        rng = np.random.default_rng(3)
        t = 4
        mix = score_matrix(
            rand(rng, 1, t, 5, 3), rand(rng, 1, t, 5, 3), anchor_count=1, causal=False,
        )
        assert np.array_equal(mix.values, np.ones((1, 3, t, 1)))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        mix = score_matrix(rand(rng, 2, 6, 4, 3), rand(rng, 2, 6, 4, 3))
        sums = mix.values.sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_causal_mask_includes_diagonal(self):
        m = causal_mask(3, 3)
        assert np.array_equal(m, [[1, 0, 0], [1, 1, 0], [1, 1, 1]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            score_matrix(
                ad.constant(np.zeros((1, 3, 4, 3))),
                ad.constant(np.zeros((1, 4, 4, 3))),
            )


class TestAnchorCombination:
    def test_identical_anchors_collapse(self):
        rng = np.random.default_rng(5)
        t, n_a, v = 5, 4, 3
        pose = rng.normal(size=(1, 1, v, 3))
        anchors = ad.constant(np.repeat(pose, n_a, axis=1))
        mix = score_matrix(
            rand(rng, 1, t, v, 3), rand(rng, 1, t, v, 3), anchor_count=n_a, causal=False,
        )
        out = anchor_combination(mix, anchors)
        for i in range(t):
            assert np.allclose(out.values[:, i], pose[:, 0], atol=1e-12)

    def test_equal_weights_give_midpoint(self):
        corners = np.zeros((1, 2, 1, 3))
        corners[0, 1, 0] = [2.0, 4.0, 6.0]
        weights = ad.constant(np.full((1, 3, 1, 2), 0.5))
        out = anchor_combination(weights, ad.constant(corners))
        assert np.allclose(out.values[0, 0, 0], [1.0, 2.0, 3.0], atol=1e-15)

    def test_outputs_stay_in_anchor_bounding_box(self):
        rng = np.random.default_rng(6)
        t, v = 6, 4
        anchors = rng.normal(size=(2, t, v, 3))
        mix = score_matrix(rand(rng, 2, t, v, 3), rand(rng, 2, t, v, 3))
        out = anchor_combination(mix, ad.constant(anchors)).values
        lo = anchors.min(axis=1, keepdims=True)
        hi = anchors.max(axis=1, keepdims=True)
        assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()

    def test_anchor_count_mismatch(self):
        rng = np.random.default_rng(7)
        mix = score_matrix(rand(rng, 1, 4, 3, 3), rand(rng, 1, 4, 3, 3))
        with pytest.raises(DimensionError):
            anchor_combination(mix, ad.constant(np.zeros((1, 3, 3, 3))))


def plain(q, key, val):
    """The plain strategy: every frame an anchor, no causal mask."""
    return anchor_combination(score_matrix(q, key, causal=False), val)


class TestPlainAttention:
    def test_single_frame_returns_value(self):
        rng = np.random.default_rng(8)
        val = rng.normal(size=(1, 1, 4, 3))
        out = plain(rand(rng, 1, 1, 4, 3), rand(rng, 1, 1, 4, 3), ad.constant(val))
        assert np.allclose(out.values, val, atol=1e-15)

    def test_uniform_scores_time_average(self):
        rng = np.random.default_rng(9)
        t = 5
        val = rng.normal(size=(1, t, 4, 3))
        zeros = ad.constant(np.zeros((1, t, 4, 3)))
        out = plain(zeros, zeros, ad.constant(val))
        mean = val.mean(axis=1, keepdims=True)
        assert np.allclose(out.values, np.repeat(mean, t, axis=1), atol=1e-12)


def test_causality_exact_zero_propagation():
    # Perturbing anchors at frame k leaves every output frame i < k
    # bit-identical under the causal mask.
    rng = np.random.default_rng(11)
    t, v = 6, 4
    q, k = rand(rng, 1, t, v, 3), rand(rng, 1, t, v, 3)
    anchors = rng.normal(size=(1, t, v, 3))
    mix = score_matrix(q, k)
    base = anchor_combination(mix, ad.constant(anchors)).values
    for k_pert in range(1, t):
        bumped = anchors.copy()
        bumped[:, k_pert] += 1000.0
        out = anchor_combination(mix, ad.constant(bumped)).values
        assert np.array_equal(out[:, :k_pert], base[:, :k_pert])
        assert not np.array_equal(out[:, k_pert], base[:, k_pert])
