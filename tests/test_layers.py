import numpy as np
import pytest

from posecast import autodiff as ad
from posecast.autodiff import DimensionError
from posecast.data import skeleton_preset
from posecast.gradcheck import check_gradients
from posecast.graphs import SkeletonGraph, build_hop_partition, build_multigraph
from posecast.layers import GraphConvLayer, GraphConvTower
from posecast.model import ModelConfig, build_model


def chain(n):
    return SkeletonGraph(joint_count=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


def multigraph(skeleton, frames, span, max_hop):
    return build_multigraph(build_hop_partition(skeleton, max_hop), frames, span)


def single_node_graph():
    return multigraph(SkeletonGraph(joint_count=1, edges=frozenset()), 1, 0, 0)


def test_identity_layer_reproduces_input():
    rng = np.random.default_rng(0)
    layer = GraphConvLayer(3, 3, num_partitions=1, rng=rng, apply_activation=False)
    layer.weights[0].values[...] = np.eye(3)
    h = ad.constant(rng.normal(size=(2, 1, 3)))
    out = layer.forward(h, single_node_graph())
    assert np.allclose(out.values, h.values, atol=1e-15)


def test_zero_weights_give_zero_output():
    rng = np.random.default_rng(1)
    g = multigraph(chain(4), frames=2, span=1, max_hop=1)
    layer = GraphConvLayer(3, 5, num_partitions=2, rng=rng, zero_init=True)
    h = ad.constant(rng.normal(size=(2, 8, 3)))
    out = layer.forward(h, g)
    assert np.array_equal(out.values, np.zeros((2, 8, 5)))


def test_two_node_layer_matches_hand_assembly():
    rng = np.random.default_rng(2)
    g = multigraph(chain(2), frames=1, span=0, max_hop=1)
    layer = GraphConvLayer(3, 4, num_partitions=2, rng=rng, apply_activation=False)
    h = rng.normal(size=(1, 2, 3))
    out = layer.forward(ad.constant(h), g)
    expected = (
        g.operators[0] @ h @ layer.weights[0].values
        + g.operators[1] @ h @ layer.weights[1].values
    )
    assert np.allclose(out.values, expected, atol=1e-12)


def test_node_count_mismatch():
    rng = np.random.default_rng(3)
    g = multigraph(chain(4), frames=2, span=1, max_hop=1)
    layer = GraphConvLayer(3, 3, num_partitions=2, rng=rng)
    with pytest.raises(DimensionError):
        layer.forward(ad.constant(np.zeros((1, 5, 3))), g)


class TestTower:
    def test_default_schedule_preserves_shape(self):
        rng = np.random.default_rng(4)
        skeleton = chain(22)
        g = multigraph(skeleton, frames=10, span=2, max_hop=2)
        tower = GraphConvTower((3, 64, 32, 64, 3), num_partitions=3, rng=rng)
        out = tower.forward(ad.constant(rng.normal(size=(2, 220, 3))), g)
        assert out.shape == (2, 220, 3)

    def test_qk_schedule_yields_five_layers(self):
        rng = np.random.default_rng(5)
        tower = GraphConvTower((3, 64, 32, 16, 16, 3), num_partitions=2, rng=rng)
        assert len(tower.layers) == 5

    def test_one_layer_identity_tower(self):
        rng = np.random.default_rng(6)
        tower = GraphConvTower((3, 3), num_partitions=1, rng=rng)
        tower.layers[0].weights[0].values[...] = np.eye(3)
        h = ad.constant(rng.normal(size=(1, 1, 3)))
        out = tower.forward(h, single_node_graph())
        assert np.allclose(out.values, h.values, atol=1e-15)

    def test_schedule_must_start_and_end_at_three(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            GraphConvTower((3, 8, 4), num_partitions=1, rng=rng)

    def test_joint_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        v = 5
        skeleton = chain(v)
        perm = rng.permutation(v)
        permuted_edges = frozenset(
            (int(perm[i]), int(perm[i + 1])) for i in range(v - 1)
        )
        permuted_skeleton = SkeletonGraph(joint_count=v, edges=permuted_edges)
        g1 = multigraph(skeleton, frames=3, span=1, max_hop=2)
        g2 = multigraph(permuted_skeleton, frames=3, span=1, max_hop=2)

        tower_a = GraphConvTower((3, 8, 3), num_partitions=3,
                                 rng=np.random.default_rng(99))
        tower_b = GraphConvTower((3, 8, 3), num_partitions=3,
                                 rng=np.random.default_rng(99))

        x = rng.normal(size=(1, 3, v, 3))
        x_perm = np.empty_like(x)
        x_perm[:, :, perm] = x

        out_a = tower_a.forward(ad.constant(x.reshape(1, 15, 3)), g1)
        out_b = tower_b.forward(ad.constant(x_perm.reshape(1, 15, 3)), g2)
        out_a4 = out_a.values.reshape(1, 3, v, 3)
        out_b4 = out_b.values.reshape(1, 3, v, 3)
        assert np.allclose(out_b4[:, :, perm], out_a4, atol=1e-10)

    def test_temporal_receptive_field_bound(self):
        # N layers with span L: frames farther than N*L cannot influence t.
        rng = np.random.default_rng(9)
        frames, span = 8, 1
        skeleton = chain(3)
        g = multigraph(skeleton, frames=frames, span=span, max_hop=1)
        tower = GraphConvTower((3, 6, 3), num_partitions=2, rng=rng)
        n_layers = len(tower.layers)

        x = rng.normal(size=(1, frames, 3, 3))
        base = tower.forward(ad.constant(x.reshape(1, -1, 3)), g).values
        perturbed = x.copy()
        perturbed[:, -1] += 100.0   # perturb the last frame
        out = tower.forward(ad.constant(perturbed.reshape(1, -1, 3)), g).values
        base4 = base.reshape(1, frames, 3, 3)
        out4 = out.reshape(1, frames, 3, 3)
        far = frames - 1 - n_layers * span
        assert np.array_equal(out4[:, :far], base4[:, :far])
        # and the frame next to the perturbation does change
        assert not np.array_equal(out4[:, -2], base4[:, -2])

    def test_weight_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        g = multigraph(chain(3), frames=2, span=1, max_hop=1)
        tower = GraphConvTower((3, 4, 3), num_partitions=2, rng=rng)
        x = ad.constant(rng.normal(size=(2, 6, 3)))
        params = tower.parameters()
        err = check_gradients(
            lambda: ad.tensor_sum(ad.mul(o := tower.forward(x, g), o)), params
        )
        assert err < 1e-4


class TestFactoredGraphConv:
    """The layer against the dense reference sum_k A_k h W_k."""

    @pytest.mark.parametrize("c_in, c_out", [(3, 5), (5, 3), (4, 4)])
    def test_matches_dense_reference_and_its_gradients(self, c_in, c_out):
        rng = np.random.default_rng(11)
        g = multigraph(chain(4), frames=3, span=1, max_hop=3)
        layer = GraphConvLayer(c_in, c_out, num_partitions=4, rng=rng,
                               apply_activation=False)
        h = ad.parameter(rng.normal(size=(2, g.node_count, c_in)))
        target = rng.normal(size=(2, g.node_count, c_out))

        def grads(out):
            for p in [h, *layer.weights]:
                p.zero_grad()
            ad.tensor_sum(ad.mul(out, ad.constant(target))).backward()
            return [p.grad for p in [h, *layer.weights]]

        dense = None
        for a_k, w_k in zip(g.operators, layer.weights):
            term = ad.matmul(ad.matmul(ad.constant(a_k), h), w_k)
            dense = term if dense is None else ad.add(dense, term)
        expected, expected_grads = dense.values, grads(dense)
        out = layer.forward(h, g)
        assert np.abs(out.values - expected).max() <= 1e-12
        for got, want in zip(grads(out), expected_grads, strict=True):
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("c_in, c_out", [(3, 5), (5, 3)])
    def test_repeated_calls_are_bit_identical(self, c_in, c_out):
        rng = np.random.default_rng(12)
        g = multigraph(chain(6), frames=4, span=2, max_hop=2)
        layer = GraphConvLayer(c_in, c_out, num_partitions=3, rng=rng)
        x = rng.normal(size=(3, g.node_count, c_in))
        runs = []
        for _ in range(2):
            h = ad.parameter(x.copy())
            out = layer.forward(h, g)
            for w in layer.weights:
                w.zero_grad()
            ad.tensor_sum(ad.mul(out, out)).backward()
            runs.append([out.values.tobytes(), h.grad.tobytes()]
                        + [w.grad.tobytes() for w in layer.weights])
        assert runs[0] == runs[1]

    def test_channel_and_partition_mismatch(self):
        rng = np.random.default_rng(13)
        g = multigraph(chain(4), frames=2, span=1, max_hop=1)
        with pytest.raises(DimensionError):
            GraphConvLayer(4, 3, num_partitions=2, rng=rng).forward(
                ad.constant(np.zeros((1, 8, 3))), g)
        with pytest.raises(DimensionError):
            GraphConvLayer(3, 3, num_partitions=3, rng=rng).forward(
                ad.constant(np.zeros((1, 8, 3))), g)


def test_model_graphs_hold_no_dense_operator():
    model = build_model(skeleton_preset("h36m22"), ModelConfig(input_frames=10, output_frames=10))
    for graph in (model.input_graph, model.output_graph):
        arrays = [a for a in vars(graph).values() if isinstance(a, np.ndarray)]
        arrays += graph.partition.layers
        assert len(arrays) == 2 + len(graph.partition.layers)
        assert all(a.size < graph.node_count ** 2 for a in arrays)
