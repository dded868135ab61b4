import re
import tracemalloc

import numpy as np
import pytest

from posecast import autodiff as ad
from posecast.autodiff import DimensionError
from posecast.data import skeleton_preset
from posecast.gradcheck import check_gradients
from posecast.graphs import SkeletonGraph, build_hop_partition, build_multigraph
from posecast.layers import GraphConvLayer, GraphConvTower
from posecast.model import ModelConfig, build_model, glorot

from test_graphs import kron_operators


def chain(n):
    return SkeletonGraph(joint_count=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


def multigraph(skeleton, frames, span, max_hop):
    return build_multigraph(build_hop_partition(skeleton, max_hop), frames, span)


def single_node_graph():
    return multigraph(SkeletonGraph(joint_count=1, edges=frozenset()), 1, 0, 0)


def poses(g, batch, c):
    """The shape of a batch of poses on graph g: [batch, T, V, c]."""
    return (batch, g.frame_count, g.joint_count, c)


def flat(h):
    """h [batch, T, V, C] with node (t, v) at row t * V + v, as the dense
    (VT)^2 operators index it."""
    b, t, v, c = h.shape
    return ad.reshape(h, (b, t * v, c))


def draw(rng, layers):
    """Write a Glorot draw into every hop view of ``layers``, in order, as
    build_model draws a tower's blocks."""
    for layer in layers:
        for hop in layer.hops:
            hop[...] = glorot(rng, hop.shape)


def drawn_layer(rng, c_in, c_out, n, activation):
    """A layer of n hop weights, drawn."""
    built = GraphConvLayer(c_in, c_out, n, activation)
    draw(rng, [built])
    return built


def drawn_tower(rng, schedule, n):
    """A tower of n hop weights per layer, drawn."""
    built = GraphConvTower(schedule, n)
    draw(rng, built.layers)
    return built


def hop_grads(layer, dw):
    """The per-hop [C_in, C_out] slices of ``dw``, a gradient of the layer's weight."""
    return ad.hop_views(dw, *layer.hops[0].shape)


def backward_grads(out, target, params):
    """The gradients of sum(out * target) for params, through backward()."""
    for p in params:
        p.grad = None
    ad.tensor_sum(ad.mul(out, ad.constant(target.reshape(out.shape)))).backward()
    return [p.grad for p in params]


def dense_reference(g, h, layer, activation):
    """sum_k A_k h W_k over the dense (VT)^2 operators, then tanh if
    ``activation`` is set, with copies of the layer's hop weights as
    tensors of their own; returns the output and those tensors."""
    weights = [ad.parameter(w.copy()) for w in layer.hops]
    dense = None
    for a_k, w_k in zip(kron_operators(g), weights):
        term = ad.matmul(ad.matmul(ad.constant(a_k), flat(h)), w_k)
        dense = term if dense is None else ad.add(dense, term)
    return (ad.tanh(dense) if activation else dense), weights


def test_identity_layer_reproduces_input():
    rng = np.random.default_rng(0)
    layer = drawn_layer(rng, 3, 3, 1, activation=False)
    layer.hops[0][...] = np.eye(3)
    h = ad.constant(rng.normal(size=(2, 1, 1, 3)))
    out = layer.forward(h, single_node_graph())
    assert np.allclose(out.values, h.values, atol=1e-15)


def test_zero_weights_give_zero_output():
    rng = np.random.default_rng(1)
    g = multigraph(chain(4), frames=2, span=1, max_hop=1)
    layer = GraphConvLayer(3, 5, 2, activation=True)
    h = ad.constant(rng.normal(size=poses(g, 2, 3)))
    out = layer.forward(h, g)
    assert np.array_equal(out.values, np.zeros(poses(g, 2, 5)))


def test_two_node_layer_matches_hand_assembly():
    rng = np.random.default_rng(2)
    g = multigraph(chain(2), frames=1, span=0, max_hop=1)
    layer = drawn_layer(rng, 3, 4, 2, activation=False)
    h = rng.normal(size=poses(g, 1, 3))
    out = layer.forward(ad.constant(h), g)
    a = kron_operators(g)
    h = h.reshape(1, 2, 3)
    expected = (
        a[0] @ h @ layer.hops[0]
        + a[1] @ h @ layer.hops[1]
    )
    assert np.allclose(out.values.reshape(expected.shape), expected, atol=1e-12)


def test_node_count_mismatch():
    # Wrong joints, wrong frames, and the right node count flattened.
    rng = np.random.default_rng(3)
    g = multigraph(chain(4), frames=2, span=1, max_hop=1)
    layer = drawn_layer(rng, 3, 3, 2, activation=True)
    for shape in ((1, 2, 5, 3), (1, 3, 4, 3), (1, 8, 3)):
        with pytest.raises(DimensionError, match=r"T=2 frames of V=4 joints"):
            layer.forward(ad.constant(np.zeros(shape)), g)


class TestTower:
    def test_default_schedule_preserves_shape(self):
        rng = np.random.default_rng(4)
        skeleton = chain(22)
        g = multigraph(skeleton, frames=10, span=2, max_hop=2)
        tower = drawn_tower(rng, (3, 64, 32, 64, 3), 3)
        out = tower.forward(ad.constant(rng.normal(size=(2, 10, 22, 3))), g)
        assert out.shape == (2, 10, 22, 3)

    def test_qk_schedule_yields_five_layers(self):
        rng = np.random.default_rng(5)
        tower = drawn_tower(rng, (3, 64, 32, 16, 16, 3), 2)
        assert len(tower.layers) == 5

    def test_builds_zero_layers_from_its_schedule(self):
        tower = GraphConvTower((3, 64, 32, 64, 3), 4)
        widths = [(3, 64), (64, 32), (32, 64), (64, 3)]
        assert len(tower.layers) == len(widths)
        for layer, (c_in, c_out) in zip(tower.layers, widths):
            assert layer.weight.shape == ad.weight_layout(4, c_in, c_out)
            assert not layer.weight.values.any()
            assert [hop.shape for hop in layer.hops] == [(c_in, c_out)] * 4
        assert [layer.activation for layer in tower.layers] == [True, True, True, False]

    def test_one_layer_identity_tower(self):
        rng = np.random.default_rng(6)
        tower = drawn_tower(rng, (3, 3), 1)
        tower.layers[0].hops[0][...] = np.eye(3)
        h = ad.constant(rng.normal(size=(1, 1, 1, 3)))
        out = tower.forward(h, single_node_graph())
        assert np.allclose(out.values, h.values, atol=1e-15)

    def test_schedule_must_start_and_end_at_three(self):
        # Tower shapes come from the config, so the config checks the schedule.
        for schedule in ((3, 8, 4), (4, 8, 3), (3,)):
            with pytest.raises(ValueError, match=r"value_schedule .* got"):
                ModelConfig(input_frames=2, output_frames=2, value_schedule=schedule)
            with pytest.raises(ValueError, match=r"qk_schedule .* got"):
                ModelConfig(input_frames=2, output_frames=2, qk_schedule=schedule)

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

        tower_a = drawn_tower(np.random.default_rng(99), (3, 8, 3), 3)
        tower_b = drawn_tower(np.random.default_rng(99), (3, 8, 3), 3)

        x = rng.normal(size=(1, 3, v, 3))
        x_perm = np.empty_like(x)
        x_perm[:, :, perm] = x

        out_a4 = tower_a.forward(ad.constant(x), g1).values
        out_b4 = tower_b.forward(ad.constant(x_perm), g2).values
        assert np.allclose(out_b4[:, :, perm], out_a4, atol=1e-10)

    def test_temporal_receptive_field_bound(self):
        # N layers with span L: frames farther than N*L cannot influence t.
        rng = np.random.default_rng(9)
        frames, span = 8, 1
        skeleton = chain(3)
        g = multigraph(skeleton, frames=frames, span=span, max_hop=1)
        tower = drawn_tower(rng, (3, 6, 3), 2)
        n_layers = len(tower.layers)

        x = rng.normal(size=(1, frames, 3, 3))
        base4 = tower.forward(ad.constant(x), g).values
        perturbed = x.copy()
        perturbed[:, -1] += 100.0   # perturb the last frame
        out4 = tower.forward(ad.constant(perturbed), g).values
        far = frames - 1 - n_layers * span
        assert np.array_equal(out4[:, :far], base4[:, :far])
        # and the frame next to the perturbation does change
        assert not np.array_equal(out4[:, -2], base4[:, -2])

    def test_weight_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        g = multigraph(chain(3), frames=2, span=1, max_hop=1)
        tower = drawn_tower(rng, (3, 4, 3), 2)
        params = [layer.weight for layer in tower.layers]
        x = ad.constant(rng.normal(size=(2, 2, 3, 3)))
        err = check_gradients(
            lambda: ad.tensor_sum(ad.mul(o := tower.forward(x, g), o)), params
        )
        assert err < 1e-4


class TestFactoredGraphConv:
    """The layer against the dense reference sum_k A_k h W_k, then tanh."""

    @pytest.mark.parametrize("c_in, c_out", [(3, 5), (5, 3), (4, 4)])
    def test_matches_dense_reference_and_its_gradients(self, c_in, c_out):
        for activation in (False, True):
            rng = np.random.default_rng(11)
            g = multigraph(chain(4), frames=3, span=1, max_hop=3)
            layer = drawn_layer(rng, c_in, c_out, 4, activation=activation)
            h = ad.parameter(rng.normal(size=poses(g, 2, c_in)))
            target = rng.normal(size=poses(g, 2, c_out))
            dense, weights = dense_reference(g, h, layer, activation)
            expected = dense.values
            expected_grads = backward_grads(dense, target, [h, *weights])
            out = layer.forward(h, g)
            assert out.shape == target.shape
            assert np.abs(out.values.reshape(expected.shape) - expected).max() <= 1e-12
            dh, dw = backward_grads(out, target, [h, layer.weight])
            for got, want in zip([dh, *hop_grads(layer, dw)], expected_grads, strict=True):
                assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("c_in, c_out", [(3, 5), (5, 3)])
    def test_constant_input_weight_gradients_match_dense_reference(self, c_in, c_out):
        # A tower's first layer: no input gradient is formed. span=1 < T-1
        # leaves zeros in the band, so a band on the wrong side shows.
        rng = np.random.default_rng(14)
        g = multigraph(chain(4), frames=3, span=1, max_hop=3)
        assert not g.band.all()
        layer = drawn_layer(rng, c_in, c_out, 4, activation=True)
        h = ad.constant(rng.normal(size=poses(g, 2, c_in)))
        target = rng.normal(size=poses(g, 2, c_out))
        dense, weights = dense_reference(g, h, layer, activation=True)
        expected = backward_grads(dense, target, weights)
        dw, = backward_grads(layer.forward(h, g), target, [layer.weight])
        for got, want in zip(hop_grads(layer, dw), expected, strict=True):
            assert np.abs(got - want).max() <= 1e-12
        assert h.grad is None

    @pytest.mark.parametrize("c_in, c_out", [(3, 5), (5, 3)])
    def test_weight_gradients_summed_over_row_blocks(self, c_in, c_out):
        # 300 windows of 12 nodes: three full row blocks and a partial one.
        rng = np.random.default_rng(15)
        g = multigraph(chain(4), frames=3, span=1, max_hop=3)
        layer = drawn_layer(rng, c_in, c_out, 4, activation=True)
        h = ad.parameter(rng.normal(size=poses(g, 300, c_in)))
        assert 3 * ad._ROW_BLOCK < 300 * 12 < 4 * ad._ROW_BLOCK
        target = rng.normal(size=poses(g, 300, c_out))
        dense, weights = dense_reference(g, h, layer, activation=True)
        expected = backward_grads(dense, target, [h, *weights])
        dh, dw = backward_grads(layer.forward(h, g), target, [h, layer.weight])
        for got, want in zip([dh, *hop_grads(layer, dw)], expected, strict=True):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("c_in, c_out", [(3, 5), (5, 3)])
    def test_repeated_calls_are_bit_identical(self, c_in, c_out):
        rng = np.random.default_rng(12)
        g = multigraph(chain(6), frames=4, span=2, max_hop=2)
        layer = drawn_layer(rng, c_in, c_out, 3, activation=True)
        x = rng.normal(size=poses(g, 3, c_in))
        runs = []
        for _ in range(2):
            h = ad.parameter(x.copy())
            out = layer.forward(h, g)
            layer.weight.grad = None
            ad.tensor_sum(ad.mul(out, out)).backward()
            runs.append([out.values.tobytes(), h.grad.tobytes(), layer.weight.grad.tobytes()])
        assert runs[0] == runs[1]

    def test_widening_layer_peak_memory_without_grad(self):
        # h36m22's 32->64 layer at D=3, batch 32: z = [B*T*V, 4*32] and the
        # output, plus at most one band product as wide as the input.
        g = multigraph(skeleton_preset("h36m22"), frames=10, span=2, max_hop=3)
        rng = np.random.default_rng(15)
        b, c_in, c_out = 32, 32, 64
        layer = drawn_layer(rng, c_in, c_out, 4, activation=True)
        h = ad.constant(rng.normal(size=poses(g, b, c_in)))
        bound = 8 * b * g.frame_count * g.joint_count * (4 * c_in + c_out + c_in)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with ad.no_grad():
                layer.forward(h, g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"

    @pytest.mark.parametrize("h_live", [True, False])
    def test_activation_backward_forms_no_derivative_array(self, h_live):
        # The same 32->64 layer's backward. With an input gradient it holds
        # the stacked input gradient [B*T*V, 4*32] and one band product;
        # without, only dw. The tanh derivative, formed as a new array, is
        # a whole output: it does not fit in half of one.
        g = multigraph(skeleton_preset("h36m22"), frames=10, span=2, max_hop=3)
        rng = np.random.default_rng(17)
        b, c_in, c_out = 32, 32, 64
        layer = drawn_layer(rng, c_in, c_out, 4, activation=True)
        h = ad.Tensor(rng.normal(size=poses(g, b, c_in)), requires_grad=h_live)
        out = layer.forward(h, g)
        grad = rng.normal(size=out.shape)
        bound = 8 * b * g.frame_count * g.joint_count * (5 * c_in * h_live + c_out // 2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out._backward(grad)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"

    def test_channel_and_partition_mismatch(self):
        rng = np.random.default_rng(13)
        g = multigraph(chain(4), frames=2, span=1, max_hop=1)
        with pytest.raises(DimensionError):
            drawn_layer(rng, 4, 3, 2, activation=True).forward(
                ad.constant(np.zeros(poses(g, 1, 3))), g)
        with pytest.raises(DimensionError):
            drawn_layer(rng, 3, 3, 3, activation=True).forward(
                ad.constant(np.zeros(poses(g, 1, 3))), g)


@pytest.mark.parametrize("shape, layout", [
    ((3, 2, 5), (2, 3, 5)),     # 3 -> 5 widens: [D+1, C_in, C_out]
    ((2, 3, 2), (3, 2, 2)),     # 3 -> 2 does not: [C_in, D+1, C_out]
    ((3, 5), (2, 3, 5)),        # one hop's weight
])
def test_graph_conv_rejects_a_weight_not_in_the_layer_layout(shape, layout):
    g = multigraph(chain(4), frames=2, span=1, max_hop=1)
    h = ad.constant(np.zeros(poses(g, 1, 3)))
    with pytest.raises(DimensionError, match=re.escape(f"shape {shape};") + ".*"
                       + re.escape(f"need {layout}")):
        ad.graph_conv(h, ad.parameter(np.zeros(shape)), g.band, g.hop_stack)


def test_model_graphs_hold_no_dense_operator():
    model = build_model(skeleton_preset("h36m22"), ModelConfig(input_frames=10, output_frames=10))
    for graph in (model.input_graph, model.output_graph):
        arrays = [a for a in vars(graph).values() if isinstance(a, np.ndarray)]
        arrays += graph.partition.layers
        assert len(arrays) == 2 + len(graph.partition.layers)
        assert all(a.size < (graph.frame_count * graph.joint_count) ** 2 for a in arrays)
