import numpy as np
import pytest

from posecast.data import skeleton_preset
from posecast.graphs import (
    ConnectivityError,
    SkeletonGraph,
    build_hop_partition,
    build_multigraph,
    dump_multigraph,
    hop_distances,
    normalize,
    read_operator,
)


def chain(n):
    return SkeletonGraph(joint_count=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


def random_connected_graph(rng, v):
    """A random spanning tree plus a few extra edges."""
    edges = set()
    order = rng.permutation(v)
    for i in range(1, v):
        parent = order[rng.integers(0, i)]
        edges.add(frozenset((int(order[i]), int(parent))))
    for _ in range(rng.integers(0, v)):
        i, j = rng.integers(0, v, size=2)
        if i != j:
            edges.add(frozenset((int(i), int(j))))
    return SkeletonGraph(joint_count=v, edges=frozenset(edges))


def floyd_warshall(graph):
    v = graph.joint_count
    inf = 10**6
    dist = np.full((v, v), inf)
    np.fill_diagonal(dist, 0)
    for e in graph.edges:
        i, j = sorted(e)
        dist[i, j] = dist[j, i] = 1
    for m in range(v):
        dist = np.minimum(dist, dist[:, m:m + 1] + dist[m: m + 1, :])
    return dist


class TestHopDistances:
    def test_three_node_chain(self):
        d = hop_distances(chain(3))
        assert d[0, 2] == 2 and d[0, 1] == 1 and d[0, 0] == 0

    def test_single_edge(self):
        assert np.array_equal(hop_distances(chain(2)), [[0, 1], [1, 0]])

    def test_matches_floyd_warshall(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_connected_graph(rng, int(rng.integers(2, 13)))
            assert np.array_equal(hop_distances(g), floyd_warshall(g))

    def test_disconnected_graph_names_pair(self):
        g = SkeletonGraph(joint_count=4, edges=frozenset([(0, 1), (2, 3)]))
        with pytest.raises(ConnectivityError, match="joints"):
            hop_distances(g)


class TestHopPartition:
    def test_layer_zero_is_identity(self):
        p = build_hop_partition(chain(5), max_hop=2)
        assert np.array_equal(p.layers[0], np.eye(5))

    def test_three_node_chain_layers(self):
        p = build_hop_partition(chain(3), max_hop=2)
        g1 = np.zeros((3, 3))
        g1[0, 1] = g1[1, 0] = g1[1, 2] = g1[2, 1] = 1
        g2 = np.zeros((3, 3))
        g2[0, 2] = g2[2, 0] = 1
        assert np.array_equal(p.layers[1], g1)
        assert np.array_equal(p.layers[2], g2)

    def test_supports_disjoint_and_union_matches_threshold(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(2, 13)))
            max_hop = int(rng.integers(1, 5))
            p = build_hop_partition(g, max_hop)
            dist = floyd_warshall(g)
            total = np.zeros_like(p.layers[0])
            for k, layer in enumerate(p.layers):
                assert np.array_equal(layer, layer.T)
                assert ((total * layer) == 0).all()  # disjoint supports
                total += layer
            assert np.array_equal(total > 0, dist <= max_hop)

    def test_negative_hop_rejected(self):
        with pytest.raises(ValueError):
            build_hop_partition(chain(3), max_hop=-1)


def raw_operators(mg):
    """The operators before normalization, kron(0/1 frame band, layer_k).

    The normalized band is positive exactly where the 0/1 band is 1.
    """
    band = (mg.band > 0).astype(np.float64)
    return [np.kron(band, layer) for layer in mg.partition.layers]


def kron_operators(mg):
    """The normalized operators, kron(band, hops[k])."""
    return [np.kron(mg.band, hop) for hop in mg.hops]


class TestMultiGraph:
    def test_single_frame_is_normalized_partition(self):
        p = build_hop_partition(chain(4), max_hop=2)
        mg = build_multigraph(p, frame_count=1, span=3)
        for layer, op in zip(p.layers, kron_operators(mg)):
            assert np.allclose(op, normalize(layer), atol=1e-15)

    def test_t5_l1_block_tridiagonal(self):
        p = build_hop_partition(chain(13), max_hop=1)
        mg = build_multigraph(p, frame_count=5, span=1)
        v = 13
        for raw, layer in zip(raw_operators(mg), p.layers):
            for t1 in range(5):
                for t2 in range(5):
                    block = raw[t1 * v:(t1 + 1) * v, t2 * v:(t2 + 1) * v]
                    if abs(t1 - t2) > 1:
                        assert np.array_equal(block, np.zeros((v, v)))
                    else:
                        assert np.array_equal(block, layer)

    def test_span_exceeding_sequence_fills_every_block(self):
        p = build_hop_partition(chain(3), max_hop=1)
        mg = build_multigraph(p, frame_count=3, span=5)
        v = 3
        raw = raw_operators(mg)[1]
        for t1 in range(3):
            for t2 in range(3):
                block = raw[t1 * v:(t1 + 1) * v, t2 * v:(t2 + 1) * v]
                assert np.array_equal(block, p.layers[1])

    def test_blocks_depend_only_on_frame_gap(self):
        p = build_hop_partition(chain(4), max_hop=2)
        mg = build_multigraph(p, frame_count=6, span=2)
        v = 4
        for raw in raw_operators(mg):
            for gap in range(6):
                blocks = [
                    raw[t * v:(t + 1) * v, (t + gap) * v:(t + gap + 1) * v]
                    for t in range(6 - gap)
                ]
                for b in blocks[1:]:
                    assert np.array_equal(b, blocks[0])

    def test_same_joint_edges_live_in_layer_zero(self):
        p = build_hop_partition(chain(3), max_hop=1)
        mg = build_multigraph(p, frame_count=2, span=1)
        v = 3
        off_block = raw_operators(mg)[0][0:v, v:2 * v]
        assert np.array_equal(off_block, np.eye(v))


def dense_operators(partition, frame_count, span):
    """The operators assembled in full: normalize(kron(0/1 band, layer_k))."""
    t = np.arange(frame_count)
    band = (np.abs(t[:, None] - t[None, :]) <= span).astype(np.float64)
    return [normalize(np.kron(band, layer)) for layer in partition.layers]


class TestFactoredOperators:
    @pytest.mark.parametrize("preset, max_hop, frames, span", [
        ("chain_4", 3, 5, 1),
        ("chain_8", 1, 10, 1),
        ("chain_8", 3, 4, 6),
        ("h36m22", 3, 10, 2),
        ("h36m22", 0, 1, 0),
    ])
    def test_kron_of_factors_matches_dense_operators(self, preset, max_hop, frames, span):
        p = build_hop_partition(skeleton_preset(preset), max_hop)
        mg = build_multigraph(p, frame_count=frames, span=span)
        assert mg.band.shape == (frames, frames)
        assert mg.hops.shape == (max_hop + 1, p.joint_count, p.joint_count)
        for hop, dense in zip(mg.hops, dense_operators(p, frames, span), strict=True):
            assert np.abs(np.kron(mg.band, hop) - dense).max() <= 1e-15

    def test_random_connected_graphs(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(2, 13)))
            max_hop = int(rng.integers(0, 5))
            frames, span = int(rng.integers(1, 7)), int(rng.integers(0, 7))
            p = build_hop_partition(g, max_hop)
            mg = build_multigraph(p, frame_count=frames, span=span)
            dense = dense_operators(p, frames, span)
            for op, want in zip(kron_operators(mg), dense, strict=True):
                assert np.abs(op - want).max() <= 1e-15


class TestSymmetricFactors:
    """graph_conv reads hop_stack as the stack of the hops and of their
    transposes, and the band as its own transpose, so every factor must be
    symmetric to the bit."""

    @staticmethod
    def assert_factors_symmetric(mg):
        assert np.array_equal(mg.band, mg.band.T)
        for hop in mg.hops:
            assert np.array_equal(hop, hop.T)
        k_count = mg.max_hop + 1
        for v in range(mg.joint_count):        # row v*(D+1) + k is row v of hop k
            assert np.array_equal(mg.hop_stack[v * k_count: (v + 1) * k_count], mg.hops[:, v])

    @pytest.mark.parametrize("preset", ["chain_2", "chain_4", "chain_8", "chain_13", "h36m22"])
    def test_presets(self, preset):
        skeleton = skeleton_preset(preset)
        for max_hop in range(min(skeleton.joint_count, 5)):
            p = build_hop_partition(skeleton, max_hop)
            for layer in p.layers:
                out = normalize(layer)
                assert np.array_equal(out, out.T)
            for frames, span in ((1, 0), (5, 1), (10, 2), (4, 6)):
                self.assert_factors_symmetric(build_multigraph(p, frames, span))

    def test_random_graphs(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(2, 13)))
            p = build_hop_partition(g, int(rng.integers(0, 5)))
            frames, span = int(rng.integers(1, 7)), int(rng.integers(0, 7))
            self.assert_factors_symmetric(build_multigraph(p, frames, span))
            v = g.joint_count
            weighted = np.triu(rng.random((v, v)) * (rng.random((v, v)) < 0.5), 1)
            out = normalize(weighted + weighted.T)
            assert np.array_equal(out, out.T)


class TestNormalize:
    def test_identity_unchanged(self):
        assert np.array_equal(normalize(np.eye(4)), np.eye(4))

    def test_single_edge(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(normalize(a), a)

    def test_spectral_radius_at_most_one(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = int(rng.integers(2, 10))
            a = (rng.random((v, v)) < 0.4).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            out = normalize(a)
            # power iteration on the symmetric operator
            x = rng.normal(size=v)
            for _ in range(200):
                y = out @ x
                n = np.linalg.norm(y)
                if n == 0:
                    break
                x = y / n
            radius = abs(x @ out @ x) if np.linalg.norm(x) > 0 else 0.0
            assert radius <= 1.0 + 1e-9

    def test_regular_graph_divides_by_degree(self):
        # 4-cycle is 2-regular
        a = np.zeros((4, 4))
        for i in range(4):
            a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = 1.0
        assert np.array_equal(normalize(a), a / 2.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dump_round_trip(tmp_path):
    p = build_hop_partition(chain(4), max_hop=2)
    mg = build_multigraph(p, frame_count=3, span=1)
    paths = dump_multigraph(mg, tmp_path)
    assert len(paths) == 2 * (mg.max_hop + 1)
    for k in range(mg.max_hop + 1):
        pre, header = read_operator(tmp_path / f"operator_k{k}_pre.txt")
        assert np.array_equal(pre, raw_operators(mg)[k])
        assert header == {"V": 4, "T": 3, "L": 1, "D": 2, "k": k}
        post, _ = read_operator(tmp_path / f"operator_k{k}_post.txt")
        assert np.array_equal(post, kron_operators(mg)[k])
