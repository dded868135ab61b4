"""Skeleton graphs, hop-distance partitions, and spatio-temporal operators.

A skeleton is an undirected connected graph over V joints. Its adjacency
is split into disjoint hop layers (layer k holds exactly the pairs at
shortest-path distance k), which are then replicated across T frames:
block (t1, t2) of layer k is the single-frame layer whenever
|t1 - t2| <= span, and zero beyond. Each assembled operator is
symmetrically degree-normalized.

An assembled operator is kron(band, layer_k) with one T x T band shared
by every hop, and since the degree of node (t, v) is the product of the
band and layer degrees, its normalization is kron(normalize(band),
normalize(layer_k)). A PartitionedMultiGraph therefore stores only the
two normalized factors, the hop layers stacked row-wise in the layout
``autodiff.graph_conv`` multiplies by; only ``dump_multigraph`` forms the
(VT)^2 operators, one at a time. Every factor is symmetric (``normalize``
accepts only symmetric input and returns an exactly symmetric matrix), so
the one hop stack also serves as the stack of the transposed hops.

Poses keep frames and joints on separate axes, [..., T, V, C]; only the
dumped operators flatten node (frame t, joint v) to index t * V + v.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SkeletonGraph",
    "HopPartition",
    "PartitionedMultiGraph",
    "ConnectivityError",
    "hop_distances",
    "check_max_hop",
    "build_hop_partition",
    "build_multigraph",
    "normalize",
    "write_operator",
    "dump_multigraph",
]


class ConnectivityError(ValueError):
    """Raised when a skeleton graph is not connected."""


@dataclass(frozen=True)
class SkeletonGraph:
    joint_count: int
    edges: frozenset

    def __post_init__(self):
        edges = frozenset(frozenset(e) for e in self.edges)
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"self-loop or malformed edge {set(e)}")
            for v in e:
                if not 0 <= v < self.joint_count:
                    raise ValueError(
                        f"joint index {v} out of range [0, {self.joint_count})"
                    )
        object.__setattr__(self, "edges", edges)

    def neighbors(self):
        nbrs = [[] for _ in range(self.joint_count)]
        for e in self.edges:
            i, j = sorted(e)
            nbrs[i].append(j)
            nbrs[j].append(i)
        return nbrs


@dataclass(frozen=True)
class HopPartition:
    """Disjoint binary layers: layers[k][i, j] == 1 iff d(i, j) == k."""

    max_hop: int
    layers: tuple

    @property
    def joint_count(self):
        return self.layers[0].shape[0]


@dataclass(frozen=True)
class PartitionedMultiGraph:
    """Hop operators over all V*T joint-frame nodes, kept as factors.

    Normalized operator k is kron(band, hops[k]): ``band`` is the
    normalized T x T frame band, ``hops`` the normalized hop layers,
    shape [D+1, V, V]. They are held as ``hop_stack``, shape
    [V*(D+1), V], whose row v*(D+1) + k is row v of hops[k].
    """

    partition: HopPartition
    frame_count: int
    span: int
    band: np.ndarray = field(repr=False)
    hop_stack: np.ndarray = field(repr=False)

    @property
    def hops(self):
        """The normalized hop layers [D+1, V, V], a view of ``hop_stack``."""
        v = self.joint_count
        return self.hop_stack.reshape(v, -1, v).swapaxes(0, 1)

    @property
    def max_hop(self):
        return self.partition.max_hop

    @property
    def joint_count(self):
        return self.partition.joint_count


def hop_distances(graph):
    """All-pairs shortest-path lengths by BFS from every joint."""
    v = graph.joint_count
    nbrs = graph.neighbors()
    dist = np.full((v, v), -1, dtype=np.int64)
    for src in range(v):
        dist[src, src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if dist[src, w] < 0:
                    dist[src, w] = dist[src, u] + 1
                    queue.append(w)
    if (dist < 0).any():
        i, j = np.argwhere(dist < 0)[0]
        raise ConnectivityError(
            f"skeleton is disconnected: no path between joints {i} and {j}"
        )
    return dist


def check_max_hop(v, max_hop):
    """Reject a hop depth past V - 1, where every further hop layer is empty."""
    if max_hop > v - 1:
        raise ValueError(f"max_hop must be <= V - 1 = {v - 1} for V={v} joints, "
                         f"got {max_hop}")


def build_hop_partition(graph, max_hop):
    if max_hop < 0:
        raise ValueError(f"max_hop must be >= 0, got {max_hop}")
    dist = hop_distances(graph)
    layers = tuple(
        (dist == k).astype(np.float64) for k in range(max_hop + 1)
    )
    return HopPartition(max_hop=max_hop, layers=layers)


def _frame_band(frame_count, span):
    """The 0/1 band B[t1, t2] = 1 iff |t1 - t2| <= span."""
    t = np.arange(frame_count)
    return (np.abs(t[:, None] - t[None, :]) <= span).astype(np.float64)


def build_multigraph(partition, frame_count, span):
    """Normalize the band and hop factors of the operators over frame_count frames.

    Pre-normalization, operator k is kron(B, g_k) with B the frame band:
    for k = 0 this yields same-joint edges across frames (plus self-loops
    on the diagonal blocks), for k >= 1 natural-link edges both within
    and across frames.
    """
    if frame_count < 1:
        raise ValueError(f"frame_count must be >= 1, got {frame_count}")
    if span < 0:
        raise ValueError(f"span must be >= 0, got {span}")
    hops = np.stack([normalize(g_k) for g_k in partition.layers], axis=1)
    return PartitionedMultiGraph(
        partition=partition,
        frame_count=frame_count,
        span=span,
        band=normalize(_frame_band(frame_count, span)),
        hop_stack=hops.reshape(-1, partition.joint_count),
    )


def normalize(adjacency):
    """Symmetric degree normalization D^(-1/2) A D^(-1/2).

    Isolated nodes (zero degree in this partition) keep zero rows/columns.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if not np.array_equal(a, a.T):
        raise ValueError("normalize() requires a symmetric matrix")
    if (a < 0).any():
        raise ValueError("normalize() requires a nonnegative matrix")
    deg = a.sum(axis=1)
    denom = np.sqrt(np.outer(deg, deg))
    return np.divide(a, denom, out=np.zeros_like(a), where=denom > 0)


def write_operator(path, matrix, joint_count, frame_count, span, max_hop, hop):
    """Plain-text matrix dump: one ``V T L D k`` header line, then rows."""
    with open(path, "w") as f:
        f.write(f"{joint_count} {frame_count} {span} {max_hop} {hop}\n")
        for row in np.asarray(matrix):
            f.write(" ".join(repr(float(x)) for x in row) + "\n")


def dump_multigraph(multigraph, out_dir):
    """Write every hop operator pre- and post-normalization into out_dir,
    which is made if missing; returns paths.

    Each dense (VT)^2 operator is formed in turn in one buffer, allocated
    before out_dir is made, so a size that cannot be allocated raises
    MemoryError and leaves nothing behind.
    """
    v, t = multigraph.joint_count, multigraph.frame_count
    meta = (v, t, multigraph.span, multigraph.max_hop)
    band = _frame_band(t, multigraph.span)
    dense = np.empty((t * v, t * v))
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k, (layer, hop) in enumerate(zip(multigraph.partition.layers, multigraph.hops)):
        for tag, frames, joints in (("pre", band, layer), ("post", multigraph.band, hop)):
            # kron(frames, joints), written in place
            np.multiply(frames[:, None, :, None], joints[None, :, None, :],
                        out=dense.reshape(t, v, t, v))
            path = os.path.join(out_dir, f"operator_k{k}_{tag}.txt")
            write_operator(path, dense, *meta, hop=k)
            paths.append(path)
    return paths
