"""Build hop-distance partitions for a small skeleton and inspect them.

Every pair of joints lands in exactly one partition layer, keyed by the
shortest-path distance between them; layer 0 is always the identity.
"""

import numpy as np

from posecast.graphs import SkeletonGraph, build_hop_partition, build_multigraph

skeleton = SkeletonGraph(
    joint_count=5,
    edges=frozenset({(0, 1), (1, 2), (2, 3), (1, 4)}),
)

partition = build_hop_partition(skeleton, max_hop=3)
for k, layer in enumerate(partition.layers):
    print(f"hop {k}: {int(layer.sum())} ordered pairs")
    print(layer.astype(int))

# Layers tile the joint x joint grid: summing them gives all-ones wherever
# the graph diameter is within max_hop.
coverage = sum(partition.layers)
print("every pair covered exactly once:", np.array_equal(coverage, np.ones((5, 5))))

# Extend across time: frames within `span` of each other get connected,
# and each partition is degree-normalized separately. The multigraph keeps
# the normalized frame band and hop layers; operator k is their kron.
mg = build_multigraph(partition, frame_count=4, span=1)
for k, hop in enumerate(mg.hops):
    op = np.kron(mg.band, hop)
    print(f"spatio-temporal operator {k}: shape {op.shape}, "
          f"row sums in [{op.sum(axis=1).min():.3f}, {op.sum(axis=1).max():.3f}]")
