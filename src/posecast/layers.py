"""Multi-partition graph convolution layers and stacked towers.

A layer applies H' = sigma(sum_k A_k H W_k) where A_k are the normalized
hop operators of a PartitionedMultiGraph and each hop gets its own weight
matrix; ``autodiff.graph_conv`` applies A_k = kron(band, hops[k]) in
factored form to poses [batch, T, V, C], with the hops stacked as the
graph holds them (``hop_stack``). A tower is a list of weight stacks, D+1
weights per layer, taken in order from the model's parameter table
(``model.parameter_shapes``), which fixes their shapes and initial values.
Each layer moves its D+1 weights into one array once, in the layout
graph_conv multiplies by (``autodiff.stack_weights``); the weight tensors
keep their names and shapes and become views of that array, which
graph_conv finds from them.
"""

from __future__ import annotations

from . import autodiff as ad

__all__ = ["GraphConvLayer", "GraphConvTower"]


class GraphConvLayer:
    """One weight per hop partition, then tanh if ``activation`` is set."""

    def __init__(self, weights, activation):
        self.weights = weights
        ad.stack_weights(weights)
        self.activation = activation

    def forward(self, h, graph):
        """h: [batch, T, V, C_in] -> [batch, T, V, C_out]."""
        return ad.graph_conv(h, self.weights, graph.band, graph.hop_stack, self.activation)


class GraphConvTower:
    """Consecutive runs of num_partitions weights, one run per layer.

    The final layer is linear; all earlier layers apply tanh.
    """

    def __init__(self, weights, num_partitions):
        stacks = [weights[i: i + num_partitions]
                  for i in range(0, len(weights), num_partitions)]
        self.layers = [GraphConvLayer(w, activation=i < len(stacks) - 1)
                       for i, w in enumerate(stacks)]

    def forward(self, x, graph):
        """x: [batch, T, V, C_in] -> [batch, T, V, C_out]."""
        for layer in self.layers:
            x = layer.forward(x, graph)
        return x
