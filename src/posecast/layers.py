"""Multi-partition graph convolution layers and stacked towers.

A layer applies H' = sigma(sum_k A_k H W_k) where A_k are the normalized
hop operators of a PartitionedMultiGraph and each hop gets its own weight
matrix; ``autodiff.graph_conv`` applies A_k = kron(band, hops[k]) in
factored form to poses [batch, T, V, C], with the hops stacked as the
graph holds them (``hop_stack``). A layer holds its D+1 hop weights as one
trainable tensor, ``weight``, in the layout graph_conv multiplies by
(``autodiff.weight_layout``); ``hops`` are its per-hop [C_in, C_out]
views, the model's named checkpoint blocks. A tower is a list of layers,
built from its hop weights in order, D+1 per layer, as the model's
parameter table (``model.parameter_shapes``) lists them.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = ["GraphConvLayer", "GraphConvTower", "glorot"]


def glorot(rng, shape):
    """A [fan_in, fan_out] weight drawn uniformly from [-b, b],
    b = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class GraphConvLayer:
    """One weight per hop partition, then tanh if ``activation`` is set.

    ``hops``: D+1 arrays [C_in, C_out], copied into ``weight``.
    """

    def __init__(self, hops, activation):
        c_in, c_out = np.shape(hops[0])
        if any(np.shape(w) != (c_in, c_out) for w in hops):
            raise ad.DimensionError(f"a layer's weights must share one shape, got "
                                    f"{[np.shape(w) for w in hops]}")
        self.weight = ad.parameter(np.empty(ad.weight_layout(len(hops), c_in, c_out)))
        self.hops = ad.hop_views(self.weight.values, c_in, c_out)
        for view, w in zip(self.hops, hops):
            view[...] = w
        self.activation = activation

    def forward(self, h, graph):
        """h: [batch, T, V, C_in] -> [batch, T, V, C_out]."""
        return ad.graph_conv(h, self.weight, graph.band, graph.hop_stack, self.activation)


class GraphConvTower:
    """Consecutive runs of num_partitions hop weights, one run per layer.

    The final layer is linear; all earlier layers apply tanh.
    """

    def __init__(self, hops, num_partitions):
        runs = [hops[i: i + num_partitions] for i in range(0, len(hops), num_partitions)]
        self.layers = [GraphConvLayer(w, activation=i < len(runs) - 1)
                       for i, w in enumerate(runs)]

    def forward(self, x, graph):
        """x: [batch, T, V, C_in] -> [batch, T, V, C_out]."""
        for layer in self.layers:
            x = layer.forward(x, graph)
        return x
