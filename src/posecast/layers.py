"""Multi-partition graph convolution layers and stacked towers.

A layer applies H' = sigma(sum_k A_k H W_k) where A_k are the normalized
hop operators of a PartitionedMultiGraph and each hop gets its own weight
matrix; ``autodiff.graph_conv`` applies A_k = kron(band, hops[k]) in
factored form to poses [batch, T, V, C], with the hops stacked as the
graph holds them (``hop_stack``). A layer holds its D+1 hop weights as one
trainable tensor, ``weight``, in the layout graph_conv multiplies by
(``autodiff.weight_layout``); ``hops`` are its per-hop [C_in, C_out]
views, the model's named checkpoint blocks. A tower is a list of layers,
one per consecutive pair of widths in its schedule. Weights start at
zero: ``model.build_model`` writes the initial values through the views,
and ``model.load_checkpoint`` a file's.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = ["GraphConvLayer", "GraphConvTower"]


class GraphConvLayer:
    """``k_count`` = D+1 hop weights [c_in, c_out], then tanh if
    ``activation`` is set. ``weight`` starts at zero; ``hops`` are its
    per-hop views."""

    def __init__(self, c_in, c_out, k_count, activation):
        self.weight = ad.parameter(np.zeros(ad.weight_layout(k_count, c_in, c_out)))
        self.hops = ad.hop_views(self.weight.values, c_in, c_out)
        self.activation = activation

    def forward(self, h, graph):
        """h: [batch, T, V, C_in] -> [batch, T, V, C_out]."""
        return ad.graph_conv(h, self.weight, graph.band, graph.hop_stack, self.activation)


class GraphConvTower:
    """One layer of ``k_count`` hop weights per consecutive pair of widths
    in ``schedule``. The final layer is linear; all earlier layers apply tanh.
    """

    def __init__(self, schedule, k_count):
        self.layers = [GraphConvLayer(c_in, c_out, k_count, activation=i < len(schedule) - 2)
                       for i, (c_in, c_out) in enumerate(zip(schedule, schedule[1:]))]

    def forward(self, x, graph):
        """x: [batch, T, V, C_in] -> [batch, T, V, C_out]."""
        for layer in self.layers:
            x = layer.forward(x, graph)
        return x
