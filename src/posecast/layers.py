"""Multi-partition graph convolution layers and stacked towers.

A layer applies H' = sigma(sum_k A_k H W_k) where A_k are the normalized
hop operators of a PartitionedMultiGraph and each hop gets its own weight
matrix; ``autodiff.graph_conv`` applies A_k = kron(band, hops[k]) in
factored form. A tower chains layers through a channel schedule whose
first and last widths are 3 (coordinates in, coordinates out).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = ["GraphConvLayer", "GraphConvTower"]


class GraphConvLayer:
    def __init__(self, in_channels, out_channels, num_partitions, rng,
                 apply_activation=True, zero_init=False):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.apply_activation = apply_activation
        if zero_init:
            self.weights = [
                ad.parameter(np.zeros((in_channels, out_channels)))
                for _ in range(num_partitions)
            ]
        else:
            self.weights = [
                ad.parameter(None, rng=rng, shape=(in_channels, out_channels))
                for _ in range(num_partitions)
            ]

    def forward(self, h, graph):
        """h: [batch, V*T, C_in] -> [batch, V*T, C_out]."""
        out = ad.graph_conv(h, self.weights, graph.band, graph.hops)
        return ad.tanh(out) if self.apply_activation else out

    def parameters(self):
        return list(self.weights)


class GraphConvTower:
    """Layers chained through a channel schedule, e.g. (3, 64, 32, 64, 3).

    The final layer is linear; all earlier layers apply tanh. With
    zero_init_final the last layer's weights start at zero, so the tower
    initially outputs zeros (used for the residual refinement stage).
    """

    def __init__(self, schedule, num_partitions, rng, zero_init_final=False):
        schedule = tuple(schedule)
        if len(schedule) < 2:
            raise ValueError(f"schedule needs >= 2 entries, got {schedule}")
        if schedule[0] != 3 or schedule[-1] != 3:
            raise ValueError(
                f"schedule must start and end at 3 coordinates, got {schedule}"
            )
        self.schedule = schedule
        self.layers = []
        for i, (c_in, c_out) in enumerate(zip(schedule[:-1], schedule[1:])):
            last = i == len(schedule) - 2
            self.layers.append(
                GraphConvLayer(
                    c_in, c_out, num_partitions, rng,
                    apply_activation=not last,
                    zero_init=zero_init_final and last,
                )
            )

    def forward(self, h, graph):
        for layer in self.layers:
            h = layer.forward(h, graph)
        return h

    def parameters(self):
        return [w for layer in self.layers for w in layer.parameters()]
