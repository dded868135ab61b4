"""Sequence-aware mixing of tower outputs into intermediate predictions.

Two strategies plus a plain-attention baseline:

* prefix-sum ("pseudo-autoregressive"): frame i is the last observed pose
  plus the running sum of predicted per-frame offsets 1..i;
* anchor: frame i is a per-spatial-dimension convex combination of anchor
  poses, with weights from a causally masked softmax over query/key scores,
  confining each coordinate to the anchors' bounding interval
  (``score_matrix`` returns the weights tensor, ``anchor_combination``
  applies it);
* plain: the anchor path with every frame an anchor and no causal mask
  (``score_matrix(..., causal=False)`` then ``anchor_combination``).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError

__all__ = [
    "pseudo_autoregressive",
    "score_matrix",
    "anchor_combination",
]

STRATEGIES = ("pseudo_autoregressive", "anchor", "plain", "none")


def pseudo_autoregressive(offsets, last_frame):
    """Prefix-sum offsets over time, then add the last observed frame.

    offsets: [batch, T, V, 3]; last_frame: [batch, V, 3].
    Equivalent to multiplying by a lower-triangular all-ones T x T matrix.
    """
    if offsets.shape[-2:] != last_frame.shape[-2:]:
        raise DimensionError(
            f"offsets {offsets.shape} and last frame {last_frame.shape} disagree"
        )
    accumulated = ad.cumsum(offsets, axis=1)
    b, _, v, c = offsets.shape
    return ad.add(accumulated, ad.reshape(last_frame, (b, 1, v, c)))


def causal_mask(frames, anchors):
    """True where anchor k may feed frame i (k <= i), shape [T, n_a]."""
    i = np.arange(frames)[:, None]
    k = np.arange(anchors)[None, :]
    return k <= i


def score_matrix(q, key, anchor_count=None, causal=True):
    """Per-dimension mixing weights from query/key towers.

    q, key: [batch, T, V, 3]. Scores contract over joints separately for
    each spatial dimension and are divided by sqrt(V); a masked softmax
    over the anchor axis yields three row-stochastic T x n_a matrices per
    batch element: the weights tensor, [batch, 3, T, n_a].

    The last anchor_count key frames serve as anchors (default: all).
    Causal masking only applies when anchors are in one-to-one frame
    correspondence (n_a == T).
    """
    if q.shape != key.shape:
        raise DimensionError(f"query {q.shape} and key {key.shape} disagree")
    b, t, v, _ = q.shape
    scale = float(np.sqrt(v))

    kv = key if anchor_count is None else ad.tail(key, t - anchor_count)
    n_a = kv.shape[1]

    # [B, T, V, 3] -> [B, 3, T, V], keys transposed to [B, 3, V, n_a].
    qd = ad.transpose(q, (0, 3, 1, 2))
    kd = ad.transpose(kv, (0, 3, 2, 1))
    scores = ad.mul(ad.matmul(qd, kd), ad.constant(1.0 / scale))

    if causal and n_a == t:
        mask = causal_mask(t, n_a)
    else:
        mask = np.ones((t, n_a), dtype=bool)
    full_mask = np.broadcast_to(mask, (b, 3, t, n_a))
    return ad.masked_softmax(scores, full_mask, axis=-1)


def anchor_combination(weights, anchors):
    """out[b, i, v, d] = sum_k w[b, d, i, k] * anchor[b, k, v, d].

    weights: [batch, 3, T, n_a] from score_matrix; anchors: [batch, n_a, V, 3].
    """
    if weights.shape[-1] != anchors.shape[1]:
        raise DimensionError(
            f"mix expects {weights.shape[-1]} anchors, got {anchors.shape[1]}"
        )
    ad_anchors = ad.transpose(anchors, (0, 3, 1, 2))   # [B, 3, n_a, V]
    mixed = ad.matmul(weights, ad_anchors)             # [B, 3, T, V]
    return ad.transpose(mixed, (0, 2, 3, 1))
