"""Show what the two output-mixing strategies guarantee by construction.

Prefix-sum mixing turns per-frame offsets into absolute poses anchored at
the last observed frame; anchor mixing keeps every predicted coordinate
inside the bounding box of the anchor poses and never lets frame i see
anchors later than i.
"""

import numpy as np

from posecast import autodiff as ad
from posecast.attention import (
    anchor_combination,
    pseudo_autoregressive,
    score_matrix,
)

rng = np.random.default_rng(0)
frames, joints = 6, 4

# --- prefix-sum mixing -------------------------------------------------
last = ad.constant(rng.normal(size=(1, joints, 3)))
offsets = ad.constant(rng.normal(size=(1, frames, joints, 3)) * 0.1)
poses = pseudo_autoregressive(offsets, last)

step = np.linalg.norm(np.diff(poses.values, axis=1), axis=-1).mean()
print(f"mean per-frame step from offsets of scale 0.1: {step:.4f}")

still = pseudo_autoregressive(ad.constant(np.zeros_like(offsets.values)), last)
print("zero offsets reproduce the last observed frame:",
      bool((still.values == last.values[:, None]).all()))

# --- anchor mixing -----------------------------------------------------
q = ad.constant(rng.normal(size=(1, frames, joints, 3)))
k = ad.constant(rng.normal(size=(1, frames, joints, 3)))
anchors = ad.constant(rng.normal(size=(1, frames, joints, 3)))

weights = score_matrix(q, k)
out = anchor_combination(weights, anchors)

w = weights.values
print(f"weight rows sum to one (max deviation {abs(w.sum(-1) - 1).max():.1e}), "
      f"min weight {w.min():.1e}")

lo = anchors.values.min(axis=1)
hi = anchors.values.max(axis=1)
inside = (out.values >= lo[:, None]).all() and (out.values <= hi[:, None]).all()
print("predictions stay inside the anchor bounding box:", inside)

# Causality: bump a late anchor and watch the early frames not move.
bumped = anchors.values.copy()
bumped[:, -1] += 1e6
out2 = anchor_combination(weights, ad.constant(bumped))
early_identical = np.array_equal(out.values[:, :-1], out2.values[:, :-1])
print("frames before the bumped anchor are bit-identical:", early_identical)
