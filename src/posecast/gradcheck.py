"""Central finite-difference verification of every differentiable operation.

Each registered check builds a scalar function of one or more parameter
tensors, takes its gradients with ``ad.gradients``, and compares them
against central differences (h = 1e-5, float64). ``run_suite`` returns
one result per operation; the CLI surfaces it as a verification command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import skeleton_preset, synth_kinematic, make_windows
from .graphs import build_hop_partition, build_multigraph
from .model import ModelConfig, build_model
from .training import mpjpe_loss

__all__ = ["CheckResult", "finite_difference", "relative_error", "run_suite", "OP_CHECKS"]

STEP = 1e-5
TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_relative_error: float
    passed: bool


def finite_difference(fn, params, h=STEP):
    """Central-difference gradients of scalar fn() w.r.t. each parameter."""
    grads = []
    for p in params:
        # Index p.values itself: a layer's weights are strided views of its
        # stack, which a flattened copy would not write through.
        g = np.zeros_like(p.values)
        for i in np.ndindex(p.values.shape):
            orig = p.values[i]
            p.values[i] = orig + h
            up = fn()
            p.values[i] = orig - h
            down = fn()
            p.values[i] = orig
            g[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(analytic, numeric):
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def check_gradients(build_loss, params):
    """Max relative error between ``ad.gradients`` and finite differences;
    the parameters' ``grad`` is left as it was."""
    analytic = ad.gradients(build_loss(), params)
    with ad.no_grad():
        numeric = finite_difference(lambda: build_loss().item(), params)
    return max(relative_error(a, n) for a, n in zip(analytic, numeric))


def _rng():
    return np.random.default_rng(12345)


def _check_matmul():
    rng = _rng()
    a = ad.parameter(rng.normal(size=(3, 4)))
    b = ad.parameter(rng.normal(size=(4, 2)))
    return check_gradients(lambda: ad.tensor_sum(ad.mul(m := ad.matmul(a, b), m)), [a, b])


def _check_elementwise():
    rng = _rng()
    worst = 0.0
    for op in (ad.add, ad.sub, ad.mul):
        a = ad.parameter(rng.normal(size=(2, 5)))
        b = ad.parameter(rng.normal(size=(2, 5)))
        err = check_gradients(
            lambda: ad.tensor_sum(ad.mul(e := op(a, b), e)), [a, b]
        )
        worst = max(worst, err)
    return worst


def _check_activation():
    rng = _rng()
    a = ad.parameter(rng.normal(size=(10,)))
    return check_gradients(lambda: ad.tensor_sum(ad.mul(t := ad.tanh(a), t)), [a])


def _check_masked_softmax():
    rng = _rng()
    scores = ad.parameter(rng.normal(size=(4, 6)))
    mask = np.ones((4, 6), dtype=bool)
    mask[0, 3:] = False
    mask[2, :2] = False
    weights = ad.constant(rng.normal(size=(4, 6)))
    return check_gradients(
        lambda: ad.tensor_sum(ad.mul(ad.masked_softmax(scores, mask, axis=-1), weights)),
        [scores],
    )


def _check_cumsum():
    rng = _rng()
    a = ad.parameter(rng.normal(size=(2, 5, 3)))
    w = ad.constant(rng.normal(size=(2, 5, 3)))
    return check_gradients(
        lambda: ad.tensor_sum(ad.mul(ad.cumsum(a, axis=1), w)), [a]
    )


def _check_sqrt():
    rng = _rng()
    a = ad.parameter(rng.uniform(0.5, 2.0, size=(8,)))
    return check_gradients(lambda: ad.tensor_sum(ad.sqrt(a)), [a])


def _check_graph_conv():
    # chain_4 with D=3: only the end joints have a 3-hop neighbour, so
    # hops[3] has zero rows. span >= T fills every band entry; span=1 over
    # three frames leaves the outer corners of the band zero. 3 -> 4 runs
    # hops first on a [D+1, C_in, C_out] stack, 4 -> 3 weights first on a
    # [C_in, D+1, C_out] one.
    rng = _rng()
    partition = build_hop_partition(skeleton_preset("chain_4"), max_hop=3)
    worst = 0.0
    for frame_count, span in ((2, 2), (3, 1)):
        graph = build_multigraph(partition, frame_count=frame_count, span=span)
        for c_in, c_out in ((3, 4), (4, 3)):
            h = ad.parameter(rng.normal(size=(2, frame_count, 4, c_in)))
            weights = [ad.parameter(rng.normal(size=(c_in, c_out))) for _ in range(4)]
            ad.stack_weights(weights)
            for activation in (False, True):
                err = check_gradients(
                    lambda: ad.tensor_sum(ad.mul(
                        o := ad.graph_conv(h, weights, graph.band, graph.hop_stack, activation),
                        o)),
                    [h, *weights],
                )
                worst = max(worst, err)
    return worst


def _check_tail():
    rng = _rng()
    a = ad.parameter(rng.normal(size=(2, 5, 3)))
    w = ad.constant(rng.normal(size=(2, 3, 3)))
    return check_gradients(lambda: ad.tensor_sum(ad.mul(ad.tail(a, 2), w)), [a])


def _check_end_to_end():
    skeleton = skeleton_preset("chain_4")
    config = ModelConfig(
        input_frames=3,
        output_frames=2,
        span=1,
        max_hop=1,
        strategy="anchor",
        value_schedule=(3, 4, 3),
        qk_schedule=(3, 4, 3),
        seed=7,
    )
    model = build_model(skeleton, config)
    seq = synth_kinematic(v_chain=4, frames=12, period=6, seed=3)
    windows = make_windows([seq], t_in=3, k_out=2)
    x, y = windows.batch(slice(2))
    params = model.parameters()

    def build_loss():
        return mpjpe_loss(model.forward(x).predictions, y)

    return check_gradients(build_loss, params)


# Ordered registry; tests may monkeypatch entries to exercise failure paths.
OP_CHECKS = [
    ("matmul", _check_matmul),
    ("elementwise", _check_elementwise),
    ("activation", _check_activation),
    ("masked_softmax", _check_masked_softmax),
    ("cumsum", _check_cumsum),
    ("sqrt", _check_sqrt),
    ("graph_conv", _check_graph_conv),
    ("tail", _check_tail),
    ("end_to_end_model", _check_end_to_end),
]


def run_suite(tolerance=TOLERANCE):
    results = []
    for name, check in OP_CHECKS:
        err = check()
        results.append(CheckResult(name=name, max_relative_error=err, passed=err < tolerance))
    return results
