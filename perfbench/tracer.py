"""Outside-in tracing of posecast's public functions.

``Patches`` rebinds a function or method everywhere posecast holds a
reference to it and puts the originals back on ``undo``. ``Tracer`` uses
it to time every autodiff op (forward, and backward by wrapping the
``_backward`` closure each op returns), the towers, the graph-conv
layers, graph building, the mixing functions, the model forward pass,
temporal alignment and the training helpers. Nothing under ``src/`` is
edited; the benchmark worker installs the tracer before setup and
removes it after the timed loop.

Counters split into three kinds:

* times, summed over the timed ops and reported per op;
* exact counts (calls, flops, bytes), computed from shapes, recorded op
  by op and required to repeat exactly;
* set-up counts (graph building), recorded once before the warm-up op.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

AUTODIFF_OPS = (
    "matmul", "add", "sub", "mul", "tanh", "sqrt", "masked_softmax",
    "tensor_sum", "cumsum", "reshape", "transpose",
)
TOWERS = ("v", "q", "k", "refine")
ATTENTION_FUNCS = ("score_matrix", "anchor_combination", "pseudo_autoregressive")

# Every key the tracer can report; a layer a workload never runs reads 0.
TIME_KEYS = (
    [f"autodiff.{op}.{d}_s" for op in AUTODIFF_OPS for d in ("fwd", "bwd")]
    + ["autodiff.backward.self_s", "autodiff.adam_step_s"]
    + [f"layers.tower.{t}.{d}_s" for t in TOWERS for d in ("fwd", "bwd")]
    + ["layers.graph_conv.fwd_s"]
    + [f"attention.{f}_s" for f in ATTENTION_FUNCS]
    + ["attention.bwd_s", "model.forward_s", "model.temporal_align_s",
       "training.mpjpe_loss_s", "training.clip_s"]
)
EXACT_KEYS = (
    [f"autodiff.{op}.calls" for op in AUTODIFF_OPS]
    + [f"autodiff.matmul.{k}" for k in ("fwd_flop", "bwd_flop", "bwd_dead_flop")]
    + ["autodiff.retained_bytes", "layers.graph_conv.calls"]
)


class Patches:
    """Rebind callables across posecast's modules; ``undo`` restores them."""

    def __init__(self):
        self._undo = []

    def patch(self, owner, name, make):
        """Replace ``owner.name`` with ``make(original)`` wherever bound.

        For a module-level function this covers every posecast module that
        imported it by name. Missing attributes are skipped, so a later
        refactor that removes one only zeroes its metric.
        """
        original = getattr(owner, name, None)
        if original is None:
            return
        wrapped = make(original)
        places = [owner] + [m for n, m in sys.modules.items()
                            if n.startswith("posecast") and m is not owner]
        for place in places:
            for attr, value in list(vars(place).items()):
                if value is original:
                    setattr(place, attr, wrapped)
                    self._undo.append((place, attr, original))

    def undo(self):
        while self._undo:
            place, attr, original = self._undo.pop()
            setattr(place, attr, original)


def _graph_bytes(root):
    """Bytes of forward values owned by non-leaf nodes reachable from root."""
    seen, stack, total = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        if node._inputs and node.values.flags.owndata:
            total += node.values.nbytes
        for child in node._inputs:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return total


class Tracer:
    def __init__(self):
        self.patches = Patches()
        self.times = defaultdict(float)     # summed over timed ops
        self.exact = defaultdict(int)       # for the op in progress
        self.per_op = []                    # one exact-count dict per timed op
        self.setup = defaultdict(float)     # graph building, before warm-up
        self.clips = [0, 0]                 # [clipped, clip calls]
        self.scope = None
        self.towers = {}
        self._closure_s = 0.0
        self._ops = -1                      # -1 until the warm-up op ends

    # -- installation -----------------------------------------------------

    def install(self):
        from posecast import attention, autodiff, graphs, layers, model, training

        for name in AUTODIFF_OPS:
            self.patches.patch(autodiff, name, lambda f, n=name: self._op(n, f))
        self.patches.patch(autodiff.Tensor, "backward", self._backward_root)
        self.patches.patch(autodiff, "adam_step",
                           lambda f: self._timed("autodiff.adam_step_s", f))
        self.patches.patch(layers.GraphConvTower, "forward", self._tower)
        self.patches.patch(layers.GraphConvLayer, "forward", self._graph_conv)
        for name in ("build_hop_partition", "build_multigraph"):
            self.patches.patch(graphs, name, self._graph_build)
        for name in ATTENTION_FUNCS:
            self.patches.patch(attention, name,
                               lambda f, n=name: self._timed(f"attention.{n}_s", f, "attention"))
        self.patches.patch(model.ForecastModel, "forward", self._forward)
        self.patches.patch(model, "temporal_align",
                           lambda f: self._timed("model.temporal_align_s", f))
        self.patches.patch(training, "mpjpe_loss",
                           lambda f: self._timed("training.mpjpe_loss_s", f))
        self.patches.patch(training, "_clip_gradients", self._clip)

    def uninstall(self):
        self.patches.undo()

    def register_model(self, forecast_model):
        """Name the model's towers so their time is reported per tower."""
        for label in TOWERS:
            tower = getattr(forecast_model, f"{label}_tower", None)
            if tower is not None:
                self.towers[id(tower)] = label

    def op_boundary(self):
        """Called when an op ends; the first call closes the warm-up op."""
        if self._ops < 0:
            self.times.clear()
            self.clips = [0, 0]
        else:
            self.per_op.append({k: self.exact.get(k, 0) for k in EXACT_KEYS})
        self.exact = defaultdict(int)
        self._ops += 1

    # -- wrappers -----------------------------------------------------------

    def _timed(self, key, fn, scope=None):
        def wrapped(*args, **kwargs):
            outer, self.scope = self.scope, scope or self.scope
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.times[key] += perf_counter() - t0
                self.scope = outer
        return wrapped

    def _op(self, name, fn):
        prefix = f"autodiff.{name}"

        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.times[prefix + ".fwd_s"] += perf_counter() - t0
            self.exact[prefix + ".calls"] += 1
            flop = dead = 0
            if name == "matmul":
                a, b = args[0], args[1]
                flop = 2 * out.values.size * a.values.shape[-1]
                dead = sum(not (t.requires_grad or t._backward is not None) for t in (a, b))
                self.exact[prefix + ".fwd_flop"] += flop
            if out._backward is not None:
                out._backward = self._closure(prefix, out._backward, self.scope, flop, dead)
            return out
        return wrapped

    def _closure(self, prefix, backward, scope, flop, dead):
        def timed_backward(grad):
            t0 = perf_counter()
            backward(grad)
            dt = perf_counter() - t0
            self._closure_s += dt
            self.times[prefix + ".bwd_s"] += dt
            if scope is not None:
                self.times[scope + ".bwd_s"] += dt
            if flop:
                # Both input gradients are computed, each costing a forward's flops.
                self.exact[prefix + ".bwd_flop"] += 2 * flop
                self.exact[prefix + ".bwd_dead_flop"] += dead * flop
        return timed_backward

    def _backward_root(self, fn):
        def wrapped(root):
            before = self._closure_s
            t0 = perf_counter()
            fn(root)
            total = perf_counter() - t0
            self.times["autodiff.backward.self_s"] += total - (self._closure_s - before)
        return wrapped

    def _tower(self, fn):
        def wrapped(tower, h, graph):
            label = self.towers.get(id(tower), "other")
            return self._timed(f"layers.tower.{label}.fwd_s", fn,
                               f"layers.tower.{label}")(tower, h, graph)
        return wrapped

    def _graph_conv(self, fn):
        def wrapped(layer, h, graph):
            self.exact["layers.graph_conv.calls"] += 1
            return self._timed("layers.graph_conv.fwd_s", fn)(layer, h, graph)
        return wrapped

    def _graph_build(self, fn):
        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.setup["graphs.build_s"] += perf_counter() - t0
            for op in getattr(out, "operators", ()):
                self.setup["graphs.operator_nnz"] += int((op != 0).sum())
                self.setup["graphs.operator_size"] += op.size
            for op in getattr(out, "operators", ()) + getattr(out, "raw_operators", ()):
                self.setup["graphs.operator_bytes"] += op.nbytes
            return out
        return wrapped

    def _forward(self, fn):
        def wrapped(forecast_model, x):
            out = self._timed("model.forward_s", fn)(forecast_model, x)
            self.exact["autodiff.retained_bytes"] += _graph_bytes(out.predictions)
            return out
        return wrapped

    def _clip(self, fn):
        def wrapped(params, max_norm):
            norm = sum(float((p.grad * p.grad).sum()) for p in params) ** 0.5
            self.clips[0] += norm > max_norm
            self.clips[1] += 1
            t0 = perf_counter()
            fn(params, max_norm)
            self.times["training.clip_s"] += perf_counter() - t0
        return wrapped

    # -- report -------------------------------------------------------------

    def report(self):
        """Per-op times and exact counts, and the set-up counts."""
        ops = max(self._ops, 1)
        times = {k: self.times.get(k, 0.0) / ops for k in TIME_KEYS}
        times["training.clipped_frac"] = self.clips[0] / self.clips[1] if self.clips[1] else 0.0
        return {"ops": self._ops, "times": times, "per_op": self.per_op,
                "setup": dict(self.setup)}
