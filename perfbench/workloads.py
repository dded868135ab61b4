"""The four workloads: fixed configs, seeded inputs and the op loops.

Every input comes from the workload seed and is written to files before
the worker process that measures starts; the worker sees only those
files. All loops are closed: one caller, each op sent when the previous
one has completed.
"""

from __future__ import annotations

import os
from time import monotonic, perf_counter

import numpy as np

from posecast import data, training
from posecast import model as pm
from tracer import Patches

T = K = 10
H36M22 = {"skeleton": "h36m22", "span": 2, "max_hop": 3, "strategy": "anchor"}
CHAIN8 = {"skeleton": "chain_8", "span": 1, "max_hop": 1,
          "strategy": "pseudo_autoregressive"}

# kind, model, windows per op (batch), windows in the set, sequences they
# are cut from, and ``mpjpe_ops``: ``mpjpe`` is taken over the first ops,
# warm-up included, so it is the same for a seed however long the run is.
# Many short sequences keep ``mpjpe`` from hanging on a few draws.
WORKLOADS = {
    "train_chain8_pa": dict(kind="train", model=CHAIN8, batch=128, windows=1024,
                            sequences=128, mpjpe_ops=5),
    "train_h36m22_anchor": dict(kind="train", model=H36M22, batch=32, windows=256,
                                sequences=32, mpjpe_ops=5),
    "predict_h36m22_b1": dict(kind="predict", model=H36M22, batch=1, windows=64,
                              sequences=64, mpjpe_ops=64),
    "eval_h36m22_b256": dict(kind="eval", model=H36M22, batch=256, windows=256,
                             sequences=32, mpjpe_ops=1),
}
TINY = {  # the self-test's sizes
    "train_chain8_pa": dict(batch=8, windows=16, sequences=4, mpjpe_ops=2),
    "train_h36m22_anchor": dict(batch=2, windows=4, sequences=2, mpjpe_ops=2),
    "predict_h36m22_b1": dict(windows=4, sequences=4, mpjpe_ops=4),
    "eval_h36m22_b256": dict(batch=8, windows=8, sequences=2),
}
PREDICT_OBSERVED = 40         # frames per .mgps sequence; the last T are used
MODEL_SEED = 0


class Stop(Exception):
    """Raised from inside the loop once the run has measured long enough."""


def spec(name, tiny=False):
    return dict(WORKLOADS[name], **(TINY[name] if tiny else {}))


def skeleton(w):
    return data.skeleton_preset(w["model"]["skeleton"])


def model_config(w):
    """The workload's model. Initial weights come from a fixed seed: drawn
    per workload seed, they alone moved ``mpjpe`` by 11-19% (interquartile
    range over median, ten seeds), against about 2% from the data."""
    m = w["model"]
    return pm.ModelConfig(input_frames=T, output_frames=K, span=m["span"],
                          max_hop=m["max_hop"], strategy=m["strategy"],
                          refine=True, seed=MODEL_SEED)


def generate(w, seed, out_dir):
    """Write the workload's inputs for ``seed`` into out_dir."""
    rng = np.random.default_rng(seed)
    v = skeleton(w).joint_count
    if w["kind"] == "predict":
        frames = PREDICT_OBSERVED + K
    else:                     # a sequence of n + T + K - 1 frames yields n windows
        frames = w["windows"] // w["sequences"] + T + K - 1
    seqs = [
        data.synth_kinematic(v, frames, period=int(rng.integers(12, 25)),
                             amplitude=float(rng.uniform(0.4, 0.6)),
                             seed=int(rng.integers(2**31)), label=f"s{i}")
        for i in range(w["sequences"])
    ]
    if w["kind"] == "predict":
        observed = [data.PoseSequence(s.frames[:-K], s.rate, s.label) for s in seqs]
        future = [data.PoseSequence(s.frames[-K:], s.rate, s.label) for s in seqs]
        data.save_sequences(os.path.join(out_dir, "inputs.mgps"), observed)
        data.save_sequences(os.path.join(out_dir, "truth.mgps"), future)
    else:
        data.save_sequences(os.path.join(out_dir, "inputs.mgps"), seqs)
    if w["kind"] != "train":
        model = pm.build_model(skeleton(w), model_config(w))
        pm.save_checkpoint(os.path.join(out_dir, "model.pckp"), model)


class Clock:
    """Marks op ends; stops the loop after ``seconds`` and ``min_ops``."""

    def __init__(self, seconds, min_ops, tracer=None):
        self.seconds, self.min_ops, self.tracer = seconds, min_ops, tracer
        self.ready = None             # time.monotonic() when the warm-up op ended
        self.op_s = []
        self._start = self._last = None

    def tick(self):
        now = perf_counter()
        if self.ready is None:
            self.ready, self._start = monotonic(), now
        else:
            self.op_s.append(now - self._last)
        self._last = now
        if self.tracer is not None:
            self.tracer.op_boundary()
        if len(self.op_s) >= self.min_ops and now - self._start >= self.seconds:
            raise Stop


class Run:
    """One worker's view of a workload: setup, the op loop, the checks."""

    def __init__(self, w, seed, work_dir, clock, tracer=None):
        self.w, self.seed, self.dir, self.clock, self.tracer = w, seed, work_dir, clock, tracer
        self.setup = {}               # timings and sizes of calls into data and load_checkpoint
        self.checks = {}              # name -> passed
        self.failed_ops = 0
        self.mpjpe = None

    def path(self, name):
        return os.path.join(self.dir, name)

    def timed(self, key, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.setup[key] = self.setup.get(key, 0.0) + perf_counter() - t0
        return out

    def load_data(self, name):
        self.setup["data.load_bytes"] = os.path.getsize(self.path(name))
        return self.timed("data.load_sequences_s", data.load_sequences, self.path(name))

    def load_model(self):
        model = self.timed("model.load_checkpoint_s", pm.load_checkpoint, self.path("model.pckp"))
        if self.tracer is not None:
            self.tracer.register_model(model)
        return model

    def windows(self, seqs):
        return self.timed("data.make_windows_s", data.make_windows, seqs, T, K,
                          skeleton=skeleton(self.w))

    def execute(self):
        """Run the loop until the clock stops it; returns the model used."""
        return getattr(self, "_" + self.w["kind"])()

    # -- loops ------------------------------------------------------------

    def _train(self):
        windows = self.windows(self.load_data("inputs.mgps"))
        model = pm.build_model(skeleton(self.w), model_config(self.w))
        if self.tracer is not None:
            self.tracer.register_model(model)
        self.losses = []
        last = {}

        def capture_loss(fn):
            def wrapped(*args, **kwargs):
                last["loss"] = fn(*args, **kwargs)
                return last["loss"]
            return wrapped

        def end_of_step(fn):
            def wrapped(*args, **kwargs):
                fn(*args, **kwargs)
                self.losses.append(last["loss"].item())
                self.clock.tick()
            return wrapped

        hooks = Patches()
        hooks.patch(training, "mpjpe_loss", capture_loss)
        hooks.patch(training, "adam_step", end_of_step)
        config = training.TrainConfig(epochs=2**62, batch_size=self.w["batch"],
                                      lr_initial=0.01, lr_decay_epochs=(),
                                      clip_norm=1.0, seed=self.seed)
        try:
            training.train(model, windows, config)
        except Stop:
            pass
        finally:
            hooks.undo()
        n = self.w["mpjpe_ops"]
        if len(self.losses) >= n:
            self.mpjpe = float(np.mean(self.losses[:n]))
        self.failed_ops += not bool(np.isfinite(self.losses).all())
        self.reference_input = windows.inputs[:4]
        self.first_batch = (windows.inputs[:self.w["batch"]], windows.targets[:self.w["batch"]])
        return model

    def _loop(self, op):
        """Call op(0), op(1), ... until the clock stops the run."""
        i = 0
        try:
            while True:
                op(i)
                i += 1
                self.clock.tick()
        except Stop:
            pass

    def _predict(self):
        model = self.load_model()
        seqs = self.load_data("inputs.mgps")
        tails = [s.frames[-T:][None] for s in seqs if len(s) >= T]
        preds = []

        def op(i):
            pred = model.predict(tails[i % len(tails)])
            self.failed_ops += not np.isfinite(pred).all()
            if i < len(tails):
                preds.append(pred[0])

        self._loop(op)
        if len(preds) == len(tails):
            truth = data.load_sequences(self.path("truth.mgps"))
            self.mpjpe = float(np.mean([training.mpjpe_value(p, t.frames)
                                        for p, t in zip(preds, truth)]))
        self.reference_input = np.concatenate(tails[:4])
        return model

    def _eval(self):
        model = self.load_model()
        windows = self.windows(self.load_data("inputs.mgps"))
        horizons = list(range(1, K + 1))

        def op(i):
            report = training.evaluate(model, windows, horizons)
            errors = list(report.horizons.values())
            self.failed_ops += not np.isfinite(errors).all()
            if i == 0:
                self.mpjpe = float(np.mean(errors))

        self._loop(op)
        self.reference_input = windows.inputs[:4]
        return model

    # -- checks -----------------------------------------------------------

    def run_checks(self, model):
        """Post-loop correctness checks; each failure counts as failed."""
        w = self.w
        if w["kind"] == "train":
            # Same windows before and after: step losses come from different batches.
            x, y = self.first_batch
            initial = pm.build_model(skeleton(w), model_config(w))
            self.checks["loss_decreased"] = (training.mpjpe_value(model.predict(x), y)
                                             < training.mpjpe_value(initial.predict(x), y))
            pm.save_checkpoint(self.path("trained.pckp"), model)
            loaded = self.timed("model.load_checkpoint_s", pm.load_checkpoint,
                                self.path("trained.pckp"))
            reference = model
        else:
            # The checkpoint was written from a freshly built model.
            loaded = model
            reference = pm.build_model(skeleton(w), model_config(w))
        x = self.reference_input
        a, b = reference.predict(x), loaded.predict(x)
        self.checks["predictions_finite"] = self.failed_ops == 0 and bool(np.isfinite(a).all())
        self.checks["checkpoint_bit_exact"] = a.tobytes() == b.tobytes()
        self.checks["mpjpe_measured"] = self.mpjpe is not None and bool(np.isfinite(self.mpjpe))
