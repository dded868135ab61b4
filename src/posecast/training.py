"""Training loop, position-error loss, evaluation, and the copy-last baseline.

The loss is the mean per-joint Euclidean distance between predicted and
true coordinates, averaged over batch, frames, and joints. Evaluation
reports the same distance at single target frames (the benchmark
convention for per-horizon columns), averaged over windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, DimensionError, adam_step
from .model import config_value, window_rows

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "EvalReport",
    "NumericalError",
    "mpjpe_loss",
    "mpjpe_value",
    "train",
    "check_horizons",
    "evaluate",
    "zero_velocity_baseline",
    "baseline_report",
]


class NumericalError(RuntimeError):
    """Non-finite loss during training; message carries diagnostics."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr_initial: float = 0.01
    lr_decay_epochs: tuple = (20, 35, 45)
    lr_decay_factor: float = 0.1
    clip_norm: float | None = 1.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, config_value(f.name, getattr(self, f.name), f.type))
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("lr_initial", "lr_decay_factor", "clip_norm"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        decays = self.lr_decay_epochs
        if list(decays) != sorted(set(decays)) or decays and 0 < self.epochs <= decays[-1]:
            raise ValueError(f"lr_decay_epochs must be strictly increasing and below "
                             f"epochs ({self.epochs}), got {decays}")


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    lr: float


@dataclass
class EvalReport:
    horizons: dict                     # frame offset -> mean error

    def format_table(self, extra_rows=None):
        """Plain-text table: one column per horizon, one row per entry."""
        offsets = sorted(self.horizons)
        lines = ["horizon  " + "  ".join(f"{h:>8d}" for h in offsets)]
        lines.append("model    " + "  ".join(f"{self.horizons[h]:8.3f}" for h in offsets))
        for label, values in (extra_rows or {}).items():
            lines.append(f"{label:<8} " + "  ".join(f"{values[h]:8.3f}" for h in offsets))
        return "\n".join(lines)


def _error_sum(pred, truth):
    """The differentiable sum of the per-joint position errors, and their count."""
    truth = truth if isinstance(truth, ad.Tensor) else ad.constant(truth)
    if pred.shape != truth.shape:
        raise DimensionError(
            f"prediction {pred.shape} and truth {truth.shape} disagree"
        )
    diff = ad.sub(pred, truth)
    sq_norm = ad.tensor_sum(ad.mul(diff, diff), axis=-1)
    per_joint = ad.sqrt(sq_norm)                      # [batch, K, V]
    return ad.tensor_sum(per_joint), per_joint.values.size


def mpjpe_loss(pred, truth):
    """Differentiable mean per-joint position error.

    pred: [batch, K, V, 3] tensor; truth: same-shape array or tensor.
    """
    total, count = _error_sum(pred, truth)
    return ad.mul(total, ad.constant(1.0 / count))


def mpjpe_value(pred, truth):
    """Same metric on plain arrays, computed directly."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    return float(np.linalg.norm(pred - truth, axis=-1).mean())


def _clip_gradients(params, max_norm):
    total = np.sqrt(sum(float((p.grad * p.grad).sum()) for p in params))
    if total > max_norm:
        scale = max_norm / total
        for p in params:
            p.grad *= scale


def _chunk(model, inputs, targets, preds, rows):
    """One chunk of a training step: writes its rows of ``preds`` and
    returns its gradients. The root is its error sum over the whole
    batch's count of joint positions, the seed the batch's loss gives
    each of them."""
    pred = model.forward(inputs[rows]).predictions
    preds[rows] = pred.values
    total, _ = _error_sum(pred, targets[rows])
    scale = 1.0 / math.prod(targets.shape[:-1])
    return ad.gradients(ad.mul(total, ad.constant(scale)), model.parameters())


def train(model, windows, config):
    """Minibatch Adam over the window set; returns per-epoch records.

    Parameters update in place. The learning rate multiplies by the decay
    factor exactly at the configured epoch indices. All shuffling comes
    from the config seed.

    Each batch runs forward and backward ``ad.chunk_size(model.window_rows)``
    windows at a time, the chunks spread over the calling process and
    forked workers by a ``workers.Session``: windows are independent, so
    the batch's gradient is the sum of its chunks'. Every chunk takes its
    gradients in arrays of its own, seeded as the whole batch's loss
    seeds them, and writes its rows of the batch's predictions; the
    calling process folds them into each parameter's ``grad`` in chunk
    order, so a step holds a few chunks' gradients, not one set per
    chunk. The ``grad`` arrays are allocated once, before the first step,
    and every step reuses them. The step's loss is ``mpjpe_loss`` of the
    batch's predictions, taken once, on the calling thread.
    """
    from . import workers               # forks and sockets, imported where used

    _require_windows(windows, "train")
    params = model.parameters()
    state = AdamState(params)
    rng = np.random.default_rng(config.seed)
    lr = config.lr_initial
    log = []
    for p in params:                    # every step folds its gradients into these
        p.grad = np.zeros_like(p.values)
    session = workers.Session(model, _chunk, config.batch_size)
    for epoch in range(config.epochs):
        if epoch in config.lr_decay_epochs:
            lr *= config.lr_decay_factor
        order = rng.permutation(len(windows))
        losses = []
        for start in range(0, len(order), config.batch_size):
            inputs, targets = windows.batch(order[start: start + config.batch_size])
            preds = session.step(inputs, targets)
            value = mpjpe_loss(ad.constant(preds), targets).item()
            if not np.isfinite(value):
                norms = ", ".join(f"{name}={np.linalg.norm(block):.6g}"
                                  for name, block in model.params.items())
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}; "
                    f"parameter norms {norms}"
                )
            if config.clip_norm is not None:
                _clip_gradients(params, config.clip_norm)
            adam_step(params, state, lr)
            losses.append(value)
        log.append(EpochRecord(epoch=epoch, mean_loss=float(np.mean(losses)), lr=lr))
    return log


def check_horizons(horizons, k):
    """Reject no horizons, or one outside the 1-based range of K predicted frames."""
    if not horizons:
        raise ValueError(f"horizons is empty; list frame offsets in [1, {k}]")
    for h in horizons:
        if not 1 <= h <= k:
            raise ValueError(f"horizon {h} outside prediction range [1, {k}]")


def _require_windows(windows, action):
    if len(windows) == 0:
        raise ValueError(f"cannot {action} on an empty window set")


# Windows per predict call of evaluate, as a number of chunks. Each call
# gathers its block's inputs and returns its predictions, so the block,
# not the window set, bounds evaluate's memory. On the benchmark's 256
# h36m22 windows (2-core Xeon, median of 10 calls, model kept in the
# workers), 64-window blocks (16 chunks) took 268/271 ms at 43 MiB peak
# RSS, against 306/297 ms and 42 MiB on chunk threads; one predict over
# the whole set took the peak to 47-49 MiB, and 8-window blocks paid
# each call's cost in 305/338 ms.
EVAL_CHUNKS = 16


def evaluate(model, windows, horizons):
    """Per-horizon error at the single target frame, averaged over windows.

    Horizons are 1-based frame offsets into the prediction (horizon h is
    predicted frame h). ``model.predict``, a ForecastModel's or a
    baseline's, runs on one block of ``EVAL_CHUNKS`` chunks of windows at
    a time, chunks sized by the windows' ``window_rows``, so a
    ForecastModel's predict spreads each block's chunks over the
    workers. Only one block's inputs and the scored targets are gathered.
    """
    _require_windows(windows, "evaluate")
    t, v = windows.input_frames, windows.frames.shape[1]
    check_horizons(horizons, windows.output_frames)
    scored = np.asarray(horizons, dtype=np.intp) - 1
    errors = np.empty((len(scored), len(windows), v))
    block = EVAL_CHUNKS * ad.chunk_size(window_rows(t, windows.output_frames, v))
    for start in range(0, len(windows), block):
        rows = slice(start, start + block)
        preds = model.predict(windows.gather(rows, np.arange(t)))
        diff = preds[:, scored] - windows.gather(rows, t + scored)
        errors[:, rows] = np.linalg.norm(diff, axis=-1).transpose(1, 0, 2)
    return EvalReport(horizons={h: float(row.mean()) for h, row in zip(horizons, errors)})


def zero_velocity_baseline(k_out):
    """The copy-last predictor: ``predict(x)`` repeats x's last frame k_out times."""
    return SimpleNamespace(predict=lambda x: np.repeat(np.asarray(x)[:, -1:], k_out, axis=1))


def baseline_report(windows, horizons):
    """evaluate's table for the copy-last-frame forecast."""
    _require_windows(windows, "score the baseline")
    return evaluate(zero_velocity_baseline(windows.output_frames), windows, horizons)
