"""Training loop, position-error loss, evaluation, and the copy-last baseline.

The loss is the mean per-joint Euclidean distance between predicted and
true coordinates, averaged over batch, frames, and joints. Evaluation
reports the same distance at single target frames (the benchmark
convention for per-horizon columns), averaged over windows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, DimensionError, adam_step
from .model import PREDICT_CHUNK, config_value, map_chunks

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


def mpjpe_loss(pred, truth):
    """Differentiable mean per-joint position error.

    pred: [batch, K, V, 3] tensor; truth: same-shape array or tensor.
    """
    truth = truth if isinstance(truth, ad.Tensor) else ad.constant(truth)
    if pred.shape != truth.shape:
        raise DimensionError(
            f"prediction {pred.shape} and truth {truth.shape} disagree"
        )
    diff = ad.sub(pred, truth)
    sq_norm = ad.tensor_sum(ad.mul(diff, diff), axis=-1)
    per_joint = ad.sqrt(sq_norm)                      # [batch, K, V]
    total = ad.tensor_sum(per_joint)
    return ad.mul(total, ad.constant(1.0 / per_joint.values.size))


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


def train(model, windows, config):
    """Minibatch Adam over the window set; returns per-epoch records.

    Parameters update in place. The learning rate multiplies by the decay
    factor exactly at the configured epoch indices. All shuffling comes
    from the config seed.
    """
    _require_windows(windows, "train")
    params = model.parameters()
    state = AdamState(params)
    rng = np.random.default_rng(config.seed)
    lr = config.lr_initial
    log = []
    for epoch in range(config.epochs):
        if epoch in config.lr_decay_epochs:
            lr *= config.lr_decay_factor
        order = rng.permutation(len(windows))
        losses = []
        for start in range(0, len(order), config.batch_size):
            idx = order[start: start + config.batch_size]
            inputs, targets = windows.batch(idx)
            loss = mpjpe_loss(model.forward(inputs).predictions, targets)
            value = loss.item()
            if not np.isfinite(value):
                norms = ", ".join(f"{name}={np.linalg.norm(p.values):.6g}"
                                  for name, p in model.params.items())
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}; "
                    f"parameter norms {norms}"
                )
            for p in params:
                p.zero_grad()
            loss.backward()
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


def evaluate(model, windows, horizons):
    """Per-horizon error at the single target frame, averaged over windows.

    Horizons are 1-based frame offsets into the prediction (horizon h is
    predicted frame h). ``model.predict``, a ForecastModel's or a baseline's,
    runs on PREDICT_CHUNK windows at a time, the chunks through
    ``map_chunks``, so on several threads at once; only scored targets
    are gathered.
    """
    _require_windows(windows, "evaluate")
    t = windows.input_frames
    check_horizons(horizons, windows.output_frames)
    scored = np.asarray(horizons, dtype=np.intp) - 1
    errors = np.empty((len(scored), len(windows), windows.frames.shape[1]))

    def score(start):                 # each chunk writes its own columns of errors
        idx = slice(start, start + PREDICT_CHUNK)
        preds = model.predict(windows.gather(idx, np.arange(t)))
        diff = preds[:, scored] - windows.gather(idx, t + scored)
        errors[:, idx] = np.linalg.norm(diff, axis=-1).transpose(1, 0, 2)

    map_chunks(score, range(0, len(windows), PREDICT_CHUNK))
    return EvalReport(horizons={h: float(row.mean()) for h, row in zip(horizons, errors)})


def zero_velocity_baseline(k_out):
    """The copy-last predictor: ``predict(x)`` repeats x's last frame k_out times."""
    return SimpleNamespace(predict=lambda x: np.repeat(np.asarray(x)[:, -1:], k_out, axis=1))


def baseline_report(windows, horizons):
    """evaluate's table for the copy-last-frame forecast."""
    _require_windows(windows, "score the baseline")
    return evaluate(zero_velocity_baseline(windows.output_frames), windows, horizons)
