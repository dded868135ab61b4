"""End-to-end forecaster: towers -> sequence mixing -> temporal alignment
-> residual refinement.

The value tower (and, for the anchor strategy, query/key towers) runs over
the T observed frames; the chosen strategy turns tower outputs into T
intermediate frames; a learned K x T matrix maps those onto the K output
frames; an optional refinement tower adds a residual correction on the
output-side graph.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import attention as attn
from . import autodiff as ad
from .autodiff import DimensionError
from .graphs import SkeletonGraph, build_hop_partition, build_multigraph
from .layers import GraphConvTower

__all__ = [
    "ModelConfig",
    "ForecastModel",
    "ForecastOutput",
    "build_model",
    "temporal_align",
    "save_checkpoint",
    "load_checkpoint",
]

VALUE_SCHEDULE = (3, 64, 32, 64, 3)
QK_SCHEDULE = (3, 64, 32, 16, 16, 3)

CHECKPOINT_MAGIC = b"PCKP"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    input_frames: int                 # T
    output_frames: int                # K
    span: int = 2                     # L
    max_hop: int = 3                  # D
    strategy: str = "anchor"
    anchor_count: int | None = None   # None: one anchor per input frame
    refine: bool = True
    value_schedule: tuple = VALUE_SCHEDULE
    qk_schedule: tuple = QK_SCHEDULE
    seed: int = 0

    def __post_init__(self):
        for name in ("input_frames", "output_frames", "span", "max_hop", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("value_schedule", "qk_schedule"):
            object.__setattr__(self, name, tuple(int(c) for c in getattr(self, name)))
        if self.anchor_count is not None:
            object.__setattr__(self, "anchor_count", int(self.anchor_count))
        if not isinstance(self.refine, bool):
            raise ValueError(f"refine must be true or false, got {self.refine!r}")
        if self.strategy not in attn.STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {attn.STRATEGIES}"
            )
        n_a = self.anchor_count
        if n_a is not None and not 1 <= n_a <= self.input_frames:
            raise ValueError(
                f"anchor_count must be in [1, {self.input_frames}], got {n_a}"
            )


@dataclass
class ForecastOutput:
    predictions: ad.Tensor            # [batch, K, V, 3]
    intermediate: ad.Tensor | None    # [batch, T, V, 3] strategy output


class ForecastModel:
    def __init__(self, skeleton, config):
        self.skeleton = skeleton
        self.config = config
        t, k = config.input_frames, config.output_frames
        partition = build_hop_partition(skeleton, config.max_hop)
        self.input_graph = build_multigraph(partition, t, config.span)
        self.output_graph = build_multigraph(partition, k, config.span)

        rng = np.random.default_rng(config.seed)
        n_parts = config.max_hop + 1
        self.v_tower = GraphConvTower(config.value_schedule, n_parts, rng)
        if config.strategy in ("anchor", "plain"):
            self.q_tower = GraphConvTower(config.qk_schedule, n_parts, rng)
            self.k_tower = GraphConvTower(config.qk_schedule, n_parts, rng)
        else:
            self.q_tower = self.k_tower = None
        # Rows start as the temporal mean so each output frame is initially
        # a row-stochastic smoothing of the intermediate frames.
        self.tcn = ad.parameter(np.full((k, t), 1.0 / t))
        if config.refine:
            self.refine_tower = GraphConvTower(
                config.value_schedule, n_parts, rng, zero_init_final=True
            )
        else:
            self.refine_tower = None
        self.attention = attn.AttentionConfig(
            strategy=config.strategy, anchor_count=config.anchor_count
        )

    @property
    def joint_count(self):
        return self.skeleton.joint_count

    def parameters(self):
        params = self.v_tower.parameters()
        if self.q_tower is not None:
            params += self.q_tower.parameters() + self.k_tower.parameters()
        params.append(self.tcn)
        if self.refine_tower is not None:
            params += self.refine_tower.parameters()
        return params

    def count_parameters(self):
        return sum(p.values.size for p in self.parameters())

    def _run_tower(self, tower, x, graph):
        b, t, v, c = x.shape
        flat = ad.reshape(x, (b, t * v, c))
        out = tower.forward(flat, graph)
        return ad.reshape(out, (b, t, v, 3))

    def forward(self, x):
        """x: [batch, T, V, 3] observed frames -> ForecastOutput."""
        x = np.asarray(x, dtype=np.float64)
        cfg = self.config
        b, t, v, _ = x.shape
        if t != cfg.input_frames or v != self.joint_count:
            raise DimensionError(
                f"input {x.shape} does not match (T={cfg.input_frames}, "
                f"V={self.joint_count})"
            )
        x_in = ad.constant(x)
        v_out = self._run_tower(self.v_tower, x_in, self.input_graph)
        z = self._mix(v_out, x_in, x)
        aligned = temporal_align(z, self.tcn)
        if self.refine_tower is not None:
            correction = self._run_tower(self.refine_tower, aligned, self.output_graph)
            aligned = ad.add(aligned, correction)
        return ForecastOutput(predictions=aligned, intermediate=z)

    def _mix(self, v_out, x_in, x):
        cfg = self.config
        t = cfg.input_frames
        if cfg.strategy == "pseudo_autoregressive":
            last = ad.constant(x[:, -1])
            return attn.pseudo_autoregressive(v_out, last)
        if cfg.strategy == "anchor":
            n_a = cfg.anchor_count
            q = self._run_tower(self.q_tower, x_in, self.input_graph)
            key = self._run_tower(self.k_tower, x_in, self.input_graph)
            mix = attn.score_matrix(q, key, self.attention, anchor_count=n_a)
            anchors = v_out if n_a is None else ad.tail(v_out, t - n_a)
            return attn.anchor_combination(mix, anchors)
        if cfg.strategy == "plain":
            q = self._run_tower(self.q_tower, x_in, self.input_graph)
            key = self._run_tower(self.k_tower, x_in, self.input_graph)
            return attn.plain_attention(q, key, v_out, self.attention)
        return v_out                  # strategy "none"

    def predict(self, x):
        """Forward pass without recording a graph; returns plain arrays."""
        with ad.no_grad():
            return self.forward(x).predictions.values


def build_model(skeleton, config):
    return ForecastModel(skeleton, config)


def temporal_align(z, tcn):
    """Map T intermediate frames onto K output frames with a K x T matrix.

    z: [batch, T, V, 3]; the same linear map applies to every joint and
    coordinate.
    """
    b, t, v, c = z.shape
    if tcn.shape[1] != t:
        raise DimensionError(f"alignment matrix {tcn.shape} expects T={tcn.shape[1]}, got {t}")
    flat = ad.reshape(z, (b, t, v * c))
    out = ad.matmul(tcn, flat)        # [K, T] @ [B, T, V*3] -> [B, K, V*3]
    return ad.reshape(out, (b, tcn.shape[0], v, c))


def _named_parameters(model):
    named = []
    for i, w in enumerate(model.v_tower.parameters()):
        named.append((f"v_tower.{i}", w))
    if model.q_tower is not None:
        for i, w in enumerate(model.q_tower.parameters()):
            named.append((f"q_tower.{i}", w))
        for i, w in enumerate(model.k_tower.parameters()):
            named.append((f"k_tower.{i}", w))
    named.append(("tcn", model.tcn))
    if model.refine_tower is not None:
        for i, w in enumerate(model.refine_tower.parameters()):
            named.append((f"refine_tower.{i}", w))
    return named


def save_checkpoint(path, model):
    """Flat little-endian container: header then named float64 blocks."""
    cfg = model.config
    edges = sorted(tuple(sorted(e)) for e in model.skeleton.edges)
    strategy = cfg.strategy.encode("ascii")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(bytes([CHECKPOINT_VERSION]))
        f.write(
            struct.pack(
                "<IIIII",
                model.joint_count,
                cfg.input_frames,
                cfg.output_frames,
                cfg.span,
                cfg.max_hop,
            )
        )
        f.write(struct.pack("<I", len(strategy)))
        f.write(strategy)
        n_a = 0 if cfg.anchor_count is None else cfg.anchor_count
        f.write(struct.pack("<IBq", n_a, int(cfg.refine), cfg.seed))
        for schedule in (cfg.value_schedule, cfg.qk_schedule):
            f.write(struct.pack("<I", len(schedule)))
            f.write(struct.pack(f"<{len(schedule)}I", *schedule))
        f.write(struct.pack("<I", len(edges)))
        for a, b in edges:
            f.write(struct.pack("<II", a, b))
        named = _named_parameters(model)
        f.write(struct.pack("<I", len(named)))
        for name, tensor in named:
            nb = name.encode("ascii")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", tensor.values.ndim))
            f.write(struct.pack(f"<{tensor.values.ndim}I", *tensor.values.shape))
            f.write(tensor.values.astype("<f8").tobytes())


def load_checkpoint(path):
    """Inverse of save_checkpoint; any malformed file raises ValueError
    naming the byte offset of the problem."""
    with open(path, "rb") as f:
        blob = f.read()
    off = 0

    def take(fmt, what):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(blob):
            raise ValueError(
                f"truncated checkpoint at byte {off}: {what} needs {size} bytes, "
                f"{len(blob) - off} remain"
            )
        values = struct.unpack_from(fmt, blob, off)
        off += size
        return values

    def text(what):
        n, = take("<I", f"{what} length")
        raw, = take(f"{n}s", what)
        try:
            return raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{what} at byte {off - n} is not ASCII") from exc

    magic, version = take("<4sB", "header")
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r} at byte 0")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version} at byte 4")
    v, t, k, span, max_hop = take("<IIIII", "dimensions")
    strategy = text("strategy")
    n_a, refine, seed = take("<IBq", "anchor count, refine flag and seed")
    schedules = []
    for what in ("value schedule", "qk schedule"):
        n, = take("<I", f"{what} length")
        schedules.append(take(f"<{n}I", what))
    n_edges, = take("<I", "edge count")
    edges = [take("<II", "edge") for _ in range(n_edges)]

    skeleton = SkeletonGraph(joint_count=v, edges=frozenset(edges))
    config = ModelConfig(
        input_frames=t,
        output_frames=k,
        span=span,
        max_hop=max_hop,
        strategy=strategy,
        anchor_count=n_a or None,
        refine=bool(refine),
        value_schedule=tuple(schedules[0]),
        qk_schedule=tuple(schedules[1]),
        seed=seed,
    )
    model = ForecastModel(skeleton, config)

    n_params, = take("<I", "parameter block count")
    named = dict(_named_parameters(model))
    if n_params != len(named):
        raise ValueError(
            f"checkpoint holds {n_params} parameter blocks, model expects {len(named)}"
        )
    for _ in range(n_params):
        start = off
        name = text("parameter name")
        ndim, = take("<I", f"rank of {name!r}")
        shape = take(f"<{ndim}I", f"shape of {name!r}")
        if name not in named:
            raise ValueError(f"unexpected parameter block {name!r} at byte {start}")
        if named[name].values.shape != shape:
            raise ValueError(
                f"parameter {name!r} at byte {start} has shape {shape}, "
                f"model expects {named[name].values.shape}"
            )
        raw, = take(f"{8 * named[name].values.size}s", f"values of {name!r}")
        named[name].values[...] = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if off != len(blob):
        raise ValueError(f"{len(blob) - off} trailing bytes after checkpoint end at byte {off}")
    return model
