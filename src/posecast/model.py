"""End-to-end forecaster: towers -> sequence mixing -> temporal alignment
-> residual refinement.

The value tower (and, for the anchor strategy, query/key towers) runs over
the T observed frames; the chosen strategy turns tower outputs into T
intermediate frames; a learned K x T matrix maps those onto the K output
frames; an optional refinement tower adds a residual correction on the
output-side graph.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import struct
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import attention as attn
from . import autodiff as ad
from .autodiff import DimensionError
from .data import Reader
from .graphs import SkeletonGraph, build_hop_partition, build_multigraph, check_max_hop
from .layers import GraphConvTower

__all__ = [
    "ModelConfig",
    "ForecastModel",
    "ForecastOutput",
    "build_model",
    "temporal_align",
    "save_checkpoint",
    "load_checkpoint",
    "parameter_shapes",
    "HEADER_FIELDS",
    "config_value",
]

VALUE_SCHEDULE = (3, 64, 32, 64, 3)
QK_SCHEDULE = (3, 64, 32, 16, 16, 3)

CHECKPOINT_MAGIC = b"PCKP"
CHECKPOINT_VERSION = 1


def config_value(name, value, kind):
    """Read a config value from outside (YAML, the command line, a caller)
    as ``kind``, a field annotation: int, float, bool, str or tuple (of
    ints), "| None" admitting None. Integers are never bools or fractions,
    floats are finite, and both may be strings (YAML reads 1e-2 as one)."""
    kind, _, optional = kind.partition(" | ")
    cast, what = {"int": (int, "an integer"), "float": (float, "a finite number"),
                  "bool": (bool, "true or false"), "str": (str, "a string"),
                  "tuple": (tuple, "a list of integers")}[kind]
    if cast is tuple and isinstance(value, (list, tuple)):
        return tuple(config_value(f"{name}[{i}]", v, "int") for i, v in enumerate(value))
    if isinstance(value, str) and cast in (int, float):
        with contextlib.suppress(ValueError):
            value = cast(value)
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        if type(value) is cast or value is None and optional:
            return value
    elif cast in (int, float):
        with contextlib.suppress(ValueError, OverflowError):
            number = cast(value)
            if number == value and (cast is int or math.isfinite(number)):
                return number
    raise ValueError(f"{name} must be {what}, got {value!r}")


def _header(code, default=MISSING):
    return field(default=default, metadata={"code": code})


@dataclass(frozen=True)
class ModelConfig:
    """Model hyperparameters. The fields, in order, are the checkpoint header
    after the magic, version byte and joint count V. Each declares its code:
    a struct format ("B" a 0/1 flag), "s" a u32-length-prefixed ASCII string
    or "I*" a u32-length-prefixed list of u32. None is stored as 0."""

    input_frames: int = _header("I")                  # T
    output_frames: int = _header("I")                 # K
    span: int = _header("I", 2)                       # L
    max_hop: int = _header("I", 3)                    # D
    strategy: str = _header("s", "anchor")
    anchor_count: int | None = _header("I", None)     # None: one anchor per input frame
    refine: bool = _header("B", True)
    seed: int = _header("q", 0)
    value_schedule: tuple = _header("I*", VALUE_SCHEDULE)
    qk_schedule: tuple = _header("I*", QK_SCHEDULE)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, config_value(f.name, getattr(self, f.name), f.type))
        for name in ("value_schedule", "qk_schedule"):
            schedule = getattr(self, name)
            if len(schedule) < 2 or schedule[0] != 3 or schedule[-1] != 3 or min(schedule) < 1:
                raise ValueError(f"{name} must list >= 2 widths of at least 1, the first and "
                                 f"last 3 coordinates, got {schedule}")
        if self.strategy not in attn.STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {attn.STRATEGIES}"
            )
        n_a = self.anchor_count
        if n_a is not None and not 1 <= n_a <= self.input_frames:
            raise ValueError(
                f"anchor_count must be in [1, {self.input_frames}], got {n_a}"
            )
        if min(self.input_frames, self.output_frames) < 1:
            raise ValueError("input_frames and output_frames must be >= 1")
        # A span of max(T, K) - 1 already joins every pair of frames.
        longest = max(self.input_frames, self.output_frames)
        if not 0 <= self.span < longest:
            raise ValueError(f"span must be in [0, {longest - 1}], got {self.span}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        try:                # a config that can be built can be saved
            for name, code in HEADER_FIELDS:
                _pack_field(code, getattr(self, name))
        except struct.error as exc:
            raise ValueError(f"{name} does not fit the checkpoint header: {exc}") from None


HEADER_FIELDS = tuple((f.name, f.metadata["code"]) for f in fields(ModelConfig))


@dataclass
class ForecastOutput:
    predictions: ad.Tensor            # [batch, K, V, 3]
    intermediate: ad.Tensor | None    # [batch, T, V, 3] strategy output


class ForecastModel:
    """Graphs, towers and tcn, all parameters zero. ``params`` maps each
    checkpoint block's name, in order, to its view of a layer tensor or of
    tcn; ``build_model`` and ``load_checkpoint`` write the values through it."""

    def __init__(self, skeleton, config):
        self.skeleton = skeleton
        self.config = config
        t, k = config.input_frames, config.output_frames
        check_max_hop(skeleton.joint_count, config.max_hop)
        try:
            partition = build_hop_partition(skeleton, config.max_hop)
            self.input_graph = build_multigraph(partition, t, config.span)
            self.output_graph = build_multigraph(partition, k, config.span)
        except MemoryError as exc:
            raise ValueError(f"cannot allocate the graphs of V={skeleton.joint_count}, T={t}, "
                             f"K={k}, max_hop={config.max_hop}: {exc}") from exc

        self.tcn = ad.parameter(np.zeros((k, t)))
        self.v_tower = self.q_tower = self.k_tower = self.refine_tower = None
        self._parameters, blocks = [], []
        for part, schedule in _layout(config):
            if schedule is None:
                self._parameters.append(self.tcn)
                blocks.append(self.tcn.values)
                continue
            tower = GraphConvTower(schedule, config.max_hop + 1)
            setattr(self, part, tower)
            self._parameters += [layer.weight for layer in tower.layers]
            blocks += [hop for layer in tower.layers for hop in layer.hops]
        self.params = dict(zip((name for name, _ in parameter_shapes(config)), blocks, strict=True))

    @property
    def joint_count(self):
        return self.skeleton.joint_count

    @property
    def window_rows(self):
        return window_rows(self.config.input_frames, self.config.output_frames,
                           self.joint_count)

    def parameters(self):
        """The trainable tensors in checkpoint order: one per graph-conv
        layer, its D+1 hop weights in ``autodiff.weight_layout``, and tcn.
        ``params`` maps each checkpoint block's name to its view of one."""
        return list(self._parameters)

    def count_parameters(self):
        return sum(p.values.size for p in self.parameters())

    def forward(self, x):
        """x: [batch, T, V, 3] observed frames -> ForecastOutput."""
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        x_in = ad.constant(x)
        v_out = self.v_tower.forward(x_in, self.input_graph)
        z = self._mix(v_out, x_in, x)
        aligned = temporal_align(z, self.tcn)
        if self.refine_tower is not None:
            correction = self.refine_tower.forward(aligned, self.output_graph)
            aligned = ad.add(aligned, correction)
        return ForecastOutput(predictions=aligned, intermediate=z)

    def _check_input(self, x):
        _, t, v, _ = x.shape
        if t != self.config.input_frames or v != self.joint_count:
            raise DimensionError(
                f"input {x.shape} does not match (T={self.config.input_frames}, "
                f"V={self.joint_count})"
            )

    def _mix(self, v_out, x_in, x):
        cfg = self.config
        if cfg.strategy == "pseudo_autoregressive":
            last = ad.constant(x[:, -1])
            return attn.pseudo_autoregressive(v_out, last)
        if cfg.strategy == "none":
            return v_out
        # "plain" is "anchor" with every frame an anchor and no causal mask.
        causal = cfg.strategy == "anchor"
        n_a = cfg.anchor_count if causal else None
        q = self.q_tower.forward(x_in, self.input_graph)
        key = self.k_tower.forward(x_in, self.input_graph)
        weights = attn.score_matrix(q, key, anchor_count=n_a, causal=causal)
        anchors = v_out if n_a is None else ad.tail(v_out, cfg.input_frames - n_a)
        return attn.anchor_combination(weights, anchors)

    def predict(self, x):
        """Forward pass without recording a graph; returns a new array.

        Runs ``ad.chunk_size(self.window_rows)`` windows at a time: 4 on
        h36m22 at T = K = 10, whose widest stacked product, [880, 256]
        float64, then fits a 2 MiB per-core L2. One chunk runs here; a
        call of up to ``EVAL_CHUNKS`` chunks goes to ``workers.step``,
        which spreads its chunks over this process and the forked
        workers, and a larger call runs one such block at a time, each
        written into its rows of the [len(x), K, V, 3] result. The chunk,
        fixed by T, K and V, makes the result independent of the core
        count.
        """
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        n = ad.chunk_size(self.window_rows)
        if n < len(x) <= EVAL_CHUNKS * n:
            from . import workers           # forks and sockets, imported where used
            return workers.step(self, _predict_chunk, x)
        preds = np.empty((len(x), self.config.output_frames, self.joint_count, 3))
        if len(x) <= n:
            _predict_chunk(self, x, None, preds, slice(None))
        else:
            for start in range(0, len(x), EVAL_CHUNKS * n):
                rows = slice(start, start + EVAL_CHUNKS * n)
                preds[rows] = self.predict(x[rows])
        return preds


# Chunks per ``workers.step`` of ``ForecastModel.predict``, and per
# predict call of ``training.evaluate``: the block, not the window set,
# bounds the shared region and evaluate's gathered inputs. On the
# benchmark's 256 h36m22 windows (2-core Xeon, median of 10 calls, model
# kept in the workers), 64-window blocks (16 chunks) took 268/271 ms at
# 43 MiB peak RSS, against 306/297 ms and 42 MiB on chunk threads; one
# predict over the whole set took the peak to 47-49 MiB, and 8-window
# blocks paid each call's cost in 305/338 ms.
EVAL_CHUNKS = 16


def _predict_chunk(model, inputs, targets, preds, rows):
    """One chunk of ``predict``: writes its rows of ``preds``, with no graph."""
    with ad.no_grad():
        preds[rows] = model.forward(inputs[rows]).predictions.values


def window_rows(t, k, v):
    """Rows of a window's larger augmented graph, of T input or K output
    frames of V joints: what ``ad.chunk_size`` sizes chunks by."""
    return max(t, k) * v


def build_model(skeleton, config):
    """A model with its initial values, written through ``params`` in table
    order: a Glorot draw from ``default_rng(config.seed)`` per hop block,
    and tcn's rows the temporal mean. The refine tower, drawn last, then
    has its final layer zeroed, so the refinement starts as the identity."""
    model = ForecastModel(skeleton, config)
    rng = np.random.default_rng(config.seed)
    for name, block in model.params.items():
        block[...] = 1.0 / config.input_frames if name == "tcn" else glorot(rng, block.shape)
    if config.refine:
        model.refine_tower.layers[-1].weight.values[...] = 0.0
    return model


def glorot(rng, shape):
    """A [fan_in, fan_out] weight drawn uniformly from [-b, b],
    b = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


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


def _layout(config):
    """The model's parts in checkpoint order: (tower, schedule) for each
    tower, and ("tcn", None)."""
    yield "v_tower", config.value_schedule
    if config.strategy in ("anchor", "plain"):
        yield "q_tower", config.qk_schedule
        yield "k_tower", config.qk_schedule
    yield "tcn", None
    if config.refine:
        yield "refine_tower", config.value_schedule


def parameter_shapes(config):
    """Yield (name, shape) of every checkpoint block, in checkpoint order:
    the one table of blocks, which the model names its views by and the
    loader sizes a file against.

    Towers hold D+1 weights per layer, one per hop partition, numbered
    layer by layer. Lazy, since the length grows with max_hop.
    """
    for part, schedule in _layout(config):
        if schedule is None:
            yield "tcn", (config.output_frames, config.input_frames)
            continue
        shapes = (shape for shape in zip(schedule, schedule[1:]) for _ in range(config.max_hop + 1))
        yield from ((f"{part}.{i}", shape) for i, shape in enumerate(shapes))


def _pack_field(code, value):
    if code == "s":
        raw = value.encode("ascii")
        return struct.pack("<I", len(raw)) + raw
    if code == "I*":
        return struct.pack(f"<I{len(value)}I", len(value), *value)
    return struct.pack("<" + code, 0 if value is None else value)


def _read_field(r, code, what):
    if code == "s":
        return r.text(what, "ascii")
    if code == "I*":
        n, = r.take("<I", what)
        return r.take(f"<{n}I", what)
    start = r.offset
    value, = r.take("<" + code, what)
    if code == "B" and value > 1:
        raise ValueError(f"{what} at byte {start} is {value}, expected 0 or 1")
    return bool(value) if code == "B" else value


def save_checkpoint(path, model):
    """Flat little-endian container: header then named float64 blocks."""
    cfg = model.config
    edges = sorted(tuple(sorted(e)) for e in model.skeleton.edges)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<BI", CHECKPOINT_VERSION, model.joint_count))
        for name, code in HEADER_FIELDS:
            f.write(_pack_field(code, getattr(cfg, name)))
        f.write(struct.pack("<I", len(edges)))
        for a, b in edges:
            f.write(struct.pack("<II", a, b))
        f.write(struct.pack("<I", len(model.params)))
        for name, block in model.params.items():
            f.write(_pack_field("s", name))
            f.write(_pack_field("I*", block.shape))
            f.write(block.astype("<f8").tobytes())


def load_checkpoint(path):
    """Inverse of save_checkpoint; any malformed file raises ValueError
    naming the byte offset or the field at fault."""
    with open(path, "rb") as f:
        blob = f.read()
    r = Reader(blob, "checkpoint", ValueError)
    magic, version = r.take("<4sB", "header")
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r} at byte 0")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version} at byte 4")
    v, = r.take("<I", "joint count")
    values = {name: _read_field(r, code, name) for name, code in HEADER_FIELDS}
    values["anchor_count"] = values["anchor_count"] or None
    try:
        config = ModelConfig(**values)
        check_max_hop(v, config.max_hop)
    except ValueError as exc:
        raise ValueError(f"checkpoint header (bytes 0–{r.offset - 1}): {exc}") from exc
    edges_at = r.offset
    n_edges, = r.take("<I", "edge count")
    edges = [r.take("<II", "edge") for _ in range(n_edges)]
    n_params, = r.take("<I", "parameter block count")

    # Check the sizes the header declares against the bytes left, before
    # the model allocates them. A connected skeleton has V - 1 edges.
    if v > n_edges + 1:
        raise ValueError(f"joint count V={v} needs {v - 1} skeleton edges, file has {n_edges}")
    # Each block stores at least a name length and a rank, so the file
    # bounds the block count, and the count bounds how much of the table
    # (whose length grows with max_hop) is built.
    r.need(8 * n_params, f"parameter block count {n_params}")
    shapes = list(itertools.islice(parameter_shapes(config), n_params + 1))
    if len(shapes) != n_params:
        expected = len(shapes) if len(shapes) < n_params else "more"
        raise ValueError(f"checkpoint holds {n_params} blocks, model expects {expected}")
    r.need(sum(8 + len(name) + 4 * len(shape) + 8 * math.prod(shape) for name, shape in shapes),
           "parameter blocks")
    try:            # an edge out of range, a self-loop or a disconnected skeleton
        model = ForecastModel(SkeletonGraph(joint_count=v, edges=frozenset(edges)), config)
    except ValueError as exc:
        # Graphs too large to allocate are the header's: V, T, K and max_hop.
        where = (f"header (bytes 0–{edges_at - 1})" if isinstance(exc.__cause__, MemoryError)
                 else f"{path}: skeleton edges at byte {edges_at}")
        raise ValueError(f"checkpoint {where}: {exc}") from exc
    blocks = dict(model.params)
    for _ in range(n_params):
        start = r.offset
        name = r.text("parameter name", "ascii")
        shape = _read_field(r, "I*", name)
        block = blocks.pop(name, None)
        if block is None:
            raise ValueError(f"unexpected or repeated parameter block {name!r} at byte {start}")
        if block.shape != shape:
            raise ValueError(
                f"parameter {name!r} at byte {start} has shape {shape}, "
                f"model expects {block.shape}"
            )
        block[...] = r.floats(shape, name)
    r.finish()
    return model
