"""Pose sequences: container format, windowing, and synthetic motion.

The on-disk container ("MGPS") is a flat little-endian binary file:

    bytes 0-3   ASCII magic "MGPS"
    byte  4     format version (currently 1)
    then per-sequence records:
        uint32  V (joints per frame)
        uint32  frame count
        float64 rate (frames per second, finite and > 0)
        uint32  label byte length, followed by that many UTF-8 bytes
        float64 x frames*V*3, frame-major (frame, joint, coordinate)

Round-trips through save/load are bit-exact. ``make_windows`` cuts the
loaded sequences into (input, target) windows without copying them: a
``WindowSet`` holds every frame once and each window as a start row.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .graphs import SkeletonGraph

__all__ = [
    "PoseSequence",
    "WindowSet",
    "PoseFormatError",
    "Reader",
    "save_sequences",
    "load_sequences",
    "make_windows",
    "synth_kinematic",
    "skeleton_preset",
    "SKELETON_PRESETS",
]

MAGIC = b"MGPS"
VERSION = 1


class PoseFormatError(ValueError):
    """Malformed pose container."""


class Reader:
    """Bounded little-endian reads from a byte string, tracking the offset.

    A read past the end raises ``error`` naming the offset, what was being
    read and how many bytes it needed.
    """

    def __init__(self, blob, kind, error):
        self.blob, self.kind, self.error = blob, kind, error
        self.offset = 0

    def need(self, size, what):
        """Raise unless ``size`` more bytes remain."""
        remain = len(self.blob) - self.offset
        if size > remain:
            raise self.error(f"truncated {self.kind} at byte {self.offset}: "
                             f"{what} needs {size} bytes, {remain} remain")

    def _claim(self, size, what):
        self.need(size, what)
        self.offset += size
        return self.offset - size

    def take(self, fmt, what):
        return struct.unpack_from(fmt, self.blob, self._claim(struct.calcsize(fmt), what))

    def text(self, what, encoding):
        """A u32 byte length, then that many bytes of text."""
        n, = self.take("<I", what)
        start = self._claim(n, what)
        try:
            return self.blob[start: start + n].decode(encoding)
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} at byte {start} is not {encoding}") from exc

    def floats(self, shape, what):
        """A float64 block of the given shape, copied out of the blob."""
        count = math.prod(shape)          # a Python int: no overflow
        start = self._claim(8 * count, what)
        return np.frombuffer(self.blob, "<f8", count, start).reshape(shape).astype(np.float64)

    def finish(self):
        if self.offset != len(self.blob):
            raise self.error(f"{len(self.blob) - self.offset} trailing bytes after "
                             f"{self.kind} end at byte {self.offset}")


@dataclass
class PoseSequence:
    frames: np.ndarray            # [frames, V, 3], millimeters
    rate: float = 25.0
    label: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3 or self.frames.shape[2] != 3:
            raise PoseFormatError(
                f"pose frames must be [frames, V, 3], got {self.frames.shape}"
            )
        if not np.isfinite(self.frames).all():
            raise PoseFormatError("non-finite pose coordinate")

    @property
    def joint_count(self):
        return self.frames.shape[1]

    def __len__(self):
        return self.frames.shape[0]


@dataclass(frozen=True, eq=False)
class WindowSet:
    """(T-input, K-target) windows of sequences, as start rows into one
    buffer that holds every sequence's frames once, back to back.

    Window i is the T + K rows from ``starts[i]``, cut from sequence
    ``sequence[i]`` with record label ``labels[sequence[i]]``; windows
    overlap wherever the stride is below T + K. Only ``gather`` copies
    frames out: ``batch``, and ``inputs`` and ``targets`` on each access,
    use it, and ``windows[idx]`` is a subset sharing the buffer.
    """

    frames: np.ndarray            # [F, V, 3]
    starts: np.ndarray            # [N] row of each window's first frame
    sequence: np.ndarray          # [N] index of each window's sequence
    labels: tuple                 # one per sequence
    input_frames: int             # T
    output_frames: int            # K
    skeleton: SkeletonGraph | None = None

    def __len__(self):
        return len(self.starts)

    def __getitem__(self, idx):
        return replace(self, starts=self.starts[idx], sequence=self.sequence[idx])

    def gather(self, idx, offset):
        """Frame ``offset`` of each window in ``idx`` (0 is the first input
        frame, T the first target), [len(idx), V, 3]; an array of offsets
        adds its axes after the window axis. A new array."""
        return self.frames[np.add.outer(self.starts[idx], offset)]

    def batch(self, idx):
        """Inputs [len(idx), T, V, 3] and targets [len(idx), K, V, 3]."""
        t = self.input_frames
        return (self.gather(idx, np.arange(t)),
                self.gather(idx, np.arange(t, t + self.output_frames)))

    @property
    def inputs(self):
        return self.batch(slice(None))[0]

    @property
    def targets(self):
        return self.batch(slice(None))[1]


def save_sequences(path, sequences):
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(bytes([VERSION]))
        for seq in sequences:
            label = seq.label.encode("utf-8")
            f.write(struct.pack("<II", seq.joint_count, len(seq)))
            f.write(struct.pack("<d", seq.rate))
            f.write(struct.pack("<I", len(label)))
            f.write(label)
            f.write(seq.frames.astype("<f8").tobytes())


def load_sequences(path):
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) == 0:
        return []
    r = Reader(blob, "pose container", PoseFormatError)
    magic, version = r.take("<4sB", "header")
    if magic != MAGIC:
        raise PoseFormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    if version != VERSION:
        raise PoseFormatError(f"unsupported version {version} at byte 4")

    sequences = []
    while r.offset < len(blob):
        start = r.offset
        v, n_frames, rate = r.take("<IId", "record header")
        label = r.text("label", "utf-8")
        if v == 0:
            raise PoseFormatError(f"record at byte {start} declares 0 joints")
        if not 0 < rate < math.inf:
            raise PoseFormatError(
                f"record at byte {start} has frame rate {rate}, expected finite and > 0"
            )
        frames = r.floats((n_frames, v, 3), "coordinates")
        try:
            sequences.append(PoseSequence(frames=frames, rate=rate, label=label))
        except PoseFormatError as exc:
            raise PoseFormatError(f"{exc} in record at byte {start}") from exc

    joint_counts = {s.joint_count for s in sequences}
    if len(joint_counts) > 1:
        raise PoseFormatError(f"inconsistent joint counts across records: {joint_counts}")
    return sequences


def make_windows(sequences, t_in, k_out, stride=1, skeleton=None):
    """All maximal (T-input, K-target) windows at the given stride, over
    one copy of the sequences' frames."""
    if t_in < 1 or k_out < 1 or stride < 1:
        raise ValueError("t_in, k_out, and stride must all be >= 1")
    joint_counts = {seq.joint_count for seq in sequences}
    if len(joint_counts) > 1:
        raise ValueError(f"sequences disagree on joint count: {sorted(joint_counts)}")
    ends = np.cumsum([len(seq) for seq in sequences], dtype=np.intp)
    starts = [np.arange(end - len(seq), end - t_in - k_out + 1, stride, dtype=np.intp)
              for seq, end in zip(sequences, ends)]
    return WindowSet(
        frames=np.concatenate([seq.frames for seq in sequences]) if sequences
        else np.zeros((0, 0, 3)),
        starts=np.concatenate([np.zeros(0, np.intp), *starts]),
        sequence=np.repeat(np.arange(len(starts)), [len(s) for s in starts]),
        labels=tuple(seq.label for seq in sequences),
        input_frames=t_in, output_frames=k_out, skeleton=skeleton,
    )


def synth_kinematic(v_chain, frames, period, amplitude=0.6, seed=0, noise=0.0,
                    rate=25.0, label="synthetic"):
    """Periodic articulated-chain motion with unit-length segments.

    Each segment's direction oscillates sinusoidally (period in frames)
    around a per-segment rest orientation drawn from the seed; forward
    kinematics from a root fixed at the origin gives 3D coordinates.
    Gaussian noise, when requested, is added after kinematics.
    """
    if v_chain < 2:
        raise ValueError(f"chain needs >= 2 joints, got {v_chain}")
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    rng = np.random.default_rng(seed)
    n_seg = v_chain - 1
    rest_polar = rng.uniform(0.3, np.pi - 0.3, size=n_seg)
    rest_azimuth = rng.uniform(0.0, 2 * np.pi, size=n_seg)
    phase = rng.uniform(0.0, 2 * np.pi, size=n_seg)

    t = np.arange(frames)[:, None]
    angle = 2 * np.pi * t / period + phase[None, :]
    polar = rest_polar[None, :] + amplitude * np.sin(angle)
    azimuth = rest_azimuth[None, :] + amplitude * np.cos(angle)

    directions = np.stack(
        [
            np.sin(polar) * np.cos(azimuth),
            np.sin(polar) * np.sin(azimuth),
            np.cos(polar),
        ],
        axis=-1,
    )                                               # [frames, n_seg, 3], unit rows
    joints = np.zeros((frames, v_chain, 3))
    joints[:, 1:] = np.cumsum(directions, axis=1)
    if noise > 0.0:
        joints = joints + rng.normal(0.0, noise, size=joints.shape)
    return PoseSequence(frames=joints, rate=rate, label=label)


def _chain(n):
    return SkeletonGraph(
        joint_count=n, edges=frozenset((i, i + 1) for i in range(n - 1))
    )


# 22-joint kinematic tree (root pelvis; legs 1-4 / 5-8; spine 9-12 with a
# head-top node 21; arms 13-16 / 17-20). Parent of joint j:
_H36M22_PARENTS = (
    -1, 0, 1, 2, 3,          # pelvis, right leg: hip, knee, ankle, foot
    0, 5, 6, 7,              # left leg
    0, 9, 10, 11,            # spine, thorax, neck, head
    10, 13, 14, 15,          # left arm: shoulder, elbow, wrist, hand
    10, 17, 18, 19,          # right arm
    12,                      # head top
)


def _h36m22():
    edges = frozenset(
        (j, p) for j, p in enumerate(_H36M22_PARENTS) if p >= 0
    )
    return SkeletonGraph(joint_count=22, edges=edges)


SKELETON_PRESETS = ("chain_n", "h36m22")


def skeleton_preset(name):
    """Named skeletons: ``chain_<n>`` (path graph) or ``h36m22`` (22-joint tree)."""
    if name == "h36m22":
        return _h36m22()
    if name.startswith("chain_"):
        try:
            n = int(name.removeprefix("chain_"))
        except ValueError:
            n = 0
        if n >= 2:
            return _chain(n)
    raise ValueError(f"unknown skeleton preset {name!r}; available: {SKELETON_PRESETS}")
