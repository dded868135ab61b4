"""Property: one byte edit to a valid file never crashes a loader.

Hypothesis draws a small checkpoint or ``.mgps`` file and one edit (a
bit flip, an inserted byte, a deleted byte or a truncation). A checkpoint
also gets a header-aware edit: one u32 at the start of a header field
(found by walking ``HEADER_FIELDS``), at a schedule width or at the joint
or edge count is overwritten with 0, 1, 2**31, 2**32 - 1 or a small
integer, the sizes a corrupt header most often declares.
``load_checkpoint`` and ``load_sequences`` must then return, or raise
``ValueError`` (``PoseFormatError`` is one); any other exception,
``MemoryError`` included, fails. The search runs in a child process
whose address space is capped at 2 GiB, so a loader that trusts a
corrupt size fails there instead of exhausting the machine. It is
derandomized with a fixed example count, so every run draws the same
files and edits.
"""

import subprocess
import sys
import textwrap

from conftest import child_env

EXAMPLES = 150        # per loader

CHILD = textwrap.dedent("""
    import os, resource, struct, sys
    import numpy as np
    from hypothesis import HealthCheck, given, settings, strategies as st
    from posecast.data import PoseSequence, load_sequences, save_sequences, skeleton_preset
    from posecast.model import (HEADER_FIELDS, ModelConfig, build_model, load_checkpoint,
                                save_checkpoint)

    work_dir, examples = sys.argv[1], int(sys.argv[2])
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    fuzz = settings(derandomize=True, max_examples=examples, database=None,
                    deadline=None, suppress_health_check=list(HealthCheck))

    @st.composite
    def checkpoints(draw):
        t, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        config = ModelConfig(
            input_frames=t, output_frames=k, span=draw(st.integers(0, max(t, k) - 1)),
            max_hop=draw(st.integers(0, 2)),
            strategy=draw(st.sampled_from(["none", "plain", "anchor",
                                           "pseudo_autoregressive"])),
            anchor_count=draw(st.none() | st.integers(1, t)),
            refine=draw(st.booleans()),
            value_schedule=(3, draw(st.integers(1, 4)), 3),
            qk_schedule=(3, draw(st.integers(1, 4)), 3),
            seed=draw(st.integers(0, 9)))
        skeleton = skeleton_preset(draw(st.sampled_from(["chain_3", "chain_4"])))
        path = os.path.join(work_dir, "drawn.pckp")
        save_checkpoint(path, build_model(skeleton, config))
        return path

    @st.composite
    def pose_files(draw):
        v = draw(st.integers(1, 3))
        rng = np.random.default_rng(draw(st.integers(0, 9)))
        sequences = [PoseSequence(rng.normal(size=(draw(st.integers(0, 3)), v, 3)),
                                  rate=draw(st.sampled_from([12.5, 25.0, 50.0])),
                                  label=draw(st.text(max_size=3)))
                     for _ in range(draw(st.integers(0, 3)))]
        path = os.path.join(work_dir, "drawn.mgps")
        save_sequences(path, sequences)
        return path

    # kind, offset (taken modulo the file size) and the flipped bit or
    # inserted byte. Half the offsets fall in the first 32 bytes, where
    # the header's sizes are.
    edits = st.tuples(st.sampled_from(["flip", "insert", "delete", "truncate"]),
                      st.integers(0, 31) | st.integers(0, 1 << 16), st.integers(0, 255))

    def edited(path, edit):
        kind, at, value = edit
        with open(path, "rb") as f:
            blob = bytearray(f.read())
        at %= len(blob) + (kind == "insert")
        if kind == "flip":
            blob[at] ^= 1 << value % 8
        elif kind == "insert":
            blob.insert(at, value)
        elif kind == "delete":
            del blob[at]
        else:
            del blob[at:]
        with open(path, "wb") as f:
            f.write(blob)
        return path

    # Offsets of the joint count, each header field, each schedule width
    # and the edge count.
    def u32_offsets(blob):
        at, offsets = 9, [5]
        for name, code in HEADER_FIELDS:
            offsets.append(at)
            if code == "s":
                at += 4 + struct.unpack_from("<I", blob, at)[0]
            elif code == "I*":
                n, = struct.unpack_from("<I", blob, at)
                offsets += range(at + 4, at + 4 + 4 * n, 4)
                at += 4 + 4 * n
            else:
                at += struct.calcsize("<" + code)
        return offsets + [at]

    def loads_or_rejects(load, path):
        try:
            load(path)
        except ValueError:
            pass

    @fuzz
    @given(edits, checkpoints())
    def checkpoint_edits(edit, path):
        loads_or_rejects(load_checkpoint, edited(path, edit))

    @fuzz
    @given(edits, pose_files())
    def pose_file_edits(edit, path):
        loads_or_rejects(load_sequences, edited(path, edit))

    @fuzz
    @given(checkpoints(), st.data())
    def checkpoint_header_edits(path, data):
        with open(path, "rb") as f:
            blob = bytearray(f.read())
        at = data.draw(st.sampled_from(u32_offsets(blob)))
        value = data.draw(st.sampled_from([0, 1, 1 << 31, (1 << 32) - 1]) | st.integers(0, 64))
        struct.pack_into("<I", blob, at, value)
        with open(path, "wb") as f:
            f.write(blob)
        loads_or_rejects(load_checkpoint, path)

    checkpoint_edits()
    checkpoint_header_edits()
    pose_file_edits()
    print("ok")
""")


def test_one_byte_edit_loads_or_raises_value_error(tmp_path):
    run = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path), str(EXAMPLES)],
                         capture_output=True, text=True, timeout=120, env=child_env())
    assert run.returncode == 0 and run.stdout.split() == ["ok"], run.stdout + run.stderr
