import struct
import tracemalloc

import numpy as np
import pytest

from posecast.data import (
    PoseFormatError,
    PoseSequence,
    load_sequences,
    make_windows,
    save_sequences,
    skeleton_preset,
    synth_kinematic,
)
from posecast.graphs import hop_distances


class TestContainerFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        seqs = [
            PoseSequence(frames=rng.normal(size=(2, 2, 3)), rate=25.0, label="walk"),
            PoseSequence(frames=rng.normal(size=(5, 2, 3)), rate=50.0, label=""),
        ]
        path = tmp_path / "poses.mgps"
        save_sequences(path, seqs)
        loaded = load_sequences(path)
        assert len(loaded) == 2
        for a, b in zip(seqs, loaded):
            assert np.array_equal(a.frames, b.frames)
            assert a.rate == b.rate and a.label == b.label
        # save -> load -> save is byte-identical
        path2 = tmp_path / "again.mgps"
        save_sequences(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_file_is_empty_list(self, tmp_path):
        path = tmp_path / "empty.mgps"
        path.write_bytes(b"")
        assert load_sequences(path) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mgps"
        path.write_bytes(b"NOPE\x01")
        with pytest.raises(PoseFormatError, match="byte 0"):
            load_sequences(path)

    def test_truncated_record_names_offset(self, tmp_path):
        seq = PoseSequence(frames=np.ones((3, 2, 3)))
        path = tmp_path / "full.mgps"
        save_sequences(path, [seq])
        blob = path.read_bytes()
        cut = tmp_path / "cut.mgps"
        cut.write_bytes(blob[:-8])
        with pytest.raises(PoseFormatError, match="byte"):
            load_sequences(cut)

    def test_every_truncation_rejected(self, tmp_path):
        first = PoseSequence(frames=np.ones((2, 2, 3)), label="a")
        path = tmp_path / "poses.mgps"
        save_sequences(path, [first, PoseSequence(frames=np.ones((3, 2, 3)), label="bc")])
        blob = path.read_bytes()
        boundary = 5 + 20 + len(first.label) + 8 * first.frames.size
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            if n in (0, 5, boundary):
                assert len(load_sequences(path)) == {0: 0, 5: 0, boundary: 1}[n]
                continue
            with pytest.raises(PoseFormatError, match=r"truncated pose container at byte \d+"):
                load_sequences(path)

    def test_huge_record_is_truncated_not_overflowed(self, tmp_path):
        path = tmp_path / "huge.mgps"
        most = 2**32 - 1
        path.write_bytes(b"MGPS\x01" + struct.pack("<IIdI", most, most, 25.0, 0))
        with pytest.raises(PoseFormatError, match="truncated pose container at byte 25"):
            load_sequences(path)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -25.0])
    def test_bad_frame_rate_rejected(self, tmp_path, rate):
        path = tmp_path / "poses.mgps"
        save_sequences(path, [PoseSequence(frames=np.ones((2, 2, 3)), rate=rate)])
        with pytest.raises(PoseFormatError, match="record at byte 5 has frame rate"):
            load_sequences(path)

    def test_inconsistent_joint_counts_rejected(self, tmp_path):
        path = tmp_path / "mixed.mgps"
        save_sequences(path, [
            PoseSequence(frames=np.ones((2, 2, 3))),
            PoseSequence(frames=np.ones((2, 3, 3))),
        ])
        with pytest.raises(PoseFormatError, match="joint counts"):
            load_sequences(path)

    def test_nonfinite_coordinates_rejected(self):
        frames = np.ones((2, 2, 3))
        frames[0, 0, 0] = np.inf
        with pytest.raises(PoseFormatError, match="finite"):
            PoseSequence(frames=frames)

    def test_nonfinite_record_scanned_once_and_named(self, tmp_path, monkeypatch):
        first = PoseSequence(frames=np.ones((2, 2, 3)), label="a")
        path = tmp_path / "poses.mgps"
        save_sequences(path, [first, PoseSequence(frames=np.ones((3, 2, 3)))])
        scans = []
        real = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: scans.append(np.shape(a)) or real(a))
        assert len(load_sequences(path)) == 2
        assert scans == [(2, 2, 3), (3, 2, 3)]
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<d", float("nan"))
        path.write_bytes(blob)
        second = 5 + 20 + len(first.label) + 8 * first.frames.size
        with pytest.raises(PoseFormatError,
                           match=f"non-finite pose coordinate in record at byte {second}"):
            load_sequences(path)


class TestWindows:
    def test_exactly_one_window(self):
        seq = PoseSequence(frames=np.zeros((35, 2, 3)))
        assert len(make_windows([seq], t_in=10, k_out=25)) == 1

    def test_two_windows(self):
        seq = PoseSequence(frames=np.zeros((36, 2, 3)))
        assert len(make_windows([seq], t_in=10, k_out=25)) == 2

    def test_short_sequence_contributes_none(self):
        seq = PoseSequence(frames=np.zeros((34, 2, 3)))
        assert len(make_windows([seq], t_in=10, k_out=25)) == 0

    def test_counts_match_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            lengths = rng.integers(1, 60, size=3)
            t_in, k_out = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            stride = int(rng.integers(1, 5))
            seqs = [PoseSequence(frames=np.zeros((n, 2, 3))) for n in lengths]
            expected = 0
            for n in lengths:
                start = 0
                while start + t_in + k_out <= n:
                    expected += 1
                    start += stride
            assert len(make_windows(seqs, t_in, k_out, stride=stride)) == expected

    def test_inputs_and_targets_tile_source(self):
        frames = np.arange(12 * 2 * 3, dtype=float).reshape(12, 2, 3)
        windows = make_windows([PoseSequence(frames=frames)], t_in=3, k_out=2, stride=2)
        for i in range(len(windows)):
            start = i * 2
            assert np.array_equal(windows.inputs[i], frames[start:start + 3])
            assert np.array_equal(windows.targets[i], frames[start + 3:start + 5])


def copied_windows(sequences, t_in, k_out, stride):
    """Windows copied out one by one, as make_windows once stored them:
    stacked inputs, stacked targets and each window's sequence index."""
    inputs, targets, sequence = [], [], []
    for i, seq in enumerate(sequences):
        for start in range(0, len(seq) - t_in - k_out + 1, stride):
            inputs.append(seq.frames[start: start + t_in])
            targets.append(seq.frames[start + t_in: start + t_in + k_out])
            sequence.append(i)
    return np.stack(inputs), np.stack(targets), sequence


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestWindowBuffer:
    def sequences(self):
        # Lengths below, at and above T + K = 7, with distinct labels.
        return [synth_kinematic(4, n, period=5, seed=n, label=f"take{i}")
                for i, n in enumerate((19, 3, 7, 12, 6, 25))]

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_gathers_match_copied_windows(self, stride):
        seqs = self.sequences()
        windows = make_windows(seqs, 4, 3, stride=stride)
        inputs, targets, _ = copied_windows(seqs, 4, 3, stride)
        assert same_bytes(windows.inputs, inputs) and same_bytes(windows.targets, targets)
        rng = np.random.default_rng(stride)
        for idx in (rng.permutation(len(windows)), rng.permutation(len(windows))[:5],
                    np.array([3, 3, 0]), slice(2, 9), slice(None, None, 3)):
            x, y = windows.batch(idx)
            assert same_bytes(x, inputs[idx]) and same_bytes(y, targets[idx])
            subset = windows[idx]
            assert subset.frames is windows.frames
            assert same_bytes(subset.inputs, inputs[idx])
            assert same_bytes(subset.targets, targets[idx])
            assert same_bytes(subset.batch(slice(1, 3))[1], targets[idx][1:3])

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_sequence_index_and_label(self, stride):
        seqs = self.sequences()
        windows = make_windows(seqs, 4, 3, stride=stride)
        _, _, sequence = copied_windows(seqs, 4, 3, stride)
        assert windows.sequence.tolist() == sequence
        assert windows.labels == tuple(f"take{i}" for i in range(len(seqs)))
        assert [windows.labels[i] for i in windows[::2].sequence] == \
            [f"take{i}" for i in sequence[::2]]

    def test_frames_held_once(self):
        seqs = self.sequences()
        windows = make_windows(seqs, 4, 3)
        assert windows.frames.shape == (sum(len(s) for s in seqs), 4, 3)
        with pytest.raises(AttributeError):
            windows.inputs = windows.inputs[:2]

    def test_empty_set_keeps_window_shape(self):
        windows = make_windows([synth_kinematic(4, 5, 4)], 4, 3)
        assert len(windows) == 0
        assert windows.inputs.shape == (0, 4, 4, 3) and windows.targets.shape == (0, 3, 4, 3)
        assert windows.batch([])[0].shape == (0, 4, 4, 3)
        assert make_windows([], 4, 3).inputs.shape == (0, 4, 0, 3)

    def test_mixed_joint_counts_named(self):
        seqs = [synth_kinematic(4, 9, 4), synth_kinematic(5, 9, 4)]
        with pytest.raises(ValueError, match="joint count"):
            make_windows(seqs, 4, 3)

    def test_skeleton_joint_count_checked(self):
        seqs = [synth_kinematic(5, 9, 4)]
        assert len(make_windows(seqs, 4, 3, skeleton=skeleton_preset("chain_5"))) == 3
        with pytest.raises(ValueError, match=r"joint count 5 does not match skeleton \(4\)"):
            make_windows(seqs, 4, 3, skeleton=skeleton_preset("chain_4"))

    def test_building_allocates_under_twice_the_frames(self):
        # Ten 22-joint 2,000-frame sequences: 19,660 windows of T=10, K=25,
        # which copied one by one took x34 the frames.
        rng = np.random.default_rng(0)
        seqs = [PoseSequence(frames=rng.normal(size=(2000, 22, 3))) for _ in range(10)]
        frame_bytes = sum(s.frames.nbytes for s in seqs)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            windows = make_windows(seqs, 10, 25)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(windows) == 19_660
        assert peak < 2 * frame_bytes, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("name", ["inputs", "targets"])
    def test_inputs_and_targets_gather_only_their_own_frames(self, name):
        # K = T: gathering both halves and dropping one peaked at 2.02x.
        rng = np.random.default_rng(1)
        windows = make_windows([PoseSequence(frames=rng.normal(size=(2000, 22, 3)))], 10, 10)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = getattr(windows, name)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (1981, 10, 22, 3)
        assert peak < 1.25 * out.nbytes, f"peak {peak / out.nbytes:.2f}x its bytes"


class TestSyntheticMotion:
    def test_bone_lengths_are_unit(self):
        seq = synth_kinematic(6, frames=20, period=8, seed=0)
        bones = np.diff(seq.frames, axis=1)
        lengths = np.linalg.norm(bones, axis=-1)
        assert np.allclose(lengths, 1.0, atol=1e-9)

    def test_exactly_periodic_without_noise(self):
        seq = synth_kinematic(5, frames=24, period=8, seed=1)
        assert np.allclose(seq.frames[:16], seq.frames[8:], atol=1e-9)

    def test_root_fixed_at_origin(self):
        seq = synth_kinematic(4, frames=10, period=5, seed=2)
        assert np.array_equal(seq.frames[:, 0], np.zeros((10, 3)))

    def test_noise_breaks_periodicity(self):
        seq = synth_kinematic(4, frames=16, period=8, seed=3, noise=0.1)
        assert not np.allclose(seq.frames[:8], seq.frames[8:], atol=1e-6)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            synth_kinematic(1, frames=4, period=2)
        with pytest.raises(ValueError):
            synth_kinematic(3, frames=4, period=0)


class TestSkeletonPresets:
    def test_chain_4(self):
        g = skeleton_preset("chain_4")
        assert g.joint_count == 4
        assert g.edges == frozenset(frozenset(e) for e in [(0, 1), (1, 2), (2, 3)])

    def test_chain_2_single_edge(self):
        g = skeleton_preset("chain_2")
        assert len(g.edges) == 1

    def test_h36m22_is_connected_tree(self):
        g = skeleton_preset("h36m22")
        assert g.joint_count == 22
        assert len(g.edges) == 21
        hop_distances(g)   # connectivity check raises if broken

    def test_unknown_preset_lists_options(self):
        with pytest.raises(ValueError, match="chain_n"):
            skeleton_preset("octopus")
