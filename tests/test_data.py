import struct

import numpy as np
import pytest

from posecast.data import (
    PoseFormatError,
    PoseSequence,
    load_csv,
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


class TestCsvImport:
    def test_basic_table(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text(
            "frame,joint,x,y,z\n"
            "0,0,1.0,2.0,3.0\n"
            "0,1,4.0,5.0,6.0\n"
            "1,0,7.0,8.0,9.0\n"
            "1,1,10.0,11.0,12.0\n"
        )
        seq = load_csv(path)
        assert seq.frames.shape == (2, 2, 3)
        assert np.array_equal(seq.frames[1, 1], [10.0, 11.0, 12.0])

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,joint,x,y\n0,0,1,2\n")
        with pytest.raises(PoseFormatError, match="header"):
            load_csv(path)

    @pytest.mark.parametrize("dropped, fragment", [
        (2, "frame 0, joint 1"),
        (3, "frame 1, joint 0"),
        (4, "frame 1, joint 1"),
    ])
    def test_missing_row_named(self, tmp_path, dropped, fragment):
        lines = ["frame,joint,x,y,z", "0,0,1,2,3", "0,1,4,5,6", "1,0,7,8,9",
                 "1,1,10,11,12", "2,1,13,14,15", "2,0,16,17,18"]
        del lines[dropped]
        path = tmp_path / "gap.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PoseFormatError, match=fragment):
            load_csv(path)

    @pytest.mark.parametrize("row, fragment", [
        ("-1,0,1,2,3", "negative"),
        ("0,0,1,2,3", "second row for frame 0, joint 0 at line 3"),
    ])
    def test_negative_or_repeated_row_rejected(self, tmp_path, row, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(f"frame,joint,x,y,z\n0,0,1,2,3\n{row}\n")
        with pytest.raises(PoseFormatError, match=fragment):
            load_csv(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,joint,x,y,z\n0,0,one,2,3\n")
        with pytest.raises(PoseFormatError, match="line 2"):
            load_csv(path)


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
