import dataclasses
import hashlib
import os
import re
import struct
import subprocess
import sys
import textwrap
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from posecast import autodiff as ad
from posecast import model as pm
from posecast import workers
from posecast.autodiff import DimensionError
from posecast.data import make_windows, skeleton_preset, synth_kinematic
from posecast.model import (
    HEADER_FIELDS,
    ModelConfig,
    build_model,
    config_value,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
    temporal_align,
)
from posecast.training import TrainConfig, evaluate, mpjpe_loss, train

from conftest import child_env


def tiny_config(**overrides):
    base = dict(
        input_frames=3,
        output_frames=2,
        span=1,
        max_hop=1,
        strategy="pseudo_autoregressive",
        value_schedule=(3, 4, 3),
        qk_schedule=(3, 4, 3),
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def zero_final_layer(tower):
    tower.layers[-1].weight.values[...] = 0.0


class TestTemporalAlign:
    def test_identity_matrix(self):
        rng = np.random.default_rng(0)
        z = ad.constant(rng.normal(size=(2, 4, 3, 3)))
        out = temporal_align(z, ad.constant(np.eye(4)))
        assert np.array_equal(out.values, z.values)

    def test_uniform_row_is_temporal_mean(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(1, 5, 2, 3))
        tcn = np.full((1, 5), 0.2)
        out = temporal_align(ad.constant(z), ad.constant(tcn))
        assert np.allclose(out.values[0, 0], z.mean(axis=1)[0], atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(2, 4, 3, 3))
        tcn = rng.normal(size=(6, 4))
        out = temporal_align(ad.constant(z), ad.constant(tcn)).values
        expected = np.zeros((2, 6, 3, 3))
        for b in range(2):
            for kk in range(6):
                for t in range(4):
                    expected[b, kk] += tcn[kk, t] * z[b, t]
        assert np.allclose(out, expected, atol=1e-12)

    def test_time_dim_mismatch(self):
        with pytest.raises(DimensionError):
            temporal_align(ad.constant(np.zeros((1, 4, 2, 3))),
                           ad.constant(np.zeros((3, 5))))


class TestForward:
    def test_pseudo_ar_zero_offsets_copy_last_frame(self):
        skeleton = skeleton_preset("chain_4")
        model = build_model(skeleton, tiny_config(refine=False))
        zero_final_layer(model.v_tower)          # force zero offsets
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4, 3))
        out = model.forward(x)
        # tcn rows sum to 1 at init, so every aligned frame equals X_T
        for kk in range(2):
            assert np.allclose(out.predictions.values[:, kk], x[:, -1], atol=1e-12)

    def test_shape_contract_h36m(self):
        skeleton = skeleton_preset("h36m22")
        config = ModelConfig(
            input_frames=10, output_frames=25, span=2, max_hop=3,
            strategy="anchor", seed=1,
        )
        model = build_model(skeleton, config)
        x = np.random.default_rng(4).normal(size=(2, 10, 22, 3))
        out = model.forward(x)
        assert out.predictions.shape == (2, 25, 22, 3)
        assert out.intermediate.shape == (2, 10, 22, 3)

    def test_anchor_intermediate_convexity(self):
        skeleton = skeleton_preset("chain_4")
        model = build_model(skeleton, tiny_config(strategy="anchor"))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 4, 3))
        out = model.forward(x)
        # recompute the anchors (value-tower output) and check bounds
        x_in = ad.constant(x)
        anchors = model.v_tower.forward(x_in, model.input_graph).values
        lo = anchors.min(axis=1, keepdims=True)
        hi = anchors.max(axis=1, keepdims=True)
        z = out.intermediate.values
        assert (z >= lo - 1e-12).all() and (z <= hi + 1e-12).all()

    def test_every_strategy_constructs_and_runs(self):
        skeleton = skeleton_preset("chain_4")
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 3, 4, 3))
        for strategy in ("pseudo_autoregressive", "anchor", "plain", "none"):
            for refine in (False, True):
                model = build_model(
                    skeleton, tiny_config(strategy=strategy, refine=refine)
                )
                assert model.forward(x).predictions.shape == (1, 2, 4, 3)

    def test_plain_ignores_anchor_count(self):
        # plain runs the anchor path with every frame an anchor, unmasked.
        skeleton = skeleton_preset("chain_4")
        x = np.random.default_rng(9).normal(size=(1, 3, 4, 3))
        every = build_model(skeleton, tiny_config(strategy="plain")).predict(x)
        two = build_model(skeleton, tiny_config(strategy="plain", anchor_count=2)).predict(x)
        assert np.array_equal(every, two)

    def test_anchor_subset_strategy(self):
        skeleton = skeleton_preset("chain_4")
        model = build_model(skeleton, tiny_config(strategy="anchor", anchor_count=2))
        x = np.random.default_rng(7).normal(size=(1, 3, 4, 3))
        out = model.forward(x)
        assert out.predictions.shape == (1, 2, 4, 3)

    def test_bad_input_shape(self):
        model = build_model(skeleton_preset("chain_4"), tiny_config())
        with pytest.raises(DimensionError):
            model.forward(np.zeros((1, 4, 4, 3)))

    def test_invalid_config_fails_at_construction(self):
        with pytest.raises(ValueError):
            tiny_config(strategy="unknown")
        with pytest.raises(ValueError):
            tiny_config(anchor_count=7)   # > input_frames

    @pytest.mark.parametrize("field, value", [
        ("span", 3),                      # >= max(T, K) = 3
        ("output_frames", 0),
        ("seed", -1),
        ("value_schedule", (3, 0, 3)),
        ("qk_schedule", (3, 4, 0, 3)),
    ])
    def test_out_of_range_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})

    def test_hop_depth_past_joint_count_rejected_before_building(self):
        # Every hop layer past V - 1 is empty. Build in a child whose address
        # space is capped at 2 GiB, so a missing check fails there (about
        # 190 GB of hop layers) rather than exhausting the machine.
        child = textwrap.dedent("""
            import resource, time
            from posecast.data import skeleton_preset
            from posecast.model import ModelConfig, build_model
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            start = time.perf_counter()
            try:
                build_model(skeleton_preset("h36m22"), ModelConfig(
                    input_frames=10, output_frames=10, max_hop=50_000_000))
            except Exception as exc:
                print(type(exc).__name__, exc)
            print(time.perf_counter() - start < 1.0)
        """)
        run = subprocess.run([sys.executable, "-c", child], capture_output=True,
                             text=True, timeout=60, env=child_env())
        assert run.returncode == 0, run.stderr
        error, fast = run.stdout.splitlines()
        assert error.startswith("ValueError max_hop") and "V=22" in error, error
        assert fast == "True"

    def test_refine_must_be_bool(self):
        # A YAML string such as "false" is truthy; it must not mean True.
        with pytest.raises(ValueError, match="refine"):
            tiny_config(refine="false")

    @pytest.mark.parametrize("value, kind, expected", [
        (3, "int", 3), (np.int64(3), "int", 3), (3.0, "int", 3), ("3", "int", 3),
        (2**70, "int", 2**70), (2, "float", 2.0), ("1e-2", "float", 0.01),
        (np.float32(0.5), "float", 0.5), (None, "float | None", None),
        ([1, "2", 3.0], "tuple", (1, 2, 3)), (False, "bool", False), ("a", "str", "a"),
    ])
    def test_config_value_reads(self, value, kind, expected):
        read = config_value("field", value, kind)
        assert read == expected and type(read) is type(expected)

    @pytest.mark.parametrize("value, kind", [
        (2.7, "int"), (True, "int"), ("2.0", "int"), (float("inf"), "int"), (None, "int"),
        (float("nan"), "float"), ("inf", "float"), (10**400, "float"), (False, "float"),
        ("yes", "bool"), (1, "bool"), (5, "str"), ("333", "tuple"), ([3, 2.5], "tuple"),
    ])
    def test_config_value_rejects(self, value, kind):
        with pytest.raises(ValueError, match="^field"):
            config_value("field", value, kind)

    def test_config_that_builds_can_be_saved(self, tmp_path):
        for field, value in [("seed", 2**63), ("value_schedule", (3, 2**32, 3))]:
            with pytest.raises(ValueError, match=f"{field} does not fit the checkpoint header"):
                tiny_config(**{field: value})
        config = tiny_config(seed=2**63 - 1)
        save_checkpoint(tmp_path / "model.pckp", build_model(skeleton_preset("chain_4"), config))
        assert load_checkpoint(tmp_path / "model.pckp").config == config


class TestParameterCount:
    def test_single_layer_identity_case(self):
        skeleton = skeleton_preset("chain_2")
        config = ModelConfig(
            input_frames=2, output_frames=2, span=1, max_hop=0,
            strategy="none", refine=False,
            value_schedule=(3, 3), qk_schedule=(3, 3), seed=0,
        )
        model = build_model(skeleton, config)
        # one 3x3 weight plus the 2x2 alignment matrix
        assert model.count_parameters() == 9 + 4

    def test_extra_hop_adds_weight_per_layer(self):
        def count(max_hop):
            config = ModelConfig(
                input_frames=2, output_frames=2, span=1, max_hop=max_hop,
                strategy="none", refine=False,
                value_schedule=(3, 3), qk_schedule=(3, 3), seed=0,
            )
            return build_model(skeleton_preset("chain_3"), config).count_parameters()

        assert count(1) - 4 == 2 * (count(0) - 4)

    def test_matches_shape_bookkeeping(self):
        model = build_model(skeleton_preset("chain_4"), tiny_config(strategy="anchor"))
        total = sum(int(np.prod(p.values.shape)) for p in model.parameters())
        assert model.count_parameters() == total

    @pytest.mark.parametrize("strategy", ["anchor", "plain", "pseudo_autoregressive", "none"])
    @pytest.mark.parametrize("refine", [False, True])
    def test_table_is_the_model_layout(self, strategy, refine):
        config = tiny_config(strategy=strategy, refine=refine, max_hop=2,
                             value_schedule=(3, 5, 4, 3))
        model = build_model(skeleton_preset("chain_4"), config)
        table = list(parameter_shapes(config))
        assert table == [(name, block.shape) for name, block in model.params.items()]
        # One tensor per layer, tcn after the q and k towers.
        layers = [layer for tower in (model.v_tower, model.q_tower, model.k_tower) if tower
                  for layer in tower.layers]
        last = model.refine_tower.layers if refine else []
        assert model.parameters() == ([layer.weight for layer in layers] + [model.tcn]
                                      + [layer.weight for layer in last])
        # D+1 = 3 weights per layer, numbered layer by layer.
        assert [name for name, _ in table[:9]] == [f"v_tower.{i}" for i in range(9)]
        assert [shape for _, shape in table[:9]] == [(3, 5)] * 3 + [(5, 4)] * 3 + [(4, 3)] * 3
        towers = [name.split(".")[0] for name, _ in table]
        has_qk = strategy in ("anchor", "plain")
        assert ("q_tower" in towers, "k_tower" in towers) == (has_qk, has_qk)
        assert ("refine_tower" in towers) == refine
        assert towers.index("tcn") == len(towers) - 1 - (9 if refine else 0)
        assert dict(table)["tcn"] == (2, 3)

    def test_table_is_lazy(self):
        table = parameter_shapes(tiny_config(max_hop=2**32 - 1))   # the largest u32
        assert next(table) == ("v_tower.0", (3, 4))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = build_model(skeleton_preset("chain_4"),
                            tiny_config(strategy="anchor", anchor_count=2))
        path = tmp_path / "model.pckp"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.skeleton == model.skeleton
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a.values, b.values)
        x = np.random.default_rng(8).normal(size=(1, 3, 4, 3))
        assert np.array_equal(model.predict(x), loaded.predict(x))

    def test_save_is_deterministic(self, tmp_path):
        model = build_model(skeleton_preset("chain_4"), tiny_config())
        save_checkpoint(tmp_path / "a.pckp", model)
        save_checkpoint(tmp_path / "b.pckp", model)
        assert (tmp_path / "a.pckp").read_bytes() == (tmp_path / "b.pckp").read_bytes()

    def test_every_truncation_and_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.pckp"
        save_checkpoint(path, build_model(skeleton_preset("chain_4"), tiny_config()))
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(ValueError, match=r"truncated checkpoint at byte \d+"):
                load_checkpoint(path)
        path.write_bytes(blob + b"junk")
        with pytest.raises(ValueError, match=f"4 trailing bytes .* at byte {len(blob)}"):
            load_checkpoint(path)

    def test_header_holds_every_config_field(self):
        names = [name for name, _ in HEADER_FIELDS]
        assert sorted(names) == sorted(f.name for f in dataclasses.fields(ModelConfig))

    def test_repeated_block_rejected(self, tmp_path):
        path = tmp_path / "model.pckp"
        save_checkpoint(path, build_model(skeleton_preset("chain_4"), tiny_config()))
        blob = path.read_bytes()
        # v_tower.0 and v_tower.1 are both (3, 4): name the second block v_tower.0.
        path.write_bytes(blob.replace(b"v_tower.1", b"v_tower.0"))
        start = blob.index(b"v_tower.1") - 4
        with pytest.raises(ValueError, match=f"repeated parameter block 'v_tower.0' at byte {start}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("flag", [2, 0xFF])
    def test_refine_byte_must_be_0_or_1(self, tmp_path, flag):
        config = tiny_config()
        path = tmp_path / "model.pckp"
        save_checkpoint(path, build_model(skeleton_preset("chain_4"), config))
        blob = bytearray(path.read_bytes())
        # magic, version, V, T, K, L, D, strategy length and text, anchor_count
        offset = 25 + 4 + len(config.strategy) + 4
        assert blob[offset] == 1
        blob[offset] = flag
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"refine at byte {offset} is {flag}"):
            load_checkpoint(path)

    def test_corrupt_dimension_rejected_before_building(self, tmp_path):
        # Bytes 5-24 hold V, T, K, L and D; an unchecked corrupt value makes
        # the model allocate gigabytes or loop for minutes.
        path = tmp_path / "model.pckp"
        save_checkpoint(path, build_model(skeleton_preset("chain_4"), tiny_config()))
        blob = path.read_bytes()
        for offset in range(5, 25):
            for value in (0xFF, 0x7F):
                corrupt = bytearray(blob)
                corrupt[offset] = value
                path.write_bytes(corrupt)
                with pytest.raises(ValueError):
                    load_checkpoint(path)

    # sha256 of save_checkpoint output for freshly built models; the file
    # format and the seeded initialization must not drift.
    GOLDEN = {
        "chain4_anchor_ac2": (
            "chain_4", dict(strategy="anchor", anchor_count=2),
            "d2282d3a96a0bcabb1040f5155a7e0a7b95f9c4ae52b497bcda2af74bbcba8d0"),
        "chain4_plain": (
            "chain_4", dict(strategy="plain"),
            "8460f817e5c8832c0348f8251b3bcc3f117fa0ef1742ec9ce9d0cc5442c2d596"),
        "chain4_plain_ac2": (
            "chain_4", dict(strategy="plain", anchor_count=2),
            "557de7262a511c43c7d4a0b450f0118d523af4043d4c1f6742816b2ab5485ba7"),
        "chain8_pa": (
            "chain_8", dict(input_frames=10, output_frames=10, span=1, max_hop=1,
                            strategy="pseudo_autoregressive"),
            "546441989a4a0020fbcff47069883c371d9ed42748f9a3af088457fe2a89a1cc"),
        "h36m22_anchor": (
            "h36m22", dict(input_frames=10, output_frames=10, span=2, max_hop=3),
            "be361eea478e14c83686f4b6a04b0ad9c814f1cdc6a0ec75cec461ef6ee1d259"),
        "h36m22_none": (
            "h36m22", dict(input_frames=10, output_frames=10, span=2, max_hop=3,
                           strategy="none", refine=False),
            "88467067dd3e4a9a23e728fd41359c9b83b001a1c8f0e07229c512030d6ef676"),
    }

    @pytest.mark.parametrize("case", GOLDEN)
    def test_bytes_match_golden_digest(self, tmp_path, case):
        preset, fields, digest = self.GOLDEN[case]
        if preset == "chain_4":
            config = tiny_config(**fields)
        else:
            config = ModelConfig(**fields)
        path = tmp_path / "model.pckp"
        save_checkpoint(path, build_model(skeleton_preset(preset), config))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("field, value", [
        ("span", 0xFF),                   # span 255 >= max(T, K)
        ("value_schedule", 4),            # schedule (4, 4, 3)
        ("max_hop", 4),                   # D 4 > V - 1 = 3
    ])
    def test_config_error_names_checkpoint_header(self, tmp_path, field, value):
        config = tiny_config()
        path = tmp_path / "model.pckp"
        save_checkpoint(path, build_model(skeleton_preset("chain_4"), config))
        blob = bytearray(path.read_bytes())
        # Bytes 17-20 hold L and 21-24 D; the first value_schedule width
        # follows D, strategy, anchor_count, refine, seed and the width count.
        offset = {"span": 17, "max_hop": 21,
                  "value_schedule": 25 + 4 + len(config.strategy) + 4 + 1 + 8 + 4}[field]
        blob[offset] = value
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=rf"checkpoint header \(bytes 0–\d+\): {field}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("last_edge, error", [
        ((2, 9), "joint index 9 out of range [0, 4)"),
        ((2, 2), "self-loop or malformed edge {2}"),
        ((0, 2), "skeleton is disconnected: no path between joints 0 and 3"),
    ], ids=["out_of_range", "self_loop", "disconnected"])
    def test_bad_skeleton_edge_names_checkpoint_and_offset(self, tmp_path, last_edge, error):
        path = tmp_path / "model.pckp"
        save_checkpoint(path, build_model(skeleton_preset("chain_4"), tiny_config()))
        blob = path.read_bytes()
        # The edge count, then chain_4's edges in order; replace the last one.
        edges = struct.pack("<7I", 3, 0, 1, 1, 2, 2, 3)
        offset = blob.index(edges)
        path.write_bytes(blob.replace(edges, edges[:-8] + struct.pack("<II", *last_edge)))
        message = f"checkpoint {path}: skeleton edges at byte {offset}: {error}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    def test_corrupt_qk_width_rejected_before_building(self, tmp_path):
        # Byte 75 is the top byte of the second qk_schedule width: 0x7F
        # asks for q/k towers of width 2,130,706,436. Load in a child whose
        # address space is capped at 2 GiB, so an allocation fails there
        # rather than exhausting the machine.
        path = tmp_path / "model.pckp"
        save_checkpoint(path, build_model(skeleton_preset("chain_4"),
                                          tiny_config(strategy="anchor")))
        blob = bytearray(path.read_bytes())
        assert blob[72:76] == (4).to_bytes(4, "little")
        blob[75] = 0x7F
        path.write_bytes(blob)
        child = textwrap.dedent(f"""
            import resource, sys
            from posecast.model import load_checkpoint
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            try:
                load_checkpoint({str(path)!r})
            except Exception as exc:
                print(type(exc).__name__, exc)
        """)
        run = subprocess.run([sys.executable, "-c", child], capture_output=True,
                             text=True, timeout=60, env=child_env())
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("ValueError truncated checkpoint at byte"), run.stdout

    @staticmethod
    def eval_capped(path):
        """``posecast eval`` on ``path`` in a child whose address space is
        capped at 2 GiB, so an allocation fails there rather than exhausting
        the machine."""
        child = textwrap.dedent(f"""
            import resource, sys
            from posecast.cli import main
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            sys.exit(main(["eval", {str(path)!r}, "unread.mgps"]))
        """)
        return subprocess.run([sys.executable, "-c", child], capture_output=True,
                              text=True, timeout=60, env=child_env())

    def test_unallocatable_joint_count_names_header(self, tmp_path):
        # 99,999 chain edges let V=100,000 pass the edge count check; the
        # [V, V] hop distances would take 74.5 GiB.
        path = tmp_path / "model.pckp"
        save_checkpoint(path, build_model(skeleton_preset("chain_4"), tiny_config()))
        blob = bytearray(path.read_bytes())
        v = 100_000
        blob[5:9] = struct.pack("<I", v)
        chain = np.stack([np.arange(v - 1), np.arange(1, v)], axis=1).astype("<u4")
        path.write_bytes(bytes(blob).replace(struct.pack("<7I", 3, 0, 1, 1, 2, 2, 3),
                                             struct.pack("<I", v - 1) + chain.tobytes()))
        run = self.eval_capped(path)
        assert run.returncode == 2, run.stderr
        assert "configuration error: checkpoint header (bytes 0–" in run.stderr
        assert "V=100000, T=3, K=2, max_hop=1" in run.stderr

    def test_unallocatable_frame_count_names_header(self, tmp_path):
        # T=12,000 costs 96 KB of alignment weights, but each [T, T]
        # temporary of the frame band takes 1.1 GiB.
        config = tiny_config(input_frames=12_000, output_frames=1, strategy="none",
                             refine=False)
        params = {name: np.zeros(shape) for name, shape in parameter_shapes(config)}
        path = tmp_path / "model.pckp"
        save_checkpoint(path, SimpleNamespace(config=config, skeleton=skeleton_preset("chain_4"),
                                              joint_count=4, params=params))
        run = self.eval_capped(path)
        assert run.returncode == 2, run.stderr
        assert "configuration error: checkpoint header (bytes 0–" in run.stderr
        assert "V=4, T=12000, K=1, max_hop=1" in run.stderr

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pckp"
        path.write_bytes(b"XXXX" + b"\x01" + b"\x00" * 40)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


def test_same_seed_same_predictions():
    skeleton = skeleton_preset("chain_4")
    x = synth_kinematic(4, 8, 4, seed=1).frames[None, :3]
    a = build_model(skeleton, tiny_config(seed=42)).predict(x)
    b = build_model(skeleton, tiny_config(seed=42)).predict(x)
    assert np.array_equal(a, b)
    c = build_model(skeleton, tiny_config(seed=43)).predict(x)
    assert not np.array_equal(a, c)


def test_refine_starts_as_identity():
    # Zero-initialized final refine layer: refine and no-refine models with
    # the same seed agree before any training.
    skeleton = skeleton_preset("chain_4")
    x = np.random.default_rng(9).normal(size=(1, 3, 4, 3))
    with_refine = build_model(skeleton, tiny_config(refine=True)).predict(x)
    without = build_model(skeleton, tiny_config(refine=False)).predict(x)
    assert np.allclose(with_refine, without, atol=1e-15)


def test_build_model_writes_every_initial_value_in_table_order():
    # The structure is all zero; build_model draws each hop block from
    # default_rng(seed) in table order, sets tcn to 1/T and zeroes the
    # refine tower's last layer.
    skeleton = skeleton_preset("chain_4")
    config = tiny_config(strategy="anchor", max_hop=2, seed=11)
    assert not any(p.values.any() for p in pm.ForecastModel(skeleton, config).parameters())
    model = build_model(skeleton, config)
    last = model.refine_tower.layers[-1].weight.values
    rng = np.random.default_rng(config.seed)
    for name, shape in parameter_shapes(config):
        block = model.params[name]
        if name == "tcn":
            assert np.array_equal(block, np.full(shape, 1.0 / config.input_frames))
            continue
        draw = pm.glorot(rng, shape)
        zeroed = np.shares_memory(block, last)
        assert np.array_equal(block, np.zeros(shape) if zeroed else draw), name


def test_load_checkpoint_makes_no_draws(tmp_path, monkeypatch):
    model = build_model(skeleton_preset("chain_4"), tiny_config(strategy="anchor"))
    save_checkpoint(tmp_path / "model.pckp", model)

    def refuse(rng, shape):
        raise AssertionError("load_checkpoint drew an initial value")

    monkeypatch.setattr(pm, "glorot", refuse)
    loaded = load_checkpoint(tmp_path / "model.pckp")
    x = np.random.default_rng(4).normal(size=(2, 3, 4, 3))
    assert loaded.predict(x).tobytes() == model.predict(x).tobytes()


class TestWeightStacks:
    """Each layer keeps its D+1 weights in one trainable tensor, and the
    named checkpoint blocks are views of it, so whatever writes a block or
    the tensor in place writes what the forward pass multiplies by."""

    def setup_method(self):
        self.skeleton = skeleton_preset("chain_4")
        # (3, 4, 3) runs one hops-first and one weights-first layer per tower.
        self.model = build_model(self.skeleton, tiny_config(strategy="anchor"))
        rng = np.random.default_rng(17)
        self.x = rng.normal(size=(2, 3, 4, 3))
        self.y = rng.normal(size=(2, 2, 4, 3))

    def rebuilt(self, model):
        """A newly built model holding copies of ``model``'s values."""
        clone = build_model(self.skeleton, model.config)
        for name, block in clone.params.items():
            block[...] = model.params[name]
        return clone

    def adam_step(self):
        params = self.model.parameters()
        mpjpe_loss(self.model.forward(self.x).predictions, self.y).backward()
        ad.adam_step(params, ad.AdamState(params), 1e-2)

    def test_every_weight_is_a_view_of_its_layer_stack(self):
        m = self.model
        layers = [layer for tower in (m.v_tower, m.q_tower, m.k_tower, m.refine_tower)
                  for layer in tower.layers]
        widens = [layer.weight.shape[0] == len(layer.hops) for layer in layers]
        assert set(widens) == {True, False}
        blocks = {id(block): name for name, block in m.params.items()}
        seen = []
        for layer in layers:
            c_in, c_out = layer.hops[0].shape
            assert layer.weight.shape == ad.weight_layout(len(layer.hops), c_in, c_out)
            for hop, view in zip(layer.hops, ad.hop_views(layer.weight.values, c_in, c_out)):
                assert hop.base is layer.weight.values
                assert hop.shape == view.shape and hop.strides == view.strides
                assert hop.__array_interface__["data"] == view.__array_interface__["data"]
                seen.append(blocks[id(hop)])
        assert sorted(seen) == sorted(name for name in m.params if name != "tcn")
        assert m.params["tcn"] is m.tcn.values

    @pytest.mark.parametrize("skeleton, layers", [("h36m22", 18), ("chain_8", 8)])
    def test_one_trainable_tensor_per_layer_and_tcn(self, skeleton, layers):
        # The benchmark's models: 73 and 17 blocks.
        m = benchmark_model(skeleton)
        params = m.parameters()
        towers = [t for t in (m.v_tower, m.q_tower, m.k_tower, m.refine_tower) if t]
        assert len(params) == layers + 1 == sum(len(t.layers) for t in towers) + 1
        assert len(m.params) == (layers * (m.config.max_hop + 1) + 1)
        assert len({id(p) for p in params}) == len(params)
        assert sum(p.values.size for p in params) == sum(b.size for b in m.params.values())
        for name, block in m.params.items():
            owners = [p for p in params if np.shares_memory(block, p.values)]
            assert len(owners) == 1, name
    def test_adam_step_updates_the_stacks(self):
        before = self.model.predict(self.x)
        self.adam_step()
        after = self.model.predict(self.x)
        assert not np.array_equal(after, before)
        assert after.tobytes() == self.rebuilt(self.model).predict(self.x).tobytes()

    def test_loaded_values_fill_the_stacks(self, tmp_path):
        self.adam_step()
        save_checkpoint(tmp_path / "model.pckp", self.model)
        loaded = load_checkpoint(tmp_path / "model.pckp")
        got = loaded.predict(self.x)
        assert got.tobytes() == self.model.predict(self.x).tobytes()
        assert got.tobytes() == self.rebuilt(loaded).predict(self.x).tobytes()
        assert not np.array_equal(got, build_model(self.skeleton, loaded.config).predict(self.x))

    def test_no_call_stacks_weights_or_hops(self, monkeypatch):
        windows = make_windows([synth_kinematic(4, 12, 4, seed=2)], t_in=3, k_out=2)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.stack called after the model was built")

        monkeypatch.setattr(np, "stack", refuse)
        self.model.predict(windows.inputs)
        train(self.model, windows,
              TrainConfig(epochs=1, batch_size=len(windows), lr_decay_epochs=()))


class TestGradientFlow:
    def setup_method(self):
        self.model = build_model(skeleton_preset("chain_4"),
                                 tiny_config(strategy="anchor", refine=True))
        rng = np.random.default_rng(11)
        self.x = rng.normal(size=(2, 3, 4, 3))
        self.y = rng.normal(size=(2, 2, 4, 3))

    def loss(self):
        return mpjpe_loss(self.model.forward(self.x).predictions, self.y)

    def parameter_grads(self):
        params = self.model.parameters()
        for p in params:
            p.grad = None
        self.loss().backward()
        return [p.grad.tobytes() for p in params]

    def test_predict_matches_forward_bitwise(self):
        out = self.model.forward(self.x).predictions.values
        assert self.model.predict(self.x).tobytes() == out.tobytes()

    def test_predict_runs_PREDICT_CHUNK_windows_at_a_time(self):
        n = ad.chunk_size(self.model.window_rows)
        x = np.random.default_rng(12).normal(size=(2 * n + 5, 3, 4, 3))
        chunks = [self.model.forward(x[i: i + n]).predictions.values for i in (0, n, 2 * n)]
        assert [len(c) for c in chunks] == [n, n, 5]
        assert self.model.predict(x).tobytes() == np.concatenate(chunks).tobytes()

    def test_input_liveness_leaves_parameter_grads_bit_identical(self, monkeypatch):
        # A constant input skips the input-side gradient of every first
        # layer matmul; a parameter input computes it. Neither may change
        # a parameter gradient.
        as_constant = self.parameter_grads()
        inputs = []
        real_constant = ad.constant

        def input_as_parameter(values):
            if values is not self.x:
                return real_constant(values)
            inputs.append(ad.parameter(values))
            return inputs[-1]

        monkeypatch.setattr(ad, "constant", input_as_parameter)
        as_parameter = self.parameter_grads()
        assert as_parameter == as_constant
        assert len(inputs) == 1 and inputs[0].grad.shape == self.x.shape
        assert np.abs(inputs[0].grad).max() > 0.0

    def test_backward_releases_graph_and_keeps_parameter_grads(self):
        loss = self.loss()
        nodes = [n for n in ad._toposort(loss) if n._backward is not None]
        assert len(nodes) > 20
        loss.backward()
        for node in nodes:
            assert node.grad is None and node._inputs == ()
        for p in self.model.parameters():
            assert p.grad is not None and p.grad.shape == p.shape


BENCHMARK_MODELS = {  # the benchmark's two skeletons, T = K = 10
    "chain_8": dict(span=1, max_hop=1, strategy="pseudo_autoregressive"),
    "h36m22": dict(span=2, max_hop=3, strategy="anchor"),
}


def benchmark_model(skeleton):
    return build_model(skeleton_preset(skeleton), ModelConfig(
        input_frames=10, output_frames=10, refine=True, seed=0, **BENCHMARK_MODELS[skeleton]))


@pytest.fixture
def openblas(monkeypatch):
    """The OpenBLAS thread-count setter the import pinned the count with,
    the count back at one after the test, and the workers told there are
    two usable cores; skips where the import found no OpenBLAS to pin, as
    every call then runs the plain loop."""
    if ad._set_blas_threads is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread setter")
    monkeypatch.setattr(ad, "_usable_cores", lambda: 2)
    yield ad._set_blas_threads
    ad._set_blas_threads(1)


needs_memfd = pytest.mark.skipif(not hasattr(os, "memfd_create"),
                                 reason="chunks run in the plain loop here")


def pid_chunk(model, inputs, targets, preds, rows):
    """A chunk that writes the id of the process it runs on into its rows."""
    preds[rows] = os.getpid()


def failing_chunk(model, inputs, targets, preds, rows):
    """``predict``'s chunk, except that chunks 2 and 3 of a call raise."""
    i = rows.start // ad.chunk_size(model.window_rows)
    if i in (2, 3):
        raise DimensionError(f"chunk {i}")
    pm._predict_chunk(model, inputs, targets, preds, rows)


class TestChunkPool:
    @needs_memfd
    @pytest.mark.parametrize("skeleton", sorted(BENCHMARK_MODELS))
    def test_parallel_predict_is_bit_identical_to_serial(self, skeleton, openblas, monkeypatch):
        model = benchmark_model(skeleton)
        n = ad.chunk_size(model.window_rows)            # 16 on chain_8, 4 on h36m22
        x = np.random.default_rng(13).normal(size=(4 * n + 5, 10, model.joint_count, 3))
        forward, here = model.forward, []

        def spy(chunk):
            out = forward(chunk)
            assert out.predictions._backward is None        # each chunk under no_grad
            here.append(len(chunk))
            return out

        model.forward = spy
        parallel = {}
        for b in (1, n - 1, n, n + 1, 4 * n + 5):
            here.clear()
            parallel[b] = model.predict(x[-b:])
            chunks = -(-b // n)
            assert len(here) == -(-chunks // 2), b          # chunks 0, 2, 4, ... ran here
        # A worker ran the other chunks, in a predict session.
        assert workers._workers[0].session[0][0] is pm._predict_chunk
        # Each result is an array of its own: a call of the same size on
        # other windows leaves it alone.
        model.predict(x[::-1])
        monkeypatch.setattr(ad, "_usable_cores", lambda: 1)
        for b, out in parallel.items():
            assert model.predict(x[-b:]).tobytes() == out.tobytes(), b

    @needs_memfd
    def test_a_raising_chunk_waits_for_the_others(self, openblas):
        # This process's chunk 0 raises. The call collects the worker's
        # chunk first, so the worker owes nothing and serves the next call.
        model = benchmark_model("h36m22")
        x = np.random.default_rng(16).normal(size=(9, 10, 22, 3))      # three chunks
        expected = model.predict(x).tobytes()
        crew = list(workers._workers)

        def failing(chunk):
            raise DimensionError("chunk 0")

        model.forward = failing
        with pytest.raises(DimensionError, match="chunk 0"):
            model.predict(x)
        assert workers._workers == crew and all(w.owed == 0 for w in crew)
        del model.forward
        assert model.predict(x).tobytes() == expected

    @needs_memfd
    def test_the_first_raising_slice_raises(self, openblas, monkeypatch):
        # Chunk 2 raises here and chunk 3 on the worker: chunk 2's error is
        # raised once the worker's is collected, and the next call runs.
        model = benchmark_model("h36m22")
        x = np.random.default_rng(17).normal(size=(20, 10, 22, 3))     # five chunks
        with pytest.raises(DimensionError, match="chunk 2"):
            workers.Session(model, failing_chunk, len(x)).step(x, None)
        assert all(w.owed == 0 for w in workers._workers)
        after = model.predict(x).tobytes()
        monkeypatch.setattr(ad, "_usable_cores", lambda: 1)
        assert model.predict(x).tobytes() == after

    @needs_memfd
    def test_slice_i_runs_on_process_i_mod_p(self, openblas, monkeypatch):
        # Four usable cores: this process runs chunks 0, 4, 8, ... and
        # three workers the rest, worker w chunks w, w + 4, ...
        monkeypatch.setattr(ad, "_usable_cores", lambda: 4)
        model = benchmark_model("chain_8")
        n = ad.chunk_size(model.window_rows)
        ran_on = workers.Session(model, pid_chunk, 40 * n).step(np.zeros((40 * n, 10, 8, 3)),
                                                                 None)
        pids = [os.getpid()] + [w.pid for w in workers._workers[:3]]
        assert len(set(pids)) == 4
        for i in range(40):
            assert (ran_on[i * n: (i + 1) * n] == pids[i % 4]).all(), i

    def test_no_thread_outlives_a_call(self, openblas, monkeypatch):
        # Chunks run on processes: predict and evaluate start no thread.
        model = benchmark_model("chain_8")
        n = ad.chunk_size(model.window_rows)
        windows = make_windows([synth_kinematic(8, 3 * n + 19, 8)], 10, 10)

        def refuse(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        model.predict(windows.inputs)
        evaluate(model, windows, [1, 10])

    def test_empty_batch_keeps_its_shape_and_checks_it(self):
        model = benchmark_model("chain_8")
        assert model.predict(np.zeros((0, 10, 8, 3))).shape == (0, 10, 8, 3)
        for shape in ((0, 9, 8, 3), (0, 10, 7, 3)):
            with pytest.raises(DimensionError, match="does not match"):
                model.predict(np.zeros(shape))

    def test_concurrent_callers_agree(self, openblas):
        # More callers than cores, switching threads every microsecond:
        # each call takes the workers or, while another call holds them,
        # runs the plain loop.
        model = benchmark_model("chain_8")
        n = ad.chunk_size(model.window_rows)
        x = np.random.default_rng(14).normal(size=(2 * n + 3, 10, 8, 3))
        expected = model.predict(x).tobytes()
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda: results.append(model.predict(x).tobytes()))
                       for _ in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [expected] * 4

    def test_single_chunk_starts_no_thread(self):
        # A call of one chunk runs in the plain loop and imports no workers.
        child = textwrap.dedent("""
            import sys, threading
            import numpy as np
            import posecast.cli
            from posecast import autodiff as ad
            from posecast import model as pm
            from posecast.data import make_windows, skeleton_preset, synth_kinematic
            from posecast.training import evaluate

            assert "concurrent.futures" not in sys.modules
            assert threading.active_count() == 1
            model = pm.build_model(skeleton_preset("chain_4"), pm.ModelConfig(
                input_frames=3, output_frames=2, span=1, max_hop=1,
                value_schedule=(3, 4, 3), qk_schedule=(3, 4, 3)))
            for b in (0, 1, ad.chunk_size(model.window_rows)):
                model.predict(np.zeros((b, 3, 4, 3)))
            evaluate(model, make_windows([synth_kinematic(4, 20, 8)], 3, 2), [1, 2])
            assert "concurrent.futures" not in sys.modules
            assert "posecast.workers" not in sys.modules
            assert threading.active_count() == 1
        """)
        run = subprocess.run([sys.executable, "-c", child], capture_output=True,
                             text=True, timeout=60, env=child_env())
        assert run.returncode == 0, run.stderr

    def test_forward_bytes_do_not_depend_on_blas_threads(self, openblas, monkeypatch):
        # The import pins OpenBLAS at one thread, but a caller may raise the
        # count; the serial loop must give the same bytes at two threads.
        monkeypatch.setattr(ad, "_usable_cores", lambda: 1)
        model = build_model(skeleton_preset("h36m22"), ModelConfig(
            input_frames=10, output_frames=10, span=2, max_hop=3, strategy="anchor"))
        x = np.random.default_rng(15).normal(size=(40, 10, 22, 3))
        digests = []
        for threads in (2, 1):
            openblas(threads)
            digests.append(hashlib.sha256(model.predict(x).tobytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_import_pins_openblas_to_one_thread(self):
        if ad._set_blas_threads is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread setter")
        child = textwrap.dedent("""
            import ctypes, glob, os
            import numpy as np

            libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
            lib = ctypes.CDLL(sorted(glob.glob(os.path.join(libs, "libscipy_openblas*")))[0])
            get = lib.scipy_openblas_get_num_threads64_
            get.argtypes, get.restype = (), ctypes.c_int
            import posecast
            print(get())
        """)
        env = dict(child_env(), OPENBLAS_NUM_THREADS="2")
        run = subprocess.run([sys.executable, "-c", child], capture_output=True,
                             text=True, timeout=60, env=env)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "1\n"
