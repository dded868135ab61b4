"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. The training-signal criterion (8) runs a full
50-epoch desk-scale training and takes a few minutes.
"""

import time

import numpy as np
import pytest
import yaml

from posecast import autodiff as ad
from posecast import cli, gradcheck
from posecast.attention import (
    anchor_combination,
    pseudo_autoregressive,
    score_matrix,
)
from posecast.data import make_windows, save_sequences, skeleton_preset, synth_kinematic
from posecast.graphs import SkeletonGraph, build_hop_partition, build_multigraph
from posecast.layers import GraphConvTower
from posecast.model import ModelConfig, build_model
from posecast.training import TrainConfig, baseline_report, evaluate, train

from test_graphs import floyd_warshall, random_connected_graph, raw_operators


def report(num, name, passed):
    print(f"[criterion {num:2d}] {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({name}) failed"


def chain(n):
    return SkeletonGraph(joint_count=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


def test_01_hop_partition_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    start = time.time()
    ok = True
    for _ in range(200):
        graph = random_connected_graph(rng, int(rng.integers(2, 13)))
        dist = floyd_warshall(graph)
        for max_hop in (1, 2, 3, 4):
            partition = build_hop_partition(graph, max_hop)
            for k, layer in enumerate(partition.layers):
                ok = ok and np.array_equal(layer, (dist == k).astype(float))
    elapsed = time.time() - start
    report(1, "hop partitions match Floyd-Warshall oracle", ok and elapsed < 10.0)


def test_02_five_frame_span_one_operators_are_block_tridiagonal():
    v, frames = 13, 5
    partition = build_hop_partition(chain(v), max_hop=2)
    mg = build_multigraph(partition, frame_count=frames, span=1)
    ok = True
    for raw, layer in zip(raw_operators(mg), partition.layers):
        for t1 in range(frames):
            for t2 in range(frames):
                block = raw[t1 * v:(t1 + 1) * v, t2 * v:(t2 + 1) * v]
                if abs(t1 - t2) > 1:
                    ok = ok and np.array_equal(block, np.zeros((v, v)))
                else:
                    ok = ok and np.array_equal(block, layer)
    report(2, "T=5 L=1 operators are block-tridiagonal", ok)


def test_03_gradient_suite_under_tolerance():
    start = time.time()
    results = gradcheck.run_suite(tolerance=1e-4)
    elapsed = time.time() - start
    for r in results:
        print(f"    {r.name:<20} max relative error {r.max_relative_error:.3e}")
    report(3, "all ops + end-to-end model pass finite-difference checks",
           all(r.passed for r in results) and elapsed < 60.0)


def test_04_prefix_sum_semantics():
    rng = np.random.default_rng(4)
    last = rng.normal(size=(2, 6, 3))
    zeros = ad.constant(np.zeros((2, 5, 6, 3)))
    out = pseudo_autoregressive(zeros, ad.constant(last)).values
    bit_exact = all(np.array_equal(out[:, i], last) for i in range(5))

    offsets = rng.normal(size=(2, 5, 6, 3))
    out = pseudo_autoregressive(ad.constant(offsets), ad.constant(last)).values
    telescoped = np.diff(out, axis=1)
    recovers = np.abs(telescoped - offsets[:, 1:]).max() < 1e-12
    first = np.abs((out[:, 0] - last) - offsets[:, 0]).max() < 1e-12
    report(4, "zero offsets copy last frame; telescoping recovers offsets",
           bit_exact and recovers and first)


def test_05_convex_combination_semantics():
    rng = np.random.default_rng(5)
    t, v = 8, 5
    q = ad.constant(rng.normal(size=(2, t, v, 3)))
    key = ad.constant(rng.normal(size=(2, t, v, 3)))
    anchors = rng.normal(size=(2, t, v, 3))
    mix = score_matrix(q, key)
    weights = mix.values
    rows_ok = np.abs(weights.sum(axis=-1) - 1.0).max() < 1e-9
    nonneg = (weights >= 0).all()
    out = anchor_combination(mix, ad.constant(anchors)).values
    lo = anchors.min(axis=1, keepdims=True)
    hi = anchors.max(axis=1, keepdims=True)
    bounded = (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()
    report(5, "mixing weights are stochastic; outputs stay in anchor box",
           rows_ok and nonneg and bounded)


def test_06_causal_masking_blocks_future_anchors():
    rng = np.random.default_rng(6)
    t, v = 7, 4
    q = ad.constant(rng.normal(size=(1, t, v, 3)))
    key = ad.constant(rng.normal(size=(1, t, v, 3)))
    anchors = rng.normal(size=(1, t, v, 3))
    mix = score_matrix(q, key)
    base = anchor_combination(mix, ad.constant(anchors)).values
    ok = True
    for k in range(1, t):
        bumped = anchors.copy()
        bumped[:, k] += 1e6
        out = anchor_combination(mix, ad.constant(bumped)).values
        ok = ok and np.array_equal(out[:, :k], base[:, :k])
    report(6, "perturbing anchors at k leaves frames i < k bit-identical", ok)


def test_07_receptive_field_is_layers_times_span():
    rng = np.random.default_rng(7)
    frames, span, v = 10, 1, 4
    graph = build_multigraph(build_hop_partition(chain(v), 1), frames, span)
    # Schedule (3, 6, 3) over 2 hop partitions: two weights per layer.
    shapes = [(3, 6), (3, 6), (6, 3), (6, 3)]
    tower = GraphConvTower([ad.parameter(None, rng=rng, shape=s) for s in shapes],
                           num_partitions=2)
    n_layers = len(tower.layers)

    x = rng.normal(size=(1, frames, v, 3))
    base4 = tower.forward(ad.constant(x), graph).values
    perturbed = x.copy()
    perturbed[:, -1] += 50.0
    out4 = tower.forward(ad.constant(perturbed), graph).values
    far = frames - 1 - n_layers * span
    unaffected = np.array_equal(out4[:, :far], base4[:, :far])
    affected = not np.array_equal(out4[:, far:], base4[:, far:])
    report(7, "frames beyond layers*span away are exactly unaffected",
           unaffected and affected)


@pytest.mark.slow
def test_08_training_learns_periodic_motion():
    start = time.time()
    seqs = [synth_kinematic(8, frames=700, period=16, seed=s, amplitude=0.5)
            for s in range(3)]
    windows = make_windows(seqs, t_in=10, k_out=10)
    assert len(windows) >= 2000
    config = ModelConfig(
        input_frames=10, output_frames=10, span=1, max_hop=1,
        strategy="pseudo_autoregressive", refine=True, seed=11,
    )
    model = build_model(skeleton_preset("chain_8"), config)
    log = train(model, windows, TrainConfig(
        epochs=50, batch_size=128, lr_initial=0.01,
        lr_decay_epochs=(20, 35, 45), lr_decay_factor=0.1, seed=0,
    ))
    elapsed = time.time() - start
    halved = log[-1].mean_loss < 0.5 * log[0].mean_loss
    model_err = evaluate(model, windows, [10]).horizons[10]
    base_err = baseline_report(windows, [10]).horizons[10]
    print(f"    epoch-1 loss {log[0].mean_loss:.4f}, final {log[-1].mean_loss:.4f}; "
          f"model@10 {model_err:.4f} vs baseline@10 {base_err:.4f}; {elapsed:.0f}s")
    report(8, "50-epoch run halves the loss and beats the copy-last baseline",
           halved and model_err < base_err and elapsed < 900.0)


def test_09_overfits_one_batch():
    seq = synth_kinematic(5, frames=40, period=8, seed=2, amplitude=0.5)
    windows = make_windows([seq], t_in=4, k_out=3)[:8]
    config = ModelConfig(
        input_frames=4, output_frames=3, span=1, max_hop=2,
        strategy="pseudo_autoregressive",
        value_schedule=(3, 16, 16, 3), qk_schedule=(3, 8, 3), seed=0,
    )
    model = build_model(skeleton_preset("chain_5"), config)
    log = train(model, windows, TrainConfig(
        epochs=500, batch_size=8, lr_initial=0.03,
        lr_decay_epochs=(350, 450), clip_norm=None, seed=0,
    ))
    ratio = log[-1].mean_loss / log[0].mean_loss
    print(f"    initial {log[0].mean_loss:.4f}, final {log[-1].mean_loss:.5f}, "
          f"ratio {ratio:.2%}")
    report(9, "one batch of 8 windows reaches < 2% of initial loss", ratio < 0.02)


def test_10_refinement_does_not_hurt():
    seqs = [synth_kinematic(6, frames=200, period=12, seed=s) for s in range(2)]
    windows = make_windows(seqs, t_in=6, k_out=6)

    def final_error(refine):
        config = ModelConfig(
            input_frames=6, output_frames=6, span=1, max_hop=1,
            strategy="anchor", refine=refine,
            value_schedule=(3, 16, 16, 3), qk_schedule=(3, 8, 8, 3), seed=5,
        )
        model = build_model(skeleton_preset("chain_6"), config)
        train(model, windows, TrainConfig(
            epochs=40, batch_size=64, lr_initial=0.02,
            lr_decay_epochs=(25, 35), seed=1,
        ))
        return evaluate(model, windows, [6]).horizons[6]

    with_refine = final_error(True)
    without = final_error(False)
    print(f"    refine {with_refine:.5f} vs no-refine {without:.5f}")
    report(10, "refine configuration is at least as good as no-refine",
           with_refine <= without)


def test_11_training_is_bit_deterministic(tmp_path):
    seqs = [synth_kinematic(4, frames=30, period=6, seed=s) for s in range(2)]
    dataset = tmp_path / "poses.mgps"
    save_sequences(dataset, seqs)
    config = {
        "seed": 3,
        "dataset": str(dataset),
        "skeleton": "chain_4",
        "model": {
            "input_frames": 4, "output_frames": 3, "span": 1, "max_hop": 1,
            "strategy": "anchor", "refine": True,
            "value_schedule": [3, 8, 3], "qk_schedule": [3, 4, 3],
        },
        "train": {"epochs": 4, "batch_size": 16, "lr_initial": 0.01,
                  "lr_decay_epochs": [3]},
        "horizons": [1, 3],
    }
    artifacts = []
    for run in ("a", "b"):
        config["output_dir"] = str(tmp_path / run)
        cfg_path = tmp_path / f"{run}.yaml"
        cfg_path.write_text(yaml.safe_dump(config))
        assert cli.main(["train", str(cfg_path)]) == 0
        artifacts.append((
            (tmp_path / run / "checkpoint.pckp").read_bytes(),
            (tmp_path / run / "train_log.jsonl").read_bytes(),
        ))
    report(11, "same config + seed gives bit-identical checkpoint and log",
           artifacts[0] == artifacts[1])
