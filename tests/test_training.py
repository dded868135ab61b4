import resource
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from posecast import autodiff as ad
from posecast.autodiff import CHUNK, DimensionError
from posecast.data import make_windows, skeleton_preset, synth_kinematic
from posecast.model import ModelConfig, build_model
from posecast.training import (
    NumericalError,
    TrainConfig,
    baseline_report,
    evaluate,
    mpjpe_loss,
    mpjpe_value,
    train,
    zero_velocity_baseline,
)

from conftest import child_env


def tiny_model(**overrides):
    base = dict(
        input_frames=4,
        output_frames=3,
        span=1,
        max_hop=1,
        strategy="pseudo_autoregressive",
        value_schedule=(3, 8, 3),
        qk_schedule=(3, 4, 3),
        seed=0,
    )
    base.update(overrides)
    return build_model(skeleton_preset("chain_5"), ModelConfig(**base))


def tiny_windows(n_frames=40, seed=0, noise=0.0):
    seq = synth_kinematic(5, n_frames, period=8, seed=seed, noise=noise)
    return make_windows([seq], t_in=4, k_out=3)


class TestLoss:
    def test_perfect_prediction_is_zero(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 3))
        assert mpjpe_loss(ad.constant(x), x).item() == 0.0

    def test_three_four_five_triangle(self):
        pred = np.zeros((1, 1, 1, 3))
        truth = np.array([3.0, 4.0, 0.0]).reshape(1, 1, 1, 3)
        assert mpjpe_loss(ad.constant(pred), truth).item() == pytest.approx(5.0)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(2, 3, 4, 3))
        truth = rng.normal(size=(2, 3, 4, 3))
        total = 0.0
        for b in range(2):
            for k in range(3):
                for v in range(4):
                    total += np.sqrt(((pred[b, k, v] - truth[b, k, v]) ** 2).sum())
        expected = total / (2 * 3 * 4)
        assert mpjpe_loss(ad.constant(pred), truth).item() == pytest.approx(expected, abs=1e-12)
        assert mpjpe_value(pred, truth) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mpjpe_loss(ad.constant(np.zeros((1, 2, 3, 3))), np.zeros((1, 3, 3, 3)))

    def test_translation_shifts_loss_by_exactly_delta(self):
        rng = np.random.default_rng(2)
        truth = rng.normal(size=(2, 3, 4, 3))
        shifted = truth + np.array([1.5, 0.0, 0.0])
        assert mpjpe_value(shifted, truth) == pytest.approx(1.5, abs=1e-12)


class TestTrainLoop:
    def test_lr_trace_follows_decay_schedule(self):
        model = tiny_model()
        windows = tiny_windows()
        config = TrainConfig(
            epochs=50, batch_size=16, lr_initial=0.1,
            lr_decay_epochs=(20, 35, 45), lr_decay_factor=0.1, seed=0,
        )
        log = train(model, windows, config)
        lrs = [rec.lr for rec in log]
        assert lrs[0] == pytest.approx(0.1)
        assert lrs[19] == pytest.approx(0.1)
        assert lrs[20] == pytest.approx(0.01)
        assert lrs[35] == pytest.approx(0.001)
        assert lrs[45] == pytest.approx(0.0001)
        assert len(set(lrs)) == 4

    def test_zero_epochs_leaves_parameters_unchanged(self):
        model = tiny_model()
        before = [p.values.copy() for p in model.parameters()]
        log = train(model, tiny_windows(), TrainConfig(epochs=0, lr_decay_epochs=()))
        assert log == []
        for b, p in zip(before, model.parameters()):
            assert np.array_equal(b, p.values)

    def test_empty_dataset_rejected(self):
        model = tiny_model()
        windows = make_windows([], t_in=4, k_out=3)
        with pytest.raises(ValueError):
            train(model, windows, TrainConfig(epochs=1, lr_decay_epochs=()))

    def test_single_step_decreases_loss(self):
        model = tiny_model(seed=3)
        windows = tiny_windows(seed=3)
        x, y = windows.inputs[:8], windows.targets[:8]
        before = mpjpe_value(model.predict(x), y)
        config = TrainConfig(epochs=1, batch_size=8, lr_initial=1e-4,
                             lr_decay_epochs=(), clip_norm=None, seed=0)
        train(model, windows[:8], config)
        after = mpjpe_value(model.predict(x), y)
        assert after < before

    def test_nonfinite_loss_aborts_with_diagnostics(self):
        model = tiny_model()
        model.tcn.values[0, 0] = np.nan
        with pytest.raises(NumericalError, match="epoch 0"):
            train(model, tiny_windows(), TrainConfig(epochs=1, lr_decay_epochs=()))

    def test_nonfinite_loss_names_parameter_blocks(self):
        model = tiny_model()
        model.tcn.values[0, 0] = np.nan
        with pytest.raises(NumericalError) as info:
            train(model, tiny_windows(), TrainConfig(epochs=1, lr_decay_epochs=()))
        message = str(info.value)
        assert "tcn=nan" in message
        assert "v_tower.0=" in message and "refine_tower.0=" in message

    def test_overfit_small_batch(self):
        model = tiny_model(seed=5)
        windows = tiny_windows(seed=5)[:8]
        config = TrainConfig(epochs=200, batch_size=8, lr_initial=0.02,
                             lr_decay_epochs=(), seed=0)
        log = train(model, windows, config)
        assert log[-1].mean_loss < 0.10 * log[0].mean_loss

    def test_decay_epochs_validated(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=10, lr_decay_epochs=(3, 3))
        with pytest.raises(ValueError):
            TrainConfig(epochs=10, lr_decay_epochs=(12,))

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)

    def test_negative_epochs_named(self):
        with pytest.raises(ValueError, match="epochs must be >= 0, got -3"):
            TrainConfig(epochs=-3, lr_decay_epochs=())
        assert TrainConfig(epochs=0).epochs == 0

    def test_fields_coerced(self):
        # YAML reads 1e-2 as a string; library and CLI callers get a float.
        config = TrainConfig(epochs="4", lr_initial="1e-2", lr_decay_epochs=[2])
        assert (config.epochs, config.lr_initial, config.lr_decay_epochs) == (4, 0.01, (2,))
        # An integral float is a whole number; the benchmark trains "forever".
        config = TrainConfig(epochs=10.0, batch_size=np.int64(8), lr_decay_epochs=[2])
        assert (config.epochs, config.batch_size) == (10, 8) and type(config.epochs) is int
        assert TrainConfig(epochs=2**62, lr_decay_epochs=()).epochs == 2**62

    @pytest.mark.parametrize("field", ["lr_initial", "lr_decay_factor", "clip_norm"])
    @pytest.mark.parametrize("value", [0, -1.0, float("nan"), "inf"])
    def test_rates_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


@pytest.mark.skipif(not ad._allocator_tuned, reason="glibc mallopt is unavailable")
def test_steady_state_steps_fault_in_no_fresh_pages():
    # The criterion-8 model and batch size. With the allocator left as it
    # is, each step's large temporaries are fresh mmapped pages: thousands
    # of minor faults per step.
    seq = synth_kinematic(8, frames=3 * 128 + 19, period=16, seed=0, amplitude=0.5)
    windows = make_windows([seq], t_in=10, k_out=10)
    model = build_model(skeleton_preset("chain_8"), ModelConfig(
        input_frames=10, output_frames=10, span=1, max_hop=1,
        strategy="pseudo_autoregressive", refine=True, seed=11))
    config = TrainConfig(epochs=1, batch_size=128, lr_decay_epochs=(), seed=0)
    train(model, windows, config)                   # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(model, windows, config)                   # three steps
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


@pytest.mark.skipif(not ad._allocator_tuned, reason="glibc mallopt is unavailable")
def test_steady_state_evaluates_fault_in_no_fresh_pages():
    # The benchmark's h36m22 model; several chunks, so the chunk pool runs
    # where it can, and its threads' heaps must be reused as well.
    seqs = [synth_kinematic(22, 8 + 19, period=15, seed=s) for s in range(8)]
    windows = make_windows(seqs, t_in=10, k_out=10)
    model = build_model(skeleton_preset("h36m22"), ModelConfig(
        input_frames=10, output_frames=10, span=2, max_hop=3, strategy="anchor", seed=0))
    horizons = list(range(1, 11))
    evaluate(model, windows, horizons)              # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        evaluate(model, windows, horizons)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


@pytest.mark.skipif(not ad._allocator_tuned, reason="glibc mallopt is unavailable")
def test_pooled_predict_after_training_reuses_freed_memory():
    # The pool's threads allocate from the heap that training left free,
    # not from fresh arenas of their own (14 MiB more resident here). The
    # child reads its resident size, as its peak starts at this process's.
    child = textwrap.dedent("""
        from posecast import autodiff as ad
        from posecast import model as pm
        from posecast.data import make_windows, skeleton_preset, synth_kinematic
        from posecast.training import TrainConfig, train

        ad._usable_cores = lambda: 2
        seqs = [synth_kinematic(22, 8 + 19, period=15, seed=s) for s in range(4)]
        windows = make_windows(seqs, t_in=10, k_out=10)
        model = pm.build_model(skeleton_preset("h36m22"), pm.ModelConfig(
            input_frames=10, output_frames=10, span=2, max_hop=3, strategy="anchor"))
        train(model, windows, TrainConfig(epochs=2, batch_size=32, lr_decay_epochs=()))

        def resident_pages():
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1])

        before = resident_pages()
        model.predict(windows.inputs)               # 32 windows, two chunks
        print(resident_pages() - before)
    """)
    run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         timeout=120, env=child_env())
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) * resource.getpagesize() < 4 << 20


class TestEvaluate:
    def test_copy_model_on_constant_data_is_exact(self):
        frames = np.ones((20, 5, 3)) * np.arange(5)[None, :, None]
        from posecast.data import PoseSequence

        seq = PoseSequence(frames=frames)
        windows = make_windows([seq], t_in=4, k_out=3)
        preds = zero_velocity_baseline(3).predict(windows.inputs)
        for h in (1, 2, 3):
            assert mpjpe_value(preds[:, h - 1], windows.targets[:, h - 1]) == 0.0

    def test_matches_loop_oracle(self):
        model = tiny_model()
        windows = tiny_windows()
        report = evaluate(model, windows, horizons=[1, 3])
        preds = model.predict(windows.inputs)
        for h in (1, 3):
            total = 0.0
            n = 0
            for i in range(len(windows)):
                for v in range(5):
                    total += np.linalg.norm(preds[i, h - 1, v] - windows.targets[i, h - 1, v])
                    n += 1
            assert report.horizons[h] == pytest.approx(total / n, abs=1e-12)

    @pytest.mark.parametrize("score, action", [
        (lambda w: evaluate(tiny_model(), w, [1]), "evaluate"),
        (lambda w: baseline_report(w, [1]), "score the baseline"),
    ])
    def test_empty_set_named(self, score, action):
        windows = make_windows([synth_kinematic(4, 5, 4)], 4, 3)
        with pytest.raises(ValueError, match=f"cannot {action} on an empty window set"):
            score(windows)

    def test_chunked_evaluation_matches_whole_batch(self):
        # More windows than one predict chunk, horizons in any order.
        model = tiny_model()
        windows = make_windows([synth_kinematic(5, 90, 8, seed=s) for s in range(2)], 4, 3)
        assert len(windows) > 2 * CHUNK
        preds = model.predict(windows.inputs)
        report = evaluate(model, windows, [3, 1, 2])
        baseline = baseline_report(windows, [2, 3])
        last = zero_velocity_baseline(3).predict(windows.inputs)
        for h in (1, 2, 3):
            assert report.horizons[h] == mpjpe_value(preds[:, h - 1], windows.targets[:, h - 1])
        for h in (2, 3):
            assert baseline.horizons[h] == mpjpe_value(last[:, h - 1], windows.targets[:, h - 1])

    def test_horizon_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate(tiny_model(), tiny_windows(), horizons=[4])
        with pytest.raises(ValueError, match="horizon 4 outside"):
            baseline_report(tiny_windows(), horizons=[4])

    def test_report_table_lists_horizons(self):
        report = evaluate(tiny_model(), tiny_windows(), horizons=[1, 2, 3])
        table = report.format_table()
        assert "1" in table and "3" in table and "model" in table


class TestZeroVelocityBaseline:
    def test_constant_input_zero_error(self):
        x = np.ones((3, 4, 5, 3))
        preds = zero_velocity_baseline(2).predict(x)
        assert np.array_equal(preds, np.ones((3, 2, 5, 3)))

    def test_linear_motion_error_grows_linearly(self):
        step = np.array([1.0, 2.0, 2.0])   # norm 3
        frames = np.arange(10)[:, None, None] * step[None, None, :]
        from posecast.data import PoseSequence

        windows = make_windows([PoseSequence(frames=frames)], t_in=4, k_out=3)
        preds = zero_velocity_baseline(3).predict(windows.inputs)
        for h in (1, 2, 3):
            err = mpjpe_value(preds[:, h - 1], windows.targets[:, h - 1])
            assert err == pytest.approx(3.0 * h, abs=1e-9)

    def test_baseline_report_monotone_for_drift(self):
        frames = np.arange(30)[:, None, None] * np.ones((1, 2, 3))
        from posecast.data import PoseSequence

        windows = make_windows([PoseSequence(frames=frames)], t_in=4, k_out=3)
        report = baseline_report(windows, horizons=[1, 3])
        assert report.horizons[1] <= report.horizons[3]
