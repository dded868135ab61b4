import hashlib
import os
import resource
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest

from posecast import autodiff as ad
from posecast import training, workers
from posecast.autodiff import DimensionError, adam_step
from posecast.data import make_windows, skeleton_preset, synth_kinematic
from posecast.model import ModelConfig, build_model, window_rows
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


class TestChunkedSteps:
    """Each step runs chunk_size(window_rows)-window micro-batches on the caller and the workers."""

    def test_step_loss_is_the_batch_mpjpe_taken_once_on_the_calling_thread(self, monkeypatch):
        # The benchmark reads each step's loss from the last mpjpe_loss
        # return and ends the step on adam_step; both hooks as it sets them.
        model = tiny_model(seed=2)
        n = ad.chunk_size(model.window_rows)
        windows = tiny_windows(n_frames=6 * n + 6, seed=2)
        config = TrainConfig(epochs=1, batch_size=3 * n, lr_decay_epochs=(), seed=4)
        order = np.random.default_rng(config.seed).permutation(len(windows))
        batches = [order[i: i + config.batch_size] for i in range(0, len(order), config.batch_size)]
        assert [len(b) for b in batches] == [3 * n, 3 * n]
        calls, steps = [], []

        def capture_loss(fn):
            def wrapped(*args, **kwargs):
                calls.append(("loss", threading.current_thread(), fn(*args, **kwargs)))
                return calls[-1][2]
            return wrapped

        def end_of_step(fn):
            def wrapped(*args, **kwargs):
                calls.append(("adam", threading.current_thread(), None))
                inputs, targets = windows.batch(batches[len(steps)])
                steps.append((calls[-2][2].item(), mpjpe_value(model.predict(inputs), targets)))
                fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(training, "mpjpe_loss", capture_loss(training.mpjpe_loss))
        monkeypatch.setattr(training, "adam_step", end_of_step(training.adam_step))
        train(model, windows, config)
        assert [kind for kind, _, _ in calls] == ["loss", "adam"] * 2
        assert all(thread is threading.main_thread() for _, thread, _ in calls)
        for captured, pre_step in steps:
            assert captured == pytest.approx(pre_step, rel=0, abs=1e-12)

    def test_step_gradient_is_the_whole_batch_gradient(self, monkeypatch):
        # Two steps: the second folds its chunks into the first step's arrays.
        model = tiny_model(seed=6)
        n = ad.chunk_size(model.window_rows)
        windows = tiny_windows(n_frames=2 * n + 14, seed=6)
        config = TrainConfig(epochs=2, batch_size=len(windows), clip_norm=None,
                             lr_decay_epochs=(), seed=0)
        assert 2 * n < len(windows) < 3 * n
        params = model.parameters()
        arrays, seen, expected = [], [], []

        def step(ps, state, lr):
            arrays.append([p.grad for p in ps])
            seen.append([p.grad.copy() for p in ps])
            expected.append(ad.gradients(
                mpjpe_loss(model.forward(windows.inputs).predictions, windows.targets), ps))
            adam_step(ps, state, lr)

        monkeypatch.setattr(training, "adam_step", step)
        train(model, windows, config)
        assert len(seen) == 2
        for first, second in zip(*arrays, strict=True):
            assert second is first
        for got_step, want_step in zip(seen, expected):
            for got, want in zip(got_step, want_step, strict=True):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_a_step_holds_about_two_chunks_gradients(self, monkeypatch):
        # The benchmark's h36m22 anchor model, one step of 4 chunks and one
        # of 16, on the plain loop so the peaks do not hang on thread
        # timing. Each chunk's gradient set (60,388 floats, 483 KB) is
        # folded as it finishes; kept until the step's end, the 12 more
        # sets took the 16-chunk peak 13.8 sets above the 4-chunk one.
        # The step's own inputs, targets and predictions grow with the
        # batch, by 1.57 sets here.
        monkeypatch.setattr(ad, "_usable_cores", lambda: 1)
        model = build_model(skeleton_preset("h36m22"), ModelConfig(
            input_frames=10, output_frames=10, span=2, max_hop=3, strategy="anchor",
            refine=True, seed=0))
        n = ad.chunk_size(model.window_rows)
        windows = make_windows([synth_kinematic(22, 16 * n + 19, period=15, seed=0)], 10, 10)
        grad_set = sum(p.values.nbytes for p in model.parameters())
        assert (n, len(windows), grad_set) == (4, 16 * n, 60_388 * 8)

        def step_peak(chunks):
            w = windows[:chunks * n]
            config = TrainConfig(epochs=1, batch_size=len(w), lr_decay_epochs=())
            train(model, w, config)                 # warm-up
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                train(model, w, config)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        batch_arrays = 3 * 12 * n * (10 * 22 * 3 * 8)     # inputs, targets, preds
        grown = step_peak(16) - step_peak(4) - batch_arrays
        assert grown < grad_set, f"{grown / grad_set:.2f} gradient sets more"

    def test_trained_parameters_do_not_depend_on_blas_threads(self):
        # Two Adam steps on each benchmark skeleton, at one chunk (B = 2, the
        # plain loop; B = 7 on chain_8) and at several (B = 7 on h36m22, two;
        # B = 42, three on chain_8, eleven on h36m22), in processes started
        # with one and with two OpenBLAS threads. The import pins one
        # thread: at two, the weight-gradient contractions of 2- to 4-window
        # h36m22 chunks (440 to 880 rows) sum in another order.
        child = textwrap.dedent("""
            import hashlib
            from posecast import model as pm
            from posecast.data import make_windows, skeleton_preset, synth_kinematic
            from posecast.training import TrainConfig, train

            for skeleton, v, kw in (
                    ("h36m22", 22, dict(span=2, max_hop=3, strategy="anchor")),
                    ("chain_8", 8, dict(span=1, max_hop=1, strategy="pseudo_autoregressive"))):
                seqs = [synth_kinematic(v, 26, period=15, seed=s) for s in range(6)]
                windows = make_windows(seqs, t_in=10, k_out=10)
                for b in (2, 7, 42):
                    model = pm.build_model(skeleton_preset(skeleton), pm.ModelConfig(
                        input_frames=10, output_frames=10, seed=0, **kw))
                    train(model, windows[:b], TrainConfig(epochs=2, batch_size=b,
                                                          lr_decay_epochs=()))
                    params = b"".join(p.values.tobytes() for p in model.parameters())
                    print(skeleton, b, hashlib.sha256(params).hexdigest())
        """)
        digests = []
        for threads in ("1", "2"):
            env = dict(child_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            run = subprocess.run([sys.executable, "-c", child], capture_output=True,
                                 text=True, timeout=120, env=env)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.splitlines())
        assert len(digests[0]) == 6 and digests[0] == digests[1]

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("strategy, anchor_count", [
        ("pseudo_autoregressive", None), ("anchor", None), ("anchor", 2),
        ("plain", None), ("none", None)])
    def test_the_loss_reaches_every_parameter(self, strategy, anchor_count, refine):
        # train sums every parameter's chunk gradients with no check for one
        # that the loss does not reach.
        model = build_model(skeleton_preset("chain_4"), ModelConfig(
            input_frames=3, output_frames=2, span=1, max_hop=1, strategy=strategy,
            anchor_count=anchor_count, refine=refine, value_schedule=(3, 4, 3),
            qk_schedule=(3, 4, 3), seed=0))
        rng = np.random.default_rng(19)
        x, y = rng.normal(size=(2, 3, 4, 3)), rng.normal(size=(2, 2, 4, 3))
        params = model.parameters()
        grads = ad.gradients(mpjpe_loss(model.forward(x).predictions, y), params)
        for p, g in zip(params, grads, strict=True):
            assert isinstance(g, np.ndarray) and g.shape == p.shape

    def test_an_h36m22_training_chunk_peaks_under_6_5_mib(self):
        # The benchmark's h36m22 anchor model, one chunk of the rule's size:
        # forward, then its gradients. 16-window chunks peaked at 22.3 MiB,
        # 8-window ones at 11.2 MiB.
        model = build_model(skeleton_preset("h36m22"), ModelConfig(
            input_frames=10, output_frames=10, span=2, max_hop=3, strategy="anchor",
            refine=True, seed=0))
        n = ad.chunk_size(model.window_rows)
        assert n == 4
        x, y = np.random.default_rng(18).normal(size=(2, n, 10, 22, 3))
        params = model.parameters()

        def chunk():
            total, _ = training._error_sum(model.forward(x).predictions, y)
            return ad.gradients(ad.mul(total, ad.constant(1.0 / (n * 10 * 22))), params)

        chunk()                                         # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = chunk()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(g is not None for g in grads)
        assert peak < 6.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


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
    # The benchmark's h36m22 model; several chunks, so the workers run
    # where they can, and this process's share must reuse its pages too.
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
    # A predict of two chunks allocates from the heap that training left
    # free and writes the shared region that training faulted in. The
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


BENCHMARK_MODELS = {  # the benchmark's two skeletons, T = K = 10
    "chain_8": (8, dict(span=1, max_hop=1, strategy="pseudo_autoregressive")),
    "h36m22": (22, dict(span=2, max_hop=3, strategy="anchor")),
}

# sha256 of the parameters after two Adam steps on 42 windows' first B
# (the cases of TestTrainingWorkers), as the threaded training path of
# the commit before the workers trained them on a 2-core Xeon with
# numpy 2.4.6 and its bundled OpenBLAS 0.3.31.
GOLDEN_TRAINED = {
    ("chain_8", 32): "b638d312e6025c02cda6e8664e7699c0d9ff6b2792946fa0e901cb96704143b6",
    ("chain_8", 42): "1f95eee11dbe857e39bab8d39d51c2019342d8c27d36a7bc373612082d9eb787",
    ("h36m22", 32): "90ec139179f08d0dd75ec27ceaf3d1aa922c3536084d26ef0f813be8553dbe33",
    ("h36m22", 42): "63a6466a72e35f26e80151f0cd2fbaf92a53c553ea352233779f6c7ced699d23",
}

# A child's preamble: two usable cores, so that training and predict fork
# a worker; ``trained(b)`` trains the h36m22 benchmark model for two Adam
# steps on the first b of 42 windows and returns the sha256 of its
# parameters, ``predicted(b)`` the sha256 of its initial predictions for
# those windows, and ``childless()`` whether the process has no child,
# running or unreaped.
WORKER_CHILD = textwrap.dedent("""
    import hashlib, os, signal, sys, time
    from posecast import autodiff as ad
    from posecast import model as pm
    from posecast import workers
    from posecast.data import make_windows, skeleton_preset, synth_kinematic
    from posecast.training import TrainConfig, train

    ad._usable_cores = lambda: 2
    windows = make_windows([synth_kinematic(22, 26, period=15, seed=s) for s in range(6)],
                           t_in=10, k_out=10)

    def benchmark_model():
        return pm.build_model(skeleton_preset("h36m22"), pm.ModelConfig(
            input_frames=10, output_frames=10, span=2, max_hop=3, strategy="anchor",
            refine=True, seed=0))

    def trained(b):
        model = benchmark_model()
        train(model, windows[:b], TrainConfig(epochs=2, batch_size=b, lr_decay_epochs=()))
        return hashlib.sha256(b"".join(p.values.tobytes() for p in model.parameters())).hexdigest()

    def predicted(b):
        return hashlib.sha256(benchmark_model().predict(windows.inputs[:b]).tobytes()).hexdigest()

    def pids():
        return [w.pid for w in workers._workers]

    def childless():
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        return False
""")


def run_worker_child(body, timeout=120):
    """Run WORKER_CHILD then ``body`` in a fresh process; returns its stdout lines."""
    run = subprocess.run([sys.executable, "-c", WORKER_CHILD + textwrap.dedent(body)],
                         capture_output=True, text=True, timeout=timeout, env=child_env())
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


@pytest.mark.skipif(ad._set_blas_threads is None or not hasattr(os, "memfd_create"),
                    reason="training runs the plain loop here")
class TestTrainingWorkers:
    """Each step's chunk c runs on process c mod P: the caller and P - 1
    forked workers, with the plain loop's bytes."""

    @pytest.mark.parametrize("b", [2, 7, 32, 42])
    @pytest.mark.parametrize("skeleton", sorted(BENCHMARK_MODELS))
    def test_workers_train_the_plain_loops_bytes(self, monkeypatch, skeleton, b):
        v, kw = BENCHMARK_MODELS[skeleton]
        windows = make_windows([synth_kinematic(v, 26, period=15, seed=s) for s in range(6)],
                               t_in=10, k_out=10)
        assert len(windows) == 42

        def trained(cores):
            monkeypatch.setattr(ad, "_usable_cores", lambda: cores)
            model = build_model(skeleton_preset(skeleton), ModelConfig(
                input_frames=10, output_frames=10, refine=True, seed=0, **kw))
            train(model, windows[:b], TrainConfig(epochs=2, batch_size=b, lr_decay_epochs=()))
            return [(p.values.tobytes(), p.grad.tobytes()) for p in model.parameters()]

        with_workers = trained(2)
        if b > ad.chunk_size(window_rows(10, 10, v)):
            assert workers._workers, "a step of several chunks forked no worker"
        assert with_workers == trained(1)
        digest = hashlib.sha256(b"".join(values for values, _ in with_workers)).hexdigest()
        assert GOLDEN_TRAINED.get((skeleton, b), digest) == digest

    def test_more_workers_than_cores_and_concurrent_callers_train_the_same_bytes(
            self, monkeypatch):
        # Three workers on two cores; then four threads training at once,
        # switching every microsecond: each step takes the workers or,
        # while another thread's step holds them, runs the plain loop.
        windows = make_windows([synth_kinematic(22, 26, period=15, seed=s) for s in range(6)],
                               t_in=10, k_out=10)

        def trained():
            model = build_model(skeleton_preset("h36m22"), ModelConfig(
                input_frames=10, output_frames=10, span=2, max_hop=3, strategy="anchor",
                refine=True, seed=0))
            train(model, windows[:42], TrainConfig(epochs=2, batch_size=42,
                                                   lr_decay_epochs=()))
            params = b"".join(p.values.tobytes() for p in model.parameters())
            return hashlib.sha256(params).hexdigest()

        monkeypatch.setattr(ad, "_usable_cores", lambda: 4)
        assert trained() == GOLDEN_TRAINED["h36m22", 42]
        assert len(workers._workers) == 3
        monkeypatch.setattr(ad, "_usable_cores", lambda: 2)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda: results.append(trained()))
                       for _ in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [GOLDEN_TRAINED["h36m22", 42]] * 4

    def test_an_exiting_process_leaves_no_worker_behind(self):
        out = run_worker_child("""
            trained(32)
            print(*pids())
        """)
        pids = [int(pid) for pid in out[-1].split()]
        assert len(pids) == 1
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_a_killed_worker_fails_one_call_and_the_next_forks_another(self):
        # A worker killed between two training calls, then between two predicts.
        out = run_worker_child("""
            for work in (trained, predicted):
                ad._usable_cores = lambda: 2
                first = work(32)
                [pid] = pids()
                os.kill(pid, signal.SIGKILL)
                try:
                    work(32)
                except RuntimeError as exc:
                    print(exc)
                print(work(32) == first, pid not in pids(), len(pids()))
                ad._usable_cores = lambda: 1
                print(work(32) == first)
        """)
        assert len(out) == 6
        for error, rest in ((out[0], out[1:3]), (out[3], out[4:])):
            pid = error.split()[2]
            assert error == f"chunk worker {pid} was killed by signal 9 (SIGKILL)"
            assert rest == ["True True 1", "True"]

    def test_a_chunk_raising_in_a_worker_raises_its_error_in_the_caller(self):
        # The first worker's first chunk raises; then the caller's second
        # chunk of a step raises KeyboardInterrupt. Each call raises its
        # error and kills and reaps its worker, and the next call forks a
        # new one, which trains the plain loop's bytes. Whether a worker
        # raises is fixed at its fork by the caller's ``armed``, which the
        # caller clears once the first worker has raised.
        out = run_worker_child("""
            from posecast.autodiff import DimensionError

            caller, armed, countdown = os.getpid(), [True], []
            forward = pm.ForecastModel.forward

            def failing(self, x):
                if os.getpid() != caller and armed:
                    raise DimensionError(f"a chunk of {len(x)} windows failed")
                if os.getpid() == caller and countdown and countdown.pop() == 1:
                    raise KeyboardInterrupt("interrupted")
                return forward(self, x)

            pm.ForecastModel.forward = failing      # before the worker is forked
            for interrupt in ([], [1, 2]):
                countdown += interrupt
                try:
                    trained(32)
                except (DimensionError, KeyboardInterrupt) as exc:
                    print(type(exc).__name__, exc, pids(), childless())
                armed.clear()
            print(trained(32), len(pids()))
        """)
        assert out == ["DimensionError a chunk of 4 windows failed [] True",
                       "KeyboardInterrupt interrupted [] True",
                       f"{GOLDEN_TRAINED['h36m22', 32]} 1"]

    def test_an_error_that_pickles_but_does_not_load_is_raised_by_name(self):
        # The worker's chunk raises an exception whose pickle fails to load.
        # The caller raises a RuntimeError naming it and discards the
        # worker, and the next call forks a new one that predicts the plain
        # loop's bytes.
        out = run_worker_child("""
            class Odd(Exception):
                def __init__(self, what, c):
                    super().__init__(f"{what} {c}")

            caller = os.getpid()

            def odd_chunk(model, inputs, targets, preds, rows):
                if os.getpid() != caller:
                    raise Odd("chunk", rows.start)
                pm._predict_chunk(model, inputs, targets, preds, rows)

            model, x = benchmark_model(), windows.inputs[:8]       # two chunks
            spread, crew = model.predict(x), pids()
            try:
                workers.step(model, odd_chunk, x)
            except RuntimeError as exc:
                print(exc)
            print(len(crew), pids(), childless())
            print(model.predict(x).tobytes() == spread.tobytes(), len(pids()), pids() != crew)
            ad._usable_cores = lambda: 1
            print(model.predict(x).tobytes() == spread.tobytes())
        """)
        assert out == ["Odd: chunk 4", "1 [] True", "True 1 True", "True"]

    def test_a_raising_step_does_not_wait_for_the_workers_chunks(self):
        # The caller's chunk 0 raises while the worker sleeps 30 s in
        # chunk 1: the step raises within 5 s, having killed the worker.
        out = run_worker_child("""
            from posecast.autodiff import DimensionError

            caller = os.getpid()

            def sleepy_chunk(model, inputs, targets, preds, rows):
                if os.getpid() != caller:
                    time.sleep(30)
                raise DimensionError(f"chunk at row {rows.start}")

            model, x = benchmark_model(), windows.inputs[:8]       # two chunks
            start = time.monotonic()
            try:
                workers.step(model, sleepy_chunk, x)
            except DimensionError as exc:
                print(exc, time.monotonic() - start < 5, pids(), childless())
        """, timeout=20)
        assert out == ["chunk at row 0 True [] True"]

    def test_a_step_message_the_worker_cannot_load_is_raised_by_name(self):
        # A chunk function defined after the worker was forked is not in
        # the worker's __main__: the caller raises the worker's
        # AttributeError naming it, and the retry forks a worker that has
        # it and predicts the plain loop's bytes.
        out = run_worker_child("""
            model, x = benchmark_model(), windows.inputs[:8]       # two chunks
            spread, crew = model.predict(x), pids()

            def late_chunk(model, inputs, targets, preds, rows):
                pm._predict_chunk(model, inputs, targets, preds, rows)

            try:
                workers.step(model, late_chunk, x)
            except AttributeError as exc:
                print(exc)
            print(len(crew), pids(), childless())
            retry = workers.step(model, late_chunk, x)
            print(retry.tobytes() == spread.tobytes(), len(pids()), pids() != crew)
            ad._usable_cores = lambda: 1
            print(model.predict(x).tobytes() == spread.tobytes())
        """)
        assert out[0].startswith("Can't get attribute 'late_chunk' on <module '__main__'")
        assert out[1:] == ["1 [] True", "True 1 True", "True"]

    def test_a_live_thread_that_keeps_steps_serial_warns_once(self):
        # A daemon thread started before the first step of several chunks:
        # no worker can be forked, so every step runs the plain loop, and
        # the first one issues the one RuntimeWarning of the process.
        out = run_worker_child("""
            import threading, warnings

            threading.Thread(target=threading.Event().wait, daemon=True).start()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = predicted(8)
                second, third = predicted(8), trained(8)
            print(len(caught), caught[0].category.__name__, pids())
            ad._usable_cores = lambda: 1
            print(predicted(8) == first == second, trained(8) == third)
        """)
        assert out == ["1 RuntimeWarning []", "True True"]

    def test_a_child_forked_after_training_trains_with_a_worker_of_its_own(self):
        # A child forked after training trains, and one forked after a
        # predict predicts, with a worker of its own.
        out = run_worker_child("""
            for work in (trained, predicted):
                first, parent_workers = work(32), pids()
                child = os.fork()
                if child == 0:
                    ok = pids() == [] and work(32) == first and len(pids()) == 1
                    ok = ok and pids() != parent_workers
                    workers.shutdown()          # os._exit skips atexit
                    os._exit(0 if ok else 1)
                status = os.waitstatus_to_exitcode(os.waitpid(child, 0)[1])
                print(status, pids() == parent_workers, work(32) == first)
        """)
        assert out == ["0 True True"] * 2


class TestEvaluate:
    def test_predicts_one_block_at_a_time(self):
        # The copy-last baseline, which has no graph, gets blocks of
        # EVAL_CHUNKS chunks of the windows' rows too.
        n = training.EVAL_CHUNKS * ad.chunk_size(window_rows(4, 3, 5))
        windows = tiny_windows(n_frames=2 * n + 11)         # 2n + 5 windows
        baseline = zero_velocity_baseline(3)
        predict, predicted = baseline.predict, []
        baseline.predict = lambda x: predicted.append(len(x)) or predict(x)
        evaluate(baseline, windows, [1, 3])
        assert sorted(predicted) == [5, n, n]

    def test_memory_is_bounded_by_one_block(self):
        # The benchmark's h36m22 model over one block of windows, N = 64,
        # and over 4N. One predict over the whole set would gather 3N more
        # windows' inputs and predictions, three blocks' worth.
        model = build_model(skeleton_preset("h36m22"), ModelConfig(
            input_frames=10, output_frames=10, span=2, max_hop=3, strategy="anchor", seed=0))
        block = training.EVAL_CHUNKS * ad.chunk_size(model.window_rows)
        seqs = [synth_kinematic(22, block + 19, period=15, seed=s) for s in range(4)]
        windows = make_windows(seqs, t_in=10, k_out=10)
        assert (block, len(windows)) == (64, 4 * block)

        def peak(w):
            evaluate(model, w, [1, 10])                     # warm-up
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                evaluate(model, w, [1, 10])
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        block_arrays = 2 * block * 10 * 22 * 3 * 8          # its inputs and predictions
        grown = peak(windows) - peak(windows[:block])
        assert grown < block_arrays, f"{grown / block_arrays:.2f} blocks more"

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
        assert len(windows) > 2 * ad.chunk_size(model.window_rows)
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
