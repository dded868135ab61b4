import sys
import threading

import numpy as np
import pytest

from posecast import autodiff as ad
from posecast.data import make_windows, skeleton_preset, synth_kinematic
from posecast.gradcheck import check_gradients
from posecast.model import ModelConfig, build_model, window_rows
from posecast.training import evaluate


def test_matmul_identity():
    a = ad.constant(np.eye(2))
    b = ad.constant([[2.0, 3.0], [4.0, 5.0]])
    assert np.array_equal(ad.matmul(a, b).values, [[2.0, 3.0], [4.0, 5.0]])


def test_matmul_hand_computed():
    out = ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[3.0], [4.0]]))
    assert np.array_equal(out.values, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ad.DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 2))))


def test_matmul_gradient_is_ones_times_b_transpose():
    rng = np.random.default_rng(0)
    a = ad.parameter(rng.normal(size=(3, 4)))
    b = ad.constant(rng.normal(size=(4, 2)))
    loss = ad.tensor_sum(ad.matmul(a, b))
    loss.backward()
    expected = np.ones((3, 2)) @ b.values.T
    assert np.allclose(a.grad, expected, rtol=1e-12)
    # and against central finite differences
    err = check_gradients(lambda: ad.tensor_sum(ad.matmul(a, b)), [a])
    assert err < 1e-6


def test_matmul_rejects_a_one_dimensional_operand():
    with pytest.raises(ad.DimensionError, match=r">=2-d operands.*\(3,\)"):
        ad.matmul(ad.constant(np.ones(3)), ad.constant(np.ones((3, 2))))


def test_elementwise_add():
    out = ad.add(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0]))
    assert np.array_equal(out.values, [4.0, 6.0])


def test_add_gradient_sums_over_a_size_one_axis():
    rng = np.random.default_rng(5)
    p = ad.parameter(rng.normal(size=(1, 5)))
    weights = rng.normal(size=(4, 5))
    ad.tensor_sum(ad.mul(ad.add(p, ad.constant(rng.normal(size=(4, 5)))),
                         ad.constant(weights))).backward()
    assert p.grad.shape == (1, 5)
    assert p.grad.tobytes() == weights.sum(axis=0, keepdims=True).tobytes()


def test_mul_by_zero_kills_gradient():
    x = ad.parameter([1.0, -2.0, 3.0])
    loss = ad.tensor_sum(ad.mul(x, ad.constant(np.zeros(3))))
    loss.backward()
    assert np.array_equal(loss.values, 0.0)
    assert np.array_equal(x.grad, np.zeros(3))


def test_sub_self_is_zero():
    rng = np.random.default_rng(1)
    x = ad.constant(rng.normal(size=(4, 4)))
    assert np.array_equal(ad.sub(x, x).values, np.zeros((4, 4)))


def test_elementwise_shape_error():
    with pytest.raises(ad.DimensionError):
        ad.add(ad.constant(np.ones(3)), ad.constant(np.ones(4)))


def test_activation_zero_and_saturation():
    assert ad.tanh(ad.constant(0.0)).values == 0.0
    big = ad.tanh(ad.constant(50.0)).values
    assert 0.999 < big <= 1.0


def test_activation_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = ad.parameter(rng.normal(size=10))
    err = check_gradients(lambda: ad.tensor_sum(ad.tanh(x)), [x])
    assert err < 1e-6


def test_activation_gradient_bytes_match_formula():
    rng = np.random.default_rng(3)
    x = ad.parameter(rng.normal(size=(4, 7)))
    weights = rng.normal(size=(4, 7))
    y = ad.tanh(x)
    ad.tensor_sum(ad.mul(y, ad.constant(weights))).backward()
    assert x.grad.tobytes() == (weights * (1.0 - y.values * y.values)).tobytes()


@pytest.mark.parametrize("shape, view", [
    ((), None), ((7,), None), ((0, 5), None),
    ((300, 1000), None),                        # three blocks, the last one short
    ((40, 9, 600), lambda a: a.transpose(1, 0, 2)),
    ((300, 1000), lambda a: a[::-2, ::3]),
])
def test_tanh_grad_forms_the_derivative_in_the_gradient(shape, view):
    rng = np.random.default_rng(4)
    y = np.tanh(rng.normal(size=shape))
    grad = rng.normal(size=shape)
    if view is not None:
        y, grad = view(y), view(grad)
    expected = (1.0 - y * y) * grad
    assert ad._tanh_grad(y, grad) is grad
    assert grad.tobytes() == expected.tobytes()


class TestMaskedSoftmax:
    def test_symmetric_scores(self):
        out = ad.masked_softmax(ad.constant([0.0, 0.0]), [True, True], axis=-1)
        assert np.allclose(out.values, [0.5, 0.5], atol=1e-15)

    def test_single_allowed_entry(self):
        out = ad.masked_softmax(ad.constant([5.0, 100.0]), [True, False], axis=-1)
        assert np.array_equal(out.values, [1.0, 0.0])

    def test_rows_sum_to_one_and_masked_exact_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scores = ad.constant(rng.normal(scale=5.0, size=(6, 8)))
            mask = rng.random((6, 8)) < 0.6
            mask[:, 0] = True  # keep every row non-degenerate
            out = ad.masked_softmax(scores, mask, axis=-1).values
            assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)
            assert np.array_equal(out[~mask], np.zeros((~mask).sum()))

    def test_degenerate_mask_raises(self):
        with pytest.raises(ad.DegenerateMaskError):
            ad.masked_softmax(ad.constant([[1.0, 2.0]]), [[False, False]], axis=-1)

    def test_mask_shape_mismatch(self):
        with pytest.raises(ad.DimensionError):
            ad.masked_softmax(ad.constant([1.0, 2.0]), [[True]], axis=-1)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = ad.parameter(np.arange(6.0).reshape(2, 3))
        ad.tensor_sum(w).backward()
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        w = ad.parameter([1.0, -2.0, 0.5])
        ad.tensor_sum(ad.mul(w, w)).backward()
        assert np.allclose(w.grad, 2.0 * w.values, rtol=1e-12)

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ad.DimensionError):
            ad.constant(np.ones(3)).backward()

    def test_shared_subexpression_accumulates(self):
        # y = s + s with shared s must match a duplicated-subgraph build.
        w = ad.parameter([1.0, 2.0])
        s = ad.mul(w, w)
        ad.tensor_sum(ad.add(s, s)).backward()
        shared_grad = w.grad.copy()

        w2 = ad.parameter([1.0, 2.0])
        ad.tensor_sum(ad.add(ad.mul(w2, w2), ad.mul(w2, w2))).backward()
        assert np.array_equal(shared_grad, w2.grad)

    def test_parameter_root_adds_its_seed_like_every_leaf(self):
        p, q = ad.parameter(3.0), ad.parameter(3.0)
        p.grad, q.grad = np.array(5.0), np.array(5.0)
        p.backward()
        ad.tensor_sum(q).backward()
        assert p.grad == 6.0 and q.grad == 6.0

    def test_constant_never_accumulates_gradient(self):
        w = ad.parameter([1.0, 2.0])
        c = ad.constant([3.0, 4.0])
        ad.tensor_sum(ad.mul(w, c)).backward()
        assert c.grad is None


class TestGradients:
    def test_match_backward_and_leave_grad_alone(self):
        def loss(w, u):                 # u never reaches the root
            s = ad.mul(w, ad.constant([3.0, -1.0]))
            return ad.tensor_sum(ad.add(ad.mul(s, s), w))

        w, u = ad.parameter([1.0, 2.0]), ad.parameter([5.0])
        w.grad = sentinel = np.array([7.0, 7.0])
        grads = ad.gradients(loss(w, u), [w, u])
        assert w.grad is sentinel and np.array_equal(sentinel, [7.0, 7.0]) and u.grad is None
        assert grads[1] is None
        w.grad = None
        loss(w, u).backward()
        assert np.array_equal(grads[0], w.grad)

    def test_parameter_as_its_own_root(self):
        p = ad.parameter(3.0)
        assert ad.gradients(p, [p]) == [1.0] and p.grad is None
        p.grad = held = np.array(5.0)
        assert ad.gradients(p, [p]) == [1.0] and p.grad is held and held == 5.0

    def test_walk_releases_the_graph(self):
        w = ad.parameter([1.0, 2.0])
        root = ad.tensor_sum(ad.mul(w, w))
        assert np.array_equal(ad.gradients(root, [w])[0], [2.0, 4.0])
        with pytest.raises(ad.GraphReleasedError):
            ad.gradients(root, [w])

    def test_threads_over_shared_parameters_keep_their_own(self):
        # Switching threads every microsecond: each walk's gradients stay its own.
        w = ad.parameter(np.linspace(-1.0, 1.0, 6).reshape(2, 3))

        def grads(scale):
            h = ad.tanh(ad.matmul(ad.constant(np.full((4, 2), scale)), w))
            return ad.gradients(ad.tensor_sum(ad.mul(h, h)), [w])[0]

        expected = {k: grads(k) for k in range(8)}
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda k=k: results.update({k: grads(k)}))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert w.grad is None
        assert all(np.array_equal(results[k], expected[k]) for k in range(8))


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = ad.parameter([1.0, -2.0])
        p.grad = np.zeros(2)
        state = ad.AdamState([p])
        before = p.values.copy()
        ad.adam_step([p], state, lr=0.1)
        assert np.array_equal(p.values, before)
        assert state.step_count == 1

    def test_step_one_magnitude_is_lr(self):
        # Constant gradient: bias-corrected m/sqrt(v) is g/|g| at step 1.
        p = ad.parameter([10.0, -5.0])
        p.grad = np.array([0.3, -0.7])
        before = p.values.copy()
        ad.adam_step([p], ad.AdamState([p]), lr=0.05)
        step = before - p.values
        assert np.allclose(np.abs(step), 0.05, rtol=1e-6)
        assert np.sign(step[0]) == 1.0 and np.sign(step[1]) == -1.0

    def test_scalar_quadratic_converges(self):
        x = ad.parameter([0.0])
        state = ad.AdamState([x])
        for _ in range(2000):
            x.grad = None
            diff = ad.sub(x, ad.constant([3.0]))
            ad.tensor_sum(ad.mul(diff, diff)).backward()
            ad.adam_step([x], state, lr=0.05)
        assert abs(x.values[0] - 3.0) < 0.01

    def test_gradients_untouched_by_step(self):
        p = ad.parameter([1.0, 2.0])
        p.grad = np.array([0.5, 0.25])
        g = p.grad.copy()
        ad.adam_step([p], ad.AdamState([p]), lr=0.01)
        assert np.array_equal(p.grad, g)


def test_broadcast_matmul_gradients():
    rng = np.random.default_rng(4)
    a = ad.parameter(rng.normal(size=(5, 5)))          # shared across batch
    h = ad.parameter(rng.normal(size=(3, 5, 2)))
    err = check_gradients(
        lambda: ad.tensor_sum(ad.mul(m := ad.matmul(a, h), m)), [a, h]
    )
    assert err < 1e-6


def test_check_gradients_leaves_grad_as_it_found_it():
    rng = np.random.default_rng(6)
    a, b = ad.parameter(rng.normal(size=(2, 3))), ad.parameter(rng.normal(size=(2, 3)))
    a.grad = held = np.full((2, 3), 7.0)
    err = check_gradients(lambda: ad.tensor_sum(ad.mul(m := ad.mul(a, b), m)), [a, b])
    assert err < 1e-6
    assert a.grad is held and np.array_equal(held, np.full((2, 3), 7.0)) and b.grad is None


ALL_OPS = [
    lambda a: ad.matmul(a, a),
    lambda a: ad.add(a, a),
    lambda a: ad.sub(a, a),
    lambda a: ad.mul(a, a),
    ad.tanh,
    ad.sqrt,
    lambda a: ad.masked_softmax(a, np.ones((2, 2), dtype=bool), axis=-1),
    ad.tensor_sum,
    lambda a: ad.cumsum(a, axis=0),
    lambda a: ad.reshape(a, (4,)),
    lambda a: ad.transpose(a, (1, 0)),
    lambda a: ad.tail(a, 1),
    # One hop of 2 -> 2 channels: input and weight [C_in, D+1, C_out] are
    # reshapes of a.
    lambda a: ad.graph_conv(ad.reshape(a, (2, 1, 2)), ad.reshape(a, (2, 1, 2)), np.eye(2),
                            np.ones((1, 1))),
]


@pytest.mark.parametrize("op", ALL_OPS)
def test_ops_record_only_over_a_live_input(op):
    out = op(ad.constant(np.arange(1.0, 5.0).reshape(2, 2)))
    assert out._backward is None and out._inputs == ()
    a = ad.parameter(np.arange(1.0, 5.0).reshape(2, 2))
    out = op(a)
    assert out._backward is not None and any(t is a for t in ad._toposort(out))


class TestNoGrad:
    @pytest.mark.parametrize("op", ALL_OPS)
    def test_ops_record_no_graph(self, op):
        a = ad.parameter(np.arange(1.0, 5.0).reshape(2, 2))
        with ad.no_grad():
            out = op(a)
        assert out._backward is None and out._inputs == ()
        assert np.array_equal(out.values, op(a).values)

    def test_nested_blocks_restore_recording(self):
        w = ad.parameter([1.0, 2.0])
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert ad.mul(w, w)._backward is None
        assert ad.mul(w, w)._backward is not None

    def test_state_restored_when_block_raises(self):
        w = ad.parameter([1.0, 2.0, 3.0])
        with pytest.raises(ad.DimensionError):
            with ad.no_grad():
                ad.add(w, ad.constant(np.ones(4)))
        assert ad.mul(w, w)._backward is not None

    def test_block_holds_only_for_its_thread(self):
        w = ad.parameter([1.0, 2.0])
        inside, done, seen = threading.Event(), threading.Event(), []

        def sit_in_no_grad():
            with ad.no_grad():
                inside.set()
                done.wait(timeout=30)
                seen.append(ad.mul(w, w)._backward)

        other = threading.Thread(target=sit_in_no_grad)
        other.start()
        try:
            assert inside.wait(timeout=30)
            assert ad.mul(w, w)._backward is not None
        finally:
            done.set()
            other.join(timeout=30)
        assert not other.is_alive() and seen == [None]

    def test_multi_chunk_evaluate_leaves_recording_on(self):
        model = build_model(skeleton_preset("chain_4"), ModelConfig(
            input_frames=3, output_frames=2, span=1, max_hop=1,
            value_schedule=(3, 4, 3), qk_schedule=(3, 4, 3)))
        chunk = ad.chunk_size(model.window_rows)
        windows = make_windows([synth_kinematic(4, 3 * chunk + 4, 8)], 3, 2)
        assert len(windows) > 2 * chunk
        evaluate(model, windows, [1, 2])
        assert model.forward(windows.inputs[:2]).predictions._backward is not None


@pytest.mark.parametrize("rows, windows", [
    (20, 64), (36, 32), (80, 16), (220, 4), (550, 2), (2200, 1), (1, 1024), (1280, 1), (2048, 1),
    # The acceptance criteria's models: a budget that moves one of these
    # chunks moves the bytes that criterion trains.
    pytest.param(window_rows(10, 10, 8), 16, id="criterion8-chain_8"),
    pytest.param(window_rows(4, 3, 5), 64, id="criterion9-chain_5"),
    pytest.param(window_rows(6, 6, 6), 32, id="criterion10-chain_6"),
    pytest.param(window_rows(4, 3, 4), 64, id="criterion11-chain_4")])
def test_chunk_size_is_the_largest_power_of_two_that_fits_the_row_budget(rows, windows):
    assert ad.CHUNK_ROWS == 1280
    assert ad.chunk_size(rows) == windows


def test_an_h36m22_chunk_takes_its_weight_gradients_in_one_row_block():
    # 4 windows of 220 rows: each weight gradient is one product.
    assert ad.chunk_size(220) * 220 <= ad._ROW_BLOCK


def test_chunk_slices_cut_by_the_rows_per_item():
    items = range(11)
    slices = ad.chunk_slices(11, 220)
    assert slices == [slice(0, 4), slice(4, 8), slice(8, 12)]
    assert [list(items[rows]) for rows in slices] == [list(range(0, 4)), list(range(4, 8)),
                                                      list(range(8, 11))]
    assert ad.chunk_slices(0, 220) == []


class TestGraphRelease:
    def test_second_backward_raises(self):
        w = ad.parameter([1.0, 2.0])
        loss = ad.tensor_sum(ad.mul(w, w))
        loss.backward()
        with pytest.raises(ad.GraphReleasedError):
            loss.backward()
        assert np.array_equal(w.grad, [2.0, 4.0])

    def test_backward_through_a_released_node_raises(self):
        w = ad.parameter([1.0, 2.0])
        s = ad.mul(w, w)
        ad.tensor_sum(s).backward()
        assert s._inputs == () and s.grad is None
        with pytest.raises(ad.GraphReleasedError):
            ad.tensor_sum(ad.add(s, w)).backward()

    @pytest.mark.parametrize("add_first", [True, False])
    def test_operands_never_share_a_gradient_array(self, add_first):
        # add hands one incoming gradient to both operands. Whichever order
        # the walk takes, a later += into s.grad must leave t.grad alone.
        s = ad.parameter([1.0, 2.0])
        t = ad.parameter([3.0, 4.0])
        both = ad.add(s, t)
        scaled = ad.mul(s, ad.constant([5.0, 7.0]))
        pair = (scaled, both) if add_first else (both, scaled)
        ad.tensor_sum(ad.add(*pair)).backward()
        assert np.array_equal(s.grad, [6.0, 8.0])
        assert np.array_equal(t.grad, [1.0, 1.0])

    def test_node_added_to_itself(self):
        w = ad.parameter([1.0, 2.0])
        s = ad.mul(w, ad.constant([3.0, 3.0]))
        ad.tensor_sum(ad.add(ad.add(s, s), w)).backward()
        assert np.array_equal(w.grad, [7.0, 7.0])


class TestTail:
    def test_forward_is_a_slice_and_backward_zero_fills(self):
        a = ad.parameter(np.arange(12.0).reshape(2, 3, 2))
        out = ad.tail(a, 1)
        assert np.array_equal(out.values, a.values[:, 1:])
        ad.tensor_sum(ad.mul(out, out)).backward()
        expected = np.zeros((2, 3, 2))
        expected[:, 1:] = 2.0 * a.values[:, 1:]
        assert np.array_equal(a.grad, expected)

    def test_full_tail_passes_everything(self):
        a = ad.parameter(np.ones((1, 2, 3)))
        ad.tensor_sum(ad.tail(a, 0)).backward()
        assert np.array_equal(a.grad, np.ones((1, 2, 3)))
