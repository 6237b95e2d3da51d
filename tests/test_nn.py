import numpy as np
import pytest

from hrl_lab.nn import (
    AdamState,
    MlpParams,
    MlpSpec,
    adam_update,
    backward,
    flatten,
    forward,
    gradient_check,
    init_params,
    mse,
    trace,
)


def same_bits(a, b):
    """Bitwise equality, so 0.0 and -0.0 count as different."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((4,))
    with pytest.raises(ValueError):
        MlpSpec((4, 0, 2))


def test_init_shapes_and_bounds():
    params = init_params(MlpSpec((4, 8, 2)), seed=0)
    assert [w.shape for w in params.weights] == [(8, 4), (2, 8)]
    assert [b.shape for b in params.biases] == [(8,), (2,)]
    assert np.all(np.abs(params.weights[0]) <= 1 / np.sqrt(4))
    assert np.all(np.abs(params.weights[1]) <= 1 / np.sqrt(8))
    assert all(np.all(b == 0) for b in params.biases)
    again = init_params(MlpSpec((4, 8, 2)), seed=0)
    assert all(np.array_equal(a, b) for a, b in zip(params.weights, again.weights))


def test_forward_matches_naive_loop():
    spec = MlpSpec((2, 3, 1))
    params = init_params(spec, seed=5)
    x = np.array([0.7, -1.2])
    h = np.zeros(3)
    for i in range(3):
        h[i] = max(0.0, params.weights[0][i] @ x + params.biases[0][i])
    want = params.weights[1][0] @ h + params.biases[1][0]
    got = forward(params, x)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(want, rel=1e-12)


def test_forward_batch_consistent_with_single():
    params = init_params(MlpSpec((3, 5, 2)), seed=1)
    xs = np.random.default_rng(2).normal(size=(4, 3))
    batched = forward(params, xs)
    assert batched.shape == (4, 2)
    for i in range(4):
        assert np.allclose(batched[i], forward(params, xs[i]), atol=1e-12)


def test_forward_rejects_wrong_width():
    params = init_params(MlpSpec((3, 2)), seed=0)
    with pytest.raises(ValueError):
        forward(params, np.zeros(4))


def test_mse_values_and_grad():
    v, g = mse(np.array([4.0]), np.array([2.0]))
    assert v == 4.0
    assert np.array_equal(g, [4.0])
    v, g = mse(np.array([1.0, 3.0]), np.array([0.0, 0.0]))
    assert v == 5.0
    assert np.array_equal(g, [1.0, 3.0])
    with pytest.raises(ValueError):
        mse(np.zeros(2), np.zeros(3))


def test_backward_single_linear_unit():
    # y = w*x + b with w, b explicit: dL/dw = grad_out * x, dL/db = grad_out
    params = MlpParams([np.array([[2.0]])], [np.array([0.5])])
    dws, dbs = backward(params, np.array([3.0]), np.array([1.0]))
    assert dws[0][0, 0] == 3.0
    assert dbs[0][0] == 1.0


def test_backward_relu_gate_blocks_gradient():
    # hidden unit is dead for this input, so its incoming weight gets no grad
    params = MlpParams(
        [np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])],
        [np.zeros(2), np.zeros(1)],
    )
    dws, _ = backward(params, np.array([2.0]), np.array([1.0]))
    assert dws[0][0, 0] == 2.0  # active unit: z=2>0
    assert dws[0][1, 0] == 0.0  # dead unit: z=-2


def test_gradient_check_passes_for_healthy_net():
    assert gradient_check(MlpSpec((4, 6, 3)), seed=3) < 1e-6


def test_gradient_check_catches_corruption():
    def off_by_one_percent(params, x, grad_out):
        dws, dbs = backward(params, x, grad_out)
        return [d * 1.01 for d in dws], [d * 1.01 for d in dbs]

    err = gradient_check(MlpSpec((4, 6, 3)), seed=3, backward_fn=off_by_one_percent)
    assert err > 1e-4


def test_adam_first_step_is_signed_lr():
    # after bias correction the first update is -lr * g/(|g|+eps)
    params = MlpParams([np.array([[1.0]])], [np.array([0.0])])
    state = AdamState(lr=1e-3)
    grads = ([np.array([[2.5]])], [np.array([-0.5])])
    flat, new = flatten(params)
    adam_update(state, flat, MlpParams(*grads).flat())
    assert new.weights[0][0, 0] == pytest.approx(1.0 - 1e-3, abs=1e-10)
    assert new.biases[0][0] == pytest.approx(1e-3, abs=1e-10)
    assert params.weights[0][0, 0] == 1.0  # flatten copied the input
    assert state.t == 1


def test_backward_with_forward_activations_matches_recompute():
    params = init_params(MlpSpec((4, 6, 5, 3)), seed=4)
    rng = np.random.default_rng(4)
    for x in (rng.normal(size=4), rng.normal(size=(7, 4))):
        grad_out = rng.normal(size=np.shape(forward(params, x)))
        want = backward(params, x, grad_out)
        got = backward(params, x, grad_out, trace(params, x))
        _, out = flatten(params)
        into = backward(params, x, grad_out, trace(params, x), out=out)
        for w, g, i in zip(want[0] + want[1], got[0] + got[1], into[0] + into[1]):
            assert same_bits(w, g)
            assert same_bits(w, i)
        assert all(a is b for a, b in zip(into[0] + into[1], out.weights + out.biases))


def test_flatten_views_share_one_buffer():
    params = init_params(MlpSpec((3, 4, 2)), seed=6)
    flat, views = flatten(params)
    assert same_bits(flat, params.flat())
    flat[:] = 0.0
    assert all(np.all(a == 0.0) for a in views.weights + views.biases)
    assert not np.all(params.weights[0] == 0.0)  # the input is copied, not aliased


def per_array_adam(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam written per parameter array on fresh copies, the reference that
    the flat in-place update must reproduce bit for bit."""
    new = params.copy()
    arrays = new.weights + new.biases
    ms = [np.zeros_like(a) for a in arrays]
    vs = [np.zeros_like(a) for a in arrays]
    for t, (dws, dbs) in enumerate(grad_steps, start=1):
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        for a, m, v, g in zip(arrays, ms, vs, dws + dbs):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            a -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return new, np.concatenate([m.ravel() for m in ms]), np.concatenate(
        [v.ravel() for v in vs]
    )


def test_flat_adam_matches_per_array_adam_bitwise():
    spec = MlpSpec((5, 7, 4, 3))
    params = init_params(spec, seed=8)
    rng = np.random.default_rng(8)
    grad_steps = []
    for scale in (1.0, 1e-3, 0.0, 50.0, 1e-7, 2.0):
        dws = [scale * rng.normal(size=w.shape) for w in params.weights]
        dbs = [scale * rng.normal(size=b.shape) for b in params.biases]
        grad_steps.append((dws, dbs))
    want, want_m, want_v = per_array_adam(params, grad_steps, lr=3e-3)

    flat, in_place = flatten(params)
    state = AdamState(lr=3e-3)
    for grads in grad_steps:
        adam_update(state, flat, MlpParams(*grads).flat())

    assert state.t == len(grad_steps)
    assert same_bits(state.m, want_m)
    assert same_bits(state.v, want_v)
    for got, ref in zip(in_place.weights + in_place.biases, want.weights + want.biases):
        assert same_bits(got, ref)
    assert same_bits(flat, want.flat())


def test_adam_drives_loss_down():
    spec = MlpSpec((3, 8, 1))
    flat, params = flatten(init_params(spec, seed=9))
    rng = np.random.default_rng(9)
    xs = rng.normal(size=(16, 3))
    ys = (xs.sum(axis=1, keepdims=True)) * 0.5
    state = AdamState(lr=1e-2)
    first = mse(forward(params, xs), ys)[0]
    for _ in range(200):
        _, grad = mse(forward(params, xs), ys)
        adam_update(state, flat, MlpParams(*backward(params, xs, grad)).flat())
    last = mse(forward(params, xs), ys)[0]
    assert last < 0.1 * first
