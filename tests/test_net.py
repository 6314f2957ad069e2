import math

import numpy as np
import pytest

from lyapflow import (
    Activation,
    ForwardTrace,
    L2Loss,
    LyapunovLoss,
    Mlp,
    ShapeError,
    forward,
    loss_gradient,
    sensitivities,
)
from lyapflow.net import PREACT_CLAMP, _sigmoid


def fd_loss_gradient(mlp, x, y_star, loss, h=1e-6):
    """Central-difference oracle for dE/dW, entry by entry."""
    work = mlp.copy()
    grads = []
    for l, w in enumerate(mlp.weights):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            keep = w[idx]
            work.weights[l][idx] = keep + h
            ep = loss.evaluate(forward(work, x).y - y_star)
            work.weights[l][idx] = keep - h
            em = loss.evaluate(forward(work, x).y - y_star)
            work.weights[l][idx] = keep
            g[idx] = (ep - em) / (2.0 * h)
        grads.append(g)
    return grads


def test_forward_quarter_point():
    # w = 1, b = 0, x = ln 3  ->  sigma(ln 3) = 3/4 exactly
    mlp = Mlp([np.array([[1.0, 0.0]])], (Activation.SIGMOID,))
    trace = forward(mlp, np.array([math.log(3.0)]))
    assert trace.y[0] == pytest.approx(0.75, rel=1e-15)
    assert trace.preacts[0][0] == pytest.approx(math.log(3.0))


def test_forward_matches_inline_recomputation():
    w1 = np.array([[0.3, -0.2, 0.1], [0.5, 0.4, -0.6]])
    w2 = np.array([[1.2, -0.7, 0.05]])
    mlp = Mlp([w1, w2], (Activation.SIGMOID, Activation.SIGMOID))
    x = np.array([0.8, -1.3])

    a1 = w1 @ np.append(x, 1.0)
    h = 1.0 / (1.0 + np.exp(-a1))
    a2 = w2 @ np.append(h, 1.0)
    y = 1.0 / (1.0 + np.exp(-a2))

    trace = forward(mlp, x)
    assert np.allclose(trace.preacts[0], a1, rtol=1e-15)
    assert np.allclose(trace.preacts[1], a2, rtol=1e-15)
    assert np.allclose(trace.y, y, rtol=1e-15)
    # activation vectors carry the constant bias entry
    assert trace.acts[0][-1] == 1.0
    assert trace.acts[1][-1] == 1.0
    assert np.allclose(trace.acts[1][:-1], h)


def test_bias_column_acts_like_constant_input():
    # same network twice: bias weight b, vs an extra input pinned to 1
    w, b = np.array([0.7, -0.4]), 0.3
    with_bias = Mlp([np.array([[w[0], w[1], b]])], (Activation.SIGMOID,))
    as_input = Mlp([np.array([[w[0], w[1], b, 0.0]])], (Activation.SIGMOID,))
    x = np.array([0.2, -1.1])
    y1 = forward(with_bias, x).y
    y2 = forward(as_input, np.append(x, 1.0)).y
    assert np.allclose(y1, y2, rtol=1e-15)


def _clip_sigmoid(a):
    """The clamped sigmoid as its plain np.clip formula."""
    return 1.0 / (1.0 + np.exp(-np.clip(a, -PREACT_CLAMP, PREACT_CLAMP)))


def _slope(act, a):
    """act's slope at the pre-activation a, from the np.clip formula."""
    if act is Activation.IDENTITY:
        return np.ones_like(a)
    s = _clip_sigmoid(a)
    return s * (1.0 - s)


def test_identity_output_and_derivatives():
    mlp = Mlp([np.array([[2.0, -1.0]])], (Activation.IDENTITY,))
    trace = forward(mlp, np.array([3.0]))
    assert trace.y[0] == pytest.approx(5.0)
    # an identity output's slope is 1: its sensitivity is dE/de itself
    loss = L2Loss()
    delta = sensitivities(mlp, trace, np.array([1.0]), loss)[-1]
    assert delta.tobytes() == loss.error_grad(trace.y - 1.0).tobytes()
    # a sigmoid unit at pre-activation 0 has slope 0.25
    sig = Mlp([np.array([[0.0, 0.0]])], (Activation.SIGMOID,))
    trace = forward(sig, np.array([3.0]))
    assert trace.y[0] == 0.5
    assert sensitivities(sig, trace, np.array([0.0]), loss)[-1][0] == 0.25 * 0.5


def test_preact_clamp_keeps_sigmoid_finite():
    mlp = Mlp([np.array([[1000.0, 0.0]])], (Activation.SIGMOID,))
    trace = forward(mlp, np.array([1.0]))
    assert trace.y[0] == pytest.approx(1.0 / (1.0 + math.exp(-PREACT_CLAMP)))
    # raw pre-activation is stored unclamped
    assert trace.preacts[0][0] == 1000.0
    # the slope is the clamped one: finite and positive, not 0
    delta = sensitivities(mlp, trace, np.array([0.0]), L2Loss())[-1]
    assert np.isfinite(delta[0]) and delta[0] > 0.0
    assert delta.tobytes() == (_slope(Activation.SIGMOID, np.array([1000.0])) * trace.y).tobytes()


def test_sigmoid_is_bitwise_the_np_clip_form():
    edges = np.array([-np.inf, -31.0, -30.0, -29.999, -1.0, -0.0, 0.0, 5e-324,
                      0.5, 29.999, 30.0, 31.0, np.inf, np.nan])
    rng = np.random.default_rng(0)
    for a in (edges, rng.normal(0.0, 20.0, 500), np.array([-0.0]), np.array([np.nan])):
        assert _sigmoid(a).tobytes() == _clip_sigmoid(a).tobytes()


@pytest.mark.parametrize("sizes,out_act", [
    ((3, 1), Activation.SIGMOID),
    ((2, 4, 1), Activation.SIGMOID),
    ((4, 8, 2), Activation.IDENTITY),
    ((4, 8, 8, 2), Activation.SIGMOID),
])
def test_backprop_matches_finite_differences(sizes, out_act):
    for seed in (0, 1, 2):
        mlp = Mlp.random(sizes, seed=seed, output_activation=out_act)
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(-1.0, 1.0, size=sizes[0])
        y = forward(mlp, x).y
        # target offset keeps every |error| at 0.4, away from sgnpow's kink
        y_star = y - 0.4 * np.where(rng.uniform(size=y.shape) < 0.5, 1.0, -1.0)

        for loss in (LyapunovLoss(alpha=0.7), L2Loss()):
            trace = forward(mlp, x)
            analytic = loss_gradient(sensitivities(mlp, trace, y_star, loss), trace)
            numeric = fd_loss_gradient(mlp, x, y_star, loss)
            for g_a, g_n in zip(analytic, numeric):
                denom = np.maximum(np.maximum(np.abs(g_a), np.abs(g_n)), 1e-8)
                assert float(np.max(np.abs(g_a - g_n) / denom)) < 1e-5


def test_sensitivities_output_layer_value():
    # single unit: delta = sigma'(z) * sgnpow(e, alpha), checked by hand
    mlp = Mlp([np.array([[1.0, 0.0]])], (Activation.SIGMOID,))
    x = np.array([0.5])
    trace = forward(mlp, x)
    loss = LyapunovLoss(alpha=0.7)
    y_star = np.array([0.1])
    e = trace.y[0] - 0.1
    s = trace.y[0]
    expected = s * (1.0 - s) * (abs(e) ** 0.7) * np.sign(e)
    deltas = sensitivities(mlp, trace, y_star, loss)
    assert deltas[0][0] == pytest.approx(expected, rel=1e-12)


def test_forward_shape_errors():
    mlp = Mlp.random((3, 2), seed=0)
    with pytest.raises(ShapeError):
        forward(mlp, np.zeros(4))
    with pytest.raises(ShapeError):
        forward(mlp, np.array([1.0, np.nan, 0.0]))
    trace = forward(mlp, np.zeros(3))
    with pytest.raises(ShapeError):
        sensitivities(mlp, trace, np.zeros(3), L2Loss())


def test_mlp_validation():
    with pytest.raises(ShapeError):
        Mlp([], ())
    with pytest.raises(ShapeError):
        Mlp([np.zeros((2, 3))], (Activation.SIGMOID, Activation.SIGMOID))
    with pytest.raises(ShapeError):
        # layer 1 expects 2+1 columns, gets 4
        Mlp([np.zeros((2, 3)), np.zeros((1, 4))], (Activation.SIGMOID,) * 2)
    with pytest.raises(ShapeError):
        Mlp([np.array([[1.0, np.inf]])], (Activation.SIGMOID,))


def test_random_is_seeded_and_bounded():
    a = Mlp.random((4, 8, 2), seed=7)
    b = Mlp.random((4, 8, 2), seed=7)
    c = Mlp.random((4, 8, 2), seed=8)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))
    assert all(np.max(np.abs(w)) <= 0.5 for w in a.weights)
    small = Mlp.random((4, 2), seed=0, scale=0.01)
    assert all(np.max(np.abs(w)) <= 0.01 for w in small.weights)


def test_layer_size_properties():
    mlp = Mlp.random((4, 8, 8, 2), seed=0)
    assert mlp.layer_sizes == (4, 8, 8, 2)
    assert mlp.n_inputs == 4
    assert mlp.n_outputs == 2
    assert mlp.n_layers == 3
    assert mlp.weights[0].shape == (8, 5)
    assert mlp.weights[2].shape == (2, 9)


def test_copy_is_independent():
    mlp = Mlp.random((2, 2), seed=1)
    dup = mlp.copy()
    dup.weights[0][0, 0] += 1.0
    assert mlp.weights[0][0, 0] != dup.weights[0][0, 0]


def test_loss_gradient_length_check():
    mlp = Mlp.random((2, 2, 1), seed=0)
    trace = forward(mlp, np.zeros(2))
    with pytest.raises(ShapeError):
        loss_gradient([np.zeros(1)], trace)


def _stack(nets):
    """One Mlp holding the weights of every net in `nets`, layer by layer."""
    stack = nets[0].copy()
    stack.weights = [np.stack(ws) for ws in zip(*(n.weights for n in nets))]
    return stack


@pytest.mark.parametrize("sizes,out_act", [
    ((4, 1), Activation.SIGMOID),
    ((4, 8, 1), Activation.IDENTITY),
    ((3, 6, 5, 2), Activation.SIGMOID),
])
def test_sensitivities_reuse_forward_activations_bitwise(sizes, out_act):
    # each slope comes from the activation forward stored; it must equal
    # the slope recomputed from the pre-activation bit for bit, saturated
    # and clamped units included
    for seed in range(6):
        mlp = Mlp.random(sizes, seed=seed, output_activation=out_act, scale=4.0)
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 10.0 ** (seed % 3), sizes[0])
        y_star = rng.uniform(-1.0, 1.0, sizes[-1])
        for loss in (LyapunovLoss(alpha=0.7), L2Loss()):
            trace = forward(mlp, x)
            grad = loss.error_grad(trace.y - y_star)
            acts, a = mlp.activations, trace.preacts
            expected = [None] * mlp.n_layers
            expected[-1] = _slope(acts[-1], a[-1]) * grad
            for l in range(mlp.n_layers - 2, -1, -1):
                back = mlp.weights[l + 1][:, :-1].T @ expected[l + 1]
                expected[l] = _slope(acts[l], a[l]) * back
            got = sensitivities(mlp, trace, y_star, loss)
            want = [d.tobytes() for d in expected]
            assert [d.tobytes() for d in got] == want
            # through held buffers too; the deltas a call returns are its
            # own, unchanged by the next pass and back-propagation
            held = ForwardTrace.empty(mlp)
            first = sensitivities(mlp, forward(mlp, x, held), y_star, loss)
            assert [d.tobytes() for d in first] == want
            other = Mlp.random(sizes, seed=seed + 6, output_activation=out_act, scale=4.0)
            sensitivities(other, forward(other, x, held), y_star, loss)
            assert [d.tobytes() for d in first] == want


@pytest.mark.parametrize("sizes,out_act", [
    ((4, 1), Activation.SIGMOID),
    ((4, 8, 1), Activation.IDENTITY),
    ((3, 6, 5, 2), Activation.SIGMOID),
])
@pytest.mark.parametrize("shared_input", [False, True])
def test_stacked_pass_is_bitwise_each_run_alone(sizes, out_act, shared_input):
    rng = np.random.default_rng(len(sizes))
    nets = [Mlp.random(sizes, seed=s, output_activation=out_act, scale=2.0)
            for s in range(5)]
    xs = rng.normal(0.0, 3.0, (5, sizes[0]))
    if shared_input:
        xs[:] = xs[0]
    y_star = rng.uniform(-1.0, 1.0, (5, sizes[-1]))
    stack = _stack(nets)
    loss = LyapunovLoss(alpha=0.6)
    trace = forward(stack, xs[0] if shared_input else xs)
    grads = loss_gradient(sensitivities(stack, trace, y_star, loss), trace)
    for r, net in enumerate(nets):
        alone = forward(net, xs[r])
        assert trace.y[r].tobytes() == alone.y.tobytes()
        for a, b in zip(trace.preacts, alone.preacts):
            assert a[r].tobytes() == b.tobytes()
        for a, b in zip(trace.acts[1:], alone.acts[1:]):
            assert a[r].tobytes() == b.tobytes()
        alone_grads = loss_gradient(sensitivities(net, alone, y_star[r], loss), alone)
        for g, h in zip(grads, alone_grads):
            assert g[r].tobytes() == h.tobytes()
