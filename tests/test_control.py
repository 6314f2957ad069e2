import numpy as np
import pytest

from lyapflow import (
    Activation,
    GainSchedule,
    L1Loss,
    L2Loss,
    LyapunovLoss,
    Mlp,
    forward,
    gradient_flow_update,
    loss_gradient,
    lyapunov_rate_scale,
    mlp_update,
    sensitivities,
    signal_norm,
    single_neuron_update,
)
from lyapflow.dynamics import _Losses


def _sigma_prime(z):
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 - s)


def test_single_neuron_example_value():
    # z = 0, k = 1, x = [1], positive error: u = -(e^0 + 2 + e^0) = -4
    u = single_neuron_update(np.array([1.0]), e_bar=0.3, z=0.0,
                             gains=GainSchedule.uniform(1.0))
    assert u[0].shape == (1, 2)
    assert u[0][0, 0] == pytest.approx(-4.0, rel=1e-15)
    assert u[0][0, 1] == 0.0  # bias rate frozen


def test_single_neuron_bias_always_frozen():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=4)
        u = single_neuron_update(x, e_bar=float(rng.uniform(-1, 1)) or 0.1,
                                 z=float(rng.uniform(-3, 3)),
                                 gains=GainSchedule.uniform(2.0))
        assert u[0][0, -1] == 0.0


def test_single_neuron_drives_error_at_constant_rate():
    # d(e)/dt = sigma'(z) * sum(u_i x_i) must equal -sum(k|x_i|) * sign(e),
    # independent of z: the law's magnitude is exactly 1/sigma'(z).
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = rng.uniform(-3, 3, size=5)
        z = float(rng.uniform(-8, 8))
        e = float(rng.choice([-1, 1]) * rng.uniform(0.05, 2.0))
        k = float(rng.uniform(0.3, 4.0))
        u = single_neuron_update(x, e, z, GainSchedule.uniform(k))
        e_rate = _sigma_prime(z) * float(u[0][0, :-1] @ x)
        expected = -np.sign(e) * k * np.sum(np.abs(x))
        assert e_rate == pytest.approx(expected, rel=1e-10)


def test_single_neuron_raw_loss_rate():
    # with rate_scale = 1:  dE/dt = |e|^alpha * de/dt = -|e|^alpha sum(k|x|)
    alpha = 0.7
    loss = LyapunovLoss.single_neuron(alpha)
    rng = np.random.default_rng(23)
    for _ in range(30):
        x = rng.uniform(-2, 2, size=3)
        z = float(rng.uniform(-5, 5))
        e = float(rng.choice([-1, 1]) * rng.uniform(0.1, 1.5))
        u = single_neuron_update(x, e, z, GainSchedule.uniform(1.0))
        e_rate = _sigma_prime(z) * float(u[0][0, :-1] @ x)
        E_rate = loss.error_grad(e) * e_rate
        assert E_rate == pytest.approx(-abs(e) ** alpha * np.sum(np.abs(x)), rel=1e-10)


def test_rate_scale_restates_rate_in_E():
    # with the documented scale the loss obeys dE/dt = -c E^beta exactly,
    # c = sum(k_i |x_i|)
    alpha = 0.7
    loss = LyapunovLoss.single_neuron(alpha)
    scale = lyapunov_rate_scale(alpha)
    assert scale == pytest.approx((1 + alpha) ** (-alpha / (1 + alpha)), rel=1e-15)
    rng = np.random.default_rng(29)
    for _ in range(30):
        x = rng.uniform(-2, 2, size=4)
        z = float(rng.uniform(-4, 4))
        e = float(rng.choice([-1, 1]) * rng.uniform(0.05, 1.0))
        k = float(rng.uniform(0.5, 3.0))
        u = single_neuron_update(x, e, z, GainSchedule.uniform(k), rate_scale=scale)
        e_rate = _sigma_prime(z) * float(u[0][0, :-1] @ x)
        E_rate = loss.error_grad(e) * e_rate
        c = k * np.sum(np.abs(x))
        E = loss.evaluate(np.array([e]))
        assert E_rate == pytest.approx(-c * E ** loss.beta, rel=1e-10)


def test_mlp_update_single_weight_example():
    # one weight with delta*z = 1, k = 1, E = 1  ->  rate -1 (and -1 on bias)
    mlp = Mlp([np.array([[1.0, 0.0]])], (Activation.SIGMOID,))
    trace = forward(mlp, np.array([1.0]))
    loss = LyapunovLoss.multilayer(0.7, beta=0.25)
    u = mlp_update(loss_gradient([np.array([1.0])], trace), E=1.0,
                   gains=GainSchedule.uniform(1.0), loss=loss)
    assert u[0][0, 0] == pytest.approx(-1.0, rel=1e-15)   # z entry is x = 1
    assert u[0][0, 1] == pytest.approx(-1.0, rel=1e-15)   # bias entry is 1


def test_mlp_update_loss_rate_identity():
    # dE/dt = sum(grad * u) = -k E^beta sum|delta_j z_i|^(alpha+1)
    loss = LyapunovLoss.multilayer(0.7)
    for seed in (0, 1, 5):
        mlp = Mlp.random((3, 6, 2), seed=seed)
        rng = np.random.default_rng(40 + seed)
        x = rng.uniform(-1, 1, size=3)
        y_star = rng.uniform(0.1, 0.9, size=2)
        trace = forward(mlp, x)
        E = loss.evaluate(trace.y - y_star)
        deltas = sensitivities(mlp, trace, y_star, loss)
        grads = loss_gradient(deltas, trace)
        k = 1.3
        u = mlp_update(grads, E, GainSchedule.uniform(k), loss)
        lhs = sum(float(np.sum(g * ui)) for g, ui in zip(grads, u))
        rhs = -k * E ** loss.beta * sum(
            float(np.sum(np.abs(g) ** (loss.alpha + 1.0))) for g in grads
        )
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_mlp_update_euler_microstep_decreases_loss():
    loss = LyapunovLoss.multilayer(0.7)
    mlp = Mlp.random((3, 5, 1), seed=2)
    x = np.array([0.4, -0.9, 0.7])
    y_star = np.array([0.9])
    trace = forward(mlp, x)
    E0 = loss.evaluate(trace.y - y_star)
    deltas = sensitivities(mlp, trace, y_star, loss)
    u = mlp_update(loss_gradient(deltas, trace), E0, GainSchedule.uniform(1.0), loss)
    h = 1e-7
    stepped = mlp.copy()
    stepped.weights = [w + h * ui for w, ui in zip(stepped.weights, u)]
    E1 = loss.evaluate(forward(stepped, x).y - y_star)
    rate_fd = (E1 - E0) / h
    rate_expected = -E0 ** loss.beta * sum(
        float(np.sum(np.abs(g) ** 1.7))
        for g in loss_gradient(deltas, trace)
    )
    assert rate_fd == pytest.approx(rate_expected, rel=1e-5)
    assert E1 < E0


def test_mlp_update_validation():
    loss = LyapunovLoss.multilayer(0.7)
    mlp = Mlp.random((2, 1), seed=0)
    trace = forward(mlp, np.zeros(2))
    grads = loss_gradient(sensitivities(mlp, trace, np.array([0.2]), loss), trace)
    with pytest.raises(ValueError):
        mlp_update(grads, -1.0, GainSchedule.uniform(1.0), loss)
    bad = LyapunovLoss(alpha=0.7)  # beta defaults to 7/17, alpha+beta > 1
    with pytest.raises(ValueError):
        mlp_update(grads, 1.0, GainSchedule.uniform(1.0), bad)
    with pytest.raises(ValueError):  # a stack's columns are checked when made
        _Losses(["mlp", "baseline", "mlp"], [loss, L1Loss(), bad])


def test_gain_homogeneity_is_exact():
    # doubling the gain doubles every rate, bit for bit
    x = np.array([1.5, -0.25, 0.75])
    u1 = single_neuron_update(x, 0.2, 1.0, GainSchedule.uniform(1.0))
    u2 = single_neuron_update(x, 0.2, 1.0, GainSchedule.uniform(2.0))
    assert np.array_equal(2.0 * u1[0], u2[0])

    loss = LyapunovLoss.multilayer(0.5)
    mlp = Mlp.random((3, 4, 1), seed=9)
    trace = forward(mlp, x)
    grads = loss_gradient(sensitivities(mlp, trace, np.array([0.8]), loss), trace)
    E = loss.evaluate(trace.y - np.array([0.8]))
    m1 = mlp_update(grads, E, GainSchedule.uniform(1.0), loss)
    m2 = mlp_update(grads, E, GainSchedule.uniform(2.0), loss)
    for a, b in zip(m1, m2):
        assert np.array_equal(2.0 * a, b)


def test_gradient_flow_update_is_scaled_negative_gradient():
    grads = [np.array([[1.0, -2.0]]), np.array([[0.5, 0.0, 3.0]])]
    u = gradient_flow_update(grads, GainSchedule.uniform(2.5))
    assert np.array_equal(u[0], np.array([[-2.5, 5.0]]))
    assert np.array_equal(u[1], np.array([[-1.25, 0.0, -7.5]]))


def test_gain_schedule_validation():
    with pytest.raises(ValueError):
        GainSchedule.uniform(0.0)
    with pytest.raises(ValueError):
        GainSchedule.uniform(-2.0)
    with pytest.raises(ValueError):
        GainSchedule.uniform(float("inf"))


def test_signal_norm():
    sig = [np.array([[3.0]]), np.array([[4.0, 0.0]])]
    assert signal_norm(sig) == pytest.approx(5.0)
    assert signal_norm([np.zeros((2, 2))]) == 0.0
    # a stack, layers (R, out, in+1), gets one norm per run, each bitwise the
    # run's alone; one layer holds more than numpy's 128-entry sum block
    rng = np.random.default_rng(7)
    shapes = [(9, 5), (20, 10), (3, 21)]
    for depth in (1, 2, 3):
        for runs in (1, 3, 7):
            stack = [rng.normal(0.0, 10.0, (runs,) + shape) for shape in shapes[:depth]]
            norms = signal_norm(stack)
            assert norms.shape == (runs,)
            for r in range(runs):
                assert norms[r] == signal_norm([layer[r] for layer in stack])


def test_stacked_laws_are_bitwise_each_run_alone():
    rng = np.random.default_rng(31)
    gains = GainSchedule.uniform(1.7)
    x = rng.normal(0.0, 1.0, (6, 4))
    x[1, 2] = 0.0
    e = rng.normal(0.0, 0.1, 6)
    e[2] = 0.0
    z = rng.normal(0.0, 20.0, 6)       # some beyond the +/-30 clamp
    stacked = single_neuron_update(x, e, z, gains, rate_scale=0.8)[0]
    assert stacked.shape == (6, 1, 5)
    for r in range(6):
        alone = single_neuron_update(x[r], float(e[r]), float(z[r]), gains,
                                     rate_scale=0.8)[0]
        assert stacked[r].tobytes() == alone.tobytes()

    loss = LyapunovLoss.multilayer(0.7)
    nets = [Mlp.random((3, 5, 2), seed=s) for s in range(4)]
    xs = rng.uniform(-1.0, 1.0, (4, 3))
    y_star = rng.uniform(0.1, 0.9, (4, 2))
    stack = nets[0].copy()
    stack.weights = [np.stack(ws) for ws in zip(*(n.weights for n in nets))]
    trace = forward(stack, xs)
    E = loss.evaluate((trace.y - y_star)[:, None, :])
    deltas = sensitivities(stack, trace, y_star, loss)
    gains = GainSchedule.uniform(1.3)
    grads = loss_gradient(deltas, trace)
    layered = mlp_update(grads, E, gains, loss)
    flow = gradient_flow_update(grads, gains)
    for r, net in enumerate(nets):
        alone = forward(net, xs[r])
        E_r = loss.evaluate(alone.y - y_star[r])
        assert E[r] == E_r
        g_r = loss_gradient(sensitivities(net, alone, y_star[r], loss), alone)
        for a, b in zip(layered, mlp_update(g_r, E_r, gains, loss)):
            assert a[r].tobytes() == b.tobytes()
        for a, b in zip(flow, gradient_flow_update(g_r, gains)):
            assert a[r].tobytes() == b.tobytes()

    # one column-driven call: Lyapunov 0.7 and 0.5 runs on the layered law,
    # L1 and L2 runs on gradient flow; each row is its run's own call
    losses = [LyapunovLoss.multilayer(0.7), LyapunovLoss.multilayer(0.5), L1Loss(), L2Loss()]
    columns = _Losses(["mlp", "mlp", "baseline", "baseline"], losses)
    errs = trace.y - y_star
    alone = [forward(net, xs[r]) for r, net in enumerate(nets)]
    Es = [loss.evaluate(errs[r]) for r, loss in enumerate(losses)]
    g = [loss_gradient(sensitivities(net, alone[r], y_star[r], losses[r]), alone[r])
         for r, net in enumerate(nets)]
    stacked = mlp_update([np.stack(layer) for layer in zip(*g)], np.array(Es), gains, columns)
    E_layered = columns.scale_E(errs[:, None, :])
    for r, loss in enumerate(losses):
        if isinstance(loss, LyapunovLoss):
            assert E_layered[r] == Es[r]
            want = mlp_update(g[r], Es[r], gains, loss)
        else:
            want = gradient_flow_update(g[r], gains)
        for a, b in zip(stacked, want):
            assert a[r].tobytes() == b.tobytes()
