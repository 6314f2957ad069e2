import numpy as np
import pytest

from lyapflow import (
    Activation,
    DivergenceError,
    EpochFlow,
    GainSchedule,
    HorizonError,
    Integrator,
    L1Loss,
    L2Loss,
    LyapunovLoss,
    Mlp,
    ModeError,
    Sample,
    ShapeError,
    StoppingRule,
    TheoryFlow,
    Trajectory,
    dataset_loss,
    forward,
    gen_blobs,
    gradient_flow_update,
    integrate,
    loss_gradient,
    mlp_update,
    sensitivities,
    signal_norm,
)
from lyapflow import dynamics
from lyapflow.datasets import Dataset
from lyapflow.dynamics import _buffer, _Law, integrate_batch

ALPHA = 0.7
BETA = ALPHA / (ALPHA + 1.0)


def _reference_problem():
    """Single sigmoid unit at w = 0 with a fixed sample: E(t) has a closed form."""
    x = np.array([1.0, -0.6, 0.8, 0.4])
    mlp = Mlp.zeros((4, 1))
    loss = LyapunovLoss.single_neuron(ALPHA)
    mode = TheoryFlow(x, np.array([0.48]))
    c = float(np.sum(np.abs(x)))  # k = 1
    E0 = loss.evaluate(forward(mlp, x).y - mode.y_star)
    T = E0 ** (1 - BETA) / (c * (1 - BETA))
    return mlp, loss, mode, c, E0, T


def _closed_form(E0, c, t):
    base = E0 ** (1 - BETA) - c * (1 - BETA) * t
    return np.maximum(base, 0.0) ** (1.0 / (1 - BETA))


def test_trajectory_matches_closed_form():
    mlp, loss, mode, c, E0, T = _reference_problem()
    integ = Integrator(method="rk4", dt=T / 2000, t_max=0.9 * T)
    traj = integrate(mlp, mode, loss, GainSchedule.uniform(1.0), integ, StoppingRule())
    expected = _closed_form(E0, c, traj.t)
    rel = np.abs(traj.E - expected) / expected
    assert float(np.max(rel)) < 1e-9
    assert traj.settled_at is None  # stopped at 0.9 T, before the settle point


def test_rk4_order_and_euler_comparison():
    mlp, loss, mode, c, E0, T = _reference_problem()
    stop = StoppingRule()
    gains = GainSchedule.uniform(1.0)

    def final_error(method, n):
        integ = Integrator(method=method, dt=0.5 * T / n, t_max=0.5 * T)
        traj = integrate(mlp, mode, loss, gains, integ, stop)
        return abs(traj.E[-1] - _closed_form(E0, c, traj.t[-1]))

    e_coarse = final_error("rk4", 8)
    e_fine = final_error("rk4", 16)
    assert e_coarse / e_fine > 8.0  # fourth-order scheme: expect ~16x

    assert final_error("euler", 64) > 20.0 * final_error("rk4", 64)


def test_settle_detection_on_reference_problem():
    mlp, loss, mode, c, E0, T = _reference_problem()
    integ = Integrator(method="rk4", dt=T / 5000, t_max=1.5 * T)
    traj = integrate(mlp, mode, loss, GainSchedule.uniform(1.0), integ, StoppingRule(1e-9))
    assert traj.settled_at is not None
    assert traj.settled_at <= T * 1.0001
    # loss only decreases on the way there
    assert traj.monotone_violations() == 0


def _fake_traj(t, E, epsilon=1e-9):
    t = np.asarray(t, dtype=float)
    E = np.asarray(E, dtype=float)
    return Trajectory(t=t, E=E, errors=np.zeros((len(t), 1)),
                      control_norm=np.zeros(len(t)), settled_at=None,
                      epsilon=epsilon, final_weights=[])


def test_already_settled_start():
    mlp = Mlp.zeros((2, 1))
    x = np.array([0.3, 0.4])
    y0 = forward(mlp, x).y  # exact output -> E = 0
    traj = integrate(mlp, TheoryFlow(x, y0), LyapunovLoss.single_neuron(0.7),
                     GainSchedule.uniform(1.0),
                     Integrator(dt=0.01, t_max=1.0), StoppingRule())
    assert traj.n_records() == 1
    assert traj.settled_at == 0.0
    assert traj.t[0] == 0.0


def test_integrate_does_not_mutate_network():
    mlp, loss, mode, c, E0, T = _reference_problem()
    before = [w.copy() for w in mlp.weights]
    integ = Integrator(dt=T / 100, t_max=0.3 * T)
    traj = integrate(mlp, mode, loss, GainSchedule.uniform(1.0), integ, StoppingRule())
    for w0, w1 in zip(before, mlp.weights):
        assert np.array_equal(w0, w1)
    assert any(not np.array_equal(w0, wf)
               for w0, wf in zip(before, traj.final_weights))


def test_integration_is_deterministic():
    mlp, loss, mode, c, E0, T = _reference_problem()
    integ = Integrator(dt=T / 500, t_max=0.8 * T)
    a = integrate(mlp, mode, loss, GainSchedule.uniform(1.0), integ, StoppingRule())
    b = integrate(mlp, mode, loss, GainSchedule.uniform(1.0), integ, StoppingRule())
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.E, b.E)
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.control_norm, b.control_norm)


def test_record_stride_thins_records():
    mlp, loss, mode, c, E0, T = _reference_problem()
    integ = Integrator(dt=T / 1000, t_max=0.5 * T, record_stride=100)
    traj = integrate(mlp, mode, loss, GainSchedule.uniform(1.0), integ, StoppingRule())
    assert traj.n_records() == 6  # steps 0,100,...,400 plus the final step
    assert traj.t[1] == pytest.approx(100 * integ.dt)


def test_trajectory_csv_schema(tmp_path):
    mlp, loss, mode, c, E0, T = _reference_problem()
    integ = Integrator(dt=T / 50, t_max=1.2 * T)
    traj = integrate(mlp, mode, loss, GainSchedule.uniform(1.0), integ, StoppingRule())
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,E,settle_flag,control_norm,err_0"
    assert len(lines) == traj.n_records() + 1
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[0]) == traj.t[i]      # %.17g round-trips exactly
        assert float(cells[1]) == traj.E[i]
        assert cells[2] in ("0", "1")
    assert lines[-1].split(",")[2] == "1"  # settled on the last record


def test_epoch_mode_semantics_match_hand_stepping():
    # 1-in/1-out sigmoid unit, L2 gradient flow, two samples, one epoch:
    # replicate the per-sample Euler updates with explicit formulas.
    w0, b0 = 0.2, -0.1
    mlp = Mlp([np.array([[w0, b0]])], (Activation.SIGMOID,))
    data = Dataset(np.array([[0.5], [-1.0]]), np.array([[1.0], [0.0]]))
    k, dt = 2.0, 0.01

    w, b = w0, b0
    for x, ys in [(0.5, 1.0), (-1.0, 0.0)]:
        a = w * x + b
        s = 1.0 / (1.0 + np.exp(-a))
        delta = s * (1.0 - s) * (s - ys)
        w -= dt * k * delta * x
        b -= dt * k * delta * 1.0

    integ = Integrator(method="euler", dt=dt, t_max=2 * dt)
    traj = integrate(mlp, EpochFlow(data), L2Loss(), GainSchedule.uniform(k),
                     integ, StoppingRule())
    assert traj.final_weights[0][0, 0] == pytest.approx(w, rel=1e-14)
    assert traj.final_weights[0][0, 1] == pytest.approx(b, rel=1e-14)
    # records: epoch 0 at t=0 and epoch 1 at t = 2 dt
    assert np.allclose(traj.t, [0.0, 2 * dt])
    assert traj.control_norm[0] == 0.0


def test_epoch_mode_decreases_blob_loss():
    data = gen_blobs(seed=12, per_class=5, separation=6.0)
    mlp = Mlp.random((4, 1), seed=0, scale=0.05)
    loss = LyapunovLoss.single_neuron(0.7)
    integ = Integrator(method="euler", dt=2e-4, t_max=2e-4 * len(data) * 250)
    traj = integrate(mlp, EpochFlow(data), loss, GainSchedule.uniform(1.0),
                     integ, StoppingRule(1e-12))
    assert traj.E[-1] < 0.1 * traj.E[0]
    assert traj.errors.shape[1] == 1
    # per-epoch loss agrees with an explicit per-sample sum at the start
    work = mlp.copy()
    by_hand = sum(loss.evaluate(forward(work, x).y - y)
                  for x, y in zip(data.inputs, data.targets))
    assert traj.E[0] == pytest.approx(by_hand, rel=1e-12)


def test_dataset_loss_matches_per_sample_loop():
    data = gen_blobs(seed=4, per_class=7, separation=3.0)
    mlp = Mlp.random((4, 1), seed=3)
    for loss in (LyapunovLoss(alpha=0.6), L2Loss()):
        total, mean_abs = dataset_loss(mlp, data, loss)
        errs = np.array([forward(mlp, x).y - y
                         for x, y in zip(data.inputs, data.targets)])
        assert total == pytest.approx(
            sum(loss.evaluate(e) for e in errs), rel=1e-12)
        assert mean_abs[0] == pytest.approx(float(np.mean(np.abs(errs))), rel=1e-12)


@pytest.mark.parametrize("sizes", [(4, 1), (3, 5, 2), (2, 6, 4, 3)])
def test_stacked_dataset_loss_is_bitwise_each_run_alone(sizes):
    rng = np.random.default_rng(sum(sizes))
    for rows in (1, 7, 40):
        data = Dataset(rng.normal(0.0, 2.0, (rows, sizes[0])),
                       rng.uniform(0.0, 1.0, (rows, sizes[-1])))
        nets = [Mlp.random(sizes, seed=s, scale=2.0) for s in range(6)]
        stack = nets[0].copy()
        stack.weights = [np.stack(ws) for ws in zip(*(n.weights for n in nets))]
        for loss in (LyapunovLoss(alpha=0.6), L2Loss(), L1Loss()):
            total, mean_abs = dataset_loss(stack, data, loss)
            assert total.shape == (6,) and mean_abs.shape == (6, sizes[-1])
            for r, net in enumerate(nets):
                E_r, mean_r = dataset_loss(net, data, loss)
                assert total[r] == E_r
                assert mean_abs[r].tobytes() == mean_r.tobytes()


def test_horizon_budget_enforced():
    mlp = Mlp.zeros((2, 1))
    mode = TheoryFlow(np.array([1.0, 1.0]), np.array([0.3]))
    integ = Integrator(dt=1e-9, t_max=1.0, step_budget=1000)
    with pytest.raises(HorizonError):
        integrate(mlp, mode, LyapunovLoss.single_neuron(0.7),
                  GainSchedule.uniform(1.0), integ, StoppingRule())


def test_epoch_mode_needs_one_full_epoch():
    data = gen_blobs(seed=1, per_class=5, separation=4.0)  # 10 samples
    mlp = Mlp.zeros((4, 1))
    integ = Integrator(method="euler", dt=0.1, t_max=0.5)  # 5 steps < 10 samples
    with pytest.raises(HorizonError):
        integrate(mlp, EpochFlow(data), LyapunovLoss.single_neuron(0.7),
                  GainSchedule.uniform(1.0), integ, StoppingRule())


def test_divergence_raises_with_time_attached():
    # explicit Euler on an identity unit with an absurd gain oscillates to Inf
    mlp = Mlp([np.array([[0.4, 0.1]])], (Activation.IDENTITY,))
    mode = TheoryFlow(np.array([1.0]), np.array([0.0]))
    integ = Integrator(method="euler", dt=0.1, t_max=5.0)
    with pytest.raises(DivergenceError) as err:
        integrate(mlp, mode, L2Loss(), GainSchedule.uniform(1e6), integ,
                  StoppingRule())
    assert err.value.t >= 0.0


def test_law_selection_errors():
    deep = Mlp.random((2, 3, 1), seed=0)
    mode = TheoryFlow(np.array([0.1, 0.2]), np.array([0.5]))
    integ = Integrator(dt=0.01, t_max=0.1)
    with pytest.raises(ModeError):
        integrate(deep, mode, LyapunovLoss.multilayer(0.7),
                  GainSchedule.uniform(1.0), integ, StoppingRule(),
                  law="single_neuron")
    single = Mlp.zeros((2, 1))
    with pytest.raises(ModeError):
        integrate(single, mode, L2Loss(), GainSchedule.uniform(1.0), integ,
                  StoppingRule(), law="mlp")
    # the net and the loss decide the law: the layered law on one sigmoid
    # unit broke its own certificate, and gradient flow is for L1/L2 only
    for loss, law in ((LyapunovLoss.single_neuron(0.7), "mlp"),
                      (LyapunovLoss.single_neuron(0.7), "baseline"),
                      (L2Loss(), "single_neuron")):
        with pytest.raises(ModeError, match=f"law '{law}' does not fit"):
            integrate(single, mode, loss, GainSchedule.uniform(1.0), integ,
                      StoppingRule(), law=law)
    with pytest.raises(ValueError, match="one or more losses"):
        dynamics.integrate_batch(deep, mode, [], GainSchedule.uniform(1.0), integ, StoppingRule())
    with pytest.raises(ModeError):
        integrate(single, "not a mode", L2Loss(), GainSchedule.uniform(1.0),
                  integ, StoppingRule())


def test_identity_output_uses_mlp_law():
    # auto selection must not hand an identity unit to the sigmoid-only law
    mlp = Mlp.random((2, 1), seed=1, output_activation=Activation.IDENTITY)
    mode = TheoryFlow(np.array([0.5, -0.2]), np.array([2.0]))
    loss = LyapunovLoss.multilayer(0.7)
    integ = Integrator(dt=1e-3, t_max=0.5)
    traj = integrate(mlp, mode, loss, GainSchedule.uniform(1.0), integ,
                     StoppingRule())
    assert traj.E[-1] < traj.E[0]


def test_integrator_validation():
    with pytest.raises(ValueError):
        Integrator(method="rk5")
    with pytest.raises(ValueError):
        Integrator(dt=0.0)
    with pytest.raises(ValueError):
        Integrator(t_max=-1.0)
    with pytest.raises(ValueError):
        Integrator(record_stride=0)
    with pytest.raises(ValueError):
        StoppingRule(epsilon=0.0)


@pytest.mark.parametrize("flow", ["theory", "epoch"])
@pytest.mark.parametrize("field,message", [
    ("inputs", "input contains non-finite entries"),
    ("targets", "target contains non-finite entries"),
])
def test_a_non_finite_input_is_refused_before_the_first_step(monkeypatch, flow, field,
                                                             message):
    data = gen_blobs(seed=2, per_class=3, separation=3.0)
    getattr(data, field)[1, -1] = np.nan  # the Dataset checked it when built
    mode = (EpochFlow(data) if flow == "epoch"
            else TheoryFlow(data.inputs[1], data.targets[1]))
    evaluations = []
    monkeypatch.setattr(dynamics, "forward", lambda *a: evaluations.append(a))
    with pytest.raises(ShapeError, match=message):
        integrate(Mlp.zeros((4, 1)), mode, LyapunovLoss.single_neuron(ALPHA),
                  GainSchedule.uniform(1.0), Integrator(method="euler", dt=1e-3, t_max=0.1),
                  StoppingRule())
    assert evaluations == []


def test_monotone_violation_counter():
    traj = _fake_traj([0, 1, 2, 3], [1.0, 0.5, 0.6, 0.4])
    assert traj.monotone_violations() == 1
    flat = _fake_traj([0, 1, 2], [1.0, 1.0, 1.0])
    assert flat.monotone_violations() == 0  # ties are not violations


@pytest.mark.parametrize("sizes,out_act,loss,kind", [
    ((4, 1), Activation.SIGMOID, LyapunovLoss.single_neuron(ALPHA), "single_neuron"),
    ((4, 8, 1), Activation.IDENTITY, LyapunovLoss.multilayer(ALPHA), "mlp"),
    ((4, 8, 2), Activation.SIGMOID, L2Loss(), "baseline"),
    # a stack of three stretches: layered, gradient flow (L1 and L2), layered
    ((4, 8, 1), Activation.IDENTITY,
     [LyapunovLoss.multilayer(ALPHA), L1Loss(), L2Loss(), LyapunovLoss.multilayer(0.5)],
     ["mlp", "baseline", "baseline", "mlp"]),
])
def test_law_rates_are_bitwise_the_eval_signal(sizes, out_act, loss, kind):
    losses, kinds = (loss, kind) if isinstance(loss, list) else ([loss], [kind])
    runs = () if len(losses) == 1 else (len(losses),)  # a lone run has no run axis
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mlp = Mlp.random(sizes, seed=seed, output_activation=out_act)
        law = _Law(mlp, losses, GainSchedule.uniform(1.3))
        assert law.kinds == kinds
        # one flat weight state, (runs, P) or (P,), read through its layer views
        state, weights = _buffer(law.shapes, len(losses), bool(runs))
        for w in weights:
            w[...] = rng.uniform(-2.0, 2.0, w.shape)
        x = rng.uniform(-1.0, 1.0, sizes[0])
        x[seed % sizes[0]] = 0.0  # sign(x) = 0 freezes that weight
        y_star = rng.uniform(-1.0, 1.0, sizes[-1])
        # the plain array is checked and bias-augmented at every evaluation,
        # the Sample once; the signal, shaped like the state, is the same to the bit
        expected = law.eval(weights, x, y_star)[2]
        assert expected.shape == state.shape
        sample = Sample(x, sizes[0])
        for got in (law.eval(weights, sample, y_star)[2], law.rates(weights, sample, y_star)):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def _per_layer_run(mlp, x, y_star, loss, gains, integ, stop) -> dict:
    """One run stepped layer by layer with the public net and control calls,
    each weight layer its own array: what integrate_batch's flat state must
    reproduce to the bit, run by run."""
    net = mlp.copy()

    def law(weights):
        net.weights = weights
        trace = forward(net, x)
        e = trace.y - y_star
        E = loss.evaluate(e)
        grad = loss_gradient(sensitivities(net, trace, y_star, loss, e), trace)
        u = (mlp_update(grad, E, gains, loss) if isinstance(loss, LyapunovLoss)
             else gradient_flow_update(grad, gains))
        return E, e, u

    def moved(weights, a, u):
        return [w + a * v for w, v in zip(weights, u)]

    dt, W = integ.dt, [w.copy() for w in mlp.weights]
    last = int(np.ceil(integ.t_max / dt - 1e-12))
    out = {"t": [], "E": [], "errors": [], "control_norm": [], "settled_at": None}
    for n in range(last + 1):
        E, e, u = law(W)
        settled = E <= stop.epsilon
        if n % integ.record_stride == 0 or n == last or settled:
            for key, value in zip(("t", "E", "errors", "control_norm"),
                                  (n * dt, E, e, signal_norm(u))):
                out[key].append(value)
        if settled:
            out["settled_at"] = n * dt
            break
        if n == last:
            break
        if integ.method == "euler":
            W = moved(W, dt, u)
            continue
        k2 = law(moved(W, dt / 2.0, u))[2]
        k3 = law(moved(W, dt / 2.0, k2))[2]
        k4 = law(moved(W, dt, k3))[2]
        W = [w + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
             for w, a, b, c, d in zip(W, u, k2, k3, k4)]
    out["final_weights"] = W
    return out


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("sizes,seed", [((4, 8, 1), 3), ((4, 8, 8, 1), 5)])
def test_the_flat_state_steps_like_a_per_layer_loop(sizes, seed, method):
    # the compare stack; near its target, the rows settle at different
    # times, and the rows that keep stepping reuse the buffers the
    # settled row's final weights were copied from
    mlp = Mlp.random(sizes, seed=seed, output_activation=Activation.IDENTITY)
    x = np.array([0.5, -0.3, 0.8, 0.1])
    y_star = forward(mlp, x).y + 0.05
    losses = [LyapunovLoss.multilayer(ALPHA), L1Loss(), L2Loss()]
    gains, stop = GainSchedule.uniform(1.0), StoppingRule(1e-4)
    integ = Integrator(method, dt=1e-2, t_max=1.0, record_stride=7)
    trajs = integrate_batch(mlp, TheoryFlow(x, y_star), losses, gains, integ, stop)
    settled = [traj.settled_at for traj in trajs]
    assert settled[2] is not None and min(s or 2.0 for s in settled[:2]) > settled[2]
    for loss, traj in zip(losses, trajs):
        want = _per_layer_run(mlp, x, y_star, loss, gains, integ, stop)
        assert traj.settled_at == want["settled_at"]
        for key in ("t", "E", "errors", "control_norm"):
            got = getattr(traj, key)
            assert got.tobytes() == np.array(want[key]).reshape(got.shape).tobytes(), key
        assert len(traj.final_weights) == len(want["final_weights"])
        for got, w in zip(traj.final_weights, want["final_weights"]):
            assert got.shape == w.shape and got.tobytes() == w.tobytes()


def _count_lyapunov_evaluations(monkeypatch) -> list:
    calls = []
    original = LyapunovLoss.evaluate

    def counting(self, e_bar):
        calls.append(1)
        return original(self, e_bar)

    monkeypatch.setattr(LyapunovLoss, "evaluate", counting)
    return calls


def test_rk4_evaluates_E_once_per_step_for_single_neuron_law(monkeypatch):
    mlp, loss, mode, c, E0, T = _reference_problem()
    calls = _count_lyapunov_evaluations(monkeypatch)
    integ = Integrator(method="rk4", dt=T / 200, t_max=0.5 * T)
    traj = integrate(mlp, mode, loss, GainSchedule.uniform(1.0), integ, StoppingRule())
    assert traj.settled_at is None and traj.n_records() == 101  # 100 steps, stride 1
    assert len(calls) == traj.n_records()


def test_rk4_evaluates_E_at_every_stage_for_layered_law(monkeypatch):
    mlp = Mlp.random((4, 8, 1), seed=4, output_activation=Activation.IDENTITY)
    mode = TheoryFlow(np.array([0.3, -0.2, 0.5, 0.1]), np.array([-3.0]))
    loss = LyapunovLoss.multilayer(ALPHA)
    calls = _count_lyapunov_evaluations(monkeypatch)
    integ = Integrator(method="rk4", dt=1e-3, t_max=0.01)
    traj = integrate(mlp, mode, loss, GainSchedule.uniform(1.0), integ, StoppingRule())
    steps = traj.n_records() - 1
    assert steps == 10 and traj.settled_at is None
    # the start of each step plus three stages, which scale by E**beta
    assert len(calls) == traj.n_records() + 3 * steps
