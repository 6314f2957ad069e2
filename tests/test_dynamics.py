import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    PerturbationSpec,
    Sample,
    ShapeError,
    StoppingRule,
    TheoryFlow,
    Trajectory,
    dataset_loss,
    estimate_gamma,
    forward,
    gen_blobs,
    gradient_flow_update,
    integrate,
    loss_gradient,
    lyapunov_rate_scale,
    mlp_update,
    sensitivities,
    signal_norm,
)
from lyapflow import dynamics
from lyapflow.bounds import certify
from lyapflow.control import single_neuron_update
from lyapflow.datasets import Dataset
from lyapflow.dynamics import _buffer, _Law, _Losses, integrate_batch, select_law

ALPHA = 0.7
BETA = ALPHA / (ALPHA + 1.0)
COMPARE = [LyapunovLoss.multilayer(ALPHA), L1Loss(), L2Loss()]  # a compare's rows


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    alpha=st.floats(0.01, 0.99),
    log_epsilon=st.floats(-12.0, 1.0),
    k=st.floats(0.1, 10.0),
    x=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5).filter(
        lambda v: max(abs(u) for u in v) > 1e-3),
    # exactly 0 and 1 land inside the unit's outputs; just past them the
    # landing point is out of its reach, and certify refuses
    y_star=st.one_of(st.sampled_from([0.0, 1.0, -1e-4, 1.0005]),
                     st.floats(-0.05, 1.05).filter(lambda y: abs(y - 0.5) > 1e-3)),
    m_share=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    scale=st.one_of(st.just(0.0), st.floats(0.5, 2.0)),
)
def test_a_certified_single_neuron_run_settles_by_its_certificate(alpha, log_epsilon, k, x,
                                                                  y_star, m_share, scale):
    # a run lands inside its band in closed form, so no step up to T itself
    # carries it over the band: a noise-free run settles by T, is monotone
    # and, but for RK4's own error at T/10, settles within b / v of the
    # closed form, from a saturated start too.  A noise redraw moves z by
    # w . (d' - d), which does not shrink with e, so a noisy run is neither
    # monotone nor sure to settle by T; when it settles, it has landed
    epsilon, M, x = 10.0 ** log_epsilon, m_share * k, np.array(x)
    mlp = Mlp.random((len(x), 1), seed=7, scale=scale) if scale else Mlp.zeros((len(x), 1))
    loss, gains = LyapunovLoss.single_neuron(alpha), GainSchedule.uniform(k)
    mode = TheoryFlow(x, np.array([y_star]))
    noise = PerturbationSpec("vanishing", M, alpha, seed=1) if M > 0 else None
    e0 = float(forward(mlp, x).y[0]) - y_star
    E0 = loss.evaluate(np.array([e0]))
    bound = certify(E0, gains, estimate_gamma(x), loss, "single_neuron", noise,
                    y_star=[y_star], epsilon=epsilon)[0]
    if bound is None:
        return
    b = ((alpha + 1) * epsilon) ** (1 / (alpha + 1))
    v = k * np.abs(x).sum() * lyapunov_rate_scale(alpha)
    for dt in (bound.T / 1e3, bound.T / 10, bound.T):
        integ = Integrator(dt=dt, t_max=bound.T + dt)
        traj = integrate(mlp, mode, loss, gains, integ, StoppingRule(epsilon), noise=noise)
        assert traj.t[-1] <= math.ceil(integ.t_max / dt - 1e-12) * dt  # no landing past the grid
        if noise is not None and traj.settled_at is None:
            continue
        assert traj.settled_at is not None and traj.settled_at <= bound.T + dt
        assert traj.t[-1] == traj.settled_at and traj.E[-1] <= epsilon
        if noise is None:
            assert traj.monotone_violations() == 0
        if noise is None and E0 > epsilon and dt != bound.T / 10:
            assert abs(traj.settled_at - (abs(e0) - b) / v) <= b / v


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


def _per_cell_csv(traj) -> str:
    """The text to_csv wrote one array element at a time: its reference."""
    m = traj.errors.shape[1]
    lines = ["t,E,settle_flag,control_norm," + ",".join(f"err_{j}" for j in range(m))]
    for i in range(len(traj.t)):
        flag = 1 if traj.E[i] <= traj.epsilon else 0
        cells = [f"{traj.t[i]:.17g}", f"{traj.E[i]:.17g}", str(flag),
                 f"{traj.control_norm[i]:.17g}"]
        cells += [f"{v:.17g}" for v in traj.errors[i]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("m", [1, 3])
def test_to_csv_writes_what_a_per_cell_loop_writes(tmp_path, m):
    # every special value in every column, and an E exactly at epsilon
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e308,
                       1e-9, 1e-9 * (1 + 2**-52), 1.0 / 3.0, 0.1, 2.0**60])
    n = len(values)
    traj = Trajectory(t=np.roll(values, 1), E=values.copy(),
                      errors=np.stack([np.roll(values, 2 + j) for j in range(m)], axis=1),
                      control_norm=np.roll(values, 5), settled_at=None, epsilon=1e-9,
                      final_weights=[])
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    text = path.read_text()
    assert text == _per_cell_csv(traj)
    flags = [line.split(",")[2] for line in text.splitlines()[1:]]
    assert len(flags) == n and flags[0] == "0"  # nan is not settled
    assert flags[8:10] == ["1", "0"]  # E = epsilon is, one ulp above it is not


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


def test_noisy_epochs_draw_the_stream_in_row_order():
    # one sample at a time, as the stream was first drawn: spec.apply on each
    # row in order from one generator, then a hand Euler step of the law; the
    # epoch's block of draws must match it bitwise (a block taken in the wrong
    # order, say (n, rows), would give each row another row's draws)
    mlp = Mlp([np.array([[0.3, -0.2, 0.1, 0.05]])], (Activation.SIGMOID,))
    data = Dataset(np.array([[0.5, -1.2, 0.8], [-0.3, 0.9, 1.5], [1.1, 0.4, -0.7]]),
                   np.array([[0.2], [0.7], [0.4]]))
    loss, gains, dt = LyapunovLoss.single_neuron(0.7), GainSchedule.uniform(1.0), 1e-3
    spec = PerturbationSpec("vanishing", 0.5, alpha=0.7, seed=3)
    traj = integrate(mlp, EpochFlow(data), loss, gains,
                     Integrator(method="euler", dt=dt, t_max=6 * dt), StoppingRule(1e-12),
                     noise=spec)

    rng, work = np.random.default_rng(spec.seed), mlp.copy()
    E, errors, norms = [], [], [0.0]
    for epoch in range(3):
        E_n, err_n = dataset_loss(work, data, loss)
        E.append(E_n)
        errors.append(err_n)
        if epoch == 2:
            break
        for x, y_star in zip(data.inputs, data.targets):
            x = spec.apply(x, rng)
            trace = forward(work, x)
            u = single_neuron_update(x, (trace.y - y_star)[0], trace.preacts[0][0], gains,
                                     rate_scale=lyapunov_rate_scale(0.7))
            work.weights = [work.weights[0] + dt * u[0]]
        norms.append(signal_norm(u))
    assert traj.final_weights[0].tobytes() == work.weights[0].tobytes()
    assert traj.E.tobytes() == np.array(E).tobytes()
    assert traj.errors.tobytes() == np.array(errors).tobytes()
    assert traj.control_norm.tobytes() == np.array(norms).tobytes()


def test_epoch_mode_decreases_blob_loss():
    data = gen_blobs(seed=12, per_class=5, separation=6.0)
    mlp = Mlp.random((4, 1), seed=0, scale=0.05)
    loss = LyapunovLoss.single_neuron(0.7)
    integ = Integrator(method="euler", dt=2e-4, t_max=2e-4 * len(data) * 250)
    traj = integrate(mlp, EpochFlow(data), loss, GainSchedule.uniform(1.0),
                     integ, StoppingRule(1e-12))
    assert traj.E[-1] < 0.1 * traj.E[0]
    assert traj.errors.shape[1] == 1
    # at every epoch checkpoint, E is bit for bit the loss of the per-sample
    # forward errors and each mean |error| their mean; a hand Euler replay
    # gives each checkpoint's weights
    work, gains = mlp.copy(), GainSchedule.uniform(1.0)
    for E, mean_abs in zip(traj.E, traj.errors):
        errs = np.array([forward(work, x).y - y for x, y in zip(data.inputs, data.targets)])
        assert E == loss.evaluate(errs)
        assert mean_abs.tobytes() == np.mean(np.abs(errs), axis=0).tobytes()
        for x, y_star in zip(data.inputs, data.targets):
            trace = forward(work, x)
            u = single_neuron_update(x, (trace.y - y_star)[0], trace.preacts[0][0], gains,
                                     rate_scale=lyapunov_rate_scale(0.7))
            work.weights = [work.weights[0] + integ.dt * u[0]]


def test_dataset_loss_matches_per_sample_loop():
    # the dataset pass is the per-sample forward pass: E is the loss of the
    # stacked per-sample errors and the mean |error| their mean, bit for bit
    for sizes, out_act in (((4, 1), Activation.SIGMOID), ((4, 8, 1), Activation.IDENTITY),
                           ((3, 5, 2), Activation.SIGMOID)):
        rng = np.random.default_rng(sum(sizes))
        for rows in (1, 40):
            data = Dataset(rng.normal(0.0, 2.0, (rows, sizes[0])),
                           rng.uniform(0.0, 1.0, (rows, sizes[-1])))
            for seed in range(4):
                mlp = Mlp.random(sizes, seed=seed, output_activation=out_act, scale=2.0)
                errs = np.array([forward(mlp, x).y - y
                                 for x, y in zip(data.inputs, data.targets)])
                for loss in (LyapunovLoss(alpha=0.6), L2Loss(), L1Loss()):
                    total, mean_abs = dataset_loss(mlp, data, loss)
                    assert total == loss.evaluate(errs)
                    assert mean_abs.tobytes() == np.mean(np.abs(errs), axis=0).tobytes()
                    if rows == 1:  # a theory flow's E0: the 1-d sample's pass
                        x, y = data.sample(0)
                        assert total == loss.evaluate(forward(mlp, x).y - y)


@pytest.mark.parametrize("sizes", [(4, 1), (3, 5, 2), (2, 6, 4, 3)])
def test_stacked_dataset_loss_is_bitwise_each_run_alone(sizes):
    rng = np.random.default_rng(sum(sizes))
    for rows in (1, 7, 40):
        data = Dataset(rng.normal(0.0, 2.0, (rows, sizes[0])),
                       rng.uniform(0.0, 1.0, (rows, sizes[-1])))
        nets = [Mlp.random(sizes, seed=s, scale=2.0) for s in range(6)]
        stack = nets[0].copy()
        stack.weights = [np.stack(ws) for ws in zip(*(n.weights for n in nets))]
        # one loss for every run, or a stack's columns: one loss per run, an
        # alpha = 0.5 row and L2's where ** takes np.sqrt and np.square
        mixed = [LyapunovLoss(alpha=0.6), L2Loss(), L1Loss(), LyapunovLoss(alpha=0.5),
                 L2Loss(), LyapunovLoss(alpha=0.3)]
        columns = _Losses([select_law(stack, isinstance(loss, LyapunovLoss)) for loss in mixed],
                          mixed)
        for loss in (LyapunovLoss(alpha=0.6), L2Loss(), L1Loss(), columns):
            total, mean_abs = dataset_loss(stack, data, loss)
            assert total.shape == (6,) and mean_abs.shape == (6, sizes[-1])
            for r, net in enumerate(nets):
                E_r, mean_r = dataset_loss(net, data, mixed[r] if loss is columns else loss)
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
    # the layered law refuses alpha + beta >= 1, a lone run's or a noise stack's
    for levels in (None, [0.0, 0.3]):
        noises = None if levels is None else [PerturbationSpec("vanishing", M, 0.7)
                                              for M in levels]
        with pytest.raises(ValueError, match=r"needs alpha \+ beta < 1; got 0.7 \+ 0.41176"):
            dynamics.integrate_batch(deep, mode, LyapunovLoss(0.7), GainSchedule.uniform(1.0),
                                     integ, StoppingRule(), noises)
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


@pytest.mark.parametrize("sizes,out_act,losses", [
    ((4, 1), Activation.SIGMOID, [LyapunovLoss.single_neuron(ALPHA)]),
    ((4, 8, 1), Activation.IDENTITY, [LyapunovLoss.multilayer(ALPHA)]),
    ((4, 8, 1), Activation.IDENTITY, COMPARE),
    ((4, 8, 2), Activation.SIGMOID, [LyapunovLoss.multilayer(0.5), L2Loss()]),
])
def test_an_evaluation_keeps_its_results_through_the_next(sizes, out_act, losses):
    # the law works in buffers held per active set; E, the errors and the
    # signal it returns are its own, untouched by the next evaluation at
    # other weights (RK4 keeps every stage's signal, records read them)
    rng = np.random.default_rng(len(losses))
    mlp = Mlp.random(sizes, seed=2, output_activation=out_act)
    law = _Law(mlp, losses, GainSchedule.uniform(1.0))
    x, y_star = Sample(rng.uniform(-1.0, 1.0, sizes[0]), sizes[0]), np.full(sizes[-1], 0.3)
    states = []
    for _ in range(2):
        state, weights = _buffer(law.shapes, len(losses), len(losses) > 1)
        for w in weights:
            w[...] = rng.uniform(-2.0, 2.0, w.shape)
        states.append(weights)
    first = law.eval(states[0], x, y_star)
    kept = [np.array(r).tobytes() for r in first]
    second = law.eval(states[1], x, y_star)
    assert [np.array(r).tobytes() for r in first] == kept
    assert all(np.array(a).tobytes() != np.array(b).tobytes() for a, b in zip(first, second))


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
@pytest.mark.parametrize("sizes,seed,out_act,losses,offset,first", [
    pytest.param((4, 8, 1), 3, Activation.IDENTITY, COMPARE, 0.05, 2, id="sizes0-3"),
    pytest.param((4, 8, 8, 1), 5, Activation.IDENTITY, COMPARE, 0.05, 2, id="sizes1-5"),
    pytest.param((4, 8, 2), 4, Activation.SIGMOID, COMPARE, 0.01, 2, id="sigmoid-4-8-2"),
    pytest.param((4, 8, 1), 3, Activation.IDENTITY,
                 [LyapunovLoss.multilayer(ALPHA), LyapunovLoss.multilayer(0.4)], 0.05, 1,
                 id="two-alphas"),
    # an alpha = 0.5 row rounds as alone, where ** takes np.sqrt, only by its sqrt rows
    pytest.param((4, 8, 1), 3, Activation.IDENTITY,
                 [LyapunovLoss.multilayer(ALPHA), LyapunovLoss.multilayer(0.5)], 0.05, 1,
                 id="alphas-0.7-0.5"),
    pytest.param((4, 8, 1), 3, Activation.IDENTITY,
                 [LyapunovLoss.multilayer(0.5), L1Loss(), L2Loss()], 0.05, 0,
                 id="compare-0.5"),
])
def test_the_flat_state_steps_like_a_per_layer_loop(sizes, seed, out_act, losses, offset,
                                                      first, method):
    # near its target, row `first` of the stack settles before every other
    # row, so the rows that keep stepping reuse the buffers the settled
    # row's final weights were copied from, and the law's held buffers are
    # made again for the rows left
    mlp = Mlp.random(sizes, seed=seed, output_activation=out_act)
    x = np.array([0.5, -0.3, 0.8, 0.1])
    y_star = forward(mlp, x).y + offset
    gains, stop = GainSchedule.uniform(1.0), StoppingRule(1e-4)
    integ = Integrator(method, dt=1e-2, t_max=1.0, record_stride=7)
    trajs = integrate_batch(mlp, TheoryFlow(x, y_star), losses, gains, integ, stop)
    settled = [traj.settled_at for traj in trajs]
    others = settled[:first] + settled[first + 1:]
    assert settled[first] is not None and min(s or 2.0 for s in others) > settled[first]
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


def _same_outcome(a, b) -> bool:
    """Bitwise the same Trajectory, or the same error."""
    if isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return (a.t.tobytes() == b.t.tobytes() and a.E.tobytes() == b.E.tobytes()
            and a.errors.tobytes() == b.errors.tobytes()
            and a.control_norm.tobytes() == b.control_norm.tobytes()
            and a.settled_at == b.settled_at
            and [w.tobytes() for w in a.final_weights]
            == [w.tobytes() for w in b.final_weights])


def _landing_stack(case: str) -> list:
    """The README neuron at dt = T/1e3 to 1.1 T, T its certificate at
    gamma = 1, as a lone run, a noisy run, an alpha-sweep or a theory
    perturb-sweep."""
    mlp, loss, mode, c, E0, T = _reference_problem()
    T *= c  # the certificate at gamma = 1: c times the closed-form settle time
    integ, stop = Integrator(dt=T / 1e3, t_max=1.1 * T), StoppingRule()
    gains = GainSchedule.uniform(1.0)
    if case == "alpha-sweep":
        losses = [LyapunovLoss.single_neuron(a) for a in (0.3, 0.5, 0.7, 0.9)]
        return integrate_batch(mlp, mode, losses, gains, integ, stop)
    levels = {"lone": None, "redraw-1": [0.3], "redraw-3": [0.3],
              # M = 1.5 >= k has no certificate; 1e308 fails its first draw
              "perturb-sweep": [0.0, 0.3, 1e308, 1.5, 0.6]}[case]
    every = 3 if case == "redraw-3" else 2 if case == "perturb-sweep" else 1
    noises = None if levels is None else [
        PerturbationSpec("vanishing", M, ALPHA, seed=1, redraw_every=every) for M in levels]
    return integrate_batch(mlp, mode, loss, gains, integ, stop, noises)


@pytest.mark.parametrize("case", ["lone", "redraw-1", "redraw-3", "alpha-sweep", "perturb-sweep"])
def test_the_landing_constants_held_per_active_set_change_no_bit(monkeypatch, case):
    # S, v, b, 2 v dt and b/2 are computed once per active set and input;
    # forgetting them before every step must change no bit of any run
    held = _landing_stack(case)
    land = dynamics._Theory._land

    def fresh(self, runs, t, errs):
        self.held = (None, None)
        land(self, runs, t, errs)

    monkeypatch.setattr(dynamics._Theory, "_land", fresh)
    every_step = _landing_stack(case)
    settled = [run.settled_at for run in held if not isinstance(run, Exception)]
    assert None not in settled  # every run lands, stacked rows at different steps
    assert len(set(settled)) == len(settled)
    assert sum(isinstance(run, OverflowError) for run in held) == (case == "perturb-sweep")
    assert all(_same_outcome(a, b) for a, b in zip(held, every_step))
