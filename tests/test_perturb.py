import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapflow import (
    Activation,
    DivergenceError,
    EpochFlow,
    GainSchedule,
    Integrator,
    L1Loss,
    L2Loss,
    LyapunovLoss,
    Mlp,
    ModeError,
    PerturbationSpec,
    ShapeError,
    StoppingRule,
    TheoryFlow,
    forward,
    integrate,
)
from lyapflow import control, dynamics, net
from lyapflow.cli import main
from lyapflow.config import parse_kv
from lyapflow.datasets import Dataset
from lyapflow.perturb import robustness_run


def test_vanishing_envelope_values():
    spec = PerturbationSpec(mode="vanishing", M=0.5, alpha=0.7)
    x = np.array([1.0, -4.0, 0.0])
    b = spec.bound_for(x)
    assert b[0] == pytest.approx(0.5)
    assert b[1] == pytest.approx(0.5 * 4.0 ** 0.7)
    assert b[2] == 0.0  # the envelope vanishes with the input


def test_amplitude_envelope_is_flat():
    spec = PerturbationSpec(mode="amplitude", M=0.3)
    b = spec.bound_for(np.array([10.0, 0.0, -2.0]))
    assert np.all(b == 0.3)


def test_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(mode="vanishing", M=0.5)  # alpha required
    with pytest.raises(ValueError):
        PerturbationSpec(mode="vanishing", M=0.5, alpha=1.0)
    with pytest.raises(ValueError):
        PerturbationSpec(mode="chaotic", M=0.5)
    with pytest.raises(ValueError):
        PerturbationSpec(mode="amplitude", M=-0.1)
    with pytest.raises(ValueError):
        PerturbationSpec(mode="amplitude", M=0.1, redraw_every=0)


def test_draws_respect_envelope():
    spec = PerturbationSpec(mode="vanishing", M=0.4, alpha=0.7, seed=3)
    x = np.array([2.0, -0.5, 0.01, 30.0])
    bound = spec.bound_for(x)
    rng = np.random.default_rng(3)
    for _ in range(2000):
        dx = spec.apply(x, rng) - x
        assert np.all(np.abs(dx) <= bound)


def test_draw_coverage_approaches_envelope():
    # uniform draws should come close to the bound in every component
    spec = PerturbationSpec(mode="vanishing", M=0.2, alpha=0.7, seed=0)
    x = np.array([1.5, -0.7, 3.0])
    tiled = np.tile(x, (20000, 1))
    rng = np.random.default_rng(123)
    dx = np.abs(spec.apply(tiled, rng) - tiled)
    bound = spec.bound_for(x)
    assert np.all(dx.max(axis=0) >= 0.9 * bound)


def test_zero_level_is_exact_noop():
    spec = PerturbationSpec(mode="amplitude", M=0.0)
    x = np.array([1.0, -2.0, 0.3])
    assert np.array_equal(spec.apply(x, np.random.default_rng(spec.seed)), x)


def test_apply_is_bitwise_numpy_uniform():
    # apply and the stacked integrator share one draw; it must equal
    # x + rng.uniform(-b, b) bit for bit and keep numpy's range check
    x = np.random.default_rng(5).normal(size=(6, 3)) * np.array([1.0, 1e-3, 40.0])
    for spec in (PerturbationSpec("vanishing", 0.7, alpha=0.3, seed=4),
                 PerturbationSpec("vanishing", 2.5, alpha=0.0, seed=4),
                 PerturbationSpec("amplitude", 0.2, seed=4)):
        for xi in (x, x[0]):
            want = xi + np.random.default_rng(4).uniform(-spec.bound_for(xi), spec.bound_for(xi))
            assert spec.apply(xi, np.random.default_rng(4)).tobytes() == want.tobytes()
    # numpy's own uniform warns of the overflow in b - -b before it refuses
    with np.errstate(over="ignore"), pytest.raises(OverflowError, match="Range exceeds"):
        PerturbationSpec("amplitude", 1e308).apply(x, np.random.default_rng(0))


def _noisy_problem():
    # dt keeps the per-step error travel well inside the stopping band, so
    # the sign-law chatter floor sits below epsilon and the settle is caught
    mlp = Mlp.zeros((2, 1))
    mode = TheoryFlow(np.array([50.0, 40.0]), np.array([0.3]))
    loss = LyapunovLoss.single_neuron(0.7)
    gains = GainSchedule.uniform(1.0)
    integ = Integrator(method="euler", dt=1e-6, t_max=0.01)
    return mlp, mode, loss, gains, integ, StoppingRule(1e-6)


def test_robustness_run_certifies_and_settles():
    mlp, mode, loss, gains, integ, stop = _noisy_problem()
    spec = PerturbationSpec(mode="vanishing", M=0.3, alpha=0.7, seed=7)
    traj, bound = robustness_run(mlp, mode, spec, gains, loss, integ, stop)
    assert bound is not None
    assert bound.flavor == "perturbed"
    assert bound.k_min == 1.0
    assert traj.settled_at is not None
    assert traj.settled_at <= bound.T


def test_robustness_run_refuses_excessive_level():
    mlp, mode, loss, gains, integ, stop = _noisy_problem()
    spec = PerturbationSpec(mode="vanishing", M=1.0, alpha=0.7, seed=7)
    traj, bound = robustness_run(mlp, mode, spec, gains, loss, integ, stop)
    assert bound is None          # M >= k_min: no certificate
    assert traj.n_records() > 0   # the run itself still executes


README_X = "1, -0.6, 0.8, 0.4"


@pytest.mark.parametrize("x, M, refusal", [
    (README_X, None, None),
    (README_X, 0.3, None),
    (README_X, 1.2, "k_min = 1.0 must exceed the perturbation level M = 1.2"),
    ("0, 0, 0, 0", None, "sample 0 is all zeros"),
], ids=["noise-free", "vanishing", "M-above-k", "all-zero"])
def test_the_library_and_the_cli_certify_alike(tmp_path, x, M, refusal):
    # robustness_run and `lyapflow train` share one Problem: the same T, E0
    # and flavor, or both refuse.  The all-zero sample once raised
    # AssumptionError from robustness_run instead of being refused
    text = ("net.layers = 4, 1\nnet.init = zeros\nloss.alpha = 0.7\ngains.k = 1\n"
            f"integ.t_max = 0.02\nmode.x = {x}\nmode.y_star = 0.48\n")
    if M is not None:
        text += f"perturb.mode = vanishing\nperturb.M = {M}\n"
    (tmp_path / "run.kv").write_text(text)
    main(["train", "--config", str(tmp_path / "run.kv"), "--out", str(tmp_path / "out")])
    kv = parse_kv((tmp_path / "out" / "summary.kv").read_text())
    spec = None if M is None else PerturbationSpec("vanishing", M, 0.7)
    mode = TheoryFlow(np.array([float(v) for v in x.split(",")]), np.array([0.48]))
    _, bound = robustness_run(Mlp.zeros((4, 1)), mode, spec, GainSchedule.uniform(1.0),
                              LyapunovLoss.single_neuron(0.7),
                              Integrator(dt=1e-4, t_max=0.02), StoppingRule())
    if refusal is None:
        assert (kv["bound.T"], kv["bound.E0"], kv["bound.flavor"]) == (
            repr(bound.T), repr(bound.E0), bound.flavor)
    else:
        assert bound is None and refusal in kv["bound"]


def test_amplitude_mode_never_certified():
    mlp, mode, loss, gains, integ, stop = _noisy_problem()
    spec = PerturbationSpec(mode="amplitude", M=0.01, seed=7)
    traj, bound = robustness_run(mlp, mode, spec, gains, loss, integ, stop)
    assert bound is None


def test_noisy_runs_are_reproducible():
    mlp, mode, loss, gains, integ, stop = _noisy_problem()
    spec = PerturbationSpec(mode="vanishing", M=0.4, alpha=0.7, seed=21)
    t1, _ = robustness_run(mlp, mode, spec, gains, loss, integ, stop)
    t2, _ = robustness_run(mlp, mode, spec, gains, loss, integ, stop)
    assert np.array_equal(t1.t, t2.t)
    assert np.array_equal(t1.E, t2.E)
    assert np.array_equal(t1.errors, t2.errors)
    t3, _ = robustness_run(
        mlp, mode,
        PerturbationSpec(mode="vanishing", M=0.4, alpha=0.7, seed=22),
        gains, loss, integ, stop)
    assert not np.array_equal(t1.E, t3.E)


def test_redraw_every_holds_offsets():
    # freeze the weight state (negligible gain); the recorded error then
    # reflects only the current noise draw, so holds show up as 3-blocks
    mlp = Mlp([np.array([[0.01, 0.01, 0.0]])], (Activation.SIGMOID,))
    mode = TheoryFlow(np.array([50.0, 40.0]), np.array([0.3]))
    loss = LyapunovLoss.single_neuron(0.7)
    spec = PerturbationSpec(mode="vanishing", M=0.2, alpha=0.7, seed=5,
                            redraw_every=3)
    integ = Integrator(method="euler", dt=1e-9, t_max=1.2e-8, record_stride=1)
    traj, _ = robustness_run(mlp, mode, spec, GainSchedule.uniform(1e-12),
                             loss, integ, stop=StoppingRule(1e-15))
    e = traj.errors[:, 0]
    assert len(e) >= 9
    for start in (0, 3, 6):
        assert abs(e[start] - e[start + 1]) < 1e-9
        assert abs(e[start] - e[start + 2]) < 1e-9
    jumps = [abs(e[3] - e[2]), abs(e[6] - e[5])]
    assert max(jumps) > 1e-6


def test_noise_stream_is_numpy_uniform_per_level():
    # a frozen unit (weights far above gain * dt) records sigma(w . x~) - y*
    # for each step's perturbed input x~; those must be exactly the draws
    # x + uniform(-b, b) of a generator seeded with the spec's seed
    mlp = Mlp([np.array([[0.3, -0.2, 0.1, 0.05]])], (Activation.SIGMOID,))
    mode = TheoryFlow(np.array([1.5, -0.4, 2.0]), np.array([0.3]))
    integ = Integrator(method="euler", dt=1e-3, t_max=2e-2)
    specs = [PerturbationSpec("vanishing", M, alpha=0.7, seed=11) for M in (0.0, 0.4, 1.2)]
    specs.append(PerturbationSpec("amplitude", 0.3, seed=11))
    for spec in specs:
        traj, _ = robustness_run(mlp, mode, spec, GainSchedule.uniform(1e-300),
                                 LyapunovLoss.single_neuron(0.7), integ, StoppingRule(1e-300))
        rng = np.random.default_rng(11)
        expected = [forward(mlp, mode.x + rng.uniform(-b, b)).y - mode.y_star
                    for b in [spec.bound_for(mode.x)] * traj.n_records()]
        assert traj.errors.tobytes() == np.array(expected).tobytes()


def test_sweep_levels_may_differ_only_in_M():
    # one noise stream serves the stack, drawn with the first level's alpha,
    # seed, mode and redraw_every; a level that differs in any of them would
    # silently run as the first level does
    mlp, mode, loss, gains, integ, stop = _noisy_problem()
    base = PerturbationSpec(mode="vanishing", M=0.1, alpha=0.7, seed=3)
    for other in (PerturbationSpec("vanishing", 0.2, alpha=0.5, seed=3),
                  PerturbationSpec("vanishing", 0.2, alpha=0.7, seed=4),
                  PerturbationSpec("vanishing", 0.2, alpha=0.7, seed=3, redraw_every=2),
                  PerturbationSpec("amplitude", 0.2, seed=3)):
        with pytest.raises(ValueError, match="differ only in M"):
            dynamics.integrate_batch(mlp, mode, loss, gains, integ, stop,
                                     noises=[base, other])
    with pytest.raises(ValueError, match="one or more noise levels"):
        dynamics.integrate_batch(mlp, mode, loss, gains, integ, stop, noises=[])


def test_sweep_keeps_the_draw_range_check():
    # an infinite range fails its own level, with numpy's error; the levels
    # beside it run on as they would alone
    mlp, mode, loss, gains, _, stop = _noisy_problem()
    integ = Integrator(method="euler", dt=1e-6, t_max=1e-5)
    specs = [PerturbationSpec("amplitude", M, seed=2) for M in (0.01, 1e308, 0.02)]
    first, failed, last = dynamics.integrate_batch(mlp, mode, loss, gains, integ, stop,
                                                   noises=specs)
    assert first.n_records() == 11 and last.n_records() == 11
    assert type(failed) is OverflowError and str(failed) == "Range exceeds valid bounds"
    with pytest.raises(OverflowError, match="Range exceeds valid bounds"):
        robustness_run(mlp, mode, specs[1], gains, loss, integ, stop)
    assert _same_trajectory(last, robustness_run(mlp, mode, specs[2], gains, loss,
                                                 integ, stop)[0])
    # a stack whose every level fails at its first draw, before any record,
    # returns each level's error in its slot
    specs = [PerturbationSpec("amplitude", M, seed=2) for M in (1e308, 1.7e308)]
    for failed in dynamics.integrate_batch(mlp, mode, loss, gains, integ, stop, noises=specs):
        assert type(failed) is OverflowError and str(failed) == "Range exceeds valid bounds"


def test_a_stack_takes_one_norm_call_per_record(monkeypatch):
    # the control norms of every run recorded at one time come from one
    # signal_norm call, not one per run: on the README neuron, 8 vanishing
    # levels record 296 to 370 times each, and a run-by-run norm made 2,665
    # calls; a record time and each landing take at most one call
    calls = []

    def counted(signal):
        calls.append(1)
        return control.signal_norm(signal)

    monkeypatch.setattr(dynamics, "signal_norm", counted)
    levels = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    specs = [PerturbationSpec("vanishing", M, alpha=0.7, seed=0) for M in levels]
    mode = TheoryFlow(np.array([1.0, -0.6, 0.8, 0.4]), np.array([0.48]))
    got = dynamics.integrate_batch(Mlp.zeros((4, 1)), mode, LyapunovLoss.single_neuron(0.7),
                                   GainSchedule.uniform(1.0),
                                   Integrator(dt=0.024884 / 1e3, t_max=0.02),
                                   StoppingRule(1e-9), specs)
    records = [traj.n_records() for traj in got]
    assert min(records) > 250 and all(traj.settled_at is not None for traj in got)
    assert len(calls) <= max(records) + len(specs)


def test_an_epoch_sweep_fails_each_level_at_the_row_its_draw_fails():
    # an epoch draws its noise as one block, but a level still fails at the
    # row where its own draw first fails: M = 1e308 has an infinite range at
    # row 0, and M = 6e307 has a finite range whose perturbed input overflows
    # on row 1, which sits near the largest float; the levels beside them
    # run on as they would alone
    data = Dataset(np.array([[0.5, -0.4, 0.3], [1.79e308, 1.79e308, 1.79e308],
                             [-0.2, 0.6, 0.1]]), np.array([[0.3], [0.6], [0.4]]))
    mlp, mode = Mlp.zeros((3, 1)), EpochFlow(data)
    loss, gains = LyapunovLoss.single_neuron(0.7), GainSchedule.uniform(1.0)
    integ, stop = Integrator(method="euler", dt=1e-9, t_max=6e-9), StoppingRule(1e-12)
    specs = [PerturbationSpec("amplitude", M, seed=4) for M in (0.01, 1e308, 6e307, 0.02)]
    got = dynamics.integrate_batch(mlp, mode, loss, gains, integ, stop, noises=specs)
    alone = []
    for spec in specs:
        try:
            alone.append(integrate(mlp, mode, loss, gains, integ, stop, noise=spec))
        except (OverflowError, ShapeError) as exc:
            alone.append(exc)
    assert type(alone[1]) is OverflowError and str(alone[1]) == "Range exceeds valid bounds"
    assert type(alone[2]) is ShapeError and str(alone[2]) == "input contains non-finite entries"
    for a, b in zip(got, alone):
        if isinstance(b, Exception):
            assert type(a) is type(b) and str(a) == str(b)
        else:
            assert a.n_records() == 3 and _same_trajectory(a, b)
    # the overflow is on row 1, after a step on row 0, not at the epoch's start
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        rates = dynamics._Law.rates
        mp.setattr(dynamics._Law, "rates",
                   lambda self, w, x, y: seen.append(len(x.x)) or rates(self, w, x, y))
        dynamics.integrate_batch(mlp, mode, loss, gains, integ, stop, noises=specs[1:3])
    assert seen == [1]  # the 6e307 level alone steps on row 0, then fails


def test_sweep_refuses_a_bias_unit_gamma_for_the_single_neuron_law(tmp_path, capsys):
    # the single-neuron law freezes its bias weight, so the bias unit excites
    # nothing; the key that asked for it is refused when the config is read
    path = tmp_path / "run.kv"
    path.write_text("net.layers = 2, 1\nnet.init = zeros\nmode.x = 0.1, 0.05\n"
                    "mode.y_star = 0.48\nbound.gamma_source = bias_unit\n"
                    "sweep.m_values = 0, 0.5\n")
    assert main(["perturb-sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "unknown key 'bound.gamma_source'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_epoch_mode_refuses_held_noise():
    data = Dataset(np.array([[0.5, 1.0], [-1.0, 0.3]]), np.array([[0.2], [0.7]]))
    spec = PerturbationSpec("vanishing", 0.1, alpha=0.7, redraw_every=2)
    with pytest.raises(ModeError, match="redraw_every must be 1"):
        integrate(Mlp.zeros((2, 1)), EpochFlow(data), LyapunovLoss.single_neuron(0.7),
                  GainSchedule.uniform(1.0), Integrator(method="euler", dt=1e-3, t_max=0.01),
                  StoppingRule(), noise=spec)


def _property_problem(law: str, flow: str, rng):
    """(mlp, mode, loss, integ, stop) for one law in one flow, all small."""
    n = 3
    if law == "single_neuron":
        mlp = Mlp.random((n, 1), seed=int(rng.integers(1000)), scale=0.5)
        loss, m, dt = LyapunovLoss.single_neuron(0.7), 1, 2e-3
        targets = rng.uniform(0.2, 0.8, (6, m))
    elif law == "mlp":
        mlp = Mlp.random((n, 4, 1), seed=int(rng.integers(1000)),
                         output_activation=Activation.IDENTITY)
        loss, m, dt = LyapunovLoss.multilayer(0.7), 1, 1e-2
        targets = rng.uniform(-1.0, 1.0, (6, m))
    else:
        mlp = Mlp.random((n, 4, 2), seed=int(rng.integers(1000)))
        loss, m, dt = L2Loss(), 2, 5e-2
        targets = rng.uniform(0.1, 0.9, (6, m))
    inputs = rng.uniform(0.2, 2.0, (6, n)) * rng.choice((-1.0, 1.0), (6, n))
    stop = StoppingRule(float(rng.choice((1e-3, 1e-4))))
    if flow == "epoch":
        mode = EpochFlow(Dataset(inputs, targets))
        return mlp, mode, loss, Integrator(method="euler", dt=dt, t_max=6 * dt * 25), stop
    mode = TheoryFlow(inputs[0], targets[0])
    method = "rk4" if flow == "rk4" else "euler"
    return mlp, mode, loss, Integrator(method=method, dt=dt, t_max=dt * 120), stop


def _same_trajectory(a, b) -> bool:
    return (a.t.tobytes() == b.t.tobytes() and a.E.tobytes() == b.E.tobytes()
            and a.errors.tobytes() == b.errors.tobytes()
            and a.control_norm.tobytes() == b.control_norm.tobytes()
            and a.settled_at == b.settled_at
            and [w.tobytes() for w in a.final_weights]
            == [w.tobytes() for w in b.final_weights])


@contextlib.contextmanager
def _plain_inputs():
    """Integrate on the plain-array path: every law evaluation hands forward
    and the single-neuron law the bare input array, so each re-checks it,
    re-appends its bias entry and takes its sign, and sensitivities derives
    the error from y* again."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "forward", lambda mlp, x, trace=None: net.forward(mlp, x.x))
        mp.setattr(dynamics, "single_neuron_update",
                   lambda x, *args, **kw: control.single_neuron_update(x.x, *args, **kw))
        mp.setattr(dynamics, "sensitivities",
                   lambda mlp, trace, y_star, loss, e: net.sensitivities(mlp, trace, y_star, loss))
        yield


def _runs(mlp, mode, loss, gains, integ, stop, specs) -> list:
    """The noise-free run and the stacked sweep over `specs`, each a
    Trajectory or the error that stopped it."""
    noiseless = dynamics.integrate_batch(mlp, mode, loss, gains, integ, stop)
    return noiseless + dynamics.integrate_batch(mlp, mode, loss, gains, integ, stop,
                                                noises=specs)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    law=st.sampled_from(["single_neuron", "mlp", "baseline"]),
    flow=st.sampled_from(["rk4", "euler", "epoch"]),
    envelope=st.sampled_from(["vanishing", "amplitude"]),
    levels=st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0, 1.5, 4.0]),
                    min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    redraw_every=st.integers(1, 3),
    rows=st.lists(st.sampled_from([0.2, 0.45, 0.7, 0.9, "l1", "l2"]), min_size=2, max_size=5),
)
def test_a_level_in_a_batch_is_bitwise_the_level_alone(law, flow, envelope, levels,
                                                        seed, redraw_every, rows):
    rng = np.random.default_rng(seed)
    mlp, mode, loss, integ, stop = _property_problem(law, flow, rng)
    gains = GainSchedule.uniform(1.0)        # levels >= 1.0 reach k_min
    # a stack whose runs differ in loss: Lyapunov rows at the drawn alphas
    # under the problem's own law (the layered law for the L2 problem's net),
    # L1 and L2 rows under gradient flow
    lyapunov = (LyapunovLoss.single_neuron if law == "single_neuron"
                else LyapunovLoss.multilayer)
    losses = [L1Loss() if r == "l1" else L2Loss() if r == "l2" else lyapunov(r)
              for r in rows]
    stacked = dynamics.integrate_batch(mlp, mode, losses, gains, integ, stop)
    for run_loss, got in zip(losses, stacked):
        try:
            want = integrate(mlp, mode, run_loss, gains, integ, stop)
        except DivergenceError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
        else:
            assert _same_trajectory(got, want)
    specs = [PerturbationSpec(envelope, M, alpha=0.7 if envelope == "vanishing" else None,
                              seed=seed, redraw_every=1 if flow == "epoch" else redraw_every)
             for M in levels]
    # checking each input once, when the flow is built, changes no bit: the
    # lone noise-free run and every run of the stack match the plain path
    checked_once = _runs(mlp, mode, loss, gains, integ, stop, specs)
    with _plain_inputs():
        plain = _runs(mlp, mode, loss, gains, integ, stop, specs)
    for a, b in zip(checked_once, plain):
        if isinstance(b, Exception):
            assert type(a) is type(b) and str(a) == str(b)
        else:
            assert _same_trajectory(a, b)
    # each level of the stack is bitwise the level run alone, or fails with
    # the error the level alone raises
    for spec, got in zip(specs, checked_once[1:]):
        try:
            want, _ = robustness_run(mlp, mode, spec, gains, loss, integ, stop)
        except (DivergenceError, ShapeError, OverflowError) as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
        else:
            assert _same_trajectory(got, want)
