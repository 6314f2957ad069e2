from dataclasses import replace

import numpy as np
import pytest

from lyapflow import (
    AssumptionError,
    ConfigError,
    GainSchedule,
    GammaEstimate,
    GuaranteeError,
    Integrator,
    L2Loss,
    LyapunovLoss,
    Mlp,
    PerturbationSpec,
    StoppingRule,
    TheoryFlow,
    Trajectory,
    estimate_gamma,
    forward,
    gen_blobs,
    integrate,
    settling_bound,
    verify_decrease,
)
from lyapflow.bounds import certify
from lyapflow.cli import main as cli_main
from lyapflow.config import config_from_text, parse_kv

ALPHA = 0.7
BETA = ALPHA / (ALPHA + 1.0)


def test_settling_bound_formula_direct():
    loss = LyapunovLoss.single_neuron(ALPHA)
    E0, k, g = 0.125, 2.0, 0.8
    b = settling_bound(E0, GainSchedule.uniform(k), GammaEstimate(g), loss)
    expected = E0 ** (1 - BETA) / (k * g * (1 - BETA))
    assert b.T == pytest.approx(expected, rel=1e-15)
    assert b.c == pytest.approx(k * g, rel=1e-15)
    assert b.beta == pytest.approx(BETA, rel=1e-15)
    assert b.flavor == "single_neuron"


def test_single_neuron_certificate_refuses_bias_unit_gamma():
    # the single-neuron law freezes the bias weight, so the bias unit gives
    # that law no excitation; a config cannot ask for that gamma any more
    with pytest.raises(ConfigError, match="unknown key 'bound.gamma_source'"):
        config_from_text("net.layers = 2, 1\nmode.x = 0.1, 0.05\nmode.y_star = 0.48\n"
                         "bound.gamma_source = bias_unit\n")


def test_certify_picks_the_flavor_and_gives_each_refusal_a_reason():
    gains, gamma = GainSchedule.uniform(2.0), GammaEstimate(0.5)
    single, layered = LyapunovLoss.single_neuron(ALPHA), LyapunovLoss.multilayer(ALPHA)
    noise = PerturbationSpec("vanishing", 0.5, alpha=ALPHA)
    # only the single-neuron law is certified: 'perturbed' under vanishing noise
    assert certify(0.3, gains, gamma, single, "single_neuron") == (
        settling_bound(0.3, gains, gamma, single), None)
    assert certify(0.3, gains, gamma, single, "single_neuron", noise) == (
        settling_bound(0.3, gains, gamma, single, flavor="perturbed", M=0.5), None)
    # an epoch-mode run gets the same certificate, marked heuristic last
    epoch, _ = certify(0.3, gains, gamma, single, "single_neuron", noise, epoch=True)
    assert epoch == replace(settling_bound(0.3, gains, gamma, single, flavor="perturbed",
                                           M=0.5), heuristic=True)
    assert epoch.kv_lines()[-1] == "heuristic = true"
    layered_why = "no certificate for the layered (mlp) law"
    refusals = [
        ("no certificate for l2 loss", certify(0.3, gains, gamma, L2Loss(), "baseline")),
        # the output-layer gradient carries |e|^alpha, so the rate bound fails
        # near the settle: refused with or without noise, in either mode
        (layered_why, certify(0.3, gains, gamma, layered, "mlp")),
        (layered_why, certify(0.3, gains, gamma, layered, "mlp", noise)),
        (layered_why, certify(0.3, gains, gamma, layered, "mlp", noise, epoch=True)),
        ("already settled", certify(0.0, gains, gamma, single, "single_neuron")),
        ("amplitude-mode", certify(0.3, gains, gamma, single, "single_neuron",
                                   PerturbationSpec("amplitude", 0.1))),
        ("must exceed", certify(0.3, gains, gamma, single, "single_neuron",
                                replace(noise, M=2.0))),
        ("all zeros", certify(0.3, gains, AssumptionError("sample 0 is all zeros"),
                              single, "single_neuron")),
    ]
    for reason, (bound, why) in refusals:
        assert bound is None and reason in why


def test_bound_gain_scaling_reproduces_reference_ratios():
    # published single-unit example: T(k) for k = 1, 5, 10 scales exactly
    # like 1/k -- the 20224.176 / 4044.835 / 2022.418 pattern.
    T1 = 5.0 * 4044.83522  # calibrate E0 so that T(k=1) matches the table
    gamma = GammaEstimate(1.0)
    loss = LyapunovLoss.single_neuron(ALPHA)
    E0 = (T1 * (1 - BETA)) ** (1.0 / (1 - BETA))
    got1 = settling_bound(E0, GainSchedule.uniform(1.0), gamma, loss).T
    got5 = settling_bound(E0, GainSchedule.uniform(5.0), gamma, loss).T
    got10 = settling_bound(E0, GainSchedule.uniform(10.0), gamma, loss).T
    assert got1 == pytest.approx(20224.1761, rel=1e-6)
    assert got5 == pytest.approx(4044.83522, rel=1e-6)
    assert got10 == pytest.approx(2022.4176, rel=1e-6)
    # the inverse-gain law itself holds to machine precision
    assert got5 == pytest.approx(got1 / 5.0, rel=1e-12)
    assert got10 == pytest.approx(got1 / 10.0, rel=1e-12)


def test_bound_scales_inversely_with_gain_for_many_gains():
    loss = LyapunovLoss.single_neuron(0.4)
    gamma = GammaEstimate(2.5)
    base = settling_bound(0.33, GainSchedule.uniform(1.0), gamma, loss).T
    for k in (2.0, 4.0, 8.0, 3.7, 11.0):
        got = settling_bound(0.33, GainSchedule.uniform(k), gamma, loss).T
        assert got == pytest.approx(base / k, rel=1e-12)


def test_perturbed_flavor_and_guarantee_refusal():
    loss = LyapunovLoss.single_neuron(ALPHA)
    g = GammaEstimate(1.5)
    b = settling_bound(0.25, GainSchedule.uniform(2.0), g, loss,
                       flavor="perturbed", M=0.5)
    assert b.c == pytest.approx((2.0 - 0.5) * 1.5, rel=1e-15)
    assert b.M == 0.5
    # larger noise level -> strictly weaker certificate
    b2 = settling_bound(0.25, GainSchedule.uniform(2.0), g, loss,
                        flavor="perturbed", M=1.0)
    assert b2.T > b.T
    with pytest.raises(GuaranteeError):
        settling_bound(0.25, GainSchedule.uniform(1.0), g, loss,
                       flavor="perturbed", M=1.0)  # M == k_min
    with pytest.raises(GuaranteeError):
        settling_bound(0.25, GainSchedule.uniform(1.0), g, loss,
                       flavor="perturbed", M=2.0)
    with pytest.raises(ValueError):
        settling_bound(0.25, GainSchedule.uniform(1.0), g, loss,
                       flavor="perturbed")  # M missing


def test_settling_bound_validation():
    loss = LyapunovLoss.single_neuron(ALPHA)
    g = GammaEstimate(1.0)
    with pytest.raises(ValueError):
        settling_bound(0.0, GainSchedule.uniform(1.0), g, loss)
    with pytest.raises(ValueError):
        settling_bound(-1.0, GainSchedule.uniform(1.0), g, loss)
    with pytest.raises(ValueError):
        settling_bound(1.0, GainSchedule.uniform(1.0), g, loss, flavor="magic")
    with pytest.raises(ValueError, match="flavor must be one of"):  # no layered flavor
        settling_bound(1.0, GainSchedule.uniform(1.0), g, loss, flavor="mlp")


def test_bound_kv_lines_and_table():
    loss = LyapunovLoss.single_neuron(ALPHA)
    b = settling_bound(0.5, GainSchedule.uniform(1.0), GammaEstimate(1.0), loss)
    lines = b.kv_lines()
    assert any(ln.startswith("T = ") for ln in lines)
    assert "M = none" in lines
    assert "flavor = single_neuron" in lines
    assert "T" in b.table()


def test_estimate_gamma_data_min():
    x = np.array([[1.0, -3.0], [0.5, 0.2], [2.0, -2.0]])
    g = estimate_gamma(x)
    assert g.gamma == 0.5          # weakest sample's strongest entry
    assert g.source == "data_min"


def test_estimate_gamma_zero_sample_raises():
    x = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(AssumptionError) as err:
        estimate_gamma(x)
    assert "sample 1" in str(err.value)


def test_estimate_gamma_bias_unit_mode(tmp_path, capsys):
    # gone: the bias unit no longer lends an all-zero sample gamma = 1, so
    # that sample gets no certificate; a sweep refuses each level's and runs.
    # A given gamma does not stand in for it either: such a run never moves
    x = np.array([[0.0, 0.0]])
    with pytest.raises(AssumptionError, match="all zeros"):
        estimate_gamma(x)
    for run, gamma in enumerate(("", "bound.gamma = 1\n")):
        path = tmp_path / f"run{run}.kv"
        path.write_text("net.layers = 2, 1\nnet.init = zeros\nmode.x = 0, 0\nmode.y_star = 0.8\n"
                        "integ.dt = 1e-3\ninteg.t_max = 0.01\nsweep.m_values = 0, 0.5\n" + gamma)
        out = tmp_path / f"out{run}"
        assert cli_main(["bound", "--config", str(path), "--out", str(out / "b")]) == 1, gamma
        assert "refused (sample 0 is all zeros" in capsys.readouterr().out
        assert cli_main(["perturb-sweep", "--config", str(path), "--out", str(out / "s")]) == 0
        kv = parse_kv((out / "s" / "summary.kv").read_text())
        assert kv["row0.certified"] == kv["row1.certified"] == "false"


def test_estimate_gamma_accepts_dataset_and_vectors():
    data = gen_blobs(seed=0, per_class=4)
    g = estimate_gamma(data)
    assert g.gamma > 0.0
    single = estimate_gamma(np.array([2.0, -0.1]))
    assert single.gamma == 2.0


def test_gamma_validation():
    with pytest.raises(ValueError):
        GammaEstimate(0.0)
    with pytest.raises(ValueError):
        GammaEstimate(-1.0)


def _reference_run(t_stop_factor):
    x = np.array([1.0, -0.6, 0.8, 0.4])
    mlp = Mlp.zeros((4, 1))
    loss = LyapunovLoss.single_neuron(ALPHA)
    mode = TheoryFlow(x, np.array([0.48]))
    c = float(np.sum(np.abs(x)))
    E0 = loss.evaluate(forward(mlp, x).y - mode.y_star)
    T = E0 ** (1 - BETA) / (c * (1 - BETA))
    # on the exact-equality trajectory the slope check has no margin, so the
    # record spacing must keep the O(h^2) central-difference bias under the
    # verifier's slack; h = T/1000 does comfortably up to 0.9 T
    integ = Integrator(dt=T / 2000, t_max=t_stop_factor * T, record_stride=2)
    traj = integrate(mlp, mode, loss, GainSchedule.uniform(1.0), integ,
                     StoppingRule())
    return traj, c


def test_verify_decrease_passes_on_reference_trajectory():
    # checked away from the settle point, where the central difference of
    # the closed-form solution is still well conditioned
    traj, c = _reference_run(0.9)
    report = verify_decrease(traj, c=c, beta=BETA)
    assert report.ok
    assert report.worst_margin <= 0.0
    assert len(report.slopes) == traj.n_records() - 2
    assert "pass" in report.summary()


def test_verify_decrease_flags_rising_loss():
    rising = Trajectory(
        t=np.array([0.0, 1.0, 2.0, 3.0]),
        E=np.array([1.0, 1.1, 1.3, 1.2]),
        errors=np.zeros((4, 1)), control_norm=np.zeros(4),
        settled_at=None, epsilon=1e-9, final_weights=[],
    )
    report = verify_decrease(rising, c=1.0, beta=0.5)
    assert not report.ok
    assert report.worst_margin > 0.0
    assert "FAIL" in report.summary()


def test_verify_decrease_input_validation():
    traj, c = _reference_run(0.5)
    short = Trajectory(t=traj.t[:2], E=traj.E[:2], errors=traj.errors[:2],
                       control_norm=traj.control_norm[:2], settled_at=None,
                       epsilon=1e-9, final_weights=[])
    with pytest.raises(ValueError):
        verify_decrease(short, c=1.0, beta=0.5)
    with pytest.raises(ValueError):
        verify_decrease(traj, c=-1.0, beta=0.5)
    with pytest.raises(ValueError):
        verify_decrease(traj, c=1.0, beta=1.5)
