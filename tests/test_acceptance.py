"""Whole-system acceptance checks.

Each test exercises one numbered guarantee end to end and prints a single
``[criterion NN] PASS/FAIL`` line with the measured numbers, so a test log
doubles as a report.  Run under pytest, or directly::

    python3 tests/test_acceptance.py
"""

import filecmp
import io
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from lyapflow import (
    Activation,
    EpochFlow,
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
    forward,
    gen_blobs,
    gen_linreg,
    integrate,
    robustness_run,
    settling_bound,
    verify_decrease,
)
from lyapflow.cli import main as cli_main
from lyapflow.config import parse_kv

ALPHA = 0.7
BETA = ALPHA / (1.0 + ALPHA)

# Reference single-neuron problem: zero weights, fixed sample, unit gain.
# sigma(0) = 0.5 makes the initial error exactly 0.02, and the decay constant
# is the gain-weighted input l1 norm.
X_REF = np.array([1.0, -0.6, 0.8, 0.4])
Y_REF = np.array([0.48])
C_REF = 2.8
E0_REF = abs(0.5 - 0.48) ** (1.0 + ALPHA) / (1.0 + ALPHA)
T_STAR = E0_REF ** (1.0 - BETA) / (C_REF * (1.0 - BETA))

_CACHE = {}


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def _closed_form(t):
    base = np.maximum(E0_REF ** (1.0 - BETA) - C_REF * (1.0 - BETA) * t, 0.0)
    return base ** (1.0 / (1.0 - BETA))


def _run_reference(fresh: bool = False) -> dict:
    """Criterion 1/2/9 run: RK4 at dt = T*/1e4 through the settle."""
    if not fresh and "ref" in _CACHE:
        return _CACHE["ref"]
    integ = Integrator(method="rk4", dt=T_STAR / 1e4, t_max=1.05 * T_STAR,
                       record_stride=10)
    start = time.perf_counter()
    traj = integrate(Mlp.zeros((4, 1)), TheoryFlow(X_REF, Y_REF),
                     LyapunovLoss.single_neuron(ALPHA), GainSchedule.uniform(1.0),
                     integ, StoppingRule(1e-9))
    out = {"traj": traj, "elapsed": time.perf_counter() - start}
    _CACHE["ref"] = out
    return out


def _run_deep(fresh: bool = False) -> dict:
    """Criterion 4/9 run: 4-8-1 net, fixed seeded sample, multilayer law."""
    if not fresh and "deep" in _CACHE:
        return _CACHE["deep"]
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, 4)
    mlp = Mlp.random((4, 8, 1), seed=4, output_activation=Activation.IDENTITY,
                     scale=0.5)
    loss = LyapunovLoss.multilayer(ALPHA)
    integ = Integrator(method="rk4", dt=5e-5, t_max=0.4, record_stride=100)
    start = time.perf_counter()
    traj = integrate(mlp, TheoryFlow(x, np.array([-3.0])), loss,
                     GainSchedule.uniform(1.0), integ, StoppingRule(1e-9),
                     law="mlp")
    out = {"traj": traj, "loss": loss, "elapsed": time.perf_counter() - start}
    _CACHE["deep"] = out
    return out


def _run_noisy(fresh: bool = False) -> dict:
    """Criterion 6/9 run: widely scaled inputs so per-step noise redraws stay
    far inside the certificate's slope margins for any draw."""
    if not fresh and "noisy" in _CACHE:
        return _CACHE["noisy"]
    spec = PerturbationSpec(mode="vanishing", M=0.5, alpha=ALPHA, seed=6,
                            redraw_every=1)
    integ = Integrator(method="euler", dt=1.5e-10, t_max=2e-5, record_stride=2200)
    start = time.perf_counter()
    traj, bound = robustness_run(
        Mlp.zeros((2, 1)), TheoryFlow(np.array([5e4, 5e4]), np.array([0.2])),
        spec, GainSchedule.uniform(1.0), LyapunovLoss.single_neuron(ALPHA),
        integ, StoppingRule(1e-8))
    out = {"traj": traj, "bound": bound, "elapsed": time.perf_counter() - start}
    _CACHE["noisy"] = out
    return out


def test_01_closed_form_match():
    run = _run_reference()
    traj = run["traj"]
    mask = traj.t <= 0.9 * T_STAR
    rel = float(np.max(np.abs(traj.E[mask] - _closed_form(traj.t[mask]))
                       / _closed_form(traj.t[mask])))
    ok = rel <= 1e-3 and run["elapsed"] < 5.0
    assert _report(1, ok, f"closed-form decay match: max rel err {rel:.2e} "
                          f"(tol 1e-3) over t <= 0.9*T, {run['elapsed']:.2f}s")


def test_02_settling_window():
    traj = _run_reference()["traj"]
    settled = traj.settled_at
    ok = settled is not None and 0.99 * T_STAR <= settled <= T_STAR
    shown = f"{settled:.6e}" if settled is not None else "never"
    assert _report(2, ok, f"settle at {shown} in [0.99, 1.00] * T "
                          f"(T = {T_STAR:.6e}, ratio "
                          f"{settled / T_STAR:.6f})" if settled is not None
                   else f"settle at {shown}, expected within [{0.99 * T_STAR:.3e}, "
                        f"{T_STAR:.3e}]")


def test_03_bound_gain_scaling():
    start = time.perf_counter()
    loss = LyapunovLoss.single_neuron(ALPHA)
    gamma = GammaEstimate(1.0)
    # pattern values 20224.176 / 4044.835 / 2022.418; pick E0 to land on them
    t5_target = 4044.83522
    e0 = (t5_target * 5.0 * (1.0 - BETA)) ** (1.0 / (1.0 - BETA))
    T = {k: settling_bound(e0, GainSchedule.uniform(float(k)), gamma, loss,
                           flavor="single_neuron").T for k in (1, 5, 10)}
    elapsed = time.perf_counter() - start
    ratio_ok = (abs(T[1] / T[5] - 5.0) <= 5.0 * 1e-12
                and abs(T[1] / T[10] - 10.0) <= 10.0 * 1e-12)
    pattern_ok = (abs(T[1] - 20224.1761) / 20224.1761 < 1e-6
                  and abs(T[5] - 4044.83522) / 4044.83522 < 1e-6
                  and abs(T[10] - 2022.41761) / 2022.41761 < 1e-6)
    ok = ratio_ok and pattern_ok and elapsed < 1.0
    assert _report(3, ok, f"bound gain scaling: T = {T[1]:.3f} / {T[5]:.3f} / "
                          f"{T[10]:.4f} for k = 1/5/10, ratios exact to 1e-12")


def test_04_deep_monotone_decrease():
    run = _run_deep()
    traj, loss = run["traj"], run["loss"]
    violations = traj.monotone_violations(slack_scale=1e-9)
    # bias unit feeds the output layer, so gamma = 1 certifies c = k_min
    report = verify_decrease(traj, c=1.0, beta=loss.beta)
    ok = violations == 0 and report.ok and run["elapsed"] < 30.0
    assert _report(4, ok, f"4-8-1 monotone decrease: {violations} violations, "
                          f"slope check worst margin {report.worst_margin:.3f} "
                          f"over {traj.n_records()} records, {run['elapsed']:.2f}s")


def test_05_gradient_oracle():
    from lyapflow import loss_gradient, sensitivities

    start = time.perf_counter()
    h = 1e-6
    worst = 0.0
    loss = LyapunovLoss.multilayer(ALPHA)
    for sizes in ((3, 1), (2, 4, 1), (4, 8, 2), (4, 8, 8, 2)):
        for seed in (0, 1, 2):
            mlp = Mlp.random(sizes, seed=seed,
                             output_activation=Activation.IDENTITY, scale=0.8)
            rng = np.random.default_rng(100 + seed)
            x = rng.uniform(-1.0, 1.0, sizes[0])
            signs = np.where(rng.uniform(size=sizes[-1]) < 0.5, -1.0, 1.0)
            trace = forward(mlp, x)
            y_star = trace.y - 0.4 * signs   # every output error is 0.4
            assert np.all(np.abs(trace.y - y_star) >= 0.1)
            analytic = loss_gradient(sensitivities(mlp, trace, y_star, loss),
                                     trace)
            work = mlp.copy()
            for l, w in enumerate(mlp.weights):
                for idx in np.ndindex(w.shape):
                    keep = w[idx]
                    work.weights[l][idx] = keep + h
                    e_plus = forward(work, x).y - y_star
                    work.weights[l][idx] = keep - h
                    e_minus = forward(work, x).y - y_star
                    work.weights[l][idx] = keep
                    numeric = (loss.evaluate(e_plus)
                               - loss.evaluate(e_minus)) / (2.0 * h)
                    a = analytic[l][idx]
                    denom = max(abs(a), abs(numeric), 1e-8)
                    worst = max(worst, abs(a - numeric) / denom)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    assert _report(5, ok, f"backprop vs central differences (h = 1e-6) up to "
                          f"4-8-8-2: max rel err {worst:.2e} (tol 1e-5), "
                          f"{elapsed:.2f}s")


def test_06_noise_robustness():
    run = _run_noisy()
    traj, bound = run["traj"], run["bound"]
    report = verify_decrease(traj, c=bound.c, beta=bound.beta)
    in_time = traj.settled_at is not None and traj.settled_at <= bound.T

    # noise level at the gain: the tool must refuse a certificate yet still run
    start = time.perf_counter()
    spec_big = PerturbationSpec(mode="vanishing", M=1.0, alpha=ALPHA, seed=6)
    short = Integrator(method="euler", dt=1.5e-10, t_max=5e-7, record_stride=2200)
    traj_big, bound_big = robustness_run(
        Mlp.zeros((2, 1)), TheoryFlow(np.array([5e4, 5e4]), np.array([0.2])),
        spec_big, GainSchedule.uniform(1.0), LyapunovLoss.single_neuron(ALPHA),
        short, StoppingRule(1e-8))
    refused = bound_big is None and traj_big.n_records() > 0
    try:
        settling_bound(bound.E0, GainSchedule.uniform(1.0),
                       GammaEstimate(5e4),
                       LyapunovLoss.single_neuron(ALPHA), flavor="perturbed",
                       M=1.0)
        raised = False
    except GuaranteeError:
        raised = True
    elapsed = run["elapsed"] + (time.perf_counter() - start)

    ok = in_time and report.ok and refused and raised and elapsed < 10.0
    assert _report(6, ok, f"noisy settle {traj.settled_at:.3e} <= bound "
                          f"{bound.T:.3e} (c = {bound.c:g}), slope check "
                          f"{'ok' if report.ok else 'FAILED'}, M >= k refused, "
                          f"{elapsed:.2f}s")


def _first_crossing(traj, level=1e-3):
    hits = np.nonzero(traj.E <= level)[0]
    return float(traj.t[hits[0]]) if hits.size else None


def test_07_comparative_ordering():
    start = time.perf_counter()
    results = []

    # separable blobs, single sigmoid neuron
    blobs = gen_blobs(seed=3, per_class=20, separation=5.0)
    neuron = Mlp.random((4, 1), seed=0, output_activation=Activation.SIGMOID,
                        scale=0.05)
    integ_b = Integrator(method="euler", dt=1e-4, t_max=1e-4 * len(blobs) * 800,
                         record_stride=1)
    for loss, law in ((LyapunovLoss.single_neuron(ALPHA), "single_neuron"),
                      (L2Loss(), "baseline")):
        traj = integrate(neuron.copy(), EpochFlow(blobs), loss,
                         GainSchedule.uniform(1.0), integ_b, StoppingRule(1e-12),
                         law=law)
        results.append(_first_crossing(traj))

    # small regression task, 4-8-1 net
    reg = gen_linreg(seed=21, count=4, noise_sd=0.0)
    net = Mlp.random((4, 8, 1), seed=2, output_activation=Activation.IDENTITY,
                     scale=2.0)
    integ_r = Integrator(method="euler", dt=1e-3, t_max=60.0, record_stride=1)
    for loss, law in ((LyapunovLoss.multilayer(ALPHA, beta=0.05), "mlp"),
                      (L2Loss(), "baseline")):
        traj = integrate(net.copy(), EpochFlow(reg), loss,
                         GainSchedule.uniform(1.0), integ_r, StoppingRule(1e-12),
                         law=law)
        results.append(_first_crossing(traj))
    elapsed = time.perf_counter() - start

    blob_lyap, blob_l2, reg_lyap, reg_l2 = results
    blob_ok = blob_lyap is not None and (blob_l2 is None or blob_lyap <= blob_l2)
    reg_ok = reg_lyap is not None and (reg_l2 is None or reg_lyap <= reg_l2)
    ok = blob_ok and reg_ok and elapsed < 120.0

    def show(v):
        return f"{v:.3f}" if v is not None else ">horizon"

    assert _report(7, ok, f"time to E <= 1e-3, settling law vs l2 flow: blobs "
                          f"{show(blob_lyap)} vs {show(blob_l2)}, regression "
                          f"{show(reg_lyap)} vs {show(reg_l2)}, {elapsed:.1f}s")


def test_08_alpha_zero_chatter():
    start = time.perf_counter()
    config = (
        "net.layers = 4, 1\n"
        "net.init = zeros\n"
        "gains.k = 1\n"
        "integ.method = euler\n"
        f"integ.dt = {0.02 / C_REF / 1e4!r}\n"
        "integ.t_max = 0.01\n"
        "integ.record_stride = 1\n"
        "mode.x = 1, -0.6, 0.8, 0.4\n"
        "mode.y_star = 0.48\n"
        "sweep.alphas = 0, 0.7\n"
    )
    scratch = io.StringIO()
    with tempfile.TemporaryDirectory() as td:
        out = Path(td)
        (out / "sweep.kv").write_text(config)
        with redirect_stdout(scratch), redirect_stderr(scratch):
            guarded = cli_main(["alpha-sweep", "--config", str(out / "sweep.kv"),
                                "--out", td])
            code = cli_main(["alpha-sweep", "--config", str(out / "sweep.kv"),
                             "--out", td, "--unsafe-alpha"])
        kv = parse_kv((out / "summary.kv").read_text())
    elapsed = time.perf_counter() - start
    v_zero = int(kv["row0.monotone_violations"])
    v_smooth = int(kv["row1.monotone_violations"])
    ok = (guarded == 2 and code == 0 and v_zero >= 1 and v_smooth == 0
          and elapsed < 10.0)
    assert _report(8, ok, f"alpha sweep: alpha=0 chatters ({v_zero} rises), "
                          f"alpha=0.7 monotone ({v_smooth} rises), guard without "
                          f"flag exits 2, {elapsed:.2f}s")


def test_09_byte_determinism():
    pairs = []
    for name, runner in (("reference", _run_reference), ("deep", _run_deep),
                         ("noisy", _run_noisy)):
        pairs.append((name, runner()["traj"], runner(fresh=True)["traj"]))
    with tempfile.TemporaryDirectory() as td:
        out = Path(td)
        same = {}
        for name, first, second in pairs:
            a, b = out / f"{name}_a.csv", out / f"{name}_b.csv"
            first.to_csv(a)
            second.to_csv(b)
            same[name] = filecmp.cmp(a, b, shallow=False)
    ok = all(same.values())
    agreed = sum(same.values())
    assert _report(9, ok, f"rerun determinism: {agreed}/3 trajectory CSVs "
                          f"byte-identical ({', '.join(same)})")


def test_10_noise_admissibility():
    start = time.perf_counter()
    x = np.array([1.0, -2.0, 0.5, 3.0])
    spec = PerturbationSpec(mode="vanishing", M=0.2, alpha=ALPHA, seed=10)
    tiled = np.tile(x, (100_000, 1))
    rng = np.random.default_rng(spec.seed)
    deltas = spec.apply(tiled, rng) - tiled
    envelope = spec.bound_for(x)
    within = bool(np.all(np.abs(deltas) <= envelope))
    coverage = np.abs(deltas).max(axis=0) / envelope
    elapsed = time.perf_counter() - start
    ok = within and bool(np.all(coverage >= 0.95)) and elapsed < 5.0
    assert _report(10, ok, f"1e5 vanishing draws (M = 0.2): all inside the "
                           f"M|x|^alpha envelope, per-component coverage >= "
                           f"{coverage.min():.4f}, {elapsed:.2f}s")


if __name__ == "__main__":
    import sys

    failures = 0
    for fn in (test_01_closed_form_match, test_02_settling_window,
               test_03_bound_gain_scaling, test_04_deep_monotone_decrease,
               test_05_gradient_oracle, test_06_noise_robustness,
               test_07_comparative_ordering, test_08_alpha_zero_chatter,
               test_09_byte_determinism, test_10_noise_admissibility):
        try:
            fn()
        except AssertionError:
            failures += 1
    print(f"{10 - failures}/10 criteria passed")
    sys.exit(1 if failures else 0)
