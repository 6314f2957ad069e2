"""Tests for the benchmark harness itself.

Run from the repository root::

    python3 -m pytest -q bench
"""

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from checks import (  # noqa: E402
    bound_certificate_miss,
    check_mlp_compare,
    check_noisy_epoch_sweep,
    check_repeat,
    check_single_settle,
    parse_summary,
)
from workloads import GENERATORS, SWEEP_LEVELS, single_settle  # noqa: E402

# The README quick-start problem written as a CLI config: zero-weight 4-1
# sigmoid unit, alpha 0.7, unit gain and gamma, RK4, dt left for the CLI to
# derive as T/1e5, t_max = 1.1 T, epsilon 1e-9, every step recorded.
README_CONFIG = (
    "net.layers = 4, 1\n"
    "net.init = zeros\n"
    "loss.alpha = 0.7\n"
    "gains.k = 1.0\n"
    "integ.method = rk4\n"
    "integ.t_max = 0.027372433740136128\n"
    "integ.record_stride = 1\n"
    "stop.epsilon = 1e-09\n"
    "mode.x = 1.0, -0.6, 0.8, 0.4\n"
    "mode.y_star = 0.48\n"
    "bound.gamma = 1.0\n"
)


def test_single_settle_seed0_is_the_readme_problem():
    assert single_settle(0).config == README_CONFIG
    E0 = abs(0.5 - 0.48) ** 1.7 / 1.7
    T = E0 ** (1 - 0.7 / 1.7) / (1 - 0.7 / 1.7)
    assert parse_summary(README_CONFIG)["integ.t_max"] == repr(1.1 * T)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generators_are_deterministic_per_seed(workload):
    gen = GENERATORS[workload]
    for seed in (0, 1, 17):
        assert gen(seed) == gen(seed)
    assert gen(1) != gen(2)


def test_single_settle_keeps_the_step_count_fixed():
    for seed in range(1, 8):
        kv = parse_summary(single_settle(seed).config)
        x = np.array([float(v) for v in kv["mode.x"].split(",")])
        assert sorted(np.abs(x)) == sorted(np.abs([1.0, -0.6, 0.8, 0.4]))
        assert 0.01 <= abs(float(kv["mode.y_star"]) - 0.5) <= 0.05


def _settle_summary(settled_at=0.008884096630821271, T=0.024884030672851023):
    return {"settled": "true", "settled_at": repr(settled_at), "bound.T": repr(T),
            "monotone_violations": "0"}


def test_single_settle_check_flags_a_run_past_its_certificate():
    expect = single_settle(0).expect
    assert check_single_settle(0, _settle_summary(), expect) == []
    # doctored: the run settles after the printed T
    late = _settle_summary(settled_at=0.03)
    assert any("after its certificate" in r for r in check_single_settle(0, late, expect))
    assert check_single_settle(1, _settle_summary(), expect) == ["exit code 1"]


def _sweep_summary():
    kv = {"levels": str(len(SWEEP_LEVELS))}
    for i, M in enumerate(SWEEP_LEVELS):
        certified = M < 1.0
        kv.update({f"row{i}.M": repr(M),
                   f"row{i}.certified": "true" if certified else "false",
                   f"row{i}.T_bound": "4.6" if certified else "none",
                   f"row{i}.settled_at": "0.16"})
    return kv


def test_sweep_check_flags_a_refused_level_marked_certified():
    expect = {"levels": SWEEP_LEVELS, "k_min": 1.0}
    assert check_noisy_epoch_sweep(0, _sweep_summary(), expect) == []
    doctored = _sweep_summary()
    doctored["row13.certified"] = "true"  # M = 1.1 >= k_min
    doctored["row13.T_bound"] = "9.0"
    assert check_noisy_epoch_sweep(0, doctored, expect) == [
        "row 13 (M = 1.1) certified = True"]
    late = _sweep_summary()
    late["row0.settled_at"] = "5.0"
    assert check_noisy_epoch_sweep(0, late, expect) == [
        "row 0 settled at 5.0 after T_bound = 4.6"]


def test_compare_check_flags_a_wrong_winner():
    kv = {"lyapunov.monotone_violations": "0", "lyapunov.settled_at": "3.282",
          "l1.settled_at": "none", "l2.settled_at": "2.921",
          "first_to_epsilon": "l2"}
    assert check_mlp_compare(0, kv, {"T": 4.7, "t_max": 4.0}) == []
    wrong = dict(kv, first_to_epsilon="lyapunov")
    assert len(check_mlp_compare(0, wrong, {"T": 4.7, "t_max": 4.0})) == 1
    bumpy = dict(kv, **{"lyapunov.monotone_violations": "2"})
    assert len(check_mlp_compare(0, bumpy, {"T": 4.7, "t_max": 4.0})) == 1


def test_bound_certificate_miss_is_found():
    kv = {"lyapunov.settled_at": "3.282"}
    # seed 0's printed multilayer certificate, which its own run exceeds
    assert bound_certificate_miss(kv, {"T": 3.083690437359893, "t_max": 4.0}) == (
        "lyapunov row settled at 3.282, certificate T = 3.083690437359893")
    assert bound_certificate_miss(kv, {"T": 3.5, "t_max": 4.0}) is None
    unsettled = {"lyapunov.settled_at": "none"}
    assert bound_certificate_miss(unsettled, {"T": 3.5, "t_max": 4.0}) is not None
    # a certificate past t_max cannot be judged from the run
    assert bound_certificate_miss(unsettled, {"T": 4.7, "t_max": 4.0}) is None


def test_repeat_check_flags_a_changed_digest():
    first = {"trajectory.csv": hashlib.sha256(b"a").hexdigest(), "summary.kv": "s"}
    assert check_repeat(dict(first), first) == []
    changed = dict(first, **{"trajectory.csv": hashlib.sha256(b"b").hexdigest()})
    assert len(check_repeat(changed, first)) == 1
    assert len(check_repeat({"trajectory.csv": None, "summary.kv": "s"}, first)) == 1


def test_tracer_counts_calls_and_restores_the_package():
    import lyapflow.dynamics as dynamics
    from lyapflow import (GainSchedule, Integrator, LyapunovLoss, Mlp,
                          StoppingRule, TheoryFlow)
    from tracer import Tracer

    original = dynamics.forward
    tracer = Tracer()
    tracer.install()
    try:
        assert dynamics.forward is not original
        dynamics.integrate(Mlp.zeros((2, 1)), TheoryFlow([1.0, 0.5], [0.4]),
                           LyapunovLoss.single_neuron(0.7), GainSchedule.uniform(1.0),
                           Integrator(method="rk4", dt=1e-3, t_max=0.01),
                           StoppingRule(1e-12))
    finally:
        tracer.uninstall()
    assert dynamics.forward is original
    totals = tracer.layer_totals()
    steps = tracer.counters["dynamics.steps"]
    assert steps == 10
    assert totals["net.forward"][0] == 4 * steps + 1
    assert totals["control.single_neuron_update"][0] == 4 * steps + 1
    # only the evaluation at each step start is used
    assert tracer.useful_evaluations() == steps + 1
    for calls, total, own in totals.values():
        assert 0.0 <= own <= total + 1e-12


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "single_settle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_launches_are_spread_over_the_run(monkeypatch):
    import time

    import worker

    monkeypatch.setattr(worker, "launch_setup", lambda problem, out: (0.0, 0.25))
    seconds = float(worker.SETUP_LAUNCHES)  # one launch due each second
    clock = worker.SetupClock(Path("p"), Path("setup"), seconds,
                              time.perf_counter() - 3.5)
    clock.catch_up()
    assert len(clock.launches) == 4
    clock.catch_up()
    assert len(clock.launches) == 4
    clock.catch_up(worker.SETUP_LAUNCHES)
    assert clock.launches == [(0.0, 0.25)] * worker.SETUP_LAUNCHES


def test_speed_probe_samples_beside_a_busy_process():
    import os
    import time

    from worker import SpeedProbe

    cpu = max(os.sched_getaffinity(0))
    probe = SpeedProbe(cpu)
    start = time.perf_counter()
    deadline = start + 0.4
    while time.perf_counter() < deadline:
        sum(range(1000))
    probe.close()
    assert probe.proc.returncode == 0
    assert len(probe.samples) >= 2
    assert probe.mean_between(start, time.perf_counter()) > 0.0
    assert probe.mean_between(start - 10.0, start - 5.0) is None
