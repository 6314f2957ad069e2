import math

import numpy as np
import pytest

from lyapflow import L1Loss, L2Loss, LyapunovLoss, sgnpow
from lyapflow.losses import Exponents


def _slow_sgnpow(v, p):
    # independent scalar reference
    if v == 0.0:
        return 0.0
    return math.copysign(abs(v) ** p, v)


def test_sgnpow_matches_scalar_reference():
    rng = np.random.default_rng(11)
    for _ in range(300):
        v = float(rng.uniform(-4.0, 4.0))
        p = float(rng.uniform(0.0, 2.5))
        assert sgnpow(v, p) == pytest.approx(_slow_sgnpow(v, p), rel=1e-14, abs=1e-300)


def test_sgnpow_special_points():
    assert sgnpow(0.0, 0.0) == 0.0
    assert sgnpow(0.0, 0.5) == 0.0
    assert sgnpow(-8.0, 1.0 / 3.0) == pytest.approx(-2.0)
    assert sgnpow(5.0, 0.0) == 1.0
    assert sgnpow(-5.0, 0.0) == -1.0
    # odd symmetry
    for v in (0.3, 1.0, 2.7):
        assert sgnpow(-v, 0.7) == -sgnpow(v, 0.7)


def test_sgnpow_arrays_and_scalars():
    out = sgnpow(np.array([-2.0, 0.0, 2.0]), 0.5)
    assert isinstance(out, np.ndarray)
    assert np.allclose(out, [-math.sqrt(2), 0.0, math.sqrt(2)])
    assert isinstance(sgnpow(1.5, 0.7), float)
    mat = sgnpow(np.array([[1.0, -4.0], [0.0, 9.0]]), 0.5)
    assert mat.shape == (2, 2)
    assert mat[0, 1] == pytest.approx(-2.0)


def test_sgnpow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        sgnpow(1.0, -0.1)
    with pytest.raises(ValueError):
        Exponents([0.5, -0.1])


@pytest.mark.parametrize("shape", [(7,), (3, 5), (40,)])
def test_sgnpow_of_a_column_rounds_each_row_alone(shape):
    # 0.5 takes np.sqrt alone; 0 and 1 are L1's sign and L2's identity
    rng = np.random.default_rng(len(shape))
    powers = [0.7, 0.5, 0.0, 1.0, 0.35, 0.5]
    v = rng.normal(0.0, 2.0, (len(powers),) + shape)
    v[2, 0] = 0.0
    stacked = sgnpow(v, Exponents(powers))
    for r, p in enumerate(powers):
        assert stacked[r].tobytes() == sgnpow(v[r], p).tobytes()
    for r, loss in ((2, L1Loss()), (3, L2Loss())):
        assert stacked[r].tobytes() == loss.error_grad(v[r]).tobytes()


def test_lyapunov_evaluate_matches_direct_sum():
    loss = LyapunovLoss(alpha=0.7)
    rng = np.random.default_rng(3)
    for _ in range(50):
        e = rng.uniform(-2.0, 2.0, size=rng.integers(1, 6))
        direct = sum(abs(v) ** 1.7 / 1.7 for v in e)
        assert loss.evaluate(e) == pytest.approx(direct, rel=1e-14)


def test_lyapunov_evaluate_sums_matrix_entries():
    loss = LyapunovLoss(alpha=0.5)
    e = np.array([[0.5, -1.0], [2.0, 0.0]])
    assert loss.evaluate(e) == pytest.approx(loss.evaluate(e.ravel()), rel=1e-15)


def test_error_grad_is_derivative_of_evaluate():
    # central finite differences as the oracle, away from the origin
    h = 1e-7
    for alpha in (0.3, 0.7, 0.9):
        loss = LyapunovLoss(alpha=alpha)
        for e in (-1.7, -0.4, 0.2, 0.9, 2.5):
            fd = (loss.evaluate(np.array([e + h])) - loss.evaluate(np.array([e - h]))) / (2 * h)
            assert loss.error_grad(e) == pytest.approx(fd, rel=1e-6)


def test_beta_defaults():
    assert LyapunovLoss(alpha=0.7).beta == pytest.approx(0.7 / 1.7, rel=1e-15)
    assert LyapunovLoss.single_neuron(0.4).beta == pytest.approx(0.4 / 1.4, rel=1e-15)
    # layered default stays strictly under the alpha + beta = 1 line
    for alpha in (0.1, 0.3, 0.5, 0.618, 0.7, 0.9, 0.99):
        loss = LyapunovLoss.multilayer(alpha)
        assert loss.alpha + loss.beta < 1.0
        assert loss.beta == pytest.approx(
            min(alpha / (alpha + 1.0), 0.999 * (1.0 - alpha)), rel=1e-15
        )


def test_alpha_validation():
    with pytest.raises(ValueError):
        LyapunovLoss(alpha=0.0)
    with pytest.raises(ValueError):
        LyapunovLoss(alpha=1.0)
    with pytest.raises(ValueError):
        LyapunovLoss(alpha=-0.2)
    unsafe = LyapunovLoss(alpha=0.0, allow_unsafe_alpha=True)
    assert unsafe.beta == 0.0


def test_multilayer_rejects_alpha_beta_sum():
    with pytest.raises(ValueError):
        LyapunovLoss.multilayer(0.7, beta=0.4)
    ok = LyapunovLoss.multilayer(0.7, beta=0.25)
    assert ok.beta == 0.25


def test_l1_l2_grads_match_finite_differences():
    h = 1e-7
    for loss in (L1Loss(), L2Loss()):
        for e in (-2.0, -0.5, 0.3, 1.4):
            fd = (loss.evaluate(np.array([e + h])) - loss.evaluate(np.array([e - h]))) / (2 * h)
            assert np.asarray(loss.error_grad(np.array([e])))[0] == pytest.approx(fd, rel=1e-6)


def test_l1_l2_values():
    assert L1Loss().evaluate(np.array([1.0, -2.0, 0.5])) == pytest.approx(3.5)
    assert L2Loss().evaluate(np.array([3.0, -4.0])) == pytest.approx(12.5)


def test_evaluate_gives_one_value_per_run_of_a_stack():
    rng = np.random.default_rng(8)
    stack = rng.normal(0.0, 1.0, (6, 3, 2))       # (runs, samples, outputs)
    for loss in (LyapunovLoss(alpha=0.7), L1Loss(), L2Loss()):
        per_run = loss.evaluate(stack)
        assert per_run.shape == (6,)
        for r in range(6):
            assert per_run[r] == loss.evaluate(stack[r])
            assert isinstance(loss.evaluate(stack[r]), float)
