"""Continuous-time training flows and their recorded trajectories.

Two run modes:

* ``TheoryFlow`` -- one fixed (x, y*) pair; the weight state follows the
  selected law exactly, so the settling-time certificates apply.
* ``EpochFlow`` -- per-sample Euler steps cycling a dataset in order; the
  loss is recorded once per epoch as the dataset-summed value.  This is the
  engineering analogue of discrete training and carries no certificate.

Each theory-mode step evaluates E once, at its start, for the settle test
and the record.  The RK4 stages, like the per-sample epoch steps, compute
only the control signal; they evaluate E only for the layered law, whose
rate scales with E**beta.

An integration never mutates the caller's network; it works on its own copy
and returns the final weights inside the Trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import (
    GainSchedule,
    gradient_flow_update,
    lyapunov_rate_scale,
    mlp_update,
    signal_norm,
    single_neuron_update,
)
from .errors import DivergenceError, HorizonError, ModeError, ShapeError
from .losses import LyapunovLoss
from .net import Activation, Mlp, forward, loss_gradient, sensitivities

__all__ = [
    "Integrator",
    "StoppingRule",
    "TheoryFlow",
    "EpochFlow",
    "Trajectory",
    "integrate",
    "detect_settle",
    "dataset_loss",
]


@dataclass(frozen=True)
class Integrator:
    """Fixed-step scheme: 'rk4' (default) or 'euler'.

    ``method`` applies to theory mode only: an EpochFlow always takes
    per-sample Euler steps, whatever the method says.
    """

    method: str = "rk4"
    dt: float = 1e-3
    t_max: float = 10.0
    record_stride: int = 1
    step_budget: int = 10_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "euler"):
            raise ValueError(f"method must be 'rk4' or 'euler', got {self.method!r}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.step_budget < 1:
            raise ValueError("step_budget must be >= 1")


@dataclass(frozen=True)
class StoppingRule:
    """Stop once the loss reaches epsilon (default 1e-9)."""

    epsilon: float = 1e-9

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")


@dataclass(frozen=True)
class TheoryFlow:
    """Train against a single fixed sample."""

    x: np.ndarray
    y_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y_star", np.asarray(self.y_star, dtype=float))


@dataclass(frozen=True)
class EpochFlow:
    """Per-sample Euler steps over a dataset, cycled in row order.

    The integrator's ``method`` is ignored: every step is an Euler step.
    """

    dataset: object


@dataclass
class Trajectory:
    """Recorded run: times, losses, per-output errors, control norms."""

    t: np.ndarray
    E: np.ndarray
    errors: np.ndarray
    control_norm: np.ndarray
    settled_at: float | None
    epsilon: float
    final_weights: list

    def n_records(self) -> int:
        return len(self.t)

    def monotone_violations(self, slack_scale: float = 1e-9) -> int:
        """Count records where E rises by more than slack_scale*(1+E)."""
        rises = self.E[1:] - self.E[:-1]
        allowed = slack_scale * (1.0 + self.E[:-1])
        return int(np.sum(rises > allowed))

    def to_csv(self, path) -> None:
        """Schema: t,E,settle_flag,control_norm,err_0..err_{m-1} (full precision)."""
        m = self.errors.shape[1]
        header = "t,E,settle_flag,control_norm," + ",".join(f"err_{j}" for j in range(m))
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for i in range(len(self.t)):
                flag = 1 if self.E[i] <= self.epsilon else 0
                cells = [f"{self.t[i]:.17g}", f"{self.E[i]:.17g}", str(flag),
                         f"{self.control_norm[i]:.17g}"]
                cells += [f"{v:.17g}" for v in self.errors[i]]
                fh.write(",".join(cells) + "\n")


def dataset_loss(mlp: Mlp, dataset, loss) -> tuple:
    """(summed loss over the dataset, mean |error| per output), batched."""
    z = dataset.inputs
    for w, act in zip(mlp.weights, mlp.activations):
        z = act.apply(z @ w[:, :-1].T + w[:, -1])
    errs = z - dataset.targets
    return loss.evaluate(errs), np.mean(np.abs(errs), axis=0)


def _select_law(mlp: Mlp, loss, law: str) -> str:
    if not isinstance(loss, LyapunovLoss):
        if law not in ("auto", "baseline"):
            raise ModeError(f"law {law!r} requires the Lyapunov loss")
        return "baseline"
    is_single = (
        mlp.n_layers == 1
        and mlp.n_outputs == 1
        and mlp.activations[-1] is Activation.SIGMOID
    )
    if law == "auto":
        return "single_neuron" if is_single else "mlp"
    if law == "single_neuron" and not is_single:
        raise ModeError(
            "single-neuron law needs exactly one sigmoid unit; "
            f"got layer sizes {mlp.layer_sizes} with {mlp.activations[-1].value} output"
        )
    if law not in ("single_neuron", "mlp"):
        raise ModeError(f"unknown law {law!r}")
    return law


def _check_finite(signal, E: float, t: float) -> None:
    if not math.isfinite(E) or any(not np.isfinite(u).all() for u in signal):
        raise DivergenceError(t)


class _Law:
    """Evaluates (E, error vector, control signal) for a weight state."""

    def __init__(self, mlp: Mlp, loss, gains: GainSchedule, law: str):
        self.mlp = mlp
        self.loss = loss
        self.gains = gains
        self.kind = _select_law(mlp, loss, law)
        if self.kind == "single_neuron":
            self.rate_scale = lyapunov_rate_scale(loss.alpha)

    def eval(self, weights, x, y_star) -> tuple:
        self.mlp.weights = weights
        trace = forward(self.mlp, x)
        e = trace.y - y_star
        E = self.loss.evaluate(e)
        return E, e, self._signal(trace, e, E, x, y_star)

    def rates(self, weights, x, y_star):
        """The control signal alone, as an RK4 stage or an epoch step needs it.

        E is evaluated only for the layered law, whose rate scales with
        E**beta; the other laws never read it.
        """
        self.mlp.weights = weights
        trace = forward(self.mlp, x)
        e = trace.y - y_star
        E = self.loss.evaluate(e) if self.kind == "mlp" else None
        return self._signal(trace, e, E, x, y_star)

    def _signal(self, trace, e, E, x, y_star):
        if self.kind == "single_neuron":
            return single_neuron_update(x, float(e[0]), float(trace.preacts[0][0]),
                                        self.gains, rate_scale=self.rate_scale)
        d = sensitivities(self.mlp, trace, y_star, self.loss)
        if self.kind == "mlp":
            return mlp_update(d, trace, E, self.gains, self.loss)
        return gradient_flow_update(loss_gradient(d, trace), self.gains)


def _axpy(w, a: float, u):
    return [wi + a * ui for wi, ui in zip(w, u)]


def _step(law: _Law, weights, x, y_star, dt: float, method: str, u0):
    if method == "euler":
        return _axpy(weights, dt, u0)
    k1 = u0
    k2 = law.rates(_axpy(weights, dt / 2.0, k1), x, y_star)
    k3 = law.rates(_axpy(weights, dt / 2.0, k2), x, y_star)
    k4 = law.rates(_axpy(weights, dt, k3), x, y_star)
    return [
        w + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for w, a, b, c, d in zip(weights, k1, k2, k3, k4)
    ]


def integrate(mlp: Mlp, mode, loss, gains: GainSchedule, integ: Integrator,
              stop: StoppingRule, law: str = "auto", noise=None,
              noise_rng=None) -> Trajectory:
    """Run a training flow and record its trajectory.

    `noise`, if given, is a perturbation spec applied to the inputs only:
    a fresh offset is drawn every `noise.redraw_every` steps and held across
    the stages of a step.  `noise_rng` overrides the spec-seeded generator
    (useful for continuing a stream).

    Raises HorizonError if t_max/dt exceeds the step budget, and
    DivergenceError if the state stops being finite.
    """
    n_steps = math.ceil(integ.t_max / integ.dt - 1e-12)
    if n_steps > integ.step_budget:
        raise HorizonError(
            f"t_max/dt = {n_steps} steps exceeds the budget of {integ.step_budget}"
        )

    if isinstance(mode, TheoryFlow):
        return _run_theory(mlp, mode, loss, gains, integ, stop, law, noise,
                           noise_rng, n_steps)
    if isinstance(mode, EpochFlow):
        return _run_epochs(mlp, mode, loss, gains, integ, stop, law, noise,
                           noise_rng, n_steps)
    raise ModeError(f"unknown train mode {type(mode).__name__}")


def _run_theory(mlp, mode, loss, gains, integ, stop, law_name, noise, noise_rng,
                n_steps) -> Trajectory:
    work = mlp.copy()
    if mode.x.shape != (work.n_inputs,):
        raise ShapeError(
            f"sample has {mode.x.shape} inputs, network expects ({work.n_inputs},)"
        )
    law = _Law(work, loss, gains, law_name)
    weights = work.weights
    rng = noise_rng
    if noise is not None and rng is None:
        rng = np.random.default_rng(noise.seed)

    ts, Es, errs, norms = [], [], [], []
    settled_at = None
    x_step = mode.x
    # overflow in a diverging state is expected; _check_finite reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps + 1):
            t = n * integ.dt
            if noise is not None and n % noise.redraw_every == 0:
                x_step = noise.apply(mode.x, rng)
            E, e, u = law.eval(weights, x_step, mode.y_star)
            _check_finite(u, E, t)
            settled = E <= stop.epsilon
            if n % integ.record_stride == 0 or settled or n == n_steps:
                ts.append(t)
                Es.append(E)
                errs.append(e.copy())
                norms.append(signal_norm(u))
            if settled:
                settled_at = t
                break
            if n == n_steps:
                break
            weights = _step(law, weights, x_step, mode.y_star, integ.dt,
                            integ.method, u)

    work.weights = weights
    return Trajectory(
        t=np.array(ts), E=np.array(Es), errors=np.array(errs),
        control_norm=np.array(norms), settled_at=settled_at,
        epsilon=stop.epsilon, final_weights=weights,
    )


def _run_epochs(mlp, mode, loss, gains, integ, stop, law_name, noise, noise_rng,
                n_steps) -> Trajectory:
    ds = mode.dataset
    work = mlp.copy()
    if ds.n_features != work.n_inputs or ds.n_targets != work.n_outputs:
        raise ShapeError(
            f"dataset is {ds.n_features}->{ds.n_targets}, network is "
            f"{work.n_inputs}->{work.n_outputs}"
        )
    law = _Law(work, loss, gains, law_name)
    weights = work.weights
    rng = noise_rng
    if noise is not None and rng is None:
        rng = np.random.default_rng(noise.seed)

    n = len(ds)
    n_epochs = n_steps // n
    if n_epochs < 1:
        raise HorizonError(
            f"t_max/dt = {n_steps} steps is less than one epoch of {n} samples"
        )

    ts, Es, errs, norms = [], [], [], []
    settled_at = None
    last_norm = 0.0
    step_count = 0
    # overflow in a diverging state is expected; the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(n_epochs + 1):
            work.weights = weights
            E_sum, mean_abs = dataset_loss(work, ds, loss)
            t = step_count * integ.dt
            if not math.isfinite(E_sum) or any(not np.all(np.isfinite(w)) for w in weights):
                raise DivergenceError(t)
            if epoch % integ.record_stride == 0 or E_sum <= stop.epsilon or epoch == n_epochs:
                ts.append(t)
                Es.append(E_sum)
                errs.append(mean_abs)
                norms.append(last_norm)
            if E_sum <= stop.epsilon:
                settled_at = t
                break
            if epoch == n_epochs:
                break
            for i in range(n):
                x, y_star = ds.inputs[i], ds.targets[i]
                if noise is not None and step_count % noise.redraw_every == 0:
                    x = noise.apply(x, rng)
                u = law.rates(weights, x, y_star)
                weights = _axpy(weights, integ.dt, u)
                step_count += 1
            last_norm = signal_norm(u)

    work.weights = weights
    return Trajectory(
        t=np.array(ts), E=np.array(Es), errors=np.array(errs),
        control_norm=np.array(norms), settled_at=settled_at,
        epsilon=stop.epsilon, final_weights=weights,
    )


def detect_settle(traj: Trajectory, stop: StoppingRule | None = None) -> float | None:
    """First crossing time of E <= epsilon, interpolated between records.

    Returns 0.0 if the very first record is already at or below epsilon and
    None if the trajectory never crosses.
    """
    eps = traj.epsilon if stop is None else stop.epsilon
    below = np.nonzero(traj.E <= eps)[0]
    if len(below) == 0:
        return None
    i = int(below[0])
    if i == 0:
        return 0.0
    e0, e1 = traj.E[i - 1], traj.E[i]
    t0, t1 = traj.t[i - 1], traj.t[i]
    return float(t0 + (e0 - eps) * (t1 - t0) / (e0 - e1))
