"""Continuous-time training flows and their recorded trajectories.

Two run modes:

* ``TheoryFlow`` -- one fixed (x, y*) pair; the weight state follows the
  run's law exactly, so the settling-time certificates apply.
* ``EpochFlow`` -- per-sample Euler steps cycling a dataset in order; the
  loss is recorded once per epoch as the dataset-summed value.  This is the
  engineering analogue of discrete training; no certificate covers it, and
  ``bounds.certify`` marks the one it prints heuristic.

One loop integrates both modes for a stack of R runs that differ only in
their input-noise level M (a perturb-sweep's levels) or in their loss (the
rows of a compare or an alpha-sweep).  Noise levels share one noise
stream, so ``integrate_batch`` refuses specs that differ in anything but M.
The weights are one flat state (R, P), P the weight count of all layers,
that the net reads through (R, out, in+1) views made once per active set.
Past the forward pass and the back-propagation, a step costs one numpy
call per operation whatever R and the depth are, and each run rounds
exactly as it would alone.  The net and each run's loss decide the run's
law (``select_law``).
One law object serves a lone run and every stack.  It groups the runs into
stretches that share a law and its loss (gradient-flow runs share only
their law); the forward pass, the back-propagation and dE/dW run once for
the stack, and only E, dE/de and the law's last step run per stretch.
A lone run or a noise stack is one stretch and is never sliced.  A run that
settles, diverges or fails leaves the active set at once: the stack is
compacted, never masked.
``integrate`` is the one-run case of ``integrate_batch``.

Each theory-mode step evaluates E once, at its start, for the settle test
and the record.  The RK4 stages, like the per-sample epoch steps, compute
only the control signal; they evaluate E only for the layered law, whose
rate scales with E**beta.

Inputs are checked once, when the flow is built: the theory sample and
every dataset row become ``net.Sample`` objects (finite, shape-checked, bias
column attached), and each noise draw becomes one after its own finiteness
check.  A non-finite input is refused before the first step, and no RK4
stage repeats the checks.

An integration never mutates the caller's network; it works on its own copy
and returns the final weights inside the Trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
from .net import Activation, Mlp, Sample, forward, loss_gradient, sensitivities

__all__ = [
    "Integrator",
    "StoppingRule",
    "TheoryFlow",
    "EpochFlow",
    "Trajectory",
    "integrate",
    "integrate_batch",
    "initial_loss",
    "select_law",
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
    Input noise is drawn afresh for every sample; an offset cannot be held
    across samples whose envelopes differ, so ``redraw_every`` must be 1.
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
    """(summed loss over the dataset, mean |error| per output), batched.

    With stacked weights (R, out, in+1) it is one pass for all R runs and
    returns one summed loss and one row of mean |error| per run, each
    bitwise what the run's own weights give alone.
    """
    z = dataset.inputs
    for w, act in zip(mlp.weights, mlp.activations):
        z = act.apply(z @ np.swapaxes(w[..., :-1], -1, -2) + w[..., -1][..., None, :])
    errs = z - dataset.targets
    return loss.evaluate(errs), np.mean(np.abs(errs), axis=-2)


def initial_loss(mlp: Mlp, mode, loss) -> float:
    """E at the network's weights on the flow's clean inputs (a certificate's E0)."""
    if isinstance(mode, TheoryFlow):
        return loss.evaluate(forward(mlp, mode.x).y - mode.y_star)
    if isinstance(mode, EpochFlow):
        return dataset_loss(mlp, mode.dataset, loss)[0]
    raise ModeError(f"unknown train mode {type(mode).__name__}")


def select_law(mlp: Mlp, lyapunov: bool, law: str = "auto") -> str:
    """The law the net and the loss give (`lyapunov` is whether it is the
    Lyapunov loss): the single-neuron law for one sigmoid unit, the layered
    law for any other net, gradient flow for the L1/L2 baselines.  A named
    `law` is only checked against it."""
    single = (mlp.n_layers == 1 and mlp.n_outputs == 1
              and mlp.activations[-1] is Activation.SIGMOID)
    kind = "baseline" if not lyapunov else "single_neuron" if single else "mlp"
    if law not in ("auto", kind):
        raise ModeError(
            f"law {law!r} does not fit the run: layer sizes {mlp.layer_sizes}, "
            f"{mlp.activations[-1].value} output and the "
            f"{'Lyapunov' if lyapunov else 'baseline'} loss give the {kind!r} law"
        )
    return kind


class _Law:
    """(E, error, control signal) of a flat weight state, for one run or a stack.

    Run r follows the law the net and losses[r] give (``select_law``).
    Consecutive runs that share a law and its loss form a stretch (gradient
    flow does not read its loss, so one call serves L1 and L2 runs), rebuilt
    with the flat dE/dW buffer when compaction changes the active set.  One
    stretch, a lone run or a noise stack, is never sliced."""

    def __init__(self, mlp: Mlp, losses, gains: GainSchedule):
        self.mlp, self.gains, self.stacked = mlp, gains, len(losses) > 1
        self.shapes = [w.shape[-2:] for w in mlp.weights]
        self._group([select_law(mlp, isinstance(loss, LyapunovLoss)) for loss in losses],
                    list(losses))

    def _group(self, kinds: list, losses: list) -> None:
        self.kinds, self.losses = kinds, losses
        spans = _spans(losses)
        # one loss serves the stack as it is; several, stretch by stretch
        self.loss = losses[0] if len(spans) == 1 else _Losses(spans)
        keys = [(kind, None if kind == "baseline" else loss)
                for kind, loss in zip(kinds, losses)]
        self.groups = [(s, (kind, loss, lyapunov_rate_scale(loss.alpha)
                            if kind == "single_neuron" else None))
                       for (kind, loss), s in _spans(keys)]
        self.whole = self.groups[0][1] if len(self.groups) == 1 else None
        self.backprop = any(kind != "single_neuron" for kind in kinds)
        self.grad, self.grad_layers = (_buffer(self.shapes, len(kinds), self.stacked)
                                       if self.backprop else (None, None))

    def keep(self, keep) -> None:
        """Compaction kept the runs where `keep` is set."""
        self._group([kind for kind, kept in zip(self.kinds, keep) if kept],
                    [loss for loss, kept in zip(self.losses, keep) if kept])

    def eval(self, weights, x: Sample, y_star, with_E: bool = True) -> tuple:
        """At the layer views `weights` of a flat state, the signal shaped like
        it.  x is a Sample (a plain array is checked again on every call);
        y_star has been checked against the net's outputs."""
        self.mlp.weights = weights
        trace = forward(self.mlp, x)
        e = trace.y - y_star
        E = self.loss.evaluate(e[..., None, :]) if with_E else None  # one E per run
        if self.backprop:
            loss_gradient(sensitivities(self.mlp, trace, y_star, self.loss, e), trace,
                          out=self.grad_layers)
        if self.whole:  # one stretch: nothing to slice
            return E, e, self._signal(self.whole, x, e, trace.preacts[0], self.grad, E)
        return E, e, np.concatenate([
            self._signal(law, x, e[s], trace.preacts[0][s],
                         self.grad[s] if self.backprop else None, None if E is None else E[s])
            for s, law in self.groups])

    def _signal(self, law, x, e, z, grad, E):
        """One stretch's control signal from its errors, pre-activations and
        flat dE/dW; E is evaluated here only for the layered law, whose rate
        scales with E**beta."""
        kind, loss, rate_scale = law
        if kind == "single_neuron":  # a one-layer net, whose state is its layer
            return single_neuron_update(x, e[..., 0], z[..., 0], self.gains,
                                        rate_scale=rate_scale)[0]
        if kind == "mlp":
            if E is None:
                E = loss.evaluate(e[..., None, :])
            return mlp_update([grad], E, self.gains, loss)[0]
        return gradient_flow_update([grad], self.gains)[0]

    def rates(self, weights, x, y_star):
        """The control signal alone, as an RK4 stage or an epoch step needs it."""
        return self.eval(weights, x, y_star, with_E=False)[2]


def _spans(keys) -> list:
    """(key, slice) for each stretch of equal consecutive keys, in order."""
    spans, start = [], 0
    for i in range(1, len(keys) + 1):
        if i == len(keys) or keys[i] != keys[start]:
            spans.append((keys[start], slice(start, i)))
            start = i
    return spans


class _Losses:
    """Several losses used as one along a stack's run axis: each stretch of
    runs that share a loss, its (loss, slice) span, is evaluated by it alone."""

    def __init__(self, spans):
        self.spans = spans

    def evaluate(self, e):
        return np.concatenate([loss.evaluate(e[s]) for loss, s in self.spans])

    def error_grad(self, e):
        return np.concatenate([loss.error_grad(e[s]) for loss, s in self.spans])


def _buffer(shapes, count: int, stacked: bool) -> tuple:
    """An empty flat weight state for `count` runs (a stack keeps its run
    axis), (R, P) or (P,), and its layer views.  A one-layer net's state is
    its layer, (R, out, in+1) or (out, in+1), its own only view."""
    size = shapes[0] if len(shapes) == 1 else (sum(r * c for r, c in shapes),)
    flat = np.empty(((count,) if stacked else ()) + size)
    return flat, _views(flat, shapes)


def _views(flat, shapes) -> list:
    """The layer views of a flat state, or of one run's row of a stack's."""
    if len(shapes) == 1:
        return [flat]
    views, start = [], 0
    for rows, cols in shapes:
        views.append(flat[..., start:start + rows * cols].reshape(flat.shape[:-1] + (rows, cols)))
        start += rows * cols
    return views


def _step(law: _Law, runs, y_star, dt: float, method: str) -> None:
    """One step of the active runs from runs.W, whose signal is runs.u,
    written over runs.W; RK4 evaluates its stages in runs.stage."""
    w, k1 = runs.W, runs.u
    if method == "euler":
        np.add(w, dt * k1, out=w)
        return
    stage, views, x = runs.stage, runs.stage_layers, runs.x
    np.add(w, (dt / 2.0) * k1, out=stage)
    k2 = law.rates(views, x, y_star)
    np.add(w, (dt / 2.0) * k2, out=stage)
    k3 = law.rates(views, x, y_star)
    np.add(w, dt * k3, out=stage)
    k4 = law.rates(views, x, y_star)
    np.add(w, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=w)


class _Runs:
    """The active set of a stack of runs, and everything recorded so far.

    The weights W, one flat state (``_buffer``) stepped in place, and the
    RK4 stage buffer are made with their views for each active set.  A
    stack keeps its run axis even when compaction leaves one run.  A lone
    run has none: its law works on matrices and scalars, where numpy's
    per-call cost is lower.  Kept at one run, the axis made single-neuron
    training about 20% slower and a 4-8-1 compare about 10% slower."""

    def __init__(self, weights, count: int, x, law: _Law):
        self.ids, self.stacked, self.law = np.arange(count), count > 1, law
        W, layers = _buffer(law.shapes, count, self.stacked)
        for layer, w in zip(layers, weights):
            layer[...] = w  # every run starts from the net's weights
        self._hold(W)
        self.x, self.u = x, None    # Sample, shared or one row per run; last signal
        self.done = [None] * count  # (settled_at, final weights) or an error
        # flat lists of floats: less memory than small arrays, nothing to scan
        self.rec_ids, self.rec_t, self.rec_E, self.rec_err, self.rec_norm = [], [], [], [], []

    def _hold(self, W) -> None:
        """Take W as the state, with views and a stage buffer for its runs."""
        self.W, self.layers = W, _views(W, self.law.shapes)
        self.stage, self.stage_layers = _buffer(self.law.shapes, len(W), self.stacked)

    def rows(self, flat, j: int) -> list:
        """Run j's layers of a flat per-run array, the weights or the signal."""
        return _views(flat[j] if self.stacked else flat, self.law.shapes)

    def drop(self, gone, outcome) -> None:
        """Take the runs at positions `gone` out; outcome(j) is how run j ended."""
        for j in np.flatnonzero(gone):
            self.done[self.ids[j]] = outcome(j)
        keep = ~gone
        self.ids = self.ids[keep]
        if self.stacked:
            self._hold(self.W[keep])
            self.u = None if self.u is None else self.u[keep]
            if self.x is not None and self.x.x.ndim == 2:
                self.x = Sample.trusted(self.x.x[keep])
            self.law.keep(keep)

    def drop_diverged(self, t: float, E, errs, state):
        """Drop the runs whose E or flat state is not finite; return E and
        the errors with one entry and row per run left, a lone run's too."""
        if not self.stacked:  # the loop works on one E and error row per run
            E, errs = np.array([E]), errs[None]
        # a finite grand total proves every entry finite (inf and nan cannot
        # cancel out of a sum); the per-run mask alone makes single-neuron
        # training about 5% slower
        if math.isfinite(np.add.reduce(E, axis=None) + np.add.reduce(state, axis=None)):
            return E, errs
        ok = np.isfinite(E) & np.isfinite(state.reshape(len(E), -1)).all(axis=1)
        if not ok.all():
            self.drop(~ok, lambda j: DivergenceError(t))
            E, errs = E[ok], errs[ok]
        return E, errs

    def finish(self, ended, settled_at) -> None:
        self.drop(ended, lambda j: (settled_at, [w.copy() for w in self.rows(self.W, j)]))

    def record(self, t: float, E, errs, rows=None) -> None:
        """Record the runs at positions `rows`, or every active run."""
        ids, positions = self.ids, range(len(self.ids))
        if rows is not None:
            ids, E, errs, positions = ids[rows], E[rows], errs[rows], np.flatnonzero(rows)
        self.rec_ids.append(ids)
        self.rec_t.append(t)
        self.rec_E += E.tolist()
        self.rec_err += errs.ravel().tolist()
        self.rec_norm += ([0.0] * len(ids) if self.u is None else
                          [signal_norm(self.rows(self.u, j)) for j in positions])

    def results(self, epsilon: float) -> list:
        if not self.rec_t:  # every run failed before its first record
            return list(self.done)
        ids = np.concatenate(self.rec_ids)
        t = np.repeat(self.rec_t, [len(i) for i in self.rec_ids])
        E, norms = np.array(self.rec_E), np.array(self.rec_norm)
        errs = np.array(self.rec_err).reshape(len(E), -1)
        out = []
        for run, done in enumerate(self.done):
            mine = ids == run
            out.append(done if isinstance(done, Exception) else Trajectory(
                t=t[mine], E=E[mine], errors=errs[mine], control_norm=norms[mine],
                settled_at=done[0], epsilon=epsilon, final_weights=done[1]))
        return out


class _Noise:
    """Input noise for a stack of runs whose specs differ only in M.

    Each redraw takes one block U of unit draws from one generator and
    perturbs the sample once per run through the spec's own draw
    (``PerturbationSpec.perturbed``), its envelope scaled by the run's M:
    bitwise what rng.uniform(-b_r, b_r) returns from a generator in the same
    state, so every run sees the stream it would see alone."""

    def __init__(self, specs):
        self.unit, self.every = replace(specs[0], M=1.0), specs[0].redraw_every
        self.M = np.array([s.M for s in specs])[:, None]
        self.rng = np.random.default_rng(specs[0].seed)

    def draw(self, x, runs: _Runs):
        """The Sample of perturbed copies of the input x, one per active run,
        or None once no run is left.  A run whose draw range or perturbed
        input is not finite fails here, with the error rng.uniform or
        forward would raise for it alone."""
        xs, span = self.unit.perturbed(x, self.rng.random(x.shape), self.M[runs.ids])
        bad_range = ~np.isfinite(span).all(axis=1)
        bad = bad_range | ~np.isfinite(xs).all(axis=1)
        if bad.any():
            runs.drop(bad, lambda j: OverflowError("Range exceeds valid bounds")
                      if bad_range[j] else ShapeError("input contains non-finite entries"))
            xs = xs[~bad]
            if not len(xs):
                return None
        return Sample.trusted(xs if runs.stacked else xs[0])


class _Theory:
    """Theory mode: a checkpoint at every step, one RK4 or Euler step apart."""

    span = 1

    def __init__(self, x: Sample, y_star, law: _Law, integ: Integrator):
        self.x, self.y_star, self.law, self.integ = x, y_star, law, integ

    def measure(self, runs: _Runs, noise, n: int, t: float):
        if noise is not None and n % noise.every == 0:
            runs.x = noise.draw(self.x.x, runs)
            if runs.x is None:
                return None, None
        E, e, runs.u = self.law.eval(runs.layers, runs.x, self.y_star)
        return runs.drop_diverged(t, E, e, runs.u)

    def advance(self, runs: _Runs, noise) -> None:
        _step(self.law, runs, self.y_star, self.integ.dt, self.integ.method)


class _Epochs:
    """Epoch mode: a checkpoint every epoch, one Euler step per sample apart."""

    def __init__(self, ds, rows: list, law: _Law, integ: Integrator):
        self.ds, self.law, self.dt, self.span = ds, law, integ.dt, len(ds)
        self.rows = rows  # (Sample, target) per dataset row

    def measure(self, runs: _Runs, noise, n: int, t: float):
        self.law.mlp.weights = runs.layers  # one pass for every active run
        E, errs = dataset_loss(self.law.mlp, self.ds, self.law.loss)
        return runs.drop_diverged(t, E, errs, runs.W)

    def advance(self, runs: _Runs, noise) -> None:
        for x, y_star in self.rows:
            if noise is not None:
                x = noise.draw(x.x, runs)
                if x is None:
                    return
            runs.u = self.law.rates(runs.layers, x, y_star)
            np.add(runs.W, self.dt * runs.u, out=runs.W)


def integrate(mlp: Mlp, mode, loss, gains: GainSchedule, integ: Integrator,
              stop: StoppingRule, law: str = "auto", noise=None) -> Trajectory:
    """Run a training flow and record its trajectory.

    `noise`, if given, is a perturbation spec applied to the inputs only:
    a fresh offset is drawn every `noise.redraw_every` steps and held across
    the stages of a step, from a generator seeded with `noise.seed`.
    The net and the loss decide the law; a named `law` is only checked.

    Raises HorizonError if t_max/dt exceeds the step budget, and
    DivergenceError if the state stops being finite.
    """
    select_law(mlp, isinstance(loss, LyapunovLoss), law)
    (outcome,) = integrate_batch(mlp, mode, loss, gains, integ, stop,
                                 None if noise is None else [noise])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _check_targets(y_star) -> None:
    if not np.logical_and.reduce(np.isfinite(y_star), axis=None):
        raise ShapeError("target contains non-finite entries")


def integrate_batch(mlp: Mlp, mode, loss, gains: GainSchedule, integ: Integrator,
                    stop: StoppingRule, noises=None) -> list:
    """Integrate one flow from `mlp` once per run, as one stack.

    The runs differ in their noise level or in their loss, never in both.
    Run r perturbs its inputs by `noises[r]` (one noise-free run if `noises`
    is None); the specs may differ only in M (else ValueError, as for an
    empty list), and the runs share one noise stream, the same unit draws
    scaled by each run's envelope.  Or `loss` is a list of one loss per run
    (else ValueError when empty).  Each run follows the law the net and its
    loss give (``select_law``).
    Returns one entry per run: its Trajectory, or the error that stopped it
    alone -- DivergenceError, ShapeError for a non-finite perturbed input or
    OverflowError for a non-finite draw range.
    Errors that concern every run (step budget, shapes, mode) are raised.
    """
    if noises is not None:
        if not noises or any(replace(s, M=noises[0].M) != noises[0] for s in noises[1:]):
            raise ValueError("a stack needs one or more noise levels that differ only in M")
    n_steps = math.ceil(integ.t_max / integ.dt - 1e-12)
    if n_steps > integ.step_budget:
        raise HorizonError(
            f"t_max/dt = {n_steps} steps exceeds the budget of {integ.step_budget}"
        )
    if not isinstance(loss, (list, tuple)):
        losses = [loss] * (1 if noises is None else len(noises))
    elif noises:
        raise ValueError("the runs of a stack differ in noise level or in loss, not both")
    else:
        losses = list(loss)
    if not losses:
        raise ValueError("a stack needs one or more losses")
    work = mlp.copy()
    rule = _Law(work, losses, gains)
    if isinstance(mode, TheoryFlow):
        if mode.x.shape != (work.n_inputs,) or mode.y_star.shape != (work.n_outputs,):
            raise ShapeError(
                f"sample is {mode.x.shape} -> {mode.y_star.shape}, network expects "
                f"({work.n_inputs},) -> ({work.n_outputs},)"
            )
        _check_targets(mode.y_star)
        flow = _Theory(Sample(mode.x, work.n_inputs), mode.y_star, rule, integ)
    elif isinstance(mode, EpochFlow):
        ds = mode.dataset
        if ds.n_features != work.n_inputs or ds.n_targets != work.n_outputs:
            raise ShapeError(
                f"dataset is {ds.n_features}->{ds.n_targets}, network is "
                f"{work.n_inputs}->{work.n_outputs}"
            )
        if noises and noises[0].redraw_every != 1:
            raise ModeError("epoch mode draws fresh noise for every sample; "
                            "redraw_every must be 1")
        _check_targets(ds.targets)
        rows = [(Sample(x, work.n_inputs), y) for x, y in zip(ds.inputs, ds.targets)]
        flow = _Epochs(ds, rows, rule, integ)
    else:
        raise ModeError(f"unknown train mode {type(mode).__name__}")
    last = n_steps // flow.span
    if last < 1:
        raise HorizonError(
            f"t_max/dt = {n_steps} steps is less than one epoch of {flow.span} samples"
        )

    runs = _Runs(work.weights, len(losses), getattr(flow, "x", None), rule)
    noise = None if noises is None else _Noise(noises)
    # overflow in a diverging state is expected; the finite checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(last + 1):
            t = n * flow.span * integ.dt
            E, errs = flow.measure(runs, noise, n, t)
            if not len(runs.ids):
                break
            settled = E <= stop.epsilon
            any_settled = np.logical_or.reduce(settled)
            if n % integ.record_stride == 0 or n == last:
                runs.record(t, E, errs)
            elif any_settled:
                runs.record(t, E, errs, settled)
            if any_settled:
                runs.finish(settled, t)
            if n == last or not len(runs.ids):
                break
            flow.advance(runs, noise)
    runs.finish(np.ones(len(runs.ids), dtype=bool), None)
    return runs.results(stop.epsilon)

