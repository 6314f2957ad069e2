"""Continuous-time training flows and their recorded trajectories.

Two run modes:

* ``TheoryFlow`` -- one fixed (x, y*) pair; the weight state follows the
  run's law exactly, so the settling-time certificates apply.
* ``EpochFlow`` -- per-sample Euler steps cycling a dataset in order; the
  loss is recorded once per epoch as the dataset-summed value, from one
  ``net.forward`` over every row (``dataset_loss``), the same arithmetic as
  the per-sample steps.  This is the engineering analogue of discrete
  training; no certificate covers it, and ``bounds.certify`` marks the one
  it prints heuristic.

Both flows have a ``dataset``, a theory flow's being its sample as one row,
so E0 is one ``dataset_loss`` pass in either mode (``bounds.Problem``).

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
One law object serves a lone run and every stack.  A stack's losses are
per-run columns, as its weights are rows, so the forward pass, E, the
back-propagation with its dE/de and each law run once per evaluation for
the stack, a gradient-flow run taking the layered law's call as exponent 1
and scale 1; a lone run reads its loss as scalars.  The law holds the
buffers of the pass (``net.ForwardTrace``), the flat dE/dW and the columns
per active set; E, the errors, the sensitivities and the signal are fresh on
every evaluation.  Each run keeps its own records and leaves the active set
as its Trajectory, or its error, once it ends: the stack is compacted, never
masked.  ``integrate`` is the one-run case of ``integrate_batch``.

Each theory-mode step evaluates E once, at its start, for the settle test
and the record.  The RK4 stages, like the per-sample epoch steps, compute
only the control signal (and E for the layered law, whose rate scales with
E**beta).  A single-neuron run with alpha > 0 takes no step that could reach
its settle band: it lands inside the band in closed form (``_Theory._land``),
no later than the last grid time.  The landing test's constants, such as the
run's speed and band, are computed once per active set and input, not once
per step; each step tests only its errors against them.

Inputs are checked once, when the flow is built: the theory sample and
every dataset row become ``net.Sample`` objects (finite, shape-checked, bias
column attached).  A noise redraw is one block (``_Noise``): one row per
theory-mode step, one per dataset row for a whole epoch, checked and given
its bias column once, each row then read as a Sample.  A non-finite input is
refused before the first step, and no RK4 stage repeats the checks.

An integration never mutates the caller's network; it works on its own copy
and returns the final weights inside the Trajectory.
"""

from __future__ import annotations

import copy
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
from .datasets import Dataset
from .errors import DivergenceError, HorizonError, ModeError, ShapeError
from .losses import Exponents, LyapunovLoss, _spans, sgnpow
from .net import (PREACT_CLAMP, Activation, ForwardTrace, Mlp, Sample, forward,
                  loss_gradient, sensitivities)

__all__ = [
    "Integrator",
    "StoppingRule",
    "TheoryFlow",
    "EpochFlow",
    "Trajectory",
    "integrate",
    "integrate_batch",
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

    @property
    def dataset(self) -> Dataset:
        """The sample as a one-row Dataset, built when read: a non-finite input
        is refused by ``integrate_batch`` (ShapeError), not when the flow is made."""
        return Dataset(self.x.reshape(1, -1), self.y_star.reshape(1, -1))


@dataclass(frozen=True)
class EpochFlow:
    """Per-sample Euler steps over a dataset, cycled in row order.

    The integrator's ``method`` is ignored: every step is an Euler step.
    Input noise is drawn afresh for every sample; an offset cannot be held
    across samples whose envelopes differ, so ``redraw_every`` must be 1.
    An epoch takes its draws as one block, rows in order, bitwise the stream
    one draw per sample takes; a level fails at the row where its draw first
    fails, after the steps on the rows before it.
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
        lines = ["t,E,settle_flag,control_norm," + ",".join(f"err_{j}" for j in range(m))]
        # plain floats format as the array scalars do, at a fraction of the cost
        for t, E, flag, norm, errs in zip(self.t.tolist(), self.E.tolist(),
                                          (self.E <= self.epsilon).tolist(),
                                          self.control_norm.tolist(), self.errors.tolist()):
            lines.append(",".join([f"{t:.17g}", f"{E:.17g}", "1" if flag else "0",
                                   f"{norm:.17g}"] + [f"{v:.17g}" for v in errs]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def dataset_loss(mlp: Mlp, dataset, loss) -> tuple:
    """(summed loss over the dataset, mean |error| per output), from one
    ``net.forward`` over every row, passed as one Sample.  Each layer gets a
    unit row axis (on a shallow copy of the net), so every run of a stack
    (R, out, in+1) meets every row in its own matrix-vector product, as in
    a per-sample pass; each run's result is bitwise the run's alone."""
    net = copy.copy(mlp)
    net.weights = [w[..., None, :, :] for w in mlp.weights]
    errs = forward(net, Sample(dataset.inputs, mlp.n_inputs)).y - dataset.targets
    return loss.evaluate(errs), np.mean(np.abs(errs), axis=-2)


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

    Run r follows the law the net and losses[r] give (``select_law``); a stack
    reads its losses as columns (``_Losses``), made with the flat dE/dW buffer
    for each active set, and a lone run its loss as scalars.  A stack's runs
    split into stretches only between the single-neuron law and the others, a
    gradient-flow run taking the layered law's call.  A lone stretch is never
    sliced."""

    def __init__(self, mlp: Mlp, losses, gains: GainSchedule):
        self.mlp, self.gains, self.stacked = mlp, gains, len(losses) > 1
        self.shapes = [w.shape[-2:] for w in mlp.weights]
        self._group([select_law(mlp, isinstance(loss, LyapunovLoss)) for loss in losses],
                    list(losses))

    def _group(self, kinds: list, losses: list) -> None:
        self.kinds, self.losses = kinds, losses
        self.loss = _Losses(kinds, losses) if self.stacked else losses[0]
        self.layered = "mlp" in kinds  # its rows scale by E**beta
        # gradient-flow runs beside layered ones take the layered law's call
        family = ["mlp" if kind == "baseline" and self.layered else kind for kind in kinds]
        laws = [(s, (kind, self.loss.rate_scale[s] if self.stacked
                     else lyapunov_rate_scale(losses[0].alpha))) for kind, s in _spans(family)]
        self.whole = laws[0][1] if len(laws) == 1 else None
        self.backprop = any(kind != "single_neuron" for kind in kinds)
        # the buffers of every pass and dE/dW of this active set, and each
        # stretch's slices of those its law reads
        self.trace = ForwardTrace.empty(self.mlp, (len(kinds),) if self.stacked else ())
        self.grad, self.grad_layers = _buffer(self.shapes, len(kinds), self.stacked)
        self.groups = [(s, law, self.trace.preacts[0][s], self.grad[s]) for s, law in laws]

    def keep(self, keep) -> None:
        """Compaction kept the runs where `keep` is set."""
        self._group([kind for kind, kept in zip(self.kinds, keep) if kept],
                    [loss for loss, kept in zip(self.losses, keep) if kept])

    def eval(self, weights, x: Sample, y_star, with_E: bool = True) -> tuple:
        """At the layer views `weights` of a flat state, the signal shaped like
        it.  x is a Sample (a plain array is checked again on every call);
        y_star has been checked against the net's outputs.  E, the errors
        and the signal, its stretches joined in run order, are fresh arrays;
        the pass and dE/dW live in the held buffers and are overwritten by
        the next evaluation."""
        self.mlp.weights = weights
        trace = forward(self.mlp, x, self.trace)
        e = trace.y - y_star
        # one E per run, when the step records it or the layered law scales by it
        E = self.loss.evaluate(e[..., None, :]) if with_E or self.layered else None
        if self.backprop:
            loss_gradient(sensitivities(self.mlp, trace, y_star, self.loss, e), trace,
                          out=self.grad_layers)
        if self.whole:  # one stretch: nothing to slice
            return E, e, self._signal(self.whole, x, e, trace.preacts[0], self.grad, E)
        # a layered stack is one stretch: its net takes no single-neuron run
        return E, e, np.concatenate([self._signal(law, x, e[s], z, grad, None)
                                     for s, law, z, grad in self.groups])

    def _signal(self, law, x, e, z, grad, E):
        """One stretch's control signal, a fresh array, from its errors,
        pre-activations, flat dE/dW and E."""
        kind, rate_scale = law
        if kind == "single_neuron":  # a one-layer net, whose state is its layer
            return single_neuron_update(x, e[..., 0], z[..., 0], self.gains,
                                        rate_scale=rate_scale)[0]
        if kind == "mlp":
            return mlp_update([grad], E, self.gains, self.loss)[0]
        return gradient_flow_update([grad], self.gains)[0]

    def rates(self, weights, x, y_star):
        """The control signal alone, as an RK4 stage or an epoch step needs it."""
        return self.eval(weights, x, y_star, with_E=False)[2]


class _Losses:
    """A stack's losses as per-run columns.  Each is the member alpha of E =
    sum |e|^(alpha+1) / (alpha+1), L1 and L2 the members 0 and 1, so E is one
    power of |e| and dE/de one sgnpow, each row rounded as its loss rounds
    alone (``Exponents``); ``alpha`` and ``beta`` are the layered law's, 1
    and None for gradient flow."""

    def __init__(self, kinds, losses):
        self.powers = Exponents([loss.alpha for loss in losses])
        self.p = Exponents([loss.alpha + 1.0 for loss in losses])
        layered = [loss.layered() if kind == "mlp" else None for kind, loss in zip(kinds, losses)]
        self.alpha = Exponents([1.0 if loss is None else loss.alpha for loss in layered])
        self.beta = [None if loss is None else loss.beta for loss in layered]
        self.rate_scale = np.array([lyapunov_rate_scale(loss.alpha) for loss in losses])[:, None]

    def evaluate(self, e):
        """One E per run of errors (runs, samples, outputs)."""
        return np.add.reduce(self.p.power(e), axis=(1, 2)) / self.p.column

    def error_grad(self, e):
        return sgnpow(e, self.powers)


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
    """The active set of a stack of runs; each run's records, its Trajectory once it ends.

    The weights W, one flat state (``_buffer``) stepped in place, and the
    RK4 stage buffer are made with their views for each active set.  A
    stack keeps its run axis even when compaction leaves one run.  A lone
    run has none: its law works on matrices and scalars, where numpy's
    per-call cost is lower.  Kept at one run, the axis made single-neuron
    training about 20% slower and a 4-8-1 compare about 10% slower."""

    def __init__(self, weights, count: int, x, law: _Law, epsilon: float):
        self.ids, self.stacked, self.law, self.epsilon = np.arange(count), law.stacked, law, epsilon
        W, layers = _buffer(law.shapes, count, self.stacked)
        for layer, w in zip(layers, weights):
            layer[...] = w  # every run starts from the net's weights
        self._hold(W)
        self.x, self.u = x, None    # Sample, shared or one row per run; last signal
        # by run id until it ends: columns t, E, errors (flat) and norm, lists
        # of floats, which take less memory than small arrays or row lists
        self.logs = [([], [], [], []) for _ in range(count)]
        self.done = [None] * count  # by run id: its Trajectory or an error

    def _hold(self, W) -> None:
        """Take W as the state, with views and a stage buffer for its runs."""
        self.W, self.layers = W, _views(W, self.law.shapes)
        self.stage, self.stage_layers = _buffer(self.law.shapes, len(W), self.stacked)

    def rows(self, flat, j: int) -> list:
        """Run j's layers of a flat per-run array, the weights or the signal."""
        return _views(flat[j] if self.stacked else flat, self.law.shapes)

    def drop(self, gone, outcome) -> None:
        """Take the runs at positions `gone` out; outcome(j) is how run j ended."""
        for run, j in zip(self.ids[gone].tolist(), np.flatnonzero(gone)):
            self.done[run], self.logs[run] = outcome(j), None  # an ended run keeps no log
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
        """End the runs where `ended` is set, settled at one time (None: not) or one each."""
        at = settled_at if isinstance(settled_at, list) else [settled_at] * len(ended)
        def trajectory(j):  # the run's columns as arrays, its errors a row per record
            t, E, errs, norms = map(np.array, self.logs[self.ids[j]])
            return Trajectory(t, E, errs.reshape(len(E), -1), norms, at[j], self.epsilon,
                              [w.copy() for w in self.rows(self.W, j)])
        self.drop(ended, trajectory)

    def record(self, t, E, errs, rows=None) -> None:
        """Record the runs at positions `rows`, or every active run, at one
        time or one each: one ``signal_norm`` call gives every run its norm."""
        ids, u = self.ids, self.u
        if rows is not None:
            ids, E, errs, t = ids[rows], E[rows], errs[rows], t if np.isscalar(t) else t[rows]
            u = u[rows] if self.stacked and u is not None else u
        norms = ([0.0] * len(ids) if u is None  # no signal yet: an epoch run's first record
                 else signal_norm(_views(u, self.law.shapes)).ravel().tolist())
        ts = [t] * len(ids) if np.isscalar(t) else t.tolist()
        for run, t_r, E_r, errs_r, norm in zip(ids.tolist(), ts, E.tolist(), errs.tolist(), norms):
            log = self.logs[run]
            log[0].append(t_r), log[1].append(E_r), log[2].extend(errs_r), log[3].append(norm)


class _Noise:
    """Input noise for a stack of runs whose specs differ only in M.

    Each redraw takes one block U (rows, n) of unit draws from one generator,
    a row per input row in order: one row for a theory-mode step, one per
    dataset row for a whole epoch, bitwise the stream that one draw of n per
    row takes.  The block perturbs the inputs once per run through the spec's
    own draw (``PerturbationSpec.perturbed``), its envelope scaled by the
    run's M, laid out (rows, R, n): bitwise what rng.uniform(-b_r, b_r)
    returns from a generator in the same state, so every run sees the stream
    it would see alone."""

    def __init__(self, specs):
        self.unit, self.every = replace(specs[0], M=1.0), specs[0].redraw_every
        self.M = np.array([s.M for s in specs])[:, None]
        self.rng = np.random.default_rng(specs[0].seed)

    def draws(self, X, runs: _Runs):
        """Yield, for each row of the inputs X (rows, n), the Sample of its
        perturbed copies, one per active run; stop once no run is left.  A
        run whose draw range or perturbed input is not finite fails at the
        first row where it is not, with the error rng.uniform or forward
        would raise for it alone."""
        xs, span = self.unit.perturbed(X[:, None], self.rng.random(X.shape)[:, None],
                                       self.M[runs.ids])
        bad_range = ~np.isfinite(span).all(axis=-1)
        bad = bad_range | ~np.isfinite(xs).all(axis=-1)
        block = Sample.trusted(xs if runs.stacked else xs[:, 0])  # one bias append
        for i, fails in enumerate(bad.any(axis=1).tolist()):
            if fails and bad[i].any():
                gone, ranges = bad[i], bad_range[i]
                runs.drop(gone, lambda j: OverflowError("Range exceeds valid bounds")
                          if ranges[j] else ShapeError("input contains non-finite entries"))
                if not len(runs.ids):
                    return
                block, bad, bad_range = (Sample.trusted(block.x[:, ~gone]),
                                         bad[:, ~gone], bad_range[:, ~gone])
            yield Sample.trusted(block.x[i], block.z[i])


class _Theory:
    """Theory mode: a checkpoint at every step, one RK4 or Euler step apart."""

    span = 1

    def __init__(self, x: Sample, y_star, law: _Law, integ: Integrator, epsilon: float,
                 horizon: float):
        self.x, self.y_star, self.law, self.integ, self.epsilon = x, y_star, law, integ, epsilon
        self.horizon = horizon  # the last grid time; no run lands past it
        # by run id: band b of |e| and rate scale of a run that lands, else nan
        alphas = [loss.alpha if kind == "single_neuron" and loss.alpha > 0 else math.nan
                  for kind, loss in zip(law.kinds, law.losses)]
        self.band = np.array([((a + 1.0) * epsilon) ** (1.0 / (a + 1.0)) for a in alphas])
        self.rs = np.array([lyapunov_rate_scale(a) for a in alphas])
        self.lands = not np.isnan(self.band).all()
        # the landing test's S, v, b, 2 v dt and b/2, and the (runs.ids,
        # runs.x) they were computed for
        self.held, self.consts = (None, None), None

    def measure(self, runs: _Runs, noise, n: int, t: float):
        if noise is not None and n % noise.every == 0:
            runs.x = next(noise.draws(self.x.x[None], runs), None)
            if runs.x is None:
                return None, None
        E, e, runs.u = self.law.eval(runs.layers, runs.x, self.y_star)
        return runs.drop_diverged(t, E, e, runs.u)

    def advance(self, runs: _Runs, noise, t: float, errs) -> None:
        if self.lands:
            self._land(runs, t, errs)
        if len(runs.ids):
            _step(self.law, runs, self.y_star, self.integ.dt, self.integ.method)

    def _land(self, runs: _Runs, t: float, errs) -> None:
        """Finish in closed form each run whose step could reach its band:
        once 2 v dt >= |e| - b (e moves at v = k rs S, S = sum|x_i|) or
        2 v dt >= 8 sigma'(z) (|e| - b/2) (z moves at v / sigma'(z), and z*
        is 4 (|e| - b/2) away or more), so no step taken reaches e = 0.  The
        input weights move by sign(x) (z* - z) / S to z* = logit(y* + sign(e)
        b/2), reached at t + (|e| - b/2) / v, on the run's own (1, n+1) row as
        alone.  Not if that time is past the last grid time, the landed E is
        not <= epsilon or z meets the clamp.  S, v, b, 2 v dt and b/2 are
        computed once per active set and input: a compaction replaces
        runs.ids, a noise redraw runs.x."""
        x, ids, law = runs.x, runs.ids, self.law
        if self.held[0] is not ids or self.held[1] is not x:
            S = np.broadcast_to(np.add.reduce(np.abs(x.x), axis=-1), ids.shape)
            speed, band = law.gains.scalar * self.rs[ids] * S, self.band[ids]
            self.held = (ids, x)
            self.consts = S, speed, band, 2.0 * self.integ.dt * speed, band / 2
        S, speed, band, reach, half = self.consts
        e0 = errs[:, 0]
        size, y = np.abs(e0), self.y_star[0] + e0
        hit = (reach >= size - band) | (reach >= 8.0 * y * (1.0 - y) * (size - half))
        if not np.logical_or.reduce(hit):
            return
        landed, at, E = np.zeros(len(ids), bool), np.zeros(len(ids)), np.zeros(len(ids))
        for j in np.flatnonzero(hit):
            b, e, w = band[j], float(errs[j, 0]), runs.rows(runs.W, j)[0]
            row = Sample.trusted(x.x[j]) if x.x.ndim == 2 else x
            p, z = float(self.y_star[0]) + math.copysign(b / 2.0, e), float((w @ row.z)[0])
            z_star = math.log(p / (1.0 - p)) if 0.0 < p < 1.0 else math.inf
            at_j = t + (abs(e) - b / 2) / speed[j]
            if not (max(abs(z), abs(z_star)) < PREACT_CLAMP and at_j <= self.horizon):
                continue
            new = w + np.append(np.sign(row.x) * ((z_star - z) / S[j]), 0.0)
            E_j, e_j, u_j = _Law(law.mlp, [law.losses[j]], law.gains).eval([new], row, self.y_star)
            if E_j <= self.epsilon:
                w[...], runs.rows(runs.u, j)[0][...] = new, u_j
                landed[j], E[j], errs[j], at[j] = True, E_j, e_j, at_j
        if np.logical_or.reduce(landed):
            runs.record(at, E, errs, landed)
            runs.finish(landed, at.tolist())


class _Epochs:
    """Epoch mode: a checkpoint every epoch, one Euler step per sample apart.
    A noisy epoch draws every sample's noise as one block (``_Noise.draws``)."""

    def __init__(self, ds, samples: list, law: _Law, integ: Integrator):
        self.ds, self.law, self.dt, self.span = ds, law, integ.dt, len(ds)
        self.samples, self.targets = samples, list(ds.targets)  # per dataset row

    def measure(self, runs: _Runs, noise, n: int, t: float):
        self.law.mlp.weights = runs.layers  # one pass for every active run
        E, errs = dataset_loss(self.law.mlp, self.ds, self.law.loss)
        return runs.drop_diverged(t, E, errs, runs.W)

    def advance(self, runs: _Runs, noise, t: float, errs) -> None:
        # a noisy epoch takes one block of draws; its rows stop once no run is left
        xs = self.samples if noise is None else noise.draws(self.ds.inputs, runs)
        for x, y_star in zip(xs, self.targets):
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
            f"t_max/dt = {integ.t_max!r}/{integ.dt!r} = {n_steps} steps exceeds "
            f"the budget of {integ.step_budget}"
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
        flow = _Theory(Sample(mode.x, work.n_inputs), mode.y_star, rule, integ, stop.epsilon,
                       n_steps * integ.dt)
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
        flow = _Epochs(ds, [Sample(x, work.n_inputs) for x in ds.inputs], rule, integ)
    else:
        raise ModeError(f"unknown train mode {type(mode).__name__}")
    last = n_steps // flow.span
    if last < 1:
        raise HorizonError(
            f"t_max/dt = {integ.t_max!r}/{integ.dt!r} = {n_steps} steps is less than "
            f"one epoch of {flow.span} samples"
        )

    runs = _Runs(work.weights, len(losses), getattr(flow, "x", None), rule, stop.epsilon)
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
            if n < last and len(runs.ids):  # a run that lands leaves here
                flow.advance(runs, noise, t, errs[~settled] if any_settled else errs)
            if n == last or not len(runs.ids):
                break
    runs.finish(np.ones(len(runs.ids), dtype=bool), None)
    return runs.done

