"""Feed-forward sigmoid network with an embedded bias column.

Weight matrix of layer l has shape (units_out, units_in + 1); the trailing
column multiplies a constant activation entry of exactly 1.0, so the bias
behaves like one more input.  That entry does not stand in for the
certificates' excitation level gamma: a 2-3-1 run certified at gamma = 1
settled 17 times later than its T.

A stack of R runs keeps each layer as one (R, units_out, units_in + 1) array
(in an integration, a view of one flat state); ``forward``, ``sensitivities``
and ``loss_gradient`` carry that run axis through, and each run's products
go through its own BLAS call, so a run rounds exactly as it would alone.
The one ``forward`` also serves a dataset's rows (``dynamics.dataset_loss``),
so epoch mode's checkpoints and E0 round exactly as per-sample passes.

A pass writes into the buffers of a ``ForwardTrace``: each hidden layer's
activations go into a bias-appended buffer whose 1.0 column is written once,
when the buffer is made, not on every pass.  An integration holds one trace
per active set; a call without one fills fresh buffers by the same code.
Back-propagation (``sensitivities``) returns fresh arrays.

Pre-activations are clamped to +/-30 before any exponential is taken, both
in the sigmoid and in the control laws that use its reciprocal slope.

An input is checked once, when it becomes a ``Sample``: finite, shaped
(n,) or (runs, n), with its bias entry appended.  An integration builds its
Samples when the flow is built, so its RK4 stages skip the checks;
``forward`` on a plain array builds the Sample itself and raises the same
errors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = [
    "PREACT_CLAMP",
    "Activation",
    "Mlp",
    "Sample",
    "ForwardTrace",
    "Deltas",
    "forward",
    "sensitivities",
    "loss_gradient",
]

PREACT_CLAMP = 30.0

# The constants of the sigmoid and its slope as read-only 0-d arrays: numpy
# takes one as an operand faster than it converts a Python float, and the
# values, so the results, are the same
_LOW, _HIGH, _ONE = (np.array(v) for v in (-PREACT_CLAMP, PREACT_CLAMP, 1.0))
for _c in (_LOW, _HIGH, _ONE):
    _c.flags.writeable = False

# Per-layer pre-activation sensitivities, one vector per weight layer.
Deltas = list


def _sigmoid(a: np.ndarray, out=None) -> np.ndarray:
    """1 / (1 + exp(-clamp(a))) with a clamped to +/-PREACT_CLAMP, divided
    into `out` if it is given (such as the columns of a bias-appended
    buffer).  exp runs on a fresh contiguous array, rounding alike on every path."""
    # np.minimum/np.maximum clamp exactly like np.clip, NaN included, at a
    # fraction of its per-call cost on the short vectors of the control laws
    z = np.minimum(np.maximum(a, _LOW), _HIGH)
    return np.divide(_ONE, _ONE + np.exp(-z), out=out)


class Activation(enum.Enum):
    SIGMOID = "sigmoid"
    IDENTITY = "identity"


@dataclass
class Mlp:
    """Layered network: weights[l] maps activations of layer l (plus bias 1)."""

    weights: list
    activations: tuple

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ShapeError("network needs at least one weight layer")
        if len(self.activations) != len(self.weights):
            raise ShapeError(
                f"{len(self.weights)} weight layers but {len(self.activations)} activations"
            )
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        for l, w in enumerate(self.weights):
            if w.ndim != 2:
                raise ShapeError(f"weight layer {l} is not a matrix")
            if not np.all(np.isfinite(w)):
                raise ShapeError(f"weight layer {l} contains non-finite entries")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0] + 1:
                raise ShapeError(
                    f"layer {l} expects {w.shape[1] - 1} inputs, previous layer emits "
                    f"{self.weights[l - 1].shape[0]}"
                )

    @property
    def layer_sizes(self) -> tuple:
        return (self.n_inputs,) + tuple(w.shape[-2] for w in self.weights)

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[-1] - 1

    @property
    def n_outputs(self) -> int:
        return self.weights[-1].shape[-2]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "Mlp":
        return Mlp([w.copy() for w in self.weights], self.activations)

    @classmethod
    def random(cls, layer_sizes, seed=0, output_activation=Activation.SIGMOID,
               scale=0.5) -> "Mlp":
        """Uniform(-scale, scale) weights, seeded; hidden layers are sigmoid."""
        rng = np.random.default_rng(seed)
        ws = [
            rng.uniform(-scale, scale, size=(layer_sizes[l + 1], layer_sizes[l] + 1))
            for l in range(len(layer_sizes) - 1)
        ]
        acts = (Activation.SIGMOID,) * (len(ws) - 1) + (output_activation,)
        return cls(ws, acts)

    @classmethod
    def zeros(cls, layer_sizes, output_activation=Activation.SIGMOID) -> "Mlp":
        ws = [
            np.zeros((layer_sizes[l + 1], layer_sizes[l] + 1))
            for l in range(len(layer_sizes) - 1)
        ]
        acts = (Activation.SIGMOID,) * (len(ws) - 1) + (output_activation,)
        return cls(ws, acts)


@dataclass
class ForwardTrace:
    """Everything the control laws need from one forward pass, in buffers
    that serve every pass of one net and run count.

    acts[l] is the activation vector feeding weight layer l, with the bias
    entry 1.0 appended; acts[0] is the input itself, and every later one is
    a buffer whose bias column is written once, when the buffer is made.
    preacts[l] is the raw affine output of weight layer l, feeding its
    nonlinearity, and outs[l] that nonlinearity's output: a view of
    acts[l + 1] without its bias column, or y for the last layer.  y is the
    network output (no bias entry), preacts[-1] itself for an identity
    output.  For a stack of runs each of these has a leading run axis,
    except acts[0] when every run shares one input.
    """

    preacts: list
    acts: list
    outs: list
    y: np.ndarray

    @classmethod
    def empty(cls, mlp: "Mlp", lead: tuple = ()) -> "ForwardTrace":
        """Buffers for passes of `mlp` over the leading (run) shape `lead`."""
        sizes = [w.shape[-2] for w in mlp.weights]
        acts = [None]
        for units in sizes[:-1]:
            z = np.empty(lead + (units + 1,))
            z[..., -1] = 1.0
            acts.append(z)
        preacts = [np.empty(lead + (units,)) for units in sizes]
        last = preacts[-1] if mlp.activations[-1] is Activation.IDENTITY else np.empty(
            lead + (sizes[-1],))
        return cls(preacts, acts, [z[..., :-1] for z in acts[1:]] + [last], last)


def _with_bias(v: np.ndarray) -> np.ndarray:
    """v with the constant bias entry 1.0 appended along its last axis."""
    z = np.empty(v.shape[:-1] + (v.shape[-1] + 1,))
    z[..., :-1] = v
    z[..., -1] = 1.0
    return z


class Sample:
    """A checked network input: one sample (n,), or one per run or row (R, n).

    ``x`` is the input as floats and ``z`` the same input with the bias
    entry appended (read-only: every forward pass on the Sample shares it as
    its acts[0]).  ``direction(k)`` is -k * sign(x), the direction the
    single-neuron law moves the input weights along at gain k.
    """

    def __init__(self, x, n_inputs: int):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (n_inputs,) or x.ndim > 2:
            raise ShapeError(
                f"expected input of shape ({n_inputs},) or (runs, {n_inputs}), got {x.shape}")
        if not np.logical_and.reduce(np.isfinite(x), axis=None):
            raise ShapeError("input contains non-finite entries")
        self._wrap(x)

    @classmethod
    def trusted(cls, x: np.ndarray, z: np.ndarray | None = None) -> "Sample":
        """A Sample of a float array the caller has already checked; `z`, if
        given, is x with its bias entry appended (a row of a block's z)."""
        sample = cls.__new__(cls)
        sample._wrap(x, z)
        return sample

    def _wrap(self, x: np.ndarray, z: np.ndarray | None = None) -> None:
        self.x, self.z, self._k = x, _with_bias(x) if z is None else z, None
        self.z.flags.writeable = False

    def direction(self, k: float) -> np.ndarray:
        """-k * sign(x), computed once for each new gain k."""
        if k != self._k:
            self._direction, self._k = -k * np.sign(self.x), k
        return self._direction


def forward(mlp: Mlp, x, trace: ForwardTrace | None = None) -> ForwardTrace:
    """One forward pass; x is one sample (n,) or one sample per run (R, n).

    With stacked weights a single sample (n,) is shared by every run.  x may
    be a Sample, whose checks and bias column are then reused as they are.
    The pass is written into `trace`, buffers held for this net and run
    count (``ForwardTrace.empty``), and returns it; without one it fills
    fresh buffers.
    """
    sample = x if isinstance(x, Sample) else Sample(x, mlp.n_inputs)
    if trace is None:
        trace = ForwardTrace.empty(
            mlp, np.broadcast_shapes(mlp.weights[0].shape[:-2], sample.z.shape[:-1]))
    z = trace.acts[0] = sample.z
    for l, (w, act) in enumerate(zip(mlp.weights, mlp.activations)):
        a, s = trace.preacts[l], trace.outs[l]
        # one matrix-vector BLAS call per run; per-run inputs need a trailing
        # unit axis to pair each run's weights with its own input
        if z.ndim == 1:
            np.matmul(w, z, out=a)
        else:
            np.matmul(w, z[..., None], out=a[..., None])
        if act is Activation.SIGMOID:
            _sigmoid(a, out=s)
        elif s is not a:
            np.copyto(s, a)
        if l + 1 < len(trace.acts):
            z = trace.acts[l + 1]
    return trace


def sensitivities(mlp: Mlp, trace: ForwardTrace, y_star, loss, e=None) -> Deltas:
    """Per-layer pre-activation sensitivities of the loss, as fresh arrays.

    Output layer: delta = act'(a) * dE/de evaluated at e = y - y_star.
    Hidden layer l: delta_l = act'(a_l) * (W_{l+1} without its bias column)^T
    applied to delta_{l+1}; the bias column never feeds back because the
    constant entry is not a function of earlier layers.  A sigmoid layer's
    slope s (1 - s) comes from the output s the forward pass stored, not a
    second sigmoid; an identity layer's slope of 1 is not multiplied in.

    A caller that has checked y_star once and already holds the error
    e = trace.y - y_star passes it as `e`; y_star is then not read.
    """
    if e is None:
        y_star = np.asarray(y_star, dtype=float)
        if y_star.shape[-1:] != (mlp.n_outputs,):
            raise ShapeError(
                f"expected target of shape ({mlp.n_outputs},), got {y_star.shape}")
        e = trace.y - y_star
    deltas = [None] * mlp.n_layers
    g = loss.error_grad(e)
    for l in range(mlp.n_layers - 1, -1, -1):
        if l + 1 < mlp.n_layers:
            w_t, d = mlp.weights[l + 1][..., :-1].swapaxes(-1, -2), deltas[l + 1]
            g = np.matmul(w_t, d) if d.ndim == 1 else np.matmul(w_t, d[..., None])[..., 0]
        s = trace.outs[l]
        deltas[l] = s * (_ONE - s) * g if mlp.activations[l] is Activation.SIGMOID else g
    return deltas


def loss_gradient(deltas: Deltas, trace: ForwardTrace, out=None) -> list:
    """dE/dW per layer: outer(delta_l, activations feeding layer l), per run,
    with np.outer's products; written into `out` (one array per layer, such
    as the views of one flat buffer) if it is given."""
    if len(deltas) != len(trace.acts):
        raise ShapeError(
            f"{len(deltas)} delta vectors for {len(trace.acts)} weight layers"
        )
    return [np.multiply(d[..., :, None], z[..., None, :], out=g)
            for d, z, g in zip(deltas, trace.acts, out or [None] * len(deltas))]
