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
from dataclasses import dataclass, field

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

# Per-layer pre-activation sensitivities, one vector per weight layer.
Deltas = list


def _sigmoid(a: np.ndarray) -> np.ndarray:
    # np.minimum/np.maximum clamp exactly like np.clip, NaN included, at a
    # fraction of its per-call cost on the short vectors of the control laws
    z = np.minimum(np.maximum(a, -PREACT_CLAMP), PREACT_CLAMP)
    return 1.0 / (1.0 + np.exp(-z))


class Activation(enum.Enum):
    SIGMOID = "sigmoid"
    IDENTITY = "identity"

    def apply(self, a):
        if self is Activation.SIGMOID:
            return _sigmoid(np.asarray(a, dtype=float))
        return np.asarray(a, dtype=float)

    def slope(self, s):
        """Slope with respect to the pre-activation a, from the activation's
        output s = apply(a); sigma*(1-sigma) in (0, 0.25] for the sigmoid."""
        if self is Activation.SIGMOID:
            return s * (1.0 - s)
        return np.ones_like(s)


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
    """Everything the control laws need from one forward pass.

    acts[l] is the activation vector feeding weight layer l, with the bias
    entry 1.0 appended; acts[0] is the input itself.  preacts[l] is the raw
    affine output of weight layer l, feeding its nonlinearity.  y is the
    network output (no bias entry).  For a stack of runs each of these has
    a leading run axis, except acts[0] when every run shares one input.
    """

    preacts: list = field(default_factory=list)
    acts: list = field(default_factory=list)
    y: np.ndarray = None


def _with_bias(v: np.ndarray) -> np.ndarray:
    """v with the constant bias entry 1.0 appended along its last axis."""
    z = np.empty(v.shape[:-1] + (v.shape[-1] + 1,))
    z[..., :-1] = v
    z[..., -1] = 1.0
    return z


class Sample:
    """A checked network input: one sample (n,) or one sample per run (R, n).

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
    def trusted(cls, x: np.ndarray) -> "Sample":
        """A Sample of a float array the caller has already checked."""
        sample = cls.__new__(cls)
        sample._wrap(x)
        return sample

    def _wrap(self, x: np.ndarray) -> None:
        self.x, self.z, self._k = x, _with_bias(x), None
        self.z.flags.writeable = False

    def direction(self, k: float) -> np.ndarray:
        """-k * sign(x), computed once for each new gain k."""
        if k != self._k:
            self._direction, self._k = -k * np.sign(self.x), k
        return self._direction


def forward(mlp: Mlp, x) -> ForwardTrace:
    """One forward pass; x is one sample (n,) or one sample per run (R, n).

    With stacked weights a single sample (n,) is shared by every run.  x may
    be a Sample, whose checks and bias column are then reused as they are.
    """
    sample = x if isinstance(x, Sample) else Sample(x, mlp.n_inputs)
    acts, preacts, y = [], [], None
    for w, act in zip(mlp.weights, mlp.activations):
        z = sample.z if y is None else _with_bias(y)
        acts.append(z)
        # one matrix-vector BLAS call per run; per-run inputs need a trailing
        # unit axis to pair each run's weights with its own input
        a = w @ z if z.ndim == 1 else (w @ z[..., None])[..., 0]
        preacts.append(a)
        y = act.apply(a)
    return ForwardTrace(preacts, acts, y)


def sensitivities(mlp: Mlp, trace: ForwardTrace, y_star, loss, e=None) -> Deltas:
    """Per-layer pre-activation sensitivities of the loss.

    Output layer: delta = act'(a) * dE/de evaluated at e = y - y_star.
    Hidden layer l: delta_l = act'(a_l) * (W_{l+1} without its bias column)^T
    applied to delta_{l+1}; the bias column never feeds back because the
    constant entry is not a function of earlier layers.  Each slope act'(a)
    comes from the activation the forward pass stored, not a second sigmoid;
    an identity layer's slope of 1 is not multiplied in at all.

    A caller that has checked y_star once and already holds the error
    e = trace.y - y_star passes it as `e`; y_star is then not read.
    """
    if e is None:
        y_star = np.asarray(y_star, dtype=float)
        if y_star.shape[-1:] != (mlp.n_outputs,):
            raise ShapeError(
                f"expected target of shape ({mlp.n_outputs},), got {y_star.shape}")
        e = trace.y - y_star
    grad = np.asarray(loss.error_grad(e), dtype=float)
    deltas = [None] * mlp.n_layers
    deltas[-1] = _times_slope(mlp.activations[-1], trace.y, grad)
    for l in range(mlp.n_layers - 2, -1, -1):
        w_t, d = np.swapaxes(mlp.weights[l + 1][..., :-1], -1, -2), deltas[l + 1]
        back = w_t @ d if d.ndim == 1 else (w_t @ d[..., None])[..., 0]
        deltas[l] = _times_slope(mlp.activations[l], trace.acts[l + 1][..., :-1], back)
    return deltas


def _times_slope(act: Activation, s, v):
    """act's slope at output s times v; 1.0 * v is v to the bit."""
    return v if act is Activation.IDENTITY else act.slope(s) * v


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
