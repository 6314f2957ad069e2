"""Feed-forward sigmoid network with an embedded bias column.

Weight matrix of layer l has shape (units_out, units_in + 1); the trailing
column multiplies a constant activation entry of exactly 1.0, so the bias
behaves like one more input and the excitation assumption behind the
settling-time certificates holds with gamma = 1 even for all-zero samples.

Pre-activations are clamped to +/-30 before any exponential is taken, both
in the sigmoid and in the control laws that use its reciprocal slope.
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

    def derivative(self, a):
        """Slope with respect to the pre-activation; sigma*(1-sigma) in (0, 0.25]."""
        if self is Activation.SIGMOID:
            s = _sigmoid(np.asarray(a, dtype=float))
            return s * (1.0 - s)
        return np.ones_like(np.asarray(a, dtype=float))


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
        return (self.weights[0].shape[1] - 1,) + tuple(w.shape[0] for w in self.weights)

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[1] - 1

    @property
    def n_outputs(self) -> int:
        return self.weights[-1].shape[0]

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

    acts[l] is the activation vector of layer l with the bias entry 1.0
    appended; acts[0] is the input itself.  preacts[l] is the raw affine
    output feeding layer l+1's nonlinearity.  y is the network output
    (no bias entry).
    """

    x: np.ndarray
    preacts: list = field(default_factory=list)
    acts: list = field(default_factory=list)
    y: np.ndarray = None


def _with_bias(v: np.ndarray) -> np.ndarray:
    """v with the constant bias entry 1.0 appended."""
    z = np.empty(len(v) + 1)
    z[:-1] = v
    z[-1] = 1.0
    return z


def forward(mlp: Mlp, x) -> ForwardTrace:
    x = np.asarray(x, dtype=float)
    n = mlp.n_inputs
    if x.shape != (n,):
        raise ShapeError(f"expected input of shape ({n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ShapeError("input contains non-finite entries")

    z = _with_bias(x)
    preacts, acts = [], [z]
    for w, act in zip(mlp.weights, mlp.activations):
        a = w @ z
        preacts.append(a)
        z = _with_bias(act.apply(a))
        acts.append(z)
    return ForwardTrace(x=x, preacts=preacts, acts=acts, y=z[:-1].copy())


def sensitivities(mlp: Mlp, trace: ForwardTrace, y_star, loss) -> Deltas:
    """Per-layer pre-activation sensitivities of the loss.

    Output layer: delta = act'(a) * dE/de evaluated at e = y - y_star.
    Hidden layer l: delta_l = act'(a_l) * (W_{l+1} without its bias column)^T
    applied to delta_{l+1}; the bias column never feeds back because the
    constant entry is not a function of earlier layers.
    """
    y_star = np.asarray(y_star, dtype=float)
    if y_star.shape != (mlp.n_outputs,):
        raise ShapeError(f"expected target of shape ({mlp.n_outputs},), got {y_star.shape}")
    e = trace.y - y_star
    grad = np.atleast_1d(np.asarray(loss.error_grad(e), dtype=float))
    deltas = [None] * mlp.n_layers
    deltas[-1] = mlp.activations[-1].derivative(trace.preacts[-1]) * grad
    for l in range(mlp.n_layers - 2, -1, -1):
        back = mlp.weights[l + 1][:, :-1].T @ deltas[l + 1]
        deltas[l] = mlp.activations[l].derivative(trace.preacts[l]) * back
    return deltas


def loss_gradient(deltas: Deltas, trace: ForwardTrace) -> list:
    """dE/dW per layer: outer(delta_l, activations feeding layer l)."""
    if len(deltas) != len(trace.acts) - 1:
        raise ShapeError(
            f"{len(deltas)} delta vectors for {len(trace.acts) - 1} weight layers"
        )
    return [np.outer(d, z) for d, z in zip(deltas, trace.acts[:-1])]
