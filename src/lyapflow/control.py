"""Weight-update laws, phrased as control signals on the weight state.

Three laws live here:

* ``single_neuron_update`` -- the sign-based law for one sigmoid unit whose
  magnitude is the reciprocal sigmoid slope.  It drives the output error at
  a constant rate, so the unit settles in finite time.
* ``mlp_update`` -- the layered law: each weight moves against the signed
  fractional power of its own loss sensitivity, scaled by E**beta.
* ``gradient_flow_update`` -- plain gradient flow, used for L1/L2 baselines;
  beside layered runs, a stack's baselines take ``mlp_update`` instead.

Each law, and ``signal_norm``, also takes a stack of runs (a leading run
axis) and rounds every run exactly as it would be rounded alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LyapunovLoss, sgnpow
from .net import PREACT_CLAMP, Sample

__all__ = [
    "GainSchedule",
    "ControlSignal",
    "signal_norm",
    "lyapunov_rate_scale",
    "single_neuron_update",
    "mlp_update",
    "gradient_flow_update",
]

# A control signal is one rate matrix per weight layer, shaped like the weights.
ControlSignal = list


@dataclass(frozen=True)
class GainSchedule:
    """One positive gain k for every weight."""

    scalar: float

    def __post_init__(self):
        if not (np.isfinite(self.scalar) and self.scalar > 0):
            raise ValueError(f"gain must be finite and > 0, got {self.scalar}")

    @classmethod
    def uniform(cls, k: float) -> "GainSchedule":
        return cls(float(k))

    @property
    def k_min(self) -> float:
        return self.scalar


def signal_norm(signal: ControlSignal) -> float | np.ndarray:
    """Flat 2-norm over every rate entry; a stack's layers (R, out, in+1) give
    one per run, summed as alone: each layer, then the layers in order."""
    return np.sqrt(sum(np.add.reduce(u * u, axis=(-2, -1)) for u in signal))


def lyapunov_rate_scale(alpha: float) -> float:
    """Constant (alpha+1)**(-alpha/(alpha+1)) applied to the single-unit law.

    The loss carries a 1/(alpha+1) normalisation, so the raw law decreases E
    at rate |e|**alpha * sum(k|x|) rather than E**beta * sum(k|x|).  The two
    differ by exactly this constant; folding it into the law makes the
    integrated loss follow dE/dt = -c * E**beta with c = k * sum|x_i|, the
    same constant the settling-time certificate is stated in.
    """
    return float((alpha + 1.0) ** (-alpha / (alpha + 1.0)))


def single_neuron_update(x, e_bar: float, z: float, gains: GainSchedule,
                         rate_scale: float = 1.0) -> ControlSignal:
    """Rate law for a single sigmoid unit; the bias weight is frozen.

    u_i = -k * sign(x_i) * sign(e) * (exp(z) + 2 + exp(-z)) * rate_scale,
    where exp(z) + 2 + exp(-z) is 1/sigma'(z), evaluated with z clamped to
    +/-30.  With rate_scale=1 the induced loss rate is exactly
    -|e|**alpha * k * sum|x_i|; see :func:`lyapunov_rate_scale` for the
    scale that restates it in terms of E**beta.

    For a stack of R runs e_bar and z are arrays of one value per run and x
    is (R, n) or one shared (n,) sample; the rate is then (R, 1, n+1).  x
    may be a ``Sample``, whose direction -k * sign(x) is then computed once
    for all calls.
    """
    k = gains.scalar
    direction = (x.direction(k) if isinstance(x, Sample)
                 else -k * np.sign(np.asarray(x, dtype=float)))
    stacked = isinstance(z, np.ndarray) and z.ndim > 0
    # max first, so a NaN pre-activation passes through as it would np.clip;
    # one run clamps a Python float, at a fraction of two ufunc calls
    if stacked:
        zc = np.minimum(np.maximum(z, -PREACT_CLAMP), PREACT_CLAMP)
    else:
        zc = min(max(float(z), -PREACT_CLAMP), PREACT_CLAMP)
    # sign(e) scales by +/-1 or 0, so folding it into the magnitude first
    # rounds exactly like applying it to the rate
    mag = np.sign(e_bar) * (np.exp(zc) + 2.0 + np.exp(-zc))
    rate = np.zeros(mag.shape + (1, direction.shape[-1] + 1))
    rate[..., 0, :-1] = direction * (mag[:, None] if stacked else mag) * rate_scale
    return [rate]


def mlp_update(grad, E, gains: GainSchedule, loss) -> ControlSignal:
    """Layered law: dW_l/dt = -k * sgnpow(dE/dW_l, alpha) * E**beta.

    `grad` is dE/dW per layer (``net.loss_gradient``), the input gradient
    flow takes as well; a list of one flat array of every layer's entries
    is one layer too.  Bias columns are updated like any other weight
    (their activation entry is the constant 1).  Valid for alpha + beta < 1.
    E is one value per run for a stack, whose `loss` may give each run its own
    exponent ``alpha`` (``losses.Exponents``) and ``beta`` (a list); exponent 1
    with beta None, scale 1, is gradient flow.  Each rate is a fresh array.
    """
    stacked = isinstance(E, np.ndarray) and E.ndim > 0
    values = E.tolist() if stacked else [E]
    if any(v < 0 for v in values):
        raise ValueError(f"E must be >= 0, got {E}")
    betas = loss.beta if isinstance(loss.beta, list) else [loss.layered().beta] * len(values)
    # libm's pow, one run at a time: numpy's vectorised power may round the
    # last bit differently, and the weights would drift from a lone run's
    powers = [1.0 if b is None else v ** b for v, b in zip(values, betas)]
    scale = np.array(powers).reshape((-1,) + (1,) * (grad[0].ndim - 1)) if stacked else powers[0]
    return [-gains.scalar * sgnpow(g, loss.alpha) * scale for g in grad]


def gradient_flow_update(grad, gains: GainSchedule) -> ControlSignal:
    """Baseline: dW_l/dt = -k * dE/dW_l, each rate a fresh array."""
    return [g * -gains.scalar for g in grad]
