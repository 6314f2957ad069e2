"""Training losses: the fractional-power settling loss and L1/L2 baselines.

The central object is ``LyapunovLoss``, the loss

    E(e) = sum_m |e_m|^(alpha+1) / (alpha+1),      0 < alpha < 1,

whose fractional exponent is what makes finite-time (rather than merely
asymptotic) convergence possible.  ``alpha`` controls the loss itself,
``beta`` is the decay exponent that the multi-layer weight law applies to E.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "sgnpow",
    "Exponents",
    "LyapunovLoss",
    "L1Loss",
    "L2Loss",
    "Loss",
]


def sgnpow(v, p):
    """Signed power map sign(v) * |v|**p, elementwise.

    Non-Lipschitz at the origin for p < 1.  sgnpow(0, p) == 0 for every
    p >= 0, including p == 0 where the map reduces to plain sign().
    Scalars in, scalar out; arrays in, array out.  p may also be one exponent
    per run of a stack (``Exponents``), row r of v then raised to the r-th.
    """
    v = np.asarray(v, dtype=float)
    if isinstance(p, Exponents):
        return np.sign(v) * p.power(v)
    if p < 0:
        raise ValueError(f"sgnpow exponent must be >= 0, got {p}")
    out = np.sign(v) * np.abs(v) ** p
    return out if out.ndim else float(out)


def _spans(keys) -> list:
    """(key, slice) for each stretch of equal consecutive keys, in order."""
    cuts = [0] + [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]] + [len(keys)]
    return [(keys[a], slice(a, b)) for a, b in zip(cuts, cuts[1:]) if a < b]


class Exponents:
    """One exponent per run of a stack, checked >= 0 once.  ``power`` rounds
    each run as ``**`` does for its scalar exponent, which numpy takes to
    np.sqrt at 0.5 and np.square at 2: pow rounds apart from both."""

    def __init__(self, values):
        if min(values, default=0.0) < 0:
            raise ValueError(f"sgnpow exponent must be >= 0, got {min(values)}")
        self.column = np.array(values, float)
        fast = {0.5: np.sqrt, 2.0: np.square}
        self.fast = [(rows, fast[p]) for p, rows in _spans(values) if p in fast]

    def power(self, v):
        """|v| ** p, row r of v raised to the r-th exponent: a fresh array."""
        a = np.abs(v)
        out = a ** self.column.reshape((-1,) + (1,) * (a.ndim - 1))
        for rows, f in self.fast:  # a stretch of runs at 0.5 or at 2
            f(a[rows], out=out[rows])
        return out


def _total(a):
    """Sum of one error array; one per run for a stack (runs, samples, outputs)."""
    if a.ndim == 3:
        return np.add.reduce(a, axis=(1, 2))
    return float(np.add.reduce(a, axis=None))


@dataclass(frozen=True)
class LyapunovLoss:
    """Exponent pair (alpha, beta) of the settling loss.

    beta=None selects alpha/(alpha+1), the exponent forced by the
    single-output analysis.  Multi-layer runs should be built through
    :meth:`multilayer`, which additionally enforces alpha + beta < 1.

    alpha == 0 turns the loss into a pure signum flow; it is rejected
    unless ``allow_unsafe_alpha`` is set, because the resulting
    discontinuous updates chatter instead of settling.
    """

    alpha: float = 0.7
    beta: float | None = None
    allow_unsafe_alpha: bool = False

    name = "lyapunov"

    def __post_init__(self):
        lo_ok = self.alpha > 0.0 or (self.allow_unsafe_alpha and self.alpha == 0.0)
        if not (lo_ok and self.alpha < 1.0):
            raise ValueError(
                f"alpha must lie in (0, 1) (alpha=0 only with allow_unsafe_alpha); got {self.alpha}"
            )
        if self.beta is None:
            object.__setattr__(self, "beta", self.alpha / (self.alpha + 1.0))
        beta_lo_ok = self.beta > 0.0 or (self.allow_unsafe_alpha and self.beta == 0.0)
        if not (beta_lo_ok and self.beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1); got {self.beta}")

    @classmethod
    def single_neuron(cls, alpha: float = 0.7, **kw) -> "LyapunovLoss":
        """Loss with beta pinned to alpha/(alpha+1) (single-output theory)."""
        return cls(alpha, alpha / (alpha + 1.0), **kw)

    @classmethod
    def multilayer(cls, alpha: float = 0.7, beta: float | None = None, **kw) -> "LyapunovLoss":
        """Loss for the layered weight law; requires alpha + beta < 1.

        The default beta is min(alpha/(alpha+1), 0.999*(1-alpha)): the
        single-output value where it is admissible, nudged below the
        alpha + beta = 1 line where it is not.
        """
        if beta is None:
            beta = min(alpha / (alpha + 1.0), 0.999 * (1.0 - alpha))
        return cls(alpha, beta, **kw).layered()

    def layered(self) -> "LyapunovLoss":
        """The loss, which the layered law takes only if alpha + beta < 1."""
        if self.alpha + self.beta >= 1.0:
            raise ValueError(
                f"multi-layer law needs alpha + beta < 1; got {self.alpha} + {self.beta}")
        return self

    def evaluate(self, e_bar):
        """E = sum |e|^(alpha+1) / (alpha+1) over an error array (outputs,) or
        (samples, outputs); one E per run for a stack (runs, samples, outputs)."""
        e = np.asarray(e_bar, dtype=float)
        p = self.alpha + 1.0
        return _total(np.abs(e) ** p) / p

    def error_grad(self, e_bar):
        """dE/de = sgnpow(e, alpha), elementwise."""
        return sgnpow(e_bar, self.alpha)


@dataclass(frozen=True)
class L1Loss:
    """Absolute-error baseline, E = sum |e_m|: the Lyapunov form at alpha = 0."""

    name, alpha = "l1", 0.0

    def evaluate(self, e_bar):
        e = np.asarray(e_bar, dtype=float)
        return _total(np.abs(e))

    def error_grad(self, e_bar):
        g = np.sign(np.asarray(e_bar, dtype=float))
        return g if g.ndim else float(g)


@dataclass(frozen=True)
class L2Loss:
    """Half squared-error baseline, E = 0.5 * sum e_m^2: the form at alpha = 1."""

    name, alpha = "l2", 1.0

    def evaluate(self, e_bar):
        e = np.asarray(e_bar, dtype=float)
        return 0.5 * _total(e * e)

    def error_grad(self, e_bar):
        g = np.positive(np.asarray(e_bar, dtype=float))
        return g if g.ndim else float(g)


Loss = LyapunovLoss | L1Loss | L2Loss

