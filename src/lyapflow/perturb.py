"""Bounded input perturbations and robustness runs.

Two envelope shapes for the componentwise offset bound B_i:

* vanishing:  B_i = M * |x_i|**alpha  -- shrinks with the input entry; this
  is the admissible class for which the perturbed settling certificate
  (c = (k_min - M) * gamma) holds.
* amplitude:  B_i = M  -- flat envelope; runs execute but carry no
  certificate.

Offsets are drawn uniformly from (-B_i, B_i), re-drawn every
``redraw_every`` integration steps and held in between (theory mode).  Epoch
mode needs ``redraw_every = 1``: each sample gets its own offset, and an
epoch takes them as one block of draws, rows in order, bitwise the stream
that one draw per sample takes.  A level fails at the row where its draw
first fails.

A sweep over noise levels is one stacked integration,
``dynamics.integrate_batch(..., noises=specs)``, whose levels may differ only
in M.  They share one noise stream: each redraw takes one block of unit
draws and scales it by every level's own envelope, which is bitwise the draw
a lone level makes from a fresh generator with the same seed.  So the rows
of a sweep are paired comparisons -- they differ only in M, never in luck.
``robustness_run`` is the one-level helper: one run and its certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import GammaEstimate, Problem
from .dynamics import integrate

__all__ = ["PerturbationSpec", "robustness_run"]


@dataclass(frozen=True)
class PerturbationSpec:
    mode: str  # "vanishing" | "amplitude"
    M: float
    alpha: float | None = None
    seed: int = 0
    redraw_every: int = 1

    def __post_init__(self):
        if self.mode not in ("vanishing", "amplitude"):
            raise ValueError(f"mode must be 'vanishing' or 'amplitude', got {self.mode!r}")
        if not (self.M >= 0 and math.isfinite(self.M)):
            raise ValueError(f"M must be finite and >= 0, got {self.M}")
        if self.mode == "vanishing":
            if self.alpha is None or not 0.0 <= self.alpha < 1.0:
                raise ValueError("vanishing mode needs alpha in [0, 1)")
        if self.redraw_every < 1:
            raise ValueError("redraw_every must be >= 1")

    def bound_for(self, x) -> np.ndarray:
        """Componentwise envelope B_i the offsets are drawn from."""
        x = np.asarray(x, dtype=float)
        if self.mode == "vanishing":
            return self.M * np.abs(x) ** self.alpha
        return np.full_like(x, self.M)

    def perturbed(self, x, u, scale=1.0) -> tuple:
        """(x + offsets, range B - -B) from unit draws u: bitwise what
        x + rng.uniform(-B, B) gives from the same draws.  B is the envelope
        times `scale`, which broadcasts: a column of levels (R, 1) over rows
        (rows, 1, n) of inputs and draws gives one (rows, R, n) block.  The
        caller refuses a range that is not finite, as rng.uniform does."""
        b = scale * self.bound_for(x)
        lo = -b
        span = b - lo
        return x + (lo + span * u), span

    def apply(self, x, rng) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        x_new, span = self.perturbed(x, rng.random(x.shape))
        if not np.isfinite(span).all():
            raise OverflowError("Range exceeds valid bounds")
        return x_new


def robustness_run(mlp, mode, spec: PerturbationSpec, gains, loss, integ, stop,
                   gamma: GammaEstimate | None = None):
    """(trajectory, bound) of one run under the input noise `spec`.

    ``bounds.Problem`` decides the certificate's inputs as it does for the
    CLI: E0 is the loss at the initial weights on the *unperturbed* inputs,
    and gamma is the data minimum if None.  ``certify`` certifies the run
    or refuses it (bound None); an all-zero sample is refused too, where
    this helper once raised AssumptionError.  A failed run raises its error.
    """
    traj = integrate(mlp, mode, loss, gains, integ, stop, noise=spec)
    return traj, Problem(mlp, loss, mode, gains, stop, spec, gamma).certificate(spec)[0]
