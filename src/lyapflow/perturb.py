"""Bounded input perturbations and robustness runs.

Two envelope shapes for the componentwise offset bound B_i:

* vanishing:  B_i = M * |x_i|**alpha  -- shrinks with the input entry; this
  is the admissible class for which the perturbed settling certificate
  (c = (k_min - M) * gamma) holds.
* amplitude:  B_i = M  -- flat envelope; runs execute but carry no
  certificate.

Offsets are drawn uniformly from (-B_i, B_i), re-drawn every
``redraw_every`` integration steps and held in between (theory mode; epoch
mode draws one per sample and needs ``redraw_every = 1``).

A robustness sweep runs all its levels as one stacked integration.  The
levels share one noise stream: each redraw takes one block of unit draws and
scales it by every level's own envelope, which is bitwise the draw a lone
level makes from a fresh generator with the same seed.  So the rows of a
sweep are paired comparisons -- they differ only in M, never in luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import GammaEstimate, certify, estimate_gamma
from .dynamics import EpochFlow, initial_loss, integrate_batch, select_law
from .losses import LyapunovLoss

__all__ = ["PerturbationSpec", "robustness_run", "robustness_sweep"]


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
        times `scale`, one row per level for a stack of levels.  The caller
        refuses a range that is not finite, as rng.uniform does."""
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
                   gamma: GammaEstimate | None = None, law: str = "auto"):
    """(trajectory, bound) of one noisy run: the one-level robustness_sweep."""
    return next(robustness_sweep(mlp, mode, [spec], gains, loss, integ, stop,
                                 gamma=gamma, law=law))


def robustness_sweep(mlp, mode, specs, gains, loss, integ, stop,
                     gamma: GammaEstimate | None = None, law: str = "auto"):
    """Integrate one flow under every level in `specs` at once; certify each.

    The levels may differ only in M (else ValueError).  E0, the loss at the
    initial weights on the *unperturbed* inputs, and gamma (estimated from
    the data if None) are computed once; ``certify`` certifies each level,
    or refuses it (bound None).  Returns an iterator of
    (trajectory, bound) in level order; a level whose run failed raises its
    error when reached, as if the levels had run one after another.
    """
    specs = list(specs)
    if not specs or any(replace(s, M=specs[0].M) != specs[0] for s in specs[1:]):
        raise ValueError("a sweep needs one or more levels that differ only in M")
    E0 = initial_loss(mlp, mode, loss)
    if gamma is None:
        gamma = estimate_gamma(mode.dataset if isinstance(mode, EpochFlow) else mode.x)
    law_kind = select_law(mlp, isinstance(loss, LyapunovLoss), law)
    bounds = [certify(E0, gains, gamma, loss, law_kind, spec)[0] for spec in specs]

    runs = integrate_batch(mlp, mode, loss, gains, integ, stop, law=law, noises=specs)
    return _in_level_order(runs, bounds)


def _in_level_order(runs, bounds):
    for run, bound in zip(runs, bounds):
        if isinstance(run, Exception):
            raise run
        yield run, bound
