"""Seeded input generators for the three benchmark workloads.

Each generator turns a seed into a ``Problem``: the config text handed to the
CLI, any data files the config names, and the facts the checker needs to
judge the outputs.  The program sees only the written files.

Why these three workloads:

* ``single_settle`` -- ``lyapflow train`` on the README single-neuron
  problem, RK4 with dt = T/1e5 derived by the CLI, every step recorded.
  Per-step law cost, the RK4 loop and the heavy writers dominate; adaptive
  stepping or a faster writer shows here.
* ``mlp_compare`` -- ``lyapflow compare`` on a 4-8-1 net with an explicit
  dt.  Backprop, the layered law, ``sgnpow`` and gradient flow dominate and
  output is light; a flat-state or fused-forward change shows here.
* ``noisy_epoch_sweep`` -- ``lyapflow perturb-sweep`` in epoch mode on a CSV
  dataset: many short Euler runs, per-step noise draws and ``dataset_loss``.
  It bypasses RK4 and the heavy writers, so changes there should leave it
  unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ALPHA = 0.7
BETA = ALPHA / (ALPHA + 1.0)

README_X = (1.0, -0.6, 0.8, 0.4)
README_Y = 0.48

SWEEP_LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                0.95, 0.99, 1.0, 1.1, 1.25, 1.5)
SWEEP_PER_CLASS = 20
SWEEP_SEPARATION = 5.0
SWEEP_MARGIN = 1.0


@dataclass(frozen=True)
class Problem:
    """One generated operation input."""

    command: str
    config: str
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def _nums(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def single_neuron_T(y_star: float) -> float:
    """Certificate T for a zero-weight sigmoid unit with k = gamma = 1."""
    E0 = abs(0.5 - y_star) ** (ALPHA + 1.0) / (ALPHA + 1.0)
    return E0 ** (1.0 - BETA) / (1.0 - BETA)


def single_settle(seed: int) -> Problem:
    """README problem at seed 0; other seeds permute and re-sign x and draw
    y* = 0.5 +/- U(0.01, 0.05), which keeps sum|x| and max|x| fixed."""
    x, y_star = np.array(README_X), README_Y
    if seed != 0:
        rng = np.random.default_rng(seed)
        x = x[rng.permutation(4)] * rng.choice((-1.0, 1.0), size=4)
        y_star = float(0.5 + rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.05))
    E0 = abs(0.5 - y_star) ** (ALPHA + 1.0) / (ALPHA + 1.0)
    closed_form = E0 ** (1.0 - BETA) / (float(np.sum(np.abs(x))) * (1.0 - BETA))
    config = (
        "net.layers = 4, 1\n"
        "net.init = zeros\n"
        f"loss.alpha = {ALPHA!r}\n"
        "gains.k = 1.0\n"
        "integ.method = rk4\n"
        f"integ.t_max = {1.1 * single_neuron_T(y_star)!r}\n"
        "integ.record_stride = 1\n"
        "stop.epsilon = 1e-09\n"
        f"mode.x = {_nums(x)}\n"
        f"mode.y_star = {y_star!r}\n"
        "bound.gamma = 1.0\n"
    )
    return Problem("train", config, expect={"closed_form": closed_form})


def mlp_compare(seed: int) -> Problem:
    """4-8-1 identity-output net, random init, y* = -3; seed 4 is the
    4-8-1 problem of acceptance criterion 04."""
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
    config = (
        "net.layers = 4, 8, 1\n"
        "net.output_activation = identity\n"
        "net.init = random\n"
        "net.scale = 0.5\n"
        f"loss.alpha = {ALPHA!r}\n"
        "gains.k = 1.0\n"
        "integ.method = rk4\n"
        "integ.dt = 0.001\n"
        "integ.t_max = 4.0\n"
        "integ.record_stride = 10\n"
        f"mode.x = {_nums(x)}\n"
        "mode.y_star = -3.0\n"
        f"run.seed = {seed}\n"
    )
    return Problem("compare", config, expect={"t_max": 4.0})


def sweep_csv(seed: int) -> str:
    """Two unit-variance 4-d Gaussian classes at +/-2.5 along the unit
    diagonal, class 0 rows first, full-precision cells.

    Points closer than SWEEP_MARGIN to the hyperplane between the means are
    redrawn.  Without that, about a quarter of seeds give data no single
    unit can separate; every row of the sweep then runs to t_max instead of
    settling near t = 0.15, and one operation costs ten times as much.
    """
    rng = np.random.default_rng(seed)
    unit = np.ones(4) / 2.0
    rows = ["f0,f1,f2,f3,t0"]
    for label, side in ((0.0, -1.0), (1.0, 1.0)):
        kept = 0
        while kept < SWEEP_PER_CLASS:
            point = rng.normal(side * (SWEEP_SEPARATION / 2.0) * unit, 1.0)
            if side * (point @ unit) >= SWEEP_MARGIN:
                rows.append(",".join(repr(float(v)) for v in point) + f",{label!r}")
                kept += 1
    return "\n".join(rows) + "\n"


def noisy_epoch_sweep(seed: int) -> Problem:
    """4-1 sigmoid unit, epoch-mode Euler over a generated CSV, swept over
    16 vanishing-noise levels of which the last four (M >= k = 1) must be
    refused."""
    config = (
        "net.layers = 4, 1\n"
        "net.init = random\n"
        "net.scale = 0.05\n"
        f"loss.alpha = {ALPHA!r}\n"
        "gains.k = 1.0\n"
        "integ.method = euler\n"
        "integ.dt = 0.0001\n"
        "integ.t_max = 1.6\n"
        "stop.epsilon = 1e-12\n"
        "mode.kind = epoch\n"
        "data.source = csv\n"
        "data.path = data.csv\n"
        "data.features = f0, f1, f2, f3\n"
        "data.targets = t0\n"
        "perturb.redraw_every = 1\n"
        f"sweep.m_values = {_nums(SWEEP_LEVELS)}\n"
        f"run.seed = {seed}\n"
    )
    return Problem("perturb-sweep", config, files={"data.csv": sweep_csv(seed)},
                   expect={"levels": SWEEP_LEVELS, "k_min": 1.0})


GENERATORS = {
    "single_settle": single_settle,
    "mlp_compare": mlp_compare,
    "noisy_epoch_sweep": noisy_epoch_sweep,
}
