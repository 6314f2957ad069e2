"""Settling-time certificates and trajectory verification.

Every certificate has the same shape: if the loss obeys dE/dt <= -c * E**beta
with 0 < beta < 1, then E reaches zero no later than

    T = E0**(1-beta) / (c * (1-beta)),

because E(t)**(1-beta) decreases at the constant rate c*(1-beta).  The three
flavors only differ in the constant c:

    single_neuron   c = k_min * gamma            (beta forced to a/(a+1))
    mlp             c = k_min * gamma**(alpha+1)
    perturbed       c = (k_min - M) * gamma      (needs k_min > M)

gamma is the excitation level: some input entry of every sample exceeds it.
With the embedded bias unit, gamma = 1 works for the layered law, which
moves the bias weights.  The single-neuron law freezes its bias weight, so
every certificate for it -- the perturbed flavor too -- refuses a bias_unit
gamma (``refuse_frozen_bias``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import GainSchedule
from .errors import AssumptionError, GuaranteeError
from .losses import LyapunovLoss

__all__ = [
    "GammaEstimate",
    "SettlingBound",
    "DecreaseReport",
    "estimate_gamma",
    "refuse_frozen_bias",
    "settling_bound",
    "verify_decrease",
]

FLAVORS = ("single_neuron", "mlp", "perturbed")


@dataclass(frozen=True)
class GammaEstimate:
    """Excitation level gamma plus where it came from.

    input_bound_a is the matching upper bound max|x_i| over the data, kept
    alongside because admissible perturbation sizes are stated in terms of it.
    """

    gamma: float
    source: str = "user"
    input_bound_a: float | None = None

    def __post_init__(self):
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")


def estimate_gamma(inputs, source: str = "data_min") -> GammaEstimate:
    """Estimate gamma from sample inputs (2-d array or Dataset).

    'data_min': gamma = min over samples of max_i |x_i| -- the largest level
    that every sample is guaranteed to excite.  Fails on an all-zero sample.
    'bias_unit': gamma = 1, valid whenever the network carries the embedded
    constant-1 bias entry and the law moves its weight, regardless of the
    data.  The single-neuron law does not, so ``refuse_frozen_bias``
    refuses this source for it.
    """
    x = np.asarray(getattr(inputs, "inputs", inputs), dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    a = float(np.max(np.abs(x))) if x.size else 0.0
    if source == "bias_unit":
        return GammaEstimate(1.0, source="bias_unit", input_bound_a=max(a, 1.0))
    if source != "data_min":
        raise ValueError(f"unknown gamma source {source!r}")
    per_sample = np.max(np.abs(x), axis=1)
    worst = float(per_sample.min())
    if worst <= 0.0:
        bad = int(np.argmin(per_sample))
        raise AssumptionError(
            f"sample {bad} is all zeros; excitation assumption fails without a bias unit"
        )
    return GammaEstimate(worst, source="data_min", input_bound_a=a)


@dataclass(frozen=True)
class SettlingBound:
    """Certificate T for one run, with every ingredient it was built from."""

    T: float
    E0: float
    c: float
    beta: float
    gamma: float
    k_min: float
    flavor: str
    M: float | None = None

    def kv_lines(self) -> list:
        lines = [
            f"flavor = {self.flavor}",
            f"E0 = {self.E0!r}",
            f"c = {self.c!r}",
            f"beta = {self.beta!r}",
            f"gamma = {self.gamma!r}",
            f"k_min = {self.k_min!r}",
            f"M = {self.M!r}" if self.M is not None else "M = none",
            f"T = {self.T!r}",
        ]
        return lines

    def table(self) -> str:
        rows = [ln.split(" = ") for ln in self.kv_lines()]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def refuse_frozen_bias(gamma: GammaEstimate, law: str) -> None:
    """Refuse a bias_unit gamma for the single-neuron law under any flavor:
    the law freezes its bias weight, so the bias unit excites nothing."""
    if law == "single_neuron" and gamma.source == "bias_unit":
        raise GuaranteeError(
            "no certificate: the single-neuron law freezes the bias weight, so the "
            "bias unit gives no excitation; use gamma_source = data_min or set gamma"
        )


def settling_bound(E0: float, gains: GainSchedule, gamma: GammaEstimate,
                   loss: LyapunovLoss, flavor: str = "single_neuron",
                   M: float | None = None) -> SettlingBound:
    """Certified upper bound on the settling time of a theory-mode run."""
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    if not (E0 > 0 and math.isfinite(E0)):
        raise ValueError(f"E0 must be finite and > 0, got {E0}")
    if flavor == "single_neuron":
        refuse_frozen_bias(gamma, "single_neuron")
    alpha = loss.alpha
    beta = alpha / (alpha + 1.0) if flavor == "single_neuron" else loss.beta
    if not 0.0 < beta < 1.0:
        raise ValueError(f"certificate needs 0 < beta < 1, got beta={beta}")
    k_min = gains.k_min
    if flavor == "perturbed":
        if M is None or not (M >= 0 and math.isfinite(M)):
            raise ValueError("perturbed flavor needs a finite perturbation level M >= 0")
        if k_min <= M:
            raise GuaranteeError(
                f"no certificate: k_min = {k_min} must exceed the perturbation "
                f"level M = {M}"
            )
        c = (k_min - M) * gamma.gamma
    elif flavor == "mlp":
        c = k_min * gamma.gamma ** (alpha + 1.0)
    else:
        c = k_min * gamma.gamma
    T = E0 ** (1.0 - beta) / (c * (1.0 - beta))
    return SettlingBound(T=T, E0=E0, c=c, beta=beta, gamma=gamma.gamma,
                         k_min=k_min, flavor=flavor, M=M)


@dataclass
class DecreaseReport:
    """Central-difference check of dE/dt <= -c E**beta along a trajectory."""

    indices: np.ndarray
    slopes: np.ndarray
    required: np.ndarray
    slack: np.ndarray
    passed: np.ndarray

    @property
    def ok(self) -> bool:
        return bool(np.all(self.passed))

    @property
    def worst_margin(self) -> float:
        """Most positive value of slope - (required + slack); <= 0 iff ok."""
        return float(np.max(self.slopes - (self.required + self.slack)))

    def summary(self) -> str:
        n_bad = int(np.sum(~self.passed))
        state = "pass" if self.ok else f"FAIL at {n_bad}/{len(self.passed)} records"
        return f"decrease check: {state} (worst margin {self.worst_margin:.3e})"


def verify_decrease(traj, c: float, beta: float,
                    slack_scale: float = 1e-6) -> DecreaseReport:
    """Check each interior record's finite-difference slope against -c E**beta.

    slope_n = (E_{n+1} - E_{n-1}) / (t_{n+1} - t_{n-1}) must not exceed
    -c * E_n**beta + slack, slack = slack_scale * (1 + c * E_n**beta).
    Needs at least 3 records.
    """
    if traj.n_records() < 3:
        raise ValueError(f"need at least 3 records, got {traj.n_records()}")
    if not (c > 0 and 0 < beta < 1):
        raise ValueError(f"need c > 0 and beta in (0,1); got c={c}, beta={beta}")
    t, E = traj.t, traj.E
    slopes = (E[2:] - E[:-2]) / (t[2:] - t[:-2])
    rate = c * E[1:-1] ** beta
    slack = slack_scale * (1.0 + rate)
    passed = slopes <= -rate + slack
    return DecreaseReport(
        indices=np.arange(1, len(E) - 1),
        slopes=slopes,
        required=-rate,
        slack=slack,
        passed=passed,
    )
