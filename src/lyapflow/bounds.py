"""Settling-time certificates and trajectory verification.

Every certificate has the same shape: if the loss obeys dE/dt <= -c * E**beta
with 0 < beta < 1, then E reaches zero no later than

    T = E0**(1-beta) / (c * (1-beta)),

because E(t)**(1-beta) decreases at the constant rate c*(1-beta).  Only the
single-neuron law is proven to obey it, in two flavors, with beta = a/(a+1):

    single_neuron   c = k_min * gamma
    perturbed       c = (k_min - M) * gamma      (needs k_min > M)

gamma is the excitation level: some input entry of every sample exceeds it.
It is the user's value or the data minimum, never the frozen bias entry, and
an all-zero sample gets no certificate under either.

``Problem`` decides a certificate's inputs, once per run: the law the net
and the loss give, gamma and E0, the loss at the initial weights on the
clean rows.  ``certify`` decides its policy: whether a run gets a
certificate and of which flavor, from the run's law and its noise, and it
alone marks an epoch-mode certificate ``heuristic``.  The layered law gets
none: its rate bound fails near the settle, where |e|**alpha vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import GainSchedule
from .dynamics import EpochFlow, Integrator, StoppingRule, dataset_loss, select_law
from .errors import AssumptionError, GuaranteeError, LyapflowError
from .losses import LyapunovLoss
from .net import PREACT_CLAMP, Mlp

__all__ = [
    "GammaEstimate",
    "SettlingBound",
    "DecreaseReport",
    "certify",
    "estimate_gamma",
    "settling_bound",
    "verify_decrease",
]

FLAVORS = ("single_neuron", "perturbed")


@dataclass(frozen=True)
class GammaEstimate:
    """Excitation level gamma: some input entry of every sample exceeds it."""

    gamma: float

    def __post_init__(self):
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")


def estimate_gamma(inputs) -> GammaEstimate:
    """Estimate gamma from sample inputs (2-d array or Dataset).

    gamma = min over samples of max_i |x_i| ('data_min') -- the largest level
    that every sample is guaranteed to excite.  Fails on an all-zero sample.
    """
    x = np.asarray(getattr(inputs, "inputs", inputs), dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    per_sample = np.max(np.abs(x), axis=1)
    worst = float(per_sample.min())
    if worst <= 0.0:
        bad = int(np.argmin(per_sample))
        raise AssumptionError(
            f"sample {bad} is all zeros; excitation assumption fails without a bias unit"
        )
    return GammaEstimate(worst)


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
    heuristic: bool = False  # an epoch-mode run, which no certificate covers

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
        if self.heuristic:
            lines.append("heuristic = true")
        return lines

    def table(self) -> str:
        rows = [ln.split(" = ") for ln in self.kv_lines()]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def settling_bound(E0: float, gains: GainSchedule, gamma: GammaEstimate,
                   loss: LyapunovLoss, flavor: str = "single_neuron",
                   M: float | None = None) -> SettlingBound:
    """Certified upper bound on the settling time of a single-neuron theory-mode run."""
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    if not (E0 > 0 and math.isfinite(E0)):
        raise ValueError(f"E0 must be finite and > 0, got {E0}")
    beta = loss.alpha / (loss.alpha + 1.0)
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
    else:
        c = k_min * gamma.gamma
    T = E0 ** (1.0 - beta) / (c * (1.0 - beta))
    return SettlingBound(T=T, E0=E0, c=c, beta=beta, gamma=gamma.gamma,
                         k_min=k_min, flavor=flavor, M=M)


def certify(E0: float, gains: GainSchedule, gamma, loss, law: str,
            noise=None, epoch: bool = False, y_star=None, epsilon: float = 0.0) -> tuple:
    """(certificate, None) for a run of the resolved `law` under the input
    `noise` spec (or none), else (None, why it gets none).

    The flavor is 'perturbed' under vanishing noise, else 'single_neuron'.
    Refused: a loss other than the Lyapunov loss, a law other than the
    single-neuron one, E0 <= 0, amplitude noise, a theory-mode target
    `y_star` (with the run's `epsilon`) whose landing point the unit cannot
    reach, M >= k_min and whatever else ``settling_bound`` rejects.  `gamma`
    is a GammaEstimate or the error that stopped its estimate.  An
    `epoch`-mode run steps sample by sample, which the single-sample flow's
    certificate does not cover: it is marked heuristic.
    """
    if not isinstance(loss, LyapunovLoss):
        return None, f"no certificate for {loss.name} loss"
    if law != "single_neuron":
        return None, (f"no certificate for the layered ({law}) law: its output-layer "
                      "gradient carries |e|^alpha, so dE/dt <= -c E^beta fails near the settle")
    if E0 <= 0:
        return None, "already settled at t = 0"
    if noise is not None and noise.mode == "amplitude":
        return None, "amplitude-mode noise carries no certificate"
    if isinstance(gamma, Exception):
        return None, str(gamma)
    if y_star is not None and E0 > epsilon:
        target = float(np.asarray(y_star).reshape(-1)[0])
        p = _landing_point(target, epsilon, loss.alpha)
        z_star = math.log(p / (1.0 - p)) if 0.0 < p < 1.0 else math.inf
        if not abs(z_star) < PREACT_CLAMP:
            return None, (f"no certificate for target {target!r}: the run would land at "
                          f"output {p!r}, which the unit does not reach with "
                          f"|z| < {PREACT_CLAMP}")
    flavor, M = ("single_neuron", None) if noise is None else ("perturbed", noise.M)
    try:
        return replace(settling_bound(E0, gains, gamma, loss, flavor=flavor, M=M),
                       heuristic=epoch), None
    except (LyapflowError, ValueError) as exc:
        return None, str(exc)


@dataclass
class Problem:
    """A run and its certificate inputs, decided once: the law the net and
    the loss give, gamma (the given estimate, else the data minimum of the
    clean rows; the error that stops that estimate or refuses a given one
    above it) and E0, the loss at the initial weights on the clean rows."""

    mlp: Mlp
    loss: object
    mode: object        # dynamics.TheoryFlow | dynamics.EpochFlow
    gains: GainSchedule
    stop: StoppingRule
    noise: object = None        # PerturbationSpec | None
    gamma: object = None        # GammaEstimate | None | the error of its estimate
    integ: Integrator = None    # the time step, which cli.resolve decides
    law: str = field(init=False)
    E0: float = field(init=False)

    def __post_init__(self):
        self.law = select_law(self.mlp, isinstance(self.loss, LyapunovLoss))
        data = self.mode.dataset
        try:  # even under a given gamma: a sample that excites no input voids it
            least, given = estimate_gamma(data), self.gamma
            if isinstance(given, GammaEstimate) and given.gamma > least.gamma:
                raise AssumptionError(f"gamma = {given.gamma!r} exceeds the data minimum "
                                      f"{least.gamma!r}")
            self.gamma = given or least
        except AssumptionError as exc:
            self.gamma = exc
        self.E0 = dataset_loss(self.mlp, data, self.loss)[0]

    def certificate(self, noise) -> tuple:
        """(bound, None) or (None, reason) for a run under `noise` (or none)."""
        epoch = isinstance(self.mode, EpochFlow)
        return certify(self.E0, self.gains, self.gamma, self.loss, self.law, noise, epoch,
                       None if epoch else self.mode.y_star, self.stop.epsilon)


def _landing_point(y_star: float, epsilon: float, alpha: float) -> float:
    """The output p = y* + sign(e0) b/2 a single-neuron run lands at
    (``dynamics._Theory._land``), b the settle band of |e|.  E0 > epsilon
    gives |e0| > b, so p lies between the start output and y*: an output of
    the unit when y* is one.  When y* is not, the start lies on the side of
    y* toward 1/2, which is the side taken here in either case."""
    b = ((alpha + 1.0) * epsilon) ** (1.0 / (alpha + 1.0))
    return y_star - math.copysign(b / 2.0, y_star - 0.5)


@dataclass
class DecreaseReport:
    """Central-difference check of dE/dt <= -c E**beta along a trajectory."""

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
        slopes=slopes,
        required=-rate,
        slack=slack,
        passed=passed,
    )
