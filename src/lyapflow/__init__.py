"""lyapflow: continuous-time neural training with finite settling-time guarantees.

A small numpy library for running sigmoid networks as controlled dynamical
systems: fractional-power weight-update laws drive the training loss to zero
in finite time, and the package computes the matching settling-time
certificates, verifies the promised decrease rates along trajectories, and
quantifies how much bounded input noise the guarantee survives.
"""

from .bounds import (
    DecreaseReport,
    GammaEstimate,
    SettlingBound,
    estimate_gamma,
    settling_bound,
    verify_decrease,
)
from .control import (
    GainSchedule,
    gradient_flow_update,
    lyapunov_rate_scale,
    mlp_update,
    signal_norm,
    single_neuron_update,
)
from .datasets import (
    CsvSchema,
    Dataset,
    gen_blobs,
    gen_linreg,
    load_csv,
    normalize,
)
from .dynamics import (
    EpochFlow,
    Integrator,
    StoppingRule,
    TheoryFlow,
    Trajectory,
    dataset_loss,
    integrate,
)
from .errors import (
    AssumptionError,
    ConfigError,
    DataError,
    DivergenceError,
    GuaranteeError,
    HorizonError,
    LyapflowError,
    ModeError,
    ShapeError,
)
from .losses import L1Loss, L2Loss, Loss, LyapunovLoss, sgnpow
from .net import Activation, ForwardTrace, Mlp, Sample, forward, loss_gradient, sensitivities
from .perturb import PerturbationSpec, robustness_run

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "AssumptionError",
    "ConfigError",
    "CsvSchema",
    "DataError",
    "Dataset",
    "DecreaseReport",
    "DivergenceError",
    "EpochFlow",
    "ForwardTrace",
    "GainSchedule",
    "GammaEstimate",
    "GuaranteeError",
    "HorizonError",
    "Integrator",
    "L1Loss",
    "L2Loss",
    "Loss",
    "LyapflowError",
    "LyapunovLoss",
    "Mlp",
    "ModeError",
    "PerturbationSpec",
    "Sample",
    "SettlingBound",
    "ShapeError",
    "StoppingRule",
    "TheoryFlow",
    "Trajectory",
    "dataset_loss",
    "estimate_gamma",
    "forward",
    "gen_blobs",
    "gen_linreg",
    "gradient_flow_update",
    "integrate",
    "load_csv",
    "loss_gradient",
    "lyapunov_rate_scale",
    "mlp_update",
    "normalize",
    "robustness_run",
    "sensitivities",
    "settling_bound",
    "sgnpow",
    "signal_norm",
    "single_neuron_update",
    "verify_decrease",
    "__version__",
]
