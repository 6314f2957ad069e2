"""Monotone decrease and a slope check with c = 1 for a 4-8-1 network.

For multilayer nets the settling law drives dE/dt = -k * E**beta * S where
S sums |sensitivity * activation|**(alpha+1) over every weight.  The output
bias's gradient is sgnpow(e, alpha), so its term alone is |e|**(alpha*(alpha+1)):
it keeps S >= 1, and dE/dt <= -E**beta (c = k_min = 1), only while the
output error stays at or above 1.  No certificate covers the run, since S
may fall toward 0 as the error settles.  This script integrates such a run
up to t = 0.4, short of the settle, counts monotonicity violations (none),
and re-checks the recorded slopes against c = 1.
"""

from pathlib import Path

import numpy as np

from lyapflow import (
    Activation,
    GainSchedule,
    Integrator,
    LyapunovLoss,
    Mlp,
    StoppingRule,
    TheoryFlow,
    integrate,
    verify_decrease,
)
from lyapflow.svgplot import write_svg


def main():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, 4)
    mlp = Mlp.random((4, 8, 1), seed=4, output_activation=Activation.IDENTITY,
                     scale=0.5)
    loss = LyapunovLoss.multilayer(0.7)

    integ = Integrator(method="rk4", dt=5e-5, t_max=0.4, record_stride=100)
    traj = integrate(mlp, TheoryFlow(x, np.array([-3.0])), loss,
                     GainSchedule.uniform(1.0), integ, StoppingRule(1e-9))

    report = verify_decrease(traj, c=1.0, beta=loss.beta)
    print(f"records              = {traj.n_records()}")
    print(f"E: {traj.E[0]:.4f} -> {traj.E[-1]:.4f}")
    print(f"monotone violations  = {traj.monotone_violations()}")
    print(f"slope check          = {report.summary()}")

    out = Path("demo_out")
    out.mkdir(exist_ok=True)
    write_svg(out / "deep_net_decrease.svg",
              [("E(t)", traj.t.tolist(), traj.E.tolist())],
              title="4-8-1 net under the settling law", y_label="loss E")
    print(f"wrote {out / 'deep_net_decrease.svg'}")


if __name__ == "__main__":
    main()
