"""Settling time scales exactly as 1/k with the tuning gain.

The certified bound T = E0**(1-beta) / (k * gamma * (1-beta)) is inversely
proportional to the gain, and so is the simulated settle time: doubling
every weight's gain halves the whole schedule.  The table below shows both
for k = 1, 5, 10 on the same initial condition.
"""

import numpy as np

from lyapflow import (
    GainSchedule,
    GammaEstimate,
    Integrator,
    LyapunovLoss,
    Mlp,
    StoppingRule,
    TheoryFlow,
    integrate,
    settling_bound,
)

x = np.array([1.0, -0.6, 0.8, 0.4])
y_star = np.array([0.48])
loss = LyapunovLoss.single_neuron(0.7)
E0 = abs(0.5 - 0.48) ** 1.7 / 1.7
gamma = GammaEstimate(1.0)

rows = []
for k in (1.0, 5.0, 10.0):
    gains = GainSchedule.uniform(k)
    bound = settling_bound(E0, gains, gamma, loss)
    # step relative to this k's own timescale so every run resolves its settle
    T_sharp = bound.T / (2.8 / (k * gamma.gamma))   # sharp constant is sum k|x|
    integ = Integrator(method="rk4", dt=T_sharp / 5e3, t_max=1.1 * T_sharp,
                       record_stride=50)
    traj = integrate(Mlp.zeros((4, 1)), TheoryFlow(x, y_star), loss, gains,
                     integ, StoppingRule(1e-9))
    rows.append((k, bound.T, traj.settled_at))

print(f"{'k':>5} {'T_bound':>12} {'settled_at':>12} {'T_bound*k':>12}")
for k, T, settled in rows:
    print(f"{k:5.0f} {T:12.6e} {settled:12.6e} {T * k:12.6e}")

base_T, base_settle = rows[0][1], rows[0][2]
for k, T, settled in rows[1:]:
    print(f"ratio check k={k:g}: bound {base_T / T:.12f}, "
          f"settle {base_settle / settled:.6f} (expected {k:g})")
