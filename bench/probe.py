"""Speed probe: times a fixed loop of small numpy calls every 20 ms.

Run as ``python3 probe.py <cpu>``.  ``worker.py`` starts it pinned to the
CPU the workload process is pinned to, so its loop time rises and falls with
how fast that core runs the workload at that moment.  It is a process of its
own: it shares no interpreter lock with the workload and adds no work inside
the workload's interpreter, only about 3% of the core's time.  It prints
``ready`` once it samples, stops when its stdin closes, and then prints its
samples as one JSON list of ``[end time, loop seconds]``; the end times are
``time.perf_counter()`` readings, which on Linux share one clock across
processes.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

import numpy as np

EVERY_S = 0.02
ITERS = 30
# The loop's time on an idle core of the 2-vCPU x86-64 VM this benchmark was
# tuned on; times divided by probe readings are scaled back to seconds with it.
REFERENCE_S = 0.0004


def loop_seconds(w, z) -> float:
    """Seconds for the loop; the calls are the kind lyapflow's hot paths make."""
    start = time.perf_counter()
    for _ in range(ITERS):
        z = np.append(1.0 / (1.0 + np.exp(-np.clip(w @ z, -30.0, 30.0)))[:4], 1.0)
    return time.perf_counter() - start


def main(cpu: str) -> int:
    os.sched_setaffinity(0, {int(cpu)})
    w = np.linspace(-0.5, 0.5, 40).reshape(8, 5)
    z = np.linspace(-1.0, 1.0, 5)
    samples = []
    print("ready", flush=True)
    # the wait for stdin to close is also the pause between samples
    while not select.select([sys.stdin], [], [], EVERY_S)[0]:
        samples.append((time.perf_counter(), loop_seconds(w, z)))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
