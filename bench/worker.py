"""Workload process: runs CLI operations in one fresh interpreter.

Started by ``run.py`` with a plan file; writes a result file.  Running each
workload in its own process makes its peak resident memory its own, and
keeps the tracer's patches out of the harness.

Untraced runs take the plan's problems in turn until the next operation
would overrun the time budget, with a speed probe sampling the same CPU
beside them (see ``SpeedProbe``), and spread fresh-interpreter ``lyapflow
bound`` launches for ``setup_s`` between the operations (see
``SetupClock``).  The process pins itself, and so its set-up launches, to
one CPU.  Traced runs alternate one untraced and one traced
operation on the first problem, so the traced counts are those of a single
fixed operation and the pair gives the tracing overhead.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ARTIFACTS = ("trajectory.csv", "summary.kv")
SETUP_LAUNCHES = 12
SETUP_CODE = "import sys; from lyapflow.cli import main; sys.exit(main(sys.argv[1:]))"


def _digest(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


class SpeedProbe:
    """A ``probe.py`` process pinned to ``cpu``, sampling until ``close``."""

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py")), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.proc.stdout.readline()  # "ready"
        self.samples: list = []

    def close(self):
        out, _ = self.proc.communicate(timeout=60)  # closing stdin stops it
        self.samples = json.loads(out)

    def mean_between(self, start: float, end: float):
        inside = [s for t, s in self.samples if start <= t <= end]
        return statistics.mean(inside) if inside else None


def launch_setup(problem: Path, out: Path) -> tuple:
    """(start, seconds) from launching a fresh interpreter to the end of
    ``lyapflow bound`` on the problem's config."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, "bound", "--config", "run.kv",
         "--out", str(out)],
        cwd=problem, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    seconds = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"lyapflow bound exited {proc.returncode}: "
                           f"{proc.stderr.decode()[-500:]}")
    return start, seconds


class SetupClock:
    """Spreads ``SETUP_LAUNCHES`` set-up launches evenly over the run.

    A launch falls due every ``seconds / SETUP_LAUNCHES``; due launches are
    made between operations, so a burst of load on a shared machine touches
    few of them.
    """

    def __init__(self, problem: Path, out: Path, seconds: float, start: float):
        self.problem, self.out = problem, out
        self.every, self.start = seconds / SETUP_LAUNCHES, start
        self.launches: list = []  # (start, seconds)

    def catch_up(self, due=None):
        if due is None:
            due = 1 + int((time.perf_counter() - self.start) / self.every)
        while len(self.launches) < min(due, SETUP_LAUNCHES):
            self.launches.append(launch_setup(self.problem, self.out))


def _cli(cli, command: str, problem: Path, out: Path) -> tuple:
    """(exit code, captured output or traceback, start, seconds) of one command."""
    shutil.rmtree(out, ignore_errors=True)
    os.chdir(problem)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main([command, "--config", "run.kv", "--out", str(out)])
    except Exception:
        # an escaped exception is an operation failure, not a harness crash
        return -1, traceback.format_exc(limit=3), start, time.perf_counter() - start
    return rc, sink.getvalue(), start, time.perf_counter() - start


def _summary(out: Path) -> str:
    path = out / "summary.kv"
    return path.read_text() if path.exists() else ""


def run_op(cli, command: str, problem: Path, out: Path, tracer=None,
           with_bound=False) -> dict:
    """One CLI command on one generated problem, timed, artifacts hashed.

    With ``with_bound``, the problem's certificate comes from an untimed,
    untraced ``lyapflow bound`` call made first.
    """
    op = {"problem": problem.name}
    if with_bound:
        _cli(cli, "bound", problem, out.with_name("bound"))
        op["bound"] = _summary(out.with_name("bound"))
    if tracer is not None:
        tracer.install()
    try:
        rc, text, start, wall = _cli(cli, command, problem, out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    op.update(
        start=start,
        wall_s=wall,
        rc=rc,
        error=text[-500:] if rc else None,
        summary=_summary(out),
        digests={name: _digest(out / name) for name in ARTIFACTS},
    )
    return op


def _keep_going(start: float, seconds: float, walls: list) -> bool:
    """Start another operation only if a typical one still fits."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def run_untraced(cli, plan: dict, cpu: int) -> dict:
    """Operation i runs problem i - 1: the first problem runs twice, for the
    digest check, and every later operation takes a fresh problem.  Each
    operation and set-up launch gets ``probe_s``, the mean probe loop time
    while it ran."""
    problems, out = [Path(p) for p in plan["problems"]], Path(plan["out"])
    ops = []
    probe = SpeedProbe(cpu)
    try:
        start = time.perf_counter()
        setup = SetupClock(problems[0], out.with_name("setup"), plan["seconds"], start)
        while not ops or _keep_going(start, plan["seconds"], [o["wall_s"] for o in ops]):
            setup.catch_up()
            problem = problems[max(0, len(ops) - 1) % len(problems)]
            ops.append(run_op(cli, plan["command"], problem, out,
                              with_bound=plan["with_bound"]))
        setup.catch_up(SETUP_LAUNCHES)
    finally:
        probe.close()
    for op in ops:
        op["probe_s"] = probe.mean_between(op["start"], op["start"] + op["wall_s"])
    launches = [{"seconds": s, "probe_s": probe.mean_between(t, t + s)}
                for t, s in setup.launches]
    return {"ops": ops, "setup": launches}


def run_traced(cli, plan: dict) -> dict:
    from tracer import Tracer

    problem, out = Path(plan["problems"][0]), Path(plan["out"])
    ops, plain, traced, tracers = [], [], [], []
    start = time.perf_counter()
    while not ops or _keep_going(start, plan["seconds"], [a + b for a, b in zip(plain, traced)]):
        op = run_op(cli, plan["command"], problem, out, with_bound=plan["with_bound"])
        ops.append(op)
        plain.append(op["wall_s"])
        tracer = Tracer()
        op = run_op(cli, plan["command"], problem, out, tracer, plan["with_bound"])
        ops.append(op)
        traced.append(op["wall_s"])
        tracers.append(tracer)
    for i, tracer in enumerate(tracers):
        tracer.write(Path(plan["spans"]) / f"spans_{i}.bin")
    per_op = [tracer.layer_totals() for tracer in tracers]
    first = tracers[0]
    return {
        "ops": ops,
        "layers": {name: {"calls": row[0],
                          "self_s": statistics.median(t[name][2] for t in per_op)}
                   for name, row in per_op[0].items()},
        "counters": first.counters,
        "useful_evaluations": first.useful_evaluations(),
        "trace_overhead": statistics.median(traced) / statistics.median(plain) - 1.0,
    }


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    import lyapflow.cli as cli
    import numpy

    import_s = time.perf_counter() - start
    result = run_traced(cli, plan) if plan["trace"] else run_untraced(cli, plan, cpu)
    result.update(
        import_s=import_s,
        pinned_cpu=cpu,
        numpy=numpy.__version__,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
