"""lyapflow benchmark: CLI workloads, end-to-end metrics, traced layers.

Run from the repository root::

    python3 bench/run.py --workload single_settle --seed 0 --seconds 40 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``single_settle``,
``mlp_compare`` and ``noisy_epoch_sweep``.  The harness writes the seeded
inputs under ``.bench_work/<workload>/``, then runs the operations in a
separate workload process with BLAS/OpenMP pinned to one thread.  Every
operation is checked (``checks.py``); failures are counted, never skipped.
For ``mlp_compare`` each problem's ``lyapflow bound`` certificate is also
held against the compare run: a miss is a known defect of the layered
certificate, printed and recorded with its problem as a certificate miss,
and counted in the traced run's ``bounds.certificate_misses``.

``--trace 0`` reports the end-to-end metrics: ``wall_norm``, ``setup_s`` and
``peak_rss_mb``.  ``wall_norm`` is the median over operations of each
operation's wall time divided by the mean time of a fixed speed-probe loop
sampled every 20 ms while it ran, by a separate process pinned to the
workload's CPU (``probe.py``).  On a shared machine whose cores speed up and
slow down by tens of percent within seconds, raw seconds do not repeat
between runs; the ratio does better.  Raw ``wall_s`` (the median
seconds per operation) and its tail are printed beside it.  ``setup_s`` is
the median of fresh-interpreter ``lyapflow bound`` launches on the first
problem, spread between the operations (``worker.SetupClock``), each
divided by the probe's mean reading while it ran and scaled back to seconds
by the probe's reference time (``probe.REFERENCE_S``): the set-up seconds of
a core running at the reference speed.  Raw launch seconds are printed
beside it.
``--trace 1`` reports the per-layer metrics of one traced operation and
the tracing overhead.  The last line of stdout is one JSON object; the
lines before it give every metric by name with its unit, ``fail_share``,
the failing problems, the artifact digests and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from checks import (CHECKS, bound_certificate_miss, check_repeat, parse_summary,
                    tightness)
from probe import REFERENCE_S
from workloads import GENERATORS

# Problems generated per run, from consecutive seeds.  The cost of an
# mlp_compare or sweep operation follows its problem's settle times, so each
# operation takes a fresh problem and the median spans many of them.
# single_settle's step count does not depend on the seed.
PROBLEMS_PER_RUN = {"single_settle": 1, "mlp_compare": 16, "noisy_epoch_sweep": 32}
# Seconds the workload process may run past --seconds: its last operation
# may start just inside the budget, and the set-up launches still due follow.
OVERRUN_S = 60.0
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}

BENCH_DIR = Path(__file__).resolve().parent


def _env(root: Path) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(root / "src")
    return env


def write_problems(workload: str, seed: int, work: Path) -> list:
    """Generate the run's problems into work/p<seed>/; return (dir, Problem)."""
    made = []
    for s in range(seed, seed + PROBLEMS_PER_RUN[workload]):
        problem = GENERATORS[workload](s)
        d = work / f"p{s}"
        d.mkdir(parents=True)
        (d / "run.kv").write_text(problem.config)
        for name, text in problem.files.items():
            (d / name).write_text(text)
        made.append((d, problem))
    return made


def environment(root: Path, seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "commit": _commit(root), "seed": seed,
            "threads": PINNED}


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def tail(values: list):
    """(percentile, value) of the highest percentile with ten values beyond it."""
    if len(values) <= 10:
        return None
    ordered = sorted(values)
    return 100.0 * (len(values) - 10) / len(values), ordered[-11]


def judge(workload: str, ops: list, problems: dict) -> tuple:
    """Check every operation.

    Returns (failures, certificate misses of ``lyapflow bound``, settled_at/T
    of every certified run, the artifact digests of each problem's first
    operation).
    """
    failures, misses, tight, first = [], [], [], {}
    for i, op in enumerate(ops):
        expect = dict(problems[op["problem"]].expect)
        if "bound" in op:
            T = parse_summary(op["bound"]).get("bound.T", "none")
            expect["T"] = float("inf") if T == "none" else float(T)
        summary = parse_summary(op["summary"])
        try:
            bad = CHECKS[workload](op["rc"], summary, expect)
        except (KeyError, ValueError) as exc:
            bad = [f"unreadable summary: {exc!r}"]
        if op["problem"] in first:
            bad += check_repeat(op["digests"], first[op["problem"]])
        else:
            first[op["problem"]] = op["digests"]
        if op["rc"] == 0:
            t = tightness(workload, summary, expect)
            if t is not None:
                tight.append(t)
            miss = bound_certificate_miss(summary, expect) if "T" in expect else None
            if miss:
                misses.append({"op": i, "problem": op["problem"], "reason": miss})
        if bad:
            failures.append({"op": i, "problem": op["problem"], "reasons": bad,
                             "error": op["error"]})
    return failures, misses, tight, first


def per_layer(traced: dict, tight: list, misses: list) -> dict:
    layers, counters = traced["layers"], traced["counters"]
    m = {}

    def add(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def calls_self(layer):
        add(f"{layer}.calls", layers[layer]["calls"], "count")
        add(f"{layer}.self_s", layers[layer]["self_s"], "s")

    for name in ("net.forward", "net.sensitivities", "net.loss_gradient"):
        calls_self(name)
    calls_self("losses.evaluate")
    evals = layers["losses.evaluate"]["calls"]
    add("losses.evaluate.useful_ratio",
        traced["useful_evaluations"] / evals if evals else 0.0, "ratio")
    calls_self("losses.sgnpow")
    law_evals = sum(layers[n]["calls"] for n in
                    ("control.single_neuron_update", "control.mlp_update",
                     "control.gradient_flow_update"))
    add("control.law_evals", law_evals, "count")
    for name in ("control.single_neuron_update", "control.mlp_update",
                 "control.gradient_flow_update", "control.signal_norm"):
        add(f"{name}.self_s", layers[name]["self_s"], "s")
    calls_self("dynamics.integrate")
    steps = counters.get("dynamics.steps", 0)
    add("dynamics.steps", steps, "count")
    add("dynamics.law_evals_per_step", law_evals / steps if steps else 0.0, "evals/step")
    calls_self("dynamics.dataset_loss")
    add("dynamics.records", counters.get("dynamics.records", 0), "count")
    add("dynamics.to_csv.self_s", layers["dynamics.to_csv"]["self_s"], "s")
    add("dynamics.to_csv.bytes", counters.get("dynamics.to_csv.bytes", 0), "B")
    for name in ("svgplot.write_svg", "svgplot.write_dat"):
        add(f"{name}.self_s", layers[name]["self_s"], "s")
        add(f"{name}.bytes", counters.get(f"{name}.bytes", 0), "B")
    calls_self("perturb.apply")
    add("bounds.settling_bound.calls", layers["bounds.settling_bound"]["calls"], "count")
    add("bounds.refused", counters.get("bounds.refused", 0), "count")
    add("bounds.tightness.max", max(tight) if tight else 0.0, "ratio")
    add("bounds.certificate_misses", len({m["problem"] for m in misses}), "count")
    for name in ("config.load_config", "datasets.load_csv", "cli.main"):
        add(f"{name}.self_s", layers[name]["self_s"], "s")
    add("import_s", traced["import_s"], "s")
    add("trace.overhead", traced["trace_overhead"], "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "lyapflow" / "cli.py").is_file():
        print(f"error: no lyapflow sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "spans").mkdir(parents=True)
    env = _env(root)

    made = write_problems(args.workload, args.seed, work)
    problems = {d.name: problem for d, problem in made}

    command = made[0][1].command
    # compare prints no certificate; each problem's comes from a `bound` call
    plan = {"command": command, "with_bound": command == "compare",
            "problems": [str(d) for d, _ in made],
            "seconds": args.seconds, "trace": args.trace,
            "out": str(work / "out"), "spans": str(work / "spans")}
    (work / "plan.json").write_text(json.dumps(plan, indent=1))
    limit = args.seconds + OVERRUN_S
    # its own process group, so a timeout also ends its speed probe and set-up launch
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(work / "plan.json"),
         str(work / "result.json")],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: workload process exceeded {limit:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}:\n"
              f"{stderr.decode()[-2000:]}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())

    ops = result["ops"]
    failures, misses, tight, digests = judge(args.workload, ops, problems)
    env_record = dict(environment(root, args.seed, result["numpy"]),
                      pinned_cpu=result["pinned_cpu"])
    record = {"workload": args.workload, "trace": args.trace, "env": env_record,
              "digests": digests, "failures": failures, "certificate_misses": misses,
              "walls": [op["wall_s"] for op in ops],
              "probes": [op.get("probe_s") for op in ops],
              "setup": result.get("setup")}
    attempted, failed = len(ops), len(failures)
    if args.trace:
        metrics = per_layer(result, tight, misses)
    else:
        metrics = {
            "wall_norm": {"value": statistics.median(
                w / p for w, p in zip(record["walls"], record["probes"])), "unit": "probe"},
            "setup_s": {"value": statistics.median(
                REFERENCE_S * s["seconds"] / s["probe_s"] for s in record["setup"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    record["metrics"] = metrics
    (work / "record.json").write_text(json.dumps(record, indent=1))

    print(f"env: {json.dumps(env_record)}")
    if not args.trace:
        walls = record["walls"]
        t = tail(walls)
        print(f"wall_s = {statistics.median(walls):.6g} s over {attempted} operations")
        print("wall_s.tail = " + (f"{t[1]:.6g} s (p{t[0]:.0f})" if t else
                                  f"n/a (needs more than 10 operations, have {attempted})"))
        raw = [s["seconds"] for s in record["setup"]]
        print(f"setup_s is the median of {len(raw)} launches at the reference speed; "
              f"raw launch seconds: median {statistics.median(raw):.6g}, "
              f"{min(raw):.6g} to {max(raw):.6g}")
    for name, m in metrics.items():
        value = m["value"]
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {m['unit']}")
    print(f"fail_share = {failed / attempted:.6g} share ({failed} of {attempted} operations)")
    for f in failures:
        print(f"failed: op {f['op']} problem {f['problem']}: {'; '.join(f['reasons'])}")
    for m in misses:
        print(f"certificate miss (lyapflow bound, known defect): op {m['op']} "
              f"problem {m['problem']}: {m['reason']}")
    for problem, d in digests.items():
        print(f"digest {problem}: " + " ".join(f"{k}={v}" for k, v in d.items()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
