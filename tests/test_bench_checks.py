"""The benchmark's own correctness checks pass on each workload's first problem.

``bench/run.py`` judges every operation with ``bench/checks.py``: a broken
certificate, a wrong refusal or a repeat that writes other bytes fails the
benchmark.  Running those checks here makes such a change fail the tests
first.  Both bench files are loaded by path and use only numpy and the
standard library.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from lyapflow.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered while the test runs: a dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["single_settle", "mlp_compare", "noisy_epoch_sweep"])
def test_the_bench_checks_pass_on_problem_zero(tmp_path, monkeypatch, workload):
    workloads, checks = (_bench_module(name, monkeypatch) for name in ("workloads", "checks"))
    problem = workloads.GENERATORS[workload](0)
    (tmp_path / "run.kv").write_text(problem.config)
    for name, text in problem.files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)  # a config names its data files relative to the run
    digests = []
    for out in (tmp_path / "first", tmp_path / "repeat"):
        rc = main([problem.command, "--config", "run.kv", "--out", str(out)])
        summary = checks.parse_summary((out / "summary.kv").read_text())
        assert checks.CHECKS[workload](rc, summary, problem.expect) == []
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("trajectory.csv", "summary.kv")})
    assert checks.check_repeat(digests[1], digests[0]) == []
