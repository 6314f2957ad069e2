"""Every public name resolves, and so does every name the bench tracer wraps.

A deleted function that is still exported, or still wrapped by
``bench/tracer.py``, breaks ``import lyapflow`` users or ``bench/run.py
--trace 1`` only when they run; these checks fail at once instead.  A fast
path that went around a wrapped name would leave the tracer's per-layer rows
short; the call-count checks below catch that.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import lyapflow
from lyapflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
DEMOS = ROOT / "demos"


def _modules():
    yield lyapflow
    for info in pkgutil.iter_modules(lyapflow.__path__):
        yield importlib.import_module(f"lyapflow.{info.name}")


def test_every_exported_name_resolves():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_name_the_demos_import_resolves():
    # a deletion must not break a demo: each name a demo imports from the
    # package exists, checked without running the demo
    checked = 0
    for demo in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lyapflow"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name}"
                    checked += 1
    assert checked > 0


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # standard library only
    return tracer


def test_every_traced_name_exists():
    tracer = _tracer_module()
    for module, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"
    for module, cls, method, _ in tracer.METHODS:
        owner = getattr(importlib.import_module(module), cls)
        assert method in owner.__dict__, f"{module}.{cls}.{method}"


def _traced_calls(tmp_path, command: str, config: str) -> dict:
    """{traced name: calls} of one CLI run under the bench tracer's wrappers."""
    path = tmp_path / "run.kv"
    path.write_text(config)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    return {name: row[0] for name, row in tracer.layer_totals().items()}


def test_traced_train_sees_every_law_evaluation(tmp_path):
    calls = _traced_calls(tmp_path, "train", (
        "net.layers = 4, 1\nnet.init = zeros\nloss.alpha = 0.7\ngains.k = 1\n"
        "integ.method = rk4\ninteg.dt = 1e-4\ninteg.t_max = 0.02\ninteg.record_stride = 1\n"
        "mode.x = 1, -0.6, 0.8, 0.4\nmode.y_star = 0.48\nbound.gamma = 1\n"))
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    steps = len(rows) - 2  # a header, then one record per step and the start
    evaluations = 4 * steps + 1  # every step's start, plus three RK4 stages
    assert calls["control.single_neuron_update"] == evaluations
    assert calls["net.forward"] == evaluations + 1  # and E0, for the certificate


def test_traced_epoch_sweep_sees_every_law_evaluation(tmp_path):
    calls = _traced_calls(tmp_path, "perturb-sweep", (
        "net.layers = 4, 1\nnet.init = random\nnet.scale = 0.05\nloss.alpha = 0.7\n"
        "gains.k = 1\ninteg.dt = 1e-3\ninteg.t_max = 0.06\nstop.epsilon = 1e-12\n"
        "mode.kind = epoch\ndata.source = blobs\ndata.per_class = 3\n"
        "sweep.m_values = 0.1, 0.3\n"))
    epochs = 10  # 60 steps over 6 rows; neither level settles
    # one stacked evaluation per sample step serves both levels
    assert calls["control.single_neuron_update"] == epochs * 6
    assert calls["net.forward"] == epochs * 6
    # one stacked dataset pass per epoch checkpoint, beside the resolver's E0,
    # which every level's certificate shares
    assert calls["dynamics.dataset_loss"] == (epochs + 1) + 1


def test_traced_compare_stacks_its_rows(tmp_path):
    calls = _traced_calls(tmp_path, "compare", (
        "net.layers = 3, 4, 1\nnet.output_activation = identity\nnet.init = random\n"
        "loss.alpha = 0.7\ngains.k = 1\ninteg.method = rk4\ninteg.dt = 1e-3\n"
        "integ.t_max = 0.02\ninteg.record_stride = 1\nmode.x = 0.5, -0.2, 0.9\n"
        "mode.y_star = -3\nrun.seed = 1\n"))
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    steps = len(rows) - 2  # the Lyapunov row; no row settles this early
    evaluations = 4 * steps + 1
    # the Lyapunov, L1 and L2 rows share one forward pass and one
    # back-propagation per evaluation, beside the resolver's E0
    assert calls["net.forward"] == evaluations + 1
    assert calls["net.sensitivities"] == evaluations
    assert calls["control.mlp_update"] == evaluations
    # one gradient-flow call serves the L1 and L2 rows together
    assert calls["control.gradient_flow_update"] == evaluations
