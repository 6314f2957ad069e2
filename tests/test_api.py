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
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lyapflow
from lyapflow import dynamics
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


def _names_read(path: Path) -> set:
    """Every name a Python file reads, as a name or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_used_outside_the_tests():
    # public API that only tests use is deleted: each exported name is read
    # somewhere besides its definition and its export, or the README names it
    package = ROOT / "src" / "lyapflow"
    files = [f for f in package.glob("*.py") if f.name != "__init__.py"]
    files += sorted(DEMOS.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(_names_read(f) for f in files))
    readme = (ROOT / "README.md").read_text()
    unused = [name for name in lyapflow.__all__
              if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unused == []


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


@pytest.mark.parametrize("demo", ["deep_net_decrease.py", "loss_race.py",
                                  "alpha_zero_chatter.py", "gain_scaling_table.py",
                                  "single_neuron_settling.py"])
def test_the_demos_of_the_layered_and_gradient_flow_laws_run(tmp_path, demo):
    # the first two run the back-propagation path end to end, the others the
    # single-neuron law; each but gain_scaling_table.py (a table only) writes
    # its plot under demo_out/ in the directory it is run from.
    # noise_robustness.py, about 9 s, is left out to keep tier-1 fast
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if demo != "gain_scaling_table.py":
        assert list((tmp_path / "demo_out").glob("*.svg"))


def test_the_readme_quick_start_runs_and_settles_inside_its_certificate():
    # the library example is run, not just read, so it cannot drift from the API
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Quick start (library)\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["traj"].settled_at <= scope["cert"].T


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
    steps = len(rows) - 3  # a header, the start, one record per step, the landing
    # every step's start plus three RK4 stages, the last start, the landing
    evaluations = 4 * steps + 2
    assert calls["control.single_neuron_update"] == evaluations
    assert calls["net.forward"] == evaluations + 1  # and E0, for the certificate
    assert calls["dynamics.dataset_loss"] == 1  # E0: the sample as a one-row dataset


EPOCH_SWEEP = (
    "net.layers = 4, 1\nnet.init = random\nnet.scale = 0.05\nloss.alpha = 0.7\n"
    "gains.k = 1\ninteg.dt = 1e-3\ninteg.t_max = 0.06\nstop.epsilon = 1e-12\n"
    "mode.kind = epoch\ndata.source = blobs\ndata.per_class = 3\n"
    "sweep.m_values = 0.1, 0.3\n")
EPOCHS = 10  # 60 steps over 6 rows; neither level settles


def test_traced_epoch_sweep_sees_every_law_evaluation(tmp_path):
    calls = _traced_calls(tmp_path, "perturb-sweep", EPOCH_SWEEP)
    epochs = EPOCHS
    # one stacked evaluation per sample step serves both levels
    assert calls["control.single_neuron_update"] == epochs * 6
    # one stacked dataset pass per epoch checkpoint, beside the resolver's E0,
    # which every level's certificate shares; each pass is one net.forward
    assert calls["net.forward"] == epochs * 6 + (epochs + 1) + 1
    assert calls["dynamics.dataset_loss"] == (epochs + 1) + 1


LAYERED = ("net.output_activation = identity\nnet.init = random\ngains.k = 1\n"
           "integ.method = rk4\ninteg.dt = 1e-3\ninteg.t_max = 0.02\ninteg.record_stride = 1\n"
           "mode.y_star = -3\nrun.seed = 1\n")


@pytest.mark.parametrize("command,config,law", [
    pytest.param("compare", "net.layers = 3, 4, 1\nloss.alpha = 0.7\nmode.x = 0.5, -0.2, 0.9\n"
                 + LAYERED, "control.mlp_update", id="compare"),
    pytest.param("alpha-sweep", "net.layers = 4, 1\nnet.init = zeros\ngains.k = 1\n"
                 "integ.method = rk4\ninteg.dt = 1e-4\ninteg.t_max = 0.002\n"
                 "integ.record_stride = 1\nmode.x = 1, -0.6, 0.8, 0.4\nmode.y_star = 0.48\n"
                 "sweep.alphas = 0.3, 0.5, 0.7\n", "control.single_neuron_update",
                 id="single-neuron-alpha-sweep"),
    pytest.param("alpha-sweep", "net.layers = 4, 8, 1\nmode.x = 0.5, -0.3, 0.8, 0.1\n"
                 "sweep.alphas = 0.3, 0.5, 0.7\n" + LAYERED, "control.mlp_update",
                 id="layered-alpha-sweep"),
])
def test_traced_compare_stacks_its_rows(tmp_path, command, config, law):
    calls = _traced_calls(tmp_path, command, config)
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    steps = len(rows) - 2  # the last row's; no row settles this early
    evaluations = 4 * steps + 1
    # every row shares one forward pass, one back-propagation (none for the
    # single-neuron law) and one law call per evaluation, beside the
    # resolver's E0; a compare's L1 and L2 rows take the layered law's call
    # as exponent 1 and scale 1
    assert calls["net.forward"] == evaluations + 1
    backprop = law == "control.mlp_update"
    assert calls["net.sensitivities"] == (evaluations if backprop else 0)
    assert calls[law] == evaluations
    assert calls["control.gradient_flow_update"] == 0


class _CountingRng:
    """A generator that counts its ``random`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)


def test_an_epoch_sweep_draws_its_noise_once_per_epoch(tmp_path, monkeypatch):
    # the whole epoch's noise is one block of draws, not one draw per sample
    rngs, init = [], dynamics._Noise.__init__

    def counting(self, specs):
        init(self, specs)
        self.rng = _CountingRng(self.rng)
        rngs.append(self.rng)

    monkeypatch.setattr(dynamics._Noise, "__init__", counting)
    path = tmp_path / "run.kv"
    path.write_text(EPOCH_SWEEP)
    assert main(["perturb-sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert [rng.calls for rng in rngs] == [EPOCHS]


class _CountingRows:
    """An array whose reads by index are counted."""

    def __init__(self, values):
        self.values, self.reads = values, 0

    def __getitem__(self, key):
        self.reads += 1
        return self.values[key]


def test_a_lone_run_computes_its_landing_constants_once(tmp_path, monkeypatch):
    # the landing test's per-run speed reads the rate scales once per active
    # set and input, not once per step
    flows, init = [], dynamics._Theory.__init__

    def counting(self, *args):
        init(self, *args)
        self.rs = _CountingRows(self.rs)
        flows.append(self)

    monkeypatch.setattr(dynamics._Theory, "__init__", counting)
    path = tmp_path / "run.kv"
    path.write_text("net.layers = 4, 1\nnet.init = zeros\nloss.alpha = 0.7\ngains.k = 1\n"
                    "mode.x = 1, -0.6, 0.8, 0.4\nmode.y_star = 0.48\nbound.gamma = 1\n")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 359 and rows[-1].split(",")[2] == "1"  # 357 steps, then it lands
    assert [flow.rs.reads for flow in flows] == [1]
