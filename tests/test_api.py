"""Every public name resolves, and so does every name the bench tracer wraps.

A deleted function that is still exported, or still wrapped by
``bench/tracer.py``, breaks ``import lyapflow`` users or ``bench/run.py
--trace 1`` only when they run; these checks fail at once instead.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import lyapflow

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _modules():
    yield lyapflow
    for info in pkgutil.iter_modules(lyapflow.__path__):
        yield importlib.import_module(f"lyapflow.{info.name}")


def test_every_exported_name_resolves():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # standard library only
    for module, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"
    for module, cls, method, _ in tracer.METHODS:
        owner = getattr(importlib.import_module(module), cls)
        assert method in owner.__dict__, f"{module}.{cls}.{method}"
