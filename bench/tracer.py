"""Span tracer that instruments lyapflow from outside the package.

lyapflow's modules import each other's functions by name, so a function is
wrapped at every module attribute that holds it, not only where it is
defined.  Methods are wrapped on their classes.  Spans are kept in flat
arrays (name id, start, end, parent) and written out once, at the end;
``single_settle`` alone produces about half a million of them.

A layer's self time is its spans' durations minus the durations of their
direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

# (module, attribute, metric name) of every traced function.
FUNCTIONS = (
    ("lyapflow.cli", "main", "cli.main"),
    ("lyapflow.config", "load_config", "config.load_config"),
    ("lyapflow.datasets", "load_csv", "datasets.load_csv"),
    ("lyapflow.net", "forward", "net.forward"),
    ("lyapflow.net", "sensitivities", "net.sensitivities"),
    ("lyapflow.net", "loss_gradient", "net.loss_gradient"),
    ("lyapflow.losses", "sgnpow", "losses.sgnpow"),
    ("lyapflow.control", "single_neuron_update", "control.single_neuron_update"),
    ("lyapflow.control", "mlp_update", "control.mlp_update"),
    ("lyapflow.control", "gradient_flow_update", "control.gradient_flow_update"),
    ("lyapflow.control", "signal_norm", "control.signal_norm"),
    ("lyapflow.dynamics", "integrate", "dynamics.integrate"),
    ("lyapflow.dynamics", "dataset_loss", "dynamics.dataset_loss"),
    ("lyapflow.bounds", "settling_bound", "bounds.settling_bound"),
    ("lyapflow.svgplot", "write_svg", "svgplot.write_svg"),
    ("lyapflow.svgplot", "write_dat", "svgplot.write_dat"),
)

# (module, class, method, metric name) of every traced method.
METHODS = (
    ("lyapflow.dynamics", "Trajectory", "to_csv", "dynamics.to_csv"),
    ("lyapflow.perturb", "PerturbationSpec", "apply", "perturb.apply"),
    ("lyapflow.losses", "LyapunovLoss", "evaluate", "losses.evaluate"),
    ("lyapflow.losses", "L1Loss", "evaluate", "losses.evaluate"),
    ("lyapflow.losses", "L2Loss", "evaluate", "losses.evaluate"),
)


class Tracer:
    """Collects spans and the counters that hang off them."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list = []
        self.counters: dict = {}
        # integrate span index -> (steps, theory mode)
        self.runs: dict = {}
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if hook is not None:
                    hook(idx, args, kwargs, None, exc)
                raise
            end[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result, None)
            return result

        return traced

    # ------------------------------------------------------------ hooks

    def _on_integrate(self, idx, args, kwargs, traj, exc):
        if exc is not None:
            return
        mode = args[1] if len(args) > 1 else kwargs["mode"]
        integ = args[4] if len(args) > 4 else kwargs["integ"]
        steps = round(float(traj.t[-1]) / integ.dt)
        self.count("dynamics.steps", steps)
        self.count("dynamics.records", traj.n_records())
        self.runs[idx] = (steps, type(mode).__name__ == "TheoryFlow")

    def _bytes_hook(self, key: str, path_arg: int):
        def hook(idx, args, kwargs, result, exc):
            if exc is None:
                self.count(key, os.path.getsize(args[path_arg]))
        return hook

    def _on_bound(self, idx, args, kwargs, result, exc):
        if exc is not None and type(exc).__name__ == "GuaranteeError":
            self.count("bounds.refused")

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every traced function and method inside lyapflow."""
        hooks = {
            "dynamics.integrate": self._on_integrate,
            "bounds.settling_bound": self._on_bound,
            "svgplot.write_svg": self._bytes_hook("svgplot.write_svg.bytes", 0),
            "svgplot.write_dat": self._bytes_hook("svgplot.write_dat.bytes", 0),
            "dynamics.to_csv": self._bytes_hook("dynamics.to_csv.bytes", 1),
        }
        for mod_name, _, _ in FUNCTIONS:
            importlib.import_module(mod_name)
        package = [m for n, m in sys.modules.items()
                   if n == "lyapflow" or n.startswith("lyapflow.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(name, original, hooks.get(name))
            for mod in package:
                if mod.__dict__.get(attr) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def layer_totals(self) -> dict:
        """{name: [calls, total_s, self_s]} over every span recorded."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        totals = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = totals[self.names[self.name_id[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return totals

    def useful_evaluations(self) -> int:
        """Evaluations of E whose value the program goes on to use.

        Inside an integration only the evaluation at the start of each
        theory-mode step feeds the settle test and the record; the
        RK4-stage and per-sample evaluations are computed by the law and
        dropped, unless the layered law consumes E through its E**beta
        scale.  Evaluations outside an integration, or inside
        ``dataset_loss``, are all used.
        """
        ev, mlp = self._ids["losses.evaluate"], self._ids["control.mlp_update"]
        direct = {i: [0, 0] for i in self.runs}
        total = 0
        for i, nid in enumerate(self.name_id):
            p = self.parent[i]
            if nid == ev:
                total += 1
                if p in direct:
                    direct[p][0] += 1
            elif nid == mlp and p in direct:
                direct[p][1] += 1
        wasted = 0
        for idx, (evals, law_uses_E) in direct.items():
            steps, theory = self.runs[idx]
            if not law_uses_E:
                wasted += evals - (steps + 1 if theory else 0)
        return total - wasted

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": ["name_id:i", "start:d", "end:d", "parent:i"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(fh)
