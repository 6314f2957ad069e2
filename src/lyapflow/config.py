"""Flat `key = value` experiment configs.

The format is deliberately dumb: one dotted key per line, `#` comments,
no sections, no nesting.  Every problem in a file is collected and
reported at once (ConfigError carries the full list), so a user fixes a
bad config in one round trip instead of five.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["ExperimentConfig", "parse_kv", "load_config", "config_from_text"]


def parse_kv(text: str, source: str = "<config>") -> dict:
    """Parse `key = value` lines into an ordered dict of strings."""
    out: dict = {}
    problems = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{source}:{ln}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            problems.append(f"{source}:{ln}: empty key")
            continue
        if key in out:
            problems.append(f"{source}:{ln}: duplicate key {key!r}")
            continue
        out[key] = value
    if problems:
        raise ConfigError(problems)
    return out


def _int(s: str) -> int:
    return int(s, 10)


def _nonnegative_int(s: str) -> int:
    n = int(s, 10)
    if n < 0:
        raise ValueError(f"must be >= 0, got {n}")
    return n


def _count(s: str) -> int:
    n = int(s, 10)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _positive(s: str) -> float:
    v = float(s)
    if not (v > 0 and math.isfinite(v)):
        raise ValueError(f"must be finite and > 0, got {s!r}")
    return v


def _nonnegative(s: str) -> float:
    v = float(s)
    if not (v >= 0 and math.isfinite(v)):
        raise ValueError(f"must be finite and >= 0, got {s!r}")
    return v


def _finite(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {s!r}")
    return v


def _bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _list(item):
    """Parser of a comma-separated list of `item` values."""
    def parse(s: str) -> tuple:
        parts = [p.strip() for p in s.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty list")
        return tuple(item(p) for p in parts)

    return parse


def _choice(*allowed):
    def parse(s: str) -> str:
        if s not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}; got {s!r}")
        return s

    return parse


@dataclass
class ExperimentConfig:
    """Everything a run needs, with conservative defaults."""

    # network
    layers: tuple = (1, 1)
    output_activation: str = "sigmoid"
    init: str = "random"
    init_scale: float = 0.5

    # loss / control law
    loss_kind: str = "lyapunov"
    alpha: float = 0.7
    beta: float = None

    # gains
    k: float = 1.0

    # integrator
    method: str = "rk4"
    dt: float = None           # None -> the settle-band step under a certificate, else 1e-3
    t_max: float = 10.0
    record_stride: int = 1
    step_budget: int = 10_000_000

    # stopping
    epsilon: float = 1e-9

    # mode
    mode: str = "theory"
    x: tuple = None
    y_star: tuple = None
    sample_index: int = None   # theory mode: pull (x, y*) from the dataset

    # data
    data_source: str = "none"
    per_class: int = 50
    separation: float = 5.0
    count: int = 40
    noise_sd: float = 0.0
    csv_path: str = None
    feature_cols: tuple = None
    target_cols: tuple = None
    normalize: bool = False

    # perturbation
    perturb_mode: str = None
    perturb_m: float = None
    redraw_every: int = 1

    # bound
    gamma: float = None        # None -> the data minimum

    # bookkeeping
    seed: int = 0
    out_dir: str = None

    # sweeps
    alphas: tuple = ()
    m_values: tuple = ()


# key -> (attribute, parser)
_KEYS = {
    "net.layers": ("layers", _list(_int)),
    "net.output_activation": ("output_activation", _choice("sigmoid", "identity")),
    "net.init": ("init", _choice("random", "zeros")),
    "net.scale": ("init_scale", _positive),
    "loss.kind": ("loss_kind", _choice("lyapunov", "l1", "l2")),
    "loss.alpha": ("alpha", float),
    "loss.beta": ("beta", float),
    "gains.k": ("k", _positive),
    "integ.method": ("method", _choice("rk4", "euler")),
    "integ.dt": ("dt", _positive),
    "integ.t_max": ("t_max", _positive),
    "integ.record_stride": ("record_stride", _count),
    "integ.step_budget": ("step_budget", _count),
    "stop.epsilon": ("epsilon", _positive),
    "mode.kind": ("mode", _choice("theory", "epoch")),
    "mode.x": ("x", _list(_finite)),
    "mode.y_star": ("y_star", _list(_finite)),
    "mode.sample": ("sample_index", _int),
    "data.source": ("data_source", _choice("none", "blobs", "linreg", "csv")),
    "data.per_class": ("per_class", _count),
    "data.separation": ("separation", _finite),
    "data.count": ("count", _count),
    "data.noise_sd": ("noise_sd", _nonnegative),
    "data.path": ("csv_path", str),
    "data.features": ("feature_cols", _list(str)),
    "data.targets": ("target_cols", _list(str)),
    "data.normalize": ("normalize", _bool),
    "perturb.mode": ("perturb_mode", _choice("vanishing", "amplitude")),
    "perturb.M": ("perturb_m", _nonnegative),
    "perturb.redraw_every": ("redraw_every", _count),
    "bound.gamma": ("gamma", _positive),
    "run.seed": ("seed", _nonnegative_int),
    "run.out": ("out_dir", str),
    "sweep.alphas": ("alphas", _list(float)),
    "sweep.m_values": ("m_values", _list(_nonnegative)),
}


def config_from_text(text: str, source: str = "<config>") -> ExperimentConfig:
    pairs = parse_kv(text, source=source)
    cfg = ExperimentConfig()
    problems = []
    for key, raw in pairs.items():
        entry = _KEYS.get(key)
        if entry is None:
            problems.append(f"{source}: unknown key {key!r}")
            continue
        attr, parser = entry
        try:
            setattr(cfg, attr, parser(raw))
        except ValueError as exc:
            problems.append(f"{source}: bad value for {key!r}: {exc}")
    problems.extend(_cross_checks(cfg, source, pairs))
    if problems:
        raise ConfigError(problems)
    return cfg


def _cross_checks(cfg: ExperimentConfig, source: str, given) -> list:
    probs = []
    if len(cfg.layers) < 2:
        probs.append(f"{source}: net.layers needs at least input,output sizes")
    elif any(n < 1 for n in cfg.layers):
        probs.append(f"{source}: net.layers entries must be positive")
    if cfg.mode == "theory":
        has_inline = cfg.x is not None or cfg.y_star is not None
        if has_inline and (cfg.x is None or cfg.y_star is None):
            probs.append(f"{source}: mode.x and mode.y_star must be given together")
        if cfg.sample_index is not None and has_inline:
            probs.append(f"{source}: give mode.sample or mode.x/mode.y_star, not both")
        if cfg.sample_index is not None and cfg.data_source == "none":
            probs.append(f"{source}: mode.sample needs a data.source")
        if not has_inline and cfg.sample_index is None:
            probs.append(f"{source}: theory mode needs mode.x/mode.y_star or mode.sample")
        if cfg.x is not None and len(cfg.x) != cfg.layers[0]:
            probs.append(
                f"{source}: mode.x has {len(cfg.x)} entries, net.layers expects {cfg.layers[0]}"
            )
        if cfg.y_star is not None and len(cfg.y_star) != cfg.layers[-1]:
            probs.append(
                f"{source}: mode.y_star has {len(cfg.y_star)} entries, "
                f"net.layers expects {cfg.layers[-1]}"
            )
    else:  # epoch
        if cfg.data_source == "none":
            probs.append(f"{source}: epoch mode needs a data.source")
    if cfg.data_source == "csv":
        if cfg.csv_path is None:
            probs.append(f"{source}: data.source=csv needs data.path")
        if cfg.feature_cols is None or cfg.target_cols is None:
            probs.append(f"{source}: data.source=csv needs data.features and data.targets")
    if cfg.perturb_mode is not None and cfg.perturb_m is None:
        probs.append(f"{source}: perturb.mode needs perturb.M")
    if any(not 0.0 <= a < 1.0 for a in cfg.alphas):
        probs.append(f"{source}: sweep.alphas entries must be finite and lie in [0, 1)")
    # a vanishing envelope's exponent is loss.alpha, whatever the loss;
    # amplitude noise, and a config without noise, read no envelope exponent
    vanishing = cfg.perturb_mode == "vanishing" or (cfg.perturb_mode is None
                                                     and bool(cfg.m_values))
    if vanishing and not 0.0 <= cfg.alpha < 1.0:
        probs.append(f"{source}: loss.alpha = {cfg.alpha!r} is the vanishing "
                     "envelope's exponent; it must lie in [0, 1)")
    if "loss.alpha" in given and cfg.loss_kind != "lyapunov" and not vanishing:
        probs.append(f"{source}: loss.alpha applies to the lyapunov loss, or to a vanishing "
                     f"envelope; loss.kind = {cfg.loss_kind} ignores it")
    if cfg.mode == "epoch" and cfg.redraw_every > 1:  # envelopes differ per sample
        probs.append(f"{source}: perturb.redraw_every > 1 needs mode.kind = theory; "
                     "epoch mode draws fresh noise for every sample")
    return probs


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        text = fh.read()
    return config_from_text(text, source=str(path))
