"""Flat `key = value` experiment configs.

The format is deliberately dumb: one dotted key per line, `#` comments,
no sections, no nesting.  Every problem in a file is collected and
reported at once (ConfigError carries the full list), so a user fixes a
bad config in one round trip instead of five.

`_KEYS` is the one list of settings: each key with its parser and its
default.  A config is a plain dict keyed by those keys, every key present,
defaults filled in (`cfg["net.layers"]`).
"""

from __future__ import annotations

import math

from .errors import ConfigError

__all__ = ["parse_kv", "load_config", "config_from_text"]


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


# key -> (parser, default): the one list of settings
_KEYS = {
    "net.layers": (_list(_int), (1, 1)),
    "net.output_activation": (_choice("sigmoid", "identity"), "sigmoid"),
    "net.init": (_choice("random", "zeros"), "random"),
    "net.scale": (_positive, 0.5),
    "loss.kind": (_choice("lyapunov", "l1", "l2"), "lyapunov"),
    "loss.alpha": (float, 0.7),
    "loss.beta": (float, None),
    "gains.k": (_positive, 1.0),
    "integ.method": (_choice("rk4", "euler"), "rk4"),
    "integ.dt": (_positive, None),  # None -> T/1e3 under a certificate, else 1e-3
    "integ.t_max": (_positive, 10.0),
    "integ.record_stride": (_count, 1),
    "integ.step_budget": (_count, 10_000_000),
    "stop.epsilon": (_positive, 1e-9),
    "mode.kind": (_choice("theory", "epoch"), "theory"),
    "mode.x": (_list(_finite), None),
    "mode.y_star": (_list(_finite), None),
    "mode.sample": (_int, None),  # theory mode: pull (x, y*) from the dataset
    "data.source": (_choice("none", "blobs", "linreg", "csv"), "none"),
    "data.per_class": (_count, 50),
    "data.separation": (_finite, 5.0),
    "data.count": (_count, 40),
    "data.noise_sd": (_nonnegative, 0.0),
    "data.path": (str, None),
    "data.features": (_list(str), None),
    "data.targets": (_list(str), None),
    "data.normalize": (_bool, False),
    "perturb.mode": (_choice("vanishing", "amplitude"), None),
    "perturb.M": (_nonnegative, None),
    "perturb.redraw_every": (_count, 1),
    "bound.gamma": (_positive, None),  # None -> the data minimum
    "run.seed": (_nonnegative_int, 0),
    "run.out": (str, None),
    "sweep.alphas": (_list(float), ()),
    "sweep.m_values": (_list(_nonnegative), ()),
}


def config_from_text(text: str, source: str = "<config>") -> dict:
    """Every key of `_KEYS` mapped to its parsed value, or to its default."""
    pairs = parse_kv(text, source=source)
    cfg = {key: default for key, (_, default) in _KEYS.items()}
    problems = []
    for key, raw in pairs.items():
        if key not in _KEYS:
            problems.append(f"{source}: unknown key {key!r}")
            continue
        try:
            cfg[key] = _KEYS[key][0](raw)
        except ValueError as exc:
            problems.append(f"{source}: bad value for {key!r}: {exc}")
    problems.extend(_cross_checks(cfg, source, pairs))
    if problems:
        raise ConfigError(problems)
    return cfg


def _cross_checks(cfg: dict, source: str, given) -> list:
    probs = []
    layers, x, y_star, sample = (cfg["net.layers"], cfg["mode.x"], cfg["mode.y_star"],
                                 cfg["mode.sample"])
    mode, data, perturb_mode = cfg["mode.kind"], cfg["data.source"], cfg["perturb.mode"]
    if len(layers) < 2:
        probs.append(f"{source}: net.layers needs at least input,output sizes")
    elif any(n < 1 for n in layers):
        probs.append(f"{source}: net.layers entries must be positive")
    if mode == "theory":
        has_inline = x is not None or y_star is not None
        if has_inline and (x is None or y_star is None):
            probs.append(f"{source}: mode.x and mode.y_star must be given together")
        if sample is not None and has_inline:
            probs.append(f"{source}: give mode.sample or mode.x/mode.y_star, not both")
        if sample is not None and data == "none":
            probs.append(f"{source}: mode.sample needs a data.source")
        if not has_inline and sample is None:
            probs.append(f"{source}: theory mode needs mode.x/mode.y_star or mode.sample")
        if x is not None and len(x) != layers[0]:
            probs.append(
                f"{source}: mode.x has {len(x)} entries, net.layers expects {layers[0]}"
            )
        if y_star is not None and len(y_star) != layers[-1]:
            probs.append(
                f"{source}: mode.y_star has {len(y_star)} entries, "
                f"net.layers expects {layers[-1]}"
            )
    else:  # epoch
        if data == "none":
            probs.append(f"{source}: epoch mode needs a data.source")
    if data == "csv":
        if cfg["data.path"] is None:
            probs.append(f"{source}: data.source=csv needs data.path")
        if cfg["data.features"] is None or cfg["data.targets"] is None:
            probs.append(f"{source}: data.source=csv needs data.features and data.targets")
    if perturb_mode is not None and cfg["perturb.M"] is None:
        probs.append(f"{source}: perturb.mode needs perturb.M")
    if perturb_mode is None and cfg["perturb.M"] is not None:
        probs.append(f"{source}: perturb.M needs perturb.mode")
    if any(not 0.0 <= a < 1.0 for a in cfg["sweep.alphas"]):
        probs.append(f"{source}: sweep.alphas entries must be finite and lie in [0, 1)")
    # a vanishing envelope's exponent is loss.alpha, whatever the loss;
    # amplitude noise, and a config without noise, read no envelope exponent
    vanishing = perturb_mode == "vanishing" or (perturb_mode is None
                                                and bool(cfg["sweep.m_values"]))
    alpha, kind = cfg["loss.alpha"], cfg["loss.kind"]
    if vanishing and not 0.0 <= alpha < 1.0:
        probs.append(f"{source}: loss.alpha = {alpha!r} is the vanishing "
                     "envelope's exponent; it must lie in [0, 1)")
    if "loss.alpha" in given and kind != "lyapunov" and not vanishing:
        probs.append(f"{source}: loss.alpha applies to the lyapunov loss, or to a vanishing "
                     f"envelope; loss.kind = {kind} ignores it")
    if mode == "epoch" and cfg["perturb.redraw_every"] > 1:  # envelopes differ per sample
        probs.append(f"{source}: perturb.redraw_every > 1 needs mode.kind = theory; "
                     "epoch mode draws fresh noise for every sample")
    return probs


def load_config(path) -> dict:
    with open(path) as fh:
        text = fh.read()
    return config_from_text(text, source=str(path))
