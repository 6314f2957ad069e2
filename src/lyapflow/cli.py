"""Command-line front end.

Subcommands::

    lyapflow train         --config c.ini [--out d] [--seed n] [--unsafe-alpha]
    lyapflow compare       --config c.ini ...   settling loss vs L1 vs L2
    lyapflow bound         --config c.ini ...   certificate only, no run
    lyapflow perturb-sweep --config c.ini ...   settle time vs noise level M
    lyapflow alpha-sweep   --config c.ini ...   stability across alpha values
    lyapflow gradcheck     --config c.ini ...   backprop vs finite differences

Exit codes: 0 success, 1 run failure (divergence, refused certificate,
a train run or perturb-sweep row that broke its certificate, failed check),
2 bad configuration or usage.

Artifacts land in --out (or run.out, or the working directory):
trajectory.csv, summary.kv, loss_curve.svg, curves.dat.  trajectory.csv
holds one run: train's run, compare's Lyapunov row, a sweep's last row.
All outputs are byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import datasets as ds_mod
from .bounds import GammaEstimate, certify, estimate_gamma
from .config import load_config
from .control import GainSchedule
from .dynamics import (
    EpochFlow,
    Integrator,
    StoppingRule,
    TheoryFlow,
    initial_loss,
    integrate,
    integrate_batch,
    select_law,
)
from .errors import AssumptionError, ConfigError, GuaranteeError, LyapflowError
from .losses import L1Loss, L2Loss, LyapunovLoss
from .net import Activation, Mlp, forward, loss_gradient, sensitivities
from .perturb import PerturbationSpec
from .svgplot import write_dat, write_svg

__all__ = ["main"]

_GRADCHECK_TOL = 1e-5


# ---------------------------------------------------------------- builders


def _build_dataset(cfg: dict):
    if cfg["data.source"] == "none":
        return None
    if cfg["data.source"] == "blobs":
        data = ds_mod.gen_blobs(cfg["run.seed"], per_class=cfg["data.per_class"],
                                separation=cfg["data.separation"])
    elif cfg["data.source"] == "linreg":
        data = ds_mod.gen_linreg(cfg["run.seed"], count=cfg["data.count"],
                                 noise_sd=cfg["data.noise_sd"])
    else:  # csv
        schema = ds_mod.CsvSchema(cfg["data.features"], cfg["data.targets"])
        data = ds_mod.load_csv(cfg["data.path"], schema)
    if cfg["data.normalize"]:
        data = ds_mod.normalize(data)
    return data


def _build_net(cfg: dict) -> Mlp:
    act = Activation(cfg["net.output_activation"])
    if cfg["net.init"] == "zeros":
        return Mlp.zeros(cfg["net.layers"], output_activation=act)
    return Mlp.random(cfg["net.layers"], seed=cfg["run.seed"], output_activation=act,
                      scale=cfg["net.scale"])


def _build_loss(cfg: dict, law_kind: str, unsafe: bool,
                alpha: float | None = None):
    a = cfg["loss.alpha"] if alpha is None else alpha
    try:
        if cfg["loss.kind"] == "l1":
            return L1Loss()
        if cfg["loss.kind"] == "l2":
            return L2Loss()
        if law_kind == "mlp":
            return LyapunovLoss.multilayer(a, cfg["loss.beta"], allow_unsafe_alpha=unsafe)
        return LyapunovLoss.single_neuron(a, allow_unsafe_alpha=unsafe)
    except ValueError as exc:
        raise ConfigError([f"loss: {exc}"])


def _build_mode(cfg: dict, dataset):
    if cfg["mode.kind"] == "theory" and cfg["mode.sample"] is None:
        return TheoryFlow(np.array(cfg["mode.x"]), np.array(cfg["mode.y_star"]))
    # the run reads the dataset: its width must fit the net, its row exist
    problems = []
    if dataset.n_features != cfg["net.layers"][0]:
        problems.append(f"data: {dataset.n_features} features, "
                        f"net.layers expects {cfg['net.layers'][0]} inputs")
    if dataset.n_targets != cfg["net.layers"][-1]:
        problems.append(f"data: {dataset.n_targets} targets, "
                        f"net.layers expects {cfg['net.layers'][-1]} outputs")
    if cfg["mode.kind"] == "theory" and not 0 <= cfg["mode.sample"] < len(dataset):
        problems.append(f"mode.sample = {cfg['mode.sample']} is out of range: "
                        f"the data has rows 0 to {len(dataset) - 1}")
    if problems:
        raise ConfigError(problems)
    if cfg["mode.kind"] == "epoch":
        return EpochFlow(dataset)
    return TheoryFlow(*dataset.sample(cfg["mode.sample"]))


def _build_integrator(cfg: dict, bound) -> Integrator:
    dt = cfg["integ.dt"]
    if dt is None:  # 1,000 steps to a certificate's T; a run lands inside its band
        dt = bound.T / 1e3 if bound is not None else 1e-3
    # epoch mode always takes per-sample Euler steps; name what runs
    method = "euler" if cfg["mode.kind"] == "epoch" else cfg["integ.method"]
    return Integrator(method=method, dt=dt, t_max=cfg["integ.t_max"],
                      record_stride=cfg["integ.record_stride"],
                      step_budget=cfg["integ.step_budget"])


def _build_spec(cfg: dict, M: float) -> PerturbationSpec:
    """The config's input noise at level M: perturb.mode's envelope (a sweep
    without one builds vanishing envelopes), whose exponent is loss.alpha."""
    mode = cfg["perturb.mode"] or "vanishing"
    alpha = cfg["loss.alpha"] if mode == "vanishing" else None
    return PerturbationSpec(mode, M, alpha, cfg["run.seed"], cfg["perturb.redraw_every"])


@dataclass
class Problem:
    """What a command runs, decided once from the config by ``resolve``."""

    mlp: Mlp
    law: str            # single_neuron | mlp | baseline
    loss: object
    mode: object        # TheoryFlow | EpochFlow
    gains: GainSchedule
    stop: StoppingRule
    noise: object       # PerturbationSpec | None
    gamma: object       # GammaEstimate, or the error that stopped its estimate
    E0: float           # loss at the initial weights on the clean inputs
    integ: Integrator = None  # set by resolve, for every command

    def certificate(self, noise) -> tuple:
        """(bound, None) or (None, reason) for a run under `noise` (or none)."""
        return certify(self.E0, self.gains, self.gamma, self.loss, self.law, noise,
                       epoch=isinstance(self.mode, EpochFlow))


def resolve(cfg: dict, args) -> Problem:
    """The one place that decides a run's law, certificate inputs, noise and
    time step."""
    dataset = _build_dataset(cfg)
    mlp = _build_net(cfg)
    law = select_law(mlp, cfg["loss.kind"] == "lyapunov")
    if cfg["loss.beta"] is not None and law != "mlp":
        raise ConfigError([f"loss.beta applies to the layered law only; this run "
                           f"follows the {law} law"])
    loss = _build_loss(cfg, law, args.unsafe_alpha)
    mode = _build_mode(cfg, dataset)
    inputs = mode.dataset.inputs if isinstance(mode, EpochFlow) else mode.x
    try:
        gamma = (GammaEstimate(cfg["bound.gamma"]) if cfg["bound.gamma"] is not None
                 else estimate_gamma(inputs))
    except (AssumptionError, ValueError) as exc:
        gamma = exc
    noise = _build_spec(cfg, cfg["perturb.M"]) if cfg["perturb.mode"] else None
    prob = Problem(mlp, law, loss, mode, GainSchedule.uniform(cfg["gains.k"]),
                   StoppingRule(cfg["stop.epsilon"]), noise, gamma, initial_loss(mlp, mode, loss))
    # one rule for every command: T/1e3 under the noise-free certificate,
    # else the 1e-3 fallback.  loss.alpha = 0 (an alpha-sweep's chatter
    # demo) has none; the first non-zero sweep level certifies instead
    sized = prob
    level = next((a for a in cfg["sweep.alphas"] if a > 0), None)
    if cfg["loss.alpha"] == 0 and level is not None:
        level_loss = _build_loss(cfg, law, args.unsafe_alpha, alpha=level)
        sized = replace(prob, loss=level_loss, E0=initial_loss(mlp, mode, level_loss))
    prob.integ = _build_integrator(cfg, sized.certificate(None)[0])
    return prob


# ---------------------------------------------------------------- output


def _write_kv(path, lines) -> None:
    # every command writes summary.kv first: a refused command leaves no --out
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _num(v) -> str:
    return repr(float(v))


def _traj_lines(prefix: str, traj, kept: str | None = None) -> list:
    lines = [
        f"{prefix}records = {traj.n_records()}",
        f"{prefix}final_t = {_num(traj.t[-1])}",
        f"{prefix}final_E = {_num(traj.E[-1])}",
        f"{prefix}settled = {'true' if traj.settled_at is not None else 'false'}",
        f"{prefix}settled_at = "
        + (_num(traj.settled_at) if traj.settled_at is not None else "none"),
    ]
    if kept is not None:
        lines.append(f"{prefix}bound.kept = {kept}")
    lines.append(f"{prefix}monotone_violations = {traj.monotone_violations()}")
    return lines


def _kept(T: float, traj, dt: float) -> str:
    """Whether a run kept its certificate T: 'false' if it is unsettled at T
    or settled after T plus one step, 'unknown' if it stopped unsettled
    before T, else 'true'."""
    if traj.settled_at is not None:
        return "true" if traj.settled_at <= T + dt else "false"
    return "false" if traj.t[-1] >= T else "unknown"


def _plot_series(out: Path, series, title: str) -> None:
    positives = [y for _, _, ys in series for y in ys if y > 0]
    all_pos = all(y > 0 for _, _, ys in series for y in ys)
    log_y = bool(all_pos and positives and max(positives) / min(positives) > 1e3)
    write_svg(out / "loss_curve.svg", series, title=title, log_y=log_y)
    write_dat(out / "curves.dat", series)


# ---------------------------------------------------------------- commands


def _delivered(outcomes):
    """Each run's trajectory in order; a failed run raises its error when
    reached, as if the runs had been integrated one after another."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        yield outcome


def _cmd_train(cfg: dict, args, out: Path) -> int:
    """One run, held against its settling-time certificate."""
    prob = resolve(cfg, args)
    loss, spec = prob.loss, prob.noise
    bound, refusal = prob.certificate(spec)

    traj = integrate(prob.mlp, prob.mode, loss, prob.gains, prob.integ, prob.stop,
                     noise=spec)

    lines = [
        "command = train",
        f"seed = {cfg['run.seed']}",
        f"loss = {loss.name}",
        f"law = {prob.law}",
        f"mode = {cfg['mode.kind']}",
        f"method = {prob.integ.method}",
        f"dt = {_num(prob.integ.dt)}",
        f"epsilon = {_num(prob.stop.epsilon)}",
        f"E0 = {_num(prob.E0)}",
    ]
    if isinstance(loss, LyapunovLoss):
        lines += [f"alpha = {_num(loss.alpha)}", f"beta = {_num(loss.beta)}"]
    if spec is not None:
        lines += [f"perturb.mode = {spec.mode}", f"perturb.M = {_num(spec.M)}"]
    if bound is not None:
        lines += ["bound." + ln for ln in bound.kv_lines()]
    else:
        lines.append(f"bound = none ({refusal})")
    kept = None if bound is None else _kept(bound.T, traj, prob.integ.dt)
    lines += _traj_lines("", traj, kept)
    _write_kv(out / "summary.kv", lines)
    traj.to_csv(out / "trajectory.csv")
    _plot_series(out, [(f"{loss.name} loss", traj.t.tolist(), traj.E.tolist())],
                 title="training loss")

    print(f"train: {traj.n_records()} records -> {out / 'trajectory.csv'}")
    if traj.settled_at is not None:
        print(f"settled at t = {traj.settled_at:.6g}"
              + (f" (bound T = {bound.T:.6g})" if bound else ""))
    else:
        print(f"did not settle by t_max = {prob.integ.t_max:.6g}"
              f" (final E = {traj.E[-1]:.6g})")
    if kept == "false":
        state = (f"settled at t = {traj.settled_at:.6g}, after T = {bound.T:.6g} "
                 f"plus one step" if traj.settled_at is not None
                 else f"was unsettled at T = {bound.T:.6g} (final E = {traj.E[-1]:.6g})")
        raise GuaranteeError(f"the run broke its certificate: it {state}")
    return 0


def _cmd_compare(cfg: dict, args, out: Path) -> int:
    """Settling loss vs L1 vs L2."""
    prob = resolve(cfg, args)
    if prob.law == "baseline":
        raise ConfigError(["compare needs loss.kind = lyapunov as the reference"])
    if prob.noise is not None:
        raise ConfigError(["compare runs noise-free; remove perturb.mode"])

    losses = [prob.loss, L1Loss(), L2Loss()]
    trajs = integrate_batch(prob.mlp, prob.mode, losses, prob.gains, prob.integ, prob.stop)
    runs = [(loss.name, traj) for loss, traj in zip(losses, _delivered(trajs))]

    lines = [
        "command = compare",
        f"seed = {cfg['run.seed']}",
        f"mode = {cfg['mode.kind']}",
        f"dt = {_num(prob.integ.dt)}",
        f"epsilon = {_num(prob.stop.epsilon)}",
        f"alpha = {_num(prob.loss.alpha)}",
        f"beta = {_num(prob.loss.beta)}",
    ]
    for name, traj in runs:
        lines += _traj_lines(f"{name}.", traj)
    settle_times = {n: t.settled_at for n, t in runs}
    finishers = {n: s for n, s in settle_times.items() if s is not None}
    if finishers:
        winner = min(finishers, key=finishers.get)
        lines.append(f"first_to_epsilon = {winner}")
    else:
        lines.append("first_to_epsilon = none")
    _write_kv(out / "summary.kv", lines)

    runs[0][1].to_csv(out / "trajectory.csv")
    series = [(name, traj.t.tolist(), traj.E.tolist()) for name, traj in runs]
    _plot_series(out, series, title="loss comparison")

    for name, traj in runs:
        state = (f"settled at t = {traj.settled_at:.6g}"
                 if traj.settled_at is not None
                 else f"E = {traj.E[-1]:.6g} at t_max")
        print(f"compare: {name:9s} {state}")
    return 0


def _cmd_bound(cfg: dict, args, out: Path) -> int:
    """Certificate only, no run."""
    prob = resolve(cfg, args)
    lines = ["command = bound", f"seed = {cfg['run.seed']}", f"E0 = {_num(prob.E0)}"]
    bound, refusal = prob.certificate(prob.noise)
    if bound is None:
        lines.append(f"bound = none ({refusal})")
        _write_kv(out / "summary.kv", lines)
        print(f"bound: refused ({refusal})")
        return 1
    lines += ["bound." + ln for ln in bound.kv_lines()]
    _write_kv(out / "summary.kv", lines)
    print(bound.table())
    return 0


def _cmd_perturb_sweep(cfg: dict, args, out: Path) -> int:
    """Settle time vs noise level M."""
    levels = cfg["sweep.m_values"]
    if not levels:
        raise ConfigError(["perturb-sweep needs sweep.m_values"])
    prob = resolve(cfg, args)
    specs = [_build_spec(cfg, m) for m in levels]
    certs = [prob.certificate(spec) for spec in specs]
    trajs = integrate_batch(prob.mlp, prob.mode, prob.loss, prob.gains, prob.integ, prob.stop,
                            noises=specs)

    lines = [
        "command = perturb-sweep",
        f"seed = {cfg['run.seed']}",
        f"dt = {_num(prob.integ.dt)}",
        f"k_min = {_num(prob.gains.k_min)}",
        f"levels = {len(levels)}",
    ]
    series, broken = [], []
    print(f"{'M':>10s} {'certified':>9s} {'T_bound':>12s} {'settled_at':>12s} "
          f"{'final_E':>12s} {'kept':>7s}")
    for i, (spec, (bnd, refusal), traj) in enumerate(zip(specs, certs, _delivered(trajs))):
        m = spec.M
        certified = bnd is not None
        p = f"row{i}."
        lines += [f"{p}M = {_num(m)}", f"{p}certified = {'true' if certified else 'false'}"]
        if certified:
            lines.append(f"{p}T_bound = {_num(bnd.T)}")
            if bnd.heuristic:
                lines.append(f"{p}heuristic = true")
        else:
            lines += [f"{p}T_bound = none", f"{p}note = {refusal}"]
        kept = _kept(bnd.T, traj, prob.integ.dt) if certified else None
        if kept == "false":
            broken.append(f"{m:.6g}")
        lines += _traj_lines(p, traj, kept)
        series.append((f"M={m:g}", traj.t.tolist(), traj.E.tolist()))
        # an epoch-mode certificate is flagged in the table as in summary.kv
        shown = "heuristic" if certified and bnd.heuristic else str(certified)
        print(f"{m:10.4g} {shown:>9s} "
              f"{(f'{bnd.T:.6g}' if certified else 'none'):>12s} "
              f"{(f'{traj.settled_at:.6g}' if traj.settled_at is not None else 'none'):>12s} "
              f"{traj.E[-1]:12.6g} {kept or 'none':>7s}")
    _write_kv(out / "summary.kv", lines)
    trajs[-1].to_csv(out / "trajectory.csv")  # the last level's run
    _plot_series(out, series, title="settling under input noise")
    if broken:
        raise GuaranteeError(f"the sweep broke its certificate at M = {', '.join(broken)}")
    return 0


def _cmd_alpha_sweep(cfg: dict, args, out: Path) -> int:
    """Stability across alpha values."""
    alphas = cfg["sweep.alphas"]
    if not alphas:
        raise ConfigError(["alpha-sweep needs sweep.alphas"])
    if any(a == 0.0 for a in alphas) and not args.unsafe_alpha:
        raise ConfigError(
            ["sweep.alphas includes 0; pass --unsafe-alpha to run the chatter demo"]
        )
    prob = resolve(cfg, args)
    if prob.law == "baseline":
        raise ConfigError(["alpha-sweep needs loss.kind = lyapunov"])
    if prob.noise is not None:
        raise ConfigError(["alpha-sweep runs noise-free; remove perturb.mode"])
    # every level's loss is built, or refused, before the first row prints
    losses = [_build_loss(cfg, prob.law, args.unsafe_alpha, alpha=a) for a in alphas]
    trajs = integrate_batch(prob.mlp, prob.mode, losses, prob.gains, prob.integ, prob.stop)

    lines = ["command = alpha-sweep", f"seed = {cfg['run.seed']}",
             f"dt = {_num(prob.integ.dt)}", f"levels = {len(alphas)}"]
    series = []
    print(f"{'alpha':>7s} {'violations':>10s} {'settled_at':>12s} {'final_E':>12s}")
    for i, (a, traj) in enumerate(zip(alphas, _delivered(trajs))):
        p = f"row{i}."
        lines.append(f"{p}alpha = {_num(a)}")
        lines += _traj_lines(p, traj)
        if a == 0.0:
            lines.append(f"{p}note = signum chatter demo; no settling certificate")
        series.append((f"alpha={a:g}", traj.t.tolist(), traj.E.tolist()))
        print(f"{a:7.3g} {traj.monotone_violations():>10d} "
              f"{(f'{traj.settled_at:.6g}' if traj.settled_at is not None else 'none'):>12s} "
              f"{traj.E[-1]:12.6g}")
    _write_kv(out / "summary.kv", lines)
    trajs[-1].to_csv(out / "trajectory.csv")  # the last level's run
    _plot_series(out, series, title="stability across alpha")
    return 0


def _fd_gradient(mlp: Mlp, x, y_star, loss, h: float = 1e-6) -> list:
    work = mlp.copy()
    grads = [np.zeros_like(w) for w in mlp.weights]
    for l, w in enumerate(mlp.weights):
        for idx in np.ndindex(w.shape):
            keep = w[idx]
            work.weights[l][idx] = keep + h
            e_plus = forward(work, x).y - y_star
            work.weights[l][idx] = keep - h
            e_minus = forward(work, x).y - y_star
            work.weights[l][idx] = keep
            grads[l][idx] = (loss.evaluate(e_plus) - loss.evaluate(e_minus)) / (2 * h)
    return grads


def _cmd_gradcheck(cfg: dict, args, out: Path) -> int:
    """Backprop vs finite differences."""
    prob = resolve(cfg, args)
    mlp, loss = prob.mlp, prob.loss
    if isinstance(prob.mode, TheoryFlow):
        x, y_star = prob.mode.x, prob.mode.y_star
    else:
        x, y_star = prob.mode.dataset.sample(0)

    trace = forward(mlp, x)
    analytic = loss_gradient(sensitivities(mlp, trace, y_star, loss), trace)
    numeric = _fd_gradient(mlp, x, y_star, loss)

    worst = 0.0
    for g_a, g_n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(g_a), np.abs(g_n)), 1e-10)
        worst = max(worst, float(np.max(np.abs(g_a - g_n) / denom)))

    ok = worst <= _GRADCHECK_TOL
    _write_kv(out / "summary.kv", [
        "command = gradcheck",
        f"seed = {cfg['run.seed']}",
        f"layers = {','.join(str(n) for n in cfg['net.layers'])}",
        f"loss = {loss.name}",
        f"max_rel_error = {_num(worst)}",
        f"tolerance = {_num(_GRADCHECK_TOL)}",
        f"passed = {'true' if ok else 'false'}",
    ])
    print(f"gradcheck: max rel error = {worst:.3e} "
          f"({'OK' if ok else 'FAIL'} at tol {_GRADCHECK_TOL:g})")
    return 0 if ok else 1


_COMMANDS = {
    "train": _cmd_train,
    "compare": _cmd_compare,
    "bound": _cmd_bound,
    "perturb-sweep": _cmd_perturb_sweep,
    "alpha-sweep": _cmd_alpha_sweep,
    "gradcheck": _cmd_gradcheck,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyapflow",
        description="Finite-time training flows with settling-time certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed from the config")
        p.add_argument("--unsafe-alpha", action="store_true",
                       help="allow alpha = 0 (signum chatter; no guarantees)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: bad config:\n{exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        if args.seed < 0:
            print("error: --seed must be non-negative", file=sys.stderr)
            return 2
        cfg["run.seed"] = args.seed
    if args.out is not None:
        cfg["run.out"] = args.out
    try:
        return _COMMANDS[args.command](cfg, args, Path(cfg["run.out"] or "."))
    except ConfigError as exc:
        print(f"error: bad config:\n{exc}", file=sys.stderr)
        return 2
    except LyapflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
