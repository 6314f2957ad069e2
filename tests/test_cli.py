"""End-to-end runs of the command-line front end, in process.

Every test drives `lyapflow.cli.main` with argv lists and a config file in
tmp_path, then inspects exit codes and the summary.kv / trajectory.csv
artifacts.  Configs are kept small so the whole module stays fast.
"""

import filecmp

import numpy as np
import pytest

from lyapflow.cli import main
from lyapflow.config import parse_kv

# Single sigmoid neuron from zero weights: E0 = |0.5 - 0.48|^1.7 / 1.7,
# settling bound T* ~ 8.9e-3 with unit gain.  Fast and settles cleanly.
SINGLE_NEURON = (
    "net.layers = 4, 1\n"
    "net.init = zeros\n"
    "loss.alpha = 0.7\n"
    "gains.k = 1\n"
    "integ.dt = 1e-6\n"
    "integ.t_max = 0.02\n"
    "integ.record_stride = 10\n"
    "mode.x = 1, -0.6, 0.8, 0.4\n"
    "mode.y_star = 0.48\n"
    "bound.gamma = 1\n"
)

ARTIFACTS = ("trajectory.csv", "summary.kv", "loss_curve.svg", "curves.dat")

LAYERED_REFUSAL = "none (no certificate for the layered (mlp) law"


def _mlp_compare(seed, t_max=4.0):
    """The 4-8-1 identity-output problem of the mlp_compare benchmark."""
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
    return ("net.layers = 4, 8, 1\nnet.output_activation = identity\nnet.init = random\n"
            "net.scale = 0.5\nloss.alpha = 0.7\ngains.k = 1.0\ninteg.method = rk4\n"
            f"integ.dt = 0.001\ninteg.t_max = {t_max!r}\ninteg.record_stride = 10\n"
            f"mode.x = {', '.join(repr(float(v)) for v in x)}\nmode.y_star = -3.0\n"
            f"run.seed = {seed}\n")


def _write(tmp_path, text, name="run.kv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _summary(out_dir):
    return parse_kv((out_dir / "summary.kv").read_text())


def test_train_writes_all_artifacts(tmp_path):
    cfg = _write(tmp_path, SINGLE_NEURON)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0

    for name in ARTIFACTS:
        assert (out / name).exists(), name

    kv = _summary(out)
    assert kv["command"] == "train"
    assert kv["loss"] == "lyapunov"
    assert kv["law"] == "single_neuron"
    assert kv["settled"] == "true"
    # certificate uses the conservative single-coordinate rate k_min * gamma,
    # so the actual settle (driven by the full sum over inputs) lands earlier
    assert float(kv["settled_at"]) <= float(kv["bound.T"])
    assert float(kv["bound.T"]) == pytest.approx(0.0248840, rel=1e-3)
    assert float(kv["settled_at"]) == pytest.approx(8.887e-3, rel=1e-2)
    assert int(kv["monotone_violations"]) == 0

    svg = (out / "loss_curve.svg").read_text()
    assert svg.startswith("<svg ") and "<polyline" in svg
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,E,settle_flag,control_norm,err_0"


def test_train_is_byte_deterministic(tmp_path):
    cfg = _write(tmp_path, SINGLE_NEURON)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ARTIFACTS:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, SINGLE_NEURON + "run.seed = 3\n")
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    assert _summary(out)["seed"] == "7"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "-2"]) == 2


@pytest.mark.parametrize("command", ["train", "compare", "bound", "perturb-sweep",
                                     "alpha-sweep", "gradcheck"])
def test_every_subcommand_has_help_text(capsys, command):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    listed = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines()
                  if len(line.split(None, 1)) == 2)
    assert listed.get(command, "").strip(), f"lyapflow --help gives {command} no text"


def test_bad_configs_exit_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.kv")]) == 2
    assert "cannot read" in capsys.readouterr().err

    cfg = _write(tmp_path, "gains.q = 3\nmode.x = 1\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "gains.q" in err and "y_star" in err

    # a negative count once reached numpy and died with its traceback
    cfg = _write(tmp_path, "net.layers = 1, 1\nmode.kind = epoch\ndata.source = linreg\n"
                 "data.count = -1\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "bad value for 'data.count': must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BLOBS = "data.source = blobs\ndata.per_class = 5\nnet.init = zeros\n"  # 4 -> 1, 10 rows


@pytest.mark.parametrize("command", ["train", "bound"])
@pytest.mark.parametrize("text,message", [
    pytest.param("net.layers = 4, 1\nmode.sample = 1000\n",
                 "mode.sample = 1000 is out of range", id="sample-past-the-end"),
    pytest.param("net.layers = 4, 1\nmode.sample = -1\n",
                 "mode.sample = -1 is out of range", id="negative-sample"),
    pytest.param("net.layers = 2, 1\nmode.sample = 0\n",
                 "4 features, net.layers expects 2 inputs", id="sample-too-wide"),
    pytest.param("net.layers = 3, 1\nmode.kind = epoch\n",
                 "4 features, net.layers expects 3 inputs", id="epoch-too-wide"),
    pytest.param("net.layers = 4, 2\nmode.kind = epoch\nloss.kind = l2\n",
                 "1 targets, net.layers expects 2 outputs", id="epoch-too-few-targets"),
])
def test_data_that_does_not_fit_the_run_exits_2(tmp_path, capsys, command, text, message):
    cfg = _write(tmp_path, BLOBS + "integ.dt = 1e-3\ninteg.t_max = 0.05\n" + text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_bound_command_reports_certificate(tmp_path, capsys):
    cfg = _write(tmp_path, SINGLE_NEURON)
    out = tmp_path / "out"
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
    kv = _summary(out)
    assert float(kv["bound.T"]) > 0
    assert kv["bound.flavor"] == "single_neuron"
    assert not (out / "trajectory.csv").exists()  # certificate only, no run
    assert "T" in capsys.readouterr().out


def test_bound_refuses_overpowering_noise(tmp_path, capsys):
    cfg = _write(tmp_path, SINGLE_NEURON
                 + "perturb.mode = vanishing\nperturb.M = 2.0\n")
    out = tmp_path / "out"
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 1
    assert "refused" in capsys.readouterr().out
    assert "bound = none" in (out / "summary.kv").read_text()


def test_bias_unit_gamma_gets_no_single_neuron_certificate(tmp_path, capsys):
    # with gamma = 1 from the bias unit the certificate read T = 0.0249,
    # yet this run settles near t = 0.166: the frozen bias weight excites
    # nothing.  The key is refused when the config is read; the data's own
    # gamma = 0.1 gives a certificate the run keeps.
    text = (
        "net.layers = 2, 1\n"
        "net.init = zeros\n"
        "loss.alpha = 0.7\n"
        "gains.k = 1\n"
        "integ.dt = 1e-4\n"
        "integ.t_max = 0.25\n"
        "integ.record_stride = 100\n"
        "stop.epsilon = 1e-6\n"
        "mode.x = 0.1, 0.05\n"
        "mode.y_star = 0.48\n"
    )
    cfg = _write(tmp_path, text + "bound.gamma_source = bias_unit\n")
    out = tmp_path / "out"
    for command in ("bound", "train"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "unknown key 'bound.gamma_source'" in capsys.readouterr().err
    assert not (out / "summary.kv").exists()

    assert main(["train", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    kv = _summary(out)
    assert kv["bound.flavor"] == "single_neuron" and kv["bound.gamma"] == "0.1"
    assert kv["settled"] == "true" and 0.1 < float(kv["settled_at"]) <= float(kv["bound.T"])


@pytest.mark.parametrize("text, removed, flavor, settles_at", [
    # one sigmoid unit: the layered certificate read T = 0.1532, the run
    # settles at 0.2488 and the single-neuron certificate gives 0.24884
    ("net.layers = 2, 1\nnet.init = zeros\nmode.x = 2, 0\nmode.y_star = 0.9\n",
     "bound.flavor = mlp", "single_neuron", 0.2488),
    # 2-3-1 identity net: gamma = 1 from the bias unit read T = 0.3737 and the
    # run settles at 6.4; the layered law now gets no certificate at all
    ("net.layers = 2, 3, 1\nnet.output_activation = identity\nmode.x = 0.1, 0.05\n"
     "mode.y_star = 0.9\ninteg.dt = 5e-4\n",
     "bound.gamma_source = bias_unit", None, 6.4),
    # the README neuron: the layered law on its one sigmoid unit read
    # T = 0.00935 and had not settled at t = 5; the single-neuron run settles
    # at 0.00888 under T = 0.02488
    ("net.layers = 4, 1\nnet.init = zeros\nmode.x = 1, -0.6, 0.8, 0.4\n"
     "mode.y_star = 0.48\nbound.gamma = 1\n",
     "loss.law = mlp", "single_neuron", 0.00888),
], ids=["flavor", "gamma_source", "law"])
def test_a_config_cannot_pick_a_certificate_its_run_breaks(tmp_path, capsys, text, removed,
                                                           flavor, settles_at):
    out = tmp_path / "out"
    cfg = _write(tmp_path, text + removed + "\n")
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 2
    assert f"unknown key '{removed.split()[0]}'" in capsys.readouterr().err

    refused = flavor is None
    code = 1 if refused else 0
    assert main(["bound", "--config", _write(tmp_path, text), "--out", str(out)]) == code
    kv = _summary(out)
    if refused:
        assert "bound.T" not in kv and kv["bound"].startswith(LAYERED_REFUSAL)
    else:
        assert kv["bound.flavor"] == flavor
        assert float(kv["bound.T"]) > settles_at


@pytest.mark.parametrize("text, law", [
    (SINGLE_NEURON, "single_neuron"),
    (SINGLE_NEURON.replace("loss.alpha = 0.7\n", "") + "loss.kind = l2\n", "baseline"),
], ids=["single_neuron", "baseline"])
def test_loss_beta_needs_the_layered_law(tmp_path, capsys, text, law):
    # the single-neuron law once dropped it silently: bound printed
    # beta = alpha/(alpha+1) and exited 0
    out = tmp_path / "out"
    cfg = _write(tmp_path, text + "loss.beta = 0.1\n")
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 2
    assert f"loss.beta applies to the layered law only; this run follows the {law} law" \
        in capsys.readouterr().err
    assert not out.exists()


def test_vanishing_envelope_defaults_to_loss_alpha_for_baseline_losses(tmp_path):
    # an L2 run once took the envelope exponent 0.7, whatever loss.alpha said
    base = ("net.layers = 4, 1\nnet.init = zeros\nloss.kind = l2\n"
            "mode.x = 1, -0.6, 0.8, 0.4\nmode.y_star = 0.48\n"
            "integ.dt = 1e-3\ninteg.t_max = 0.05\nperturb.mode = vanishing\nperturb.M = 0.5\n")
    runs = {}
    for name, extra in (("0.2", "loss.alpha = 0.2\n"), ("0.7", "loss.alpha = 0.7\n"),
                        ("default", "")):
        runs[name] = tmp_path / name
        cfg = _write(tmp_path, base + extra, name=f"{name}.kv")
        assert main(["train", "--config", cfg, "--out", str(runs[name])]) == 0
    traj = {name: (out / "trajectory.csv").read_bytes() for name, out in runs.items()}
    assert traj["0.2"] != traj["0.7"] == traj["default"]


def test_epoch_mode_train_reports_euler(tmp_path):
    cfg = _write(
        tmp_path,
        "net.layers = 4, 1\n"
        "net.init = zeros\n"
        "integ.method = rk4\n"
        "integ.dt = 1e-3\n"
        "integ.t_max = 0.05\n"
        "mode.kind = epoch\n"
        "data.source = blobs\n"
        "data.per_class = 5\n",
    )
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    kv = _summary(out)
    assert kv["mode"] == "epoch"
    assert kv["method"] == "euler"   # per-sample Euler steps are what ran


def test_bound_on_dataset_mode_is_flagged_heuristic(tmp_path):
    cfg = _write(
        tmp_path,
        "net.layers = 4, 1\n"
        "net.init = zeros\n"
        "mode.kind = epoch\n"
        "data.source = blobs\n"
        "data.per_class = 5\n",
    )
    out = tmp_path / "out"
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
    assert _summary(out)["bound.heuristic"] == "true"


def test_gradcheck_passes_on_random_net(tmp_path, capsys):
    # the second input is large: a fixed step of 1e-6 in a weight moved its
    # pre-activation by 0.05 and failed a correct back-propagation
    for run, text in enumerate((
        "net.layers = 3, 5, 2\n"
        "net.output_activation = identity\n"
        "run.seed = 1\n"
        "mode.x = 0.8, -0.4, 0.3\n"
        "mode.y_star = -1, 2\n",
        "net.layers = 2, 1\n"
        "net.init = zeros\n"
        "mode.x = 50000, 50000\n"
        "mode.y_star = 0.2\n",
    )):
        cfg = _write(tmp_path, text)
        out = tmp_path / f"out{run}"
        assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == 0
        kv = _summary(out)
        assert kv["passed"] == "true"
        assert float(kv["max_rel_error"]) < 1e-5
        assert "OK" in capsys.readouterr().out


def test_alpha_sweep_guards_alpha_zero(tmp_path, capsys):
    base = (
        "net.layers = 4, 1\n"
        "net.init = zeros\n"
        "gains.k = 1\n"
        "integ.method = euler\n"
        "integ.dt = 1e-6\n"
        "integ.t_max = 0.01\n"
        # stride 1: the signum chatter flips sign every step, so coarser
        # (especially even) strides alias the oscillation away
        "integ.record_stride = 1\n"
        "mode.x = 1, -0.6, 0.8, 0.4\n"
        "mode.y_star = 0.48\n"
        "sweep.alphas = 0, 0.7\n"
    )
    cfg = _write(tmp_path, base)
    out = tmp_path / "out"
    assert main(["alpha-sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "--unsafe-alpha" in capsys.readouterr().err

    assert main(["alpha-sweep", "--config", cfg, "--out", str(out),
                 "--unsafe-alpha"]) == 0
    kv = _summary(out)
    assert kv["row0.alpha"] == "0.0"
    assert "chatter" in kv["row0.note"]
    assert int(kv["row0.monotone_violations"]) >= 1   # signum law rattles
    assert int(kv["row1.monotone_violations"]) == 0   # fractional law glides
    assert kv["row1.settled"] == "true"


@pytest.mark.parametrize("net,levels,reason", [
    ("", "sweep.alphas = 0.5, 1.5\n", "sweep.alphas entries must be finite"),
    ("", "sweep.alphas = 0.5, nan\n", "sweep.alphas entries must be finite"),
    # the second level's loss is refused: alpha + beta >= 1 on the layered law
    ("net.layers = 4, 3, 1\nnet.output_activation = identity\n",
     "loss.alpha = 0.3\nloss.beta = 0.5\nsweep.alphas = 0.3, 0.8\n", "alpha + beta < 1"),
])
def test_alpha_sweep_refuses_a_bad_level_before_any_row(tmp_path, capsys, net, levels, reason):
    # a bad level once ran and printed the levels before it, then exited 2
    cfg = _write(tmp_path, (net or "net.layers = 4, 1\nnet.init = zeros\n")
                 + "integ.method = euler\ninteg.dt = 1e-4\ninteg.t_max = 0.01\n"
                 "mode.x = 1, -0.6, 0.8, 0.4\nmode.y_star = 0.48\n" + levels)
    assert main(["alpha-sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err
    assert not (tmp_path / "out" / "summary.kv").exists()


def test_perturb_sweep_flags_unguaranteed_level(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "net.layers = 2, 1\n"
        "net.init = zeros\n"
        "gains.k = 1\n"
        "integ.method = euler\n"
        "integ.dt = 5e-7\n"
        "integ.t_max = 0.01\n"
        "integ.record_stride = 100\n"
        "stop.epsilon = 1e-6\n"
        "mode.x = 50, 40\n"
        "mode.y_star = 0.3\n"
        "perturb.mode = vanishing\n"
        "perturb.M = 0.1\n"
        "sweep.m_values = 0.2, 2.0\n",
    )
    out = tmp_path / "out"
    assert main(["perturb-sweep", "--config", cfg, "--out", str(out)]) == 0
    kv = _summary(out)
    assert kv["row0.certified"] == "true"
    assert kv["row0.settled"] == "true"
    assert float(kv["row0.settled_at"]) <= float(kv["row0.T_bound"])
    assert kv["row1.certified"] == "false"
    # the note is certify's own reason for the refusal
    assert kv["row1.note"] == ("no certificate: k_min = 1.0 must exceed the perturbation "
                               "level M = 2.0")
    table = capsys.readouterr().out
    assert "certified" in table and "0.2" in table


def test_compare_settling_loss_wins(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "net.layers = 2, 1\n"
        "net.init = zeros\n"
        "gains.k = 1\n"
        "integ.method = euler\n"
        "integ.dt = 5e-5\n"
        "integ.t_max = 1.0\n"
        "integ.record_stride = 50\n"
        "stop.epsilon = 1e-6\n"
        "mode.x = 1, 0.5\n"
        "mode.y_star = 0.1\n",
    )
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    kv = _summary(out)
    assert kv["first_to_epsilon"] == "lyapunov"
    assert kv["lyapunov.settled"] == "true"
    assert kv["l1.settled"] == "false"
    assert kv["l2.settled"] == "false"
    # all three curves land in the plot data
    dat = (out / "curves.dat").read_text()
    assert dat.count("#") == 3
    assert "compare" in capsys.readouterr().out

    cfg_l2 = _write(tmp_path, "loss.kind = l2\nmode.x = 1, 0.5\nmode.y_star = 0.1\n"
                    + "net.layers = 2, 1\n", name="l2.kv")
    assert main(["compare", "--config", cfg_l2, "--out", str(out)]) == 2


def test_noisy_run_gets_no_certificate_from_a_bias_unit_gamma(tmp_path, capsys):
    # the perturbed certificate read T = 0.0249 here, yet the run settles
    # near t = 0.163: the single-neuron law freezes the bias weight.  The key
    # is refused when read; the data's gamma = 0.1 gives a sound certificate.
    text = (
        "net.layers = 2, 1\n"
        "net.init = zeros\n"
        "loss.alpha = 0.7\n"
        "gains.k = 1\n"
        "integ.dt = 1e-4\n"
        "integ.t_max = 0.25\n"
        "integ.record_stride = 100\n"
        "stop.epsilon = 1e-6\n"
        "mode.x = 0.1, 0.05\n"
        "mode.y_star = 0.48\n"
        "perturb.mode = vanishing\n"
        "perturb.M = 0\n"
    )
    cfg = _write(tmp_path, text + "bound.gamma_source = bias_unit\n")
    out = tmp_path / "out"
    for command in ("bound", "train"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "unknown key 'bound.gamma_source'" in capsys.readouterr().err
    assert not (out / "summary.kv").exists()

    assert main(["train", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    kv = _summary(out)
    assert kv["bound.flavor"] == "perturbed" and kv["bound.gamma"] == "0.1"
    assert kv["settled"] == "true" and 0.1 < float(kv["settled_at"]) <= float(kv["bound.T"])


THEORY_SAMPLE = "net.layers = 2, 1\nmode.x = 50, 40\nmode.y_star = 0.3\n"
EPOCH_BLOBS = "net.layers = 4, 1\nmode.kind = epoch\ndata.source = blobs\ndata.per_class = 3\n"


@pytest.mark.parametrize("flow,gamma_line", [
    (THEORY_SAMPLE, ""),
    (THEORY_SAMPLE, "bound.gamma = 1.5\n"),
    (EPOCH_BLOBS, "bound.gamma = 1.5\n"),
], ids=["data_min", "user", "epoch"])
def test_bound_and_perturb_sweep_agree_on_T(tmp_path, capsys, flow, gamma_line):
    # both take gamma from the one resolver: the user's value, else the data's;
    # both flag an epoch-mode certificate, which certify alone decides
    base = (
        "net.init = zeros\n"
        "integ.method = euler\n"
        "integ.dt = 1e-5\n"
        "integ.t_max = 1e-3\n"
        "perturb.mode = vanishing\n"
        + flow + gamma_line
    )
    heuristic = "true" if flow == EPOCH_BLOBS else None
    sweep = _write(tmp_path, base + "perturb.M = 0\nsweep.m_values = 0.2, 0.6\n", "s.kv")
    assert main(["perturb-sweep", "--config", sweep, "--out", str(tmp_path / "s")]) == 0
    rows = _summary(tmp_path / "s")
    # the table flags an epoch-mode certificate too
    table = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[1] for line in table] == ["heuristic" if heuristic else "True"] * 2
    for i, m in enumerate(("0.2", "0.6")):
        one = _write(tmp_path, base + f"perturb.M = {m}\n", "b.kv")
        assert main(["bound", "--config", one, "--out", str(tmp_path / "b")]) == 0
        kv = _summary(tmp_path / "b")
        assert kv["bound.gamma"] == ("1.5" if gamma_line else "50.0")
        assert rows[f"row{i}.T_bound"] == kv["bound.T"]
        assert rows[f"row{i}.certified"] == "true"
        assert rows.get(f"row{i}.heuristic") == kv.get("bound.heuristic") == heuristic


# the README single neuron without integ.dt, so the CLI derives it
DERIVED_DT = SINGLE_NEURON.replace("integ.dt = 1e-6\n", "") + (
    "sweep.m_values = 0, 0.2\nsweep.alphas = 0.5, 0.7\n")


@pytest.fixture(scope="module")
def derived_dt_train(tmp_path_factory):
    """summary.kv of `train` on DERIVED_DT, run to its settle."""
    tmp = tmp_path_factory.mktemp("train")
    assert main(["train", "--config", _write(tmp, DERIVED_DT), "--out", str(tmp)]) == 0
    return _summary(tmp)


@pytest.mark.parametrize("command", ["train", "compare", "perturb-sweep", "alpha-sweep"])
def test_each_command_takes_dt_from_the_certificate(tmp_path, derived_dt_train, command):
    # without integ.dt, every command steps at T/1e3 of the noise-free
    # certificate, whatever its alphas and noise levels: no step can cross a
    # settle band, since a run lands inside its band in closed form
    sweep = command.endswith("-sweep")
    text = DERIVED_DT
    if not sweep:  # only dt is checked; stop long before the settle
        text = text.replace("integ.t_max = 0.02\n", "integ.t_max = 2e-4\n")
    cfg = _write(tmp_path, text)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    T = float(_summary(tmp_path / "b")["bound.T"])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    kv = _summary(tmp_path / "c")
    assert float(kv["dt"]) == T / 1e3 == 2.4884030672851023e-05
    if sweep:
        assert kv["row0.settled"] == kv["row1.settled"] == "true"
        # the M = 0 level and the alpha = 0.7 level run exactly as train does
        same = "row0." if command == "perturb-sweep" else "row1."
        assert kv[same + "settled_at"] == derived_dt_train["settled_at"] == "0.00888561160268253"


def test_a_coarse_step_lands_the_run_in_its_band(tmp_path):
    # alpha = 0.5 and gamma = 0.01 certify T = 2.29, so T/1e3 = 2.29e-3 is
    # about a quarter of the settle time.  The run takes two grid steps, then
    # lands at the closed form (|e0| - b) / (k S rs): a stepped run once
    # chattered over its band here and ended unsettled
    cfg = _write(tmp_path, "net.layers = 4, 1\nnet.init = zeros\nloss.alpha = 0.5\n"
                 "gains.k = 1\ninteg.t_max = 0.012\nmode.x = 1, -0.6, 0.8, 0.4\n"
                 "mode.y_star = 0.48\nbound.gamma = 0.01\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    kv = _summary(tmp_path / "out")
    b = (1.5e-9) ** (1 / 1.5)
    v = 2.8 * 1.5 ** (-0.5 / 1.5)
    assert kv["settled"] == "true" and kv["bound.kept"] == "true"
    assert kv["dt"] == "0.002289428485106664" and kv["records"] == "4"
    assert float(kv["final_E"]) <= 1e-9
    assert abs(float(kv["settled_at"]) - (0.02 - b) / v) <= b / v


def test_a_saturated_start_lands_at_once(tmp_path):
    # z0 = 10.35 and sigma'(z0) = 3.2e-5: the law moves z at v / sigma'(z),
    # about 70 in one step at T/1e3, and RK4 from there stepped into the
    # clamp and ended unsettled at T.  That step's first stage would pass z*,
    # so the run lands at t = 0, on the settle a step of 2e-7 reaches after
    # 83,934 records
    cfg = _write(tmp_path, "net.layers = 3, 1\nnet.init = random\nnet.scale = 1.7\n"
                 "run.seed = 220\nloss.alpha = 0.95\ngains.k = 10\nstop.epsilon = 1e-10\n"
                 "mode.x = 1.9, -2.8, 2.5\nmode.y_star = 0.12\ninteg.t_max = 0.05\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    kv = _summary(tmp_path / "out")
    assert kv["records"] == "2" and kv["bound.kept"] == "true"
    e0 = (1.95 * float(kv["E0"])) ** (1 / 1.95)
    b = (1.95e-10) ** (1 / 1.95)
    v = 10 * 7.2 * 1.95 ** (-0.95 / 1.95)
    assert abs(float(kv["settled_at"]) - (e0 - b) / v) <= b / v


def test_no_run_lands_past_its_last_grid_time(tmp_path):
    # the step from t = 665 dt could land at 0.165891, past both t_max =
    # 0.1656 and the last grid time 666 dt = 0.165727; the run takes that
    # step instead and ends unsettled at the last grid time
    cfg = _write(tmp_path, "net.layers = 2, 1\nnet.init = zeros\nloss.alpha = 0.7\n"
                 "gains.k = 1.0\ninteg.t_max = 0.1656\nmode.x = 1.0, 0.5\nmode.y_star = 0.3\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    kv = _summary(tmp_path / "out")
    dt = float(kv["dt"])
    assert kv["records"] == "667" and float(kv["final_t"]) == 666 * dt
    assert kv["settled"] == "false" and kv["settled_at"] == "none"
    assert float(kv["final_E"]) > 1e-9


README_BARE = ("net.layers = 4, 1\nnet.init = zeros\nloss.alpha = 0.7\ngains.k = 1\n"
               "mode.x = 1, -0.6, 0.8, 0.4\nmode.y_star = 0.48\n")


@pytest.mark.parametrize("extra, kept, broke", [
    # the certificate T = 0.0249 holds: the run settles at 0.00889
    ("bound.gamma = 1\ninteg.t_max = 0.02\n", "true", None),
    # gamma = 10 is above every |x_i|: T = 0.00249, the run settles at 0.00889
    ("bound.gamma = 10\ninteg.t_max = 0.02\n", "false", "it settled at t = 0.00888"),
    # the same run, stopped between T and its settle, is unsettled at T
    ("bound.gamma = 10\ninteg.t_max = 0.005\n", "false",
     "it was unsettled at T = 0.0024884 (final E = "),
    # stopped before T, it cannot be judged
    ("bound.gamma = 10\ninteg.t_max = 0.002\n", "unknown", None),
], ids=["kept", "settled-late", "unsettled-at-T", "stopped-before-T"])
def test_train_says_whether_the_run_kept_its_certificate(tmp_path, capsys, extra, kept, broke):
    out = tmp_path / "out"
    code = main(["train", "--config", _write(tmp_path, README_BARE + extra), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == (1 if broke else 0)
    if broke:
        assert err.startswith("error: the run broke its certificate: " + broke)
    # the artifacts are written before a broken certificate exits 1
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    lines = (out / "summary.kv").read_text().splitlines()
    at = lines.index(next(ln for ln in lines if ln.startswith("settled_at = ")))
    assert lines[at + 1] == f"bound.kept = {kept}"


@pytest.mark.parametrize("alpha", ["0.2", "0.3"])
def test_the_small_alpha_readme_runs_settle_in_a_thousand_steps(tmp_path, alpha):
    # these runs once stepped at b / v_max so no step could cross the band:
    # 543,308 records (67 s) at alpha = 0.2 and 136,918 (14 s) at 0.3.  At
    # T/1e3 they land in their band at about a third of T
    text = README_BARE.replace("loss.alpha = 0.7", f"loss.alpha = {alpha}")
    cfg = _write(tmp_path, text + "integ.t_max = 0.03\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    kv = _summary(tmp_path / "out")
    assert kv["settled"] == "true" and kv["bound.kept"] == "true"
    assert int(kv["records"]) <= 1100


@pytest.mark.parametrize("command, rows, alpha", [
    ("alpha-sweep", "sweep.alphas = 0.5, 0.7, 0.3\n", "0.3"),
    ("alpha-sweep", "sweep.alphas = 0.3, 0.7, 0.5\n", "0.5"),
    ("alpha-sweep", "sweep.alphas = 0.3, 0.5, 0.7\n", "0.7"),
    ("perturb-sweep", "sweep.m_values = 0.2, 0\n", "0.7"),
], ids=["alpha-0.3", "alpha-0.5", "alpha-0.7", "M-0"])
def test_a_sweep_row_lands_exactly_as_train_does(tmp_path, command, rows, alpha):
    # the rows of a stack land at different grid steps, each on its own
    # row, so the row a sweep writes (its last) is byte-identical to train
    text = (README_BARE.replace("loss.alpha = 0.7", f"loss.alpha = {alpha}")
            + "integ.t_max = 0.02\n")
    sweep = _write(tmp_path, text + rows, "s.kv")
    assert main([command, "--config", sweep, "--out", str(tmp_path / "s")]) == 0
    assert main(["train", "--config", _write(tmp_path, text), "--out", str(tmp_path / "t")]) == 0
    kv = _summary(tmp_path / "s")
    landed = [kv[f"row{i}.records"] for i in range(int(kv["levels"]))]
    assert all(kv[f"row{i}.settled"] == "true" for i in range(len(landed)))
    assert len(set(landed)) == len(landed)
    assert filecmp.cmp(tmp_path / "s" / "trajectory.csv", tmp_path / "t" / "trajectory.csv",
                       shallow=False)
    if command == "perturb-sweep":  # the written row is judged as train judges its run
        assert kv["row1.bound.kept"] == _summary(tmp_path / "t")["bound.kept"] == "true"


def test_a_loss_alpha_zero_sweep_steps_as_its_first_level_trains(tmp_path):
    # loss.alpha = 0 has no certificate, so every row once stepped at the
    # 1e-3 fallback and the 0.7 row ended unsettled at E = 1.44e-6.  The
    # sweep takes T/1e3 from its alpha = 0.7 level, and that row lands in its
    # band exactly as train does
    text = README_BARE + "integ.t_max = 0.02\nsweep.alphas = 0, 0.7\n"
    sweep = _write(tmp_path, text.replace("loss.alpha = 0.7\n", "loss.alpha = 0\n"), "s.kv")
    assert main(["alpha-sweep", "--config", sweep, "--out", str(tmp_path / "s"),
                 "--unsafe-alpha"]) == 0
    assert main(["train", "--config", _write(tmp_path, text), "--out", str(tmp_path / "t")]) == 0
    kv, train = _summary(tmp_path / "s"), _summary(tmp_path / "t")
    assert kv["dt"] == train["dt"] == "2.4884030672851023e-05"
    assert kv["row1.settled_at"] == train["settled_at"] == "0.00888561160268253"
    assert filecmp.cmp(tmp_path / "s" / "trajectory.csv", tmp_path / "t" / "trajectory.csv",
                       shallow=False)


def test_perturb_sweep_reports_the_lowest_diverging_level(tmp_path, capsys):
    # levels 1 (M = 4) and 3 (M = 6) both diverge, level 3 first (t = 3.13);
    # the sweep still fails with level 1's error after printing row 0 only,
    # as a level-by-level sweep does, and writes no artifacts
    cfg = _write(
        tmp_path,
        "net.layers = 1, 1\n"
        "net.output_activation = identity\n"
        "net.init = zeros\n"
        "loss.kind = l2\n"
        "gains.k = 50\n"
        "integ.method = euler\n"
        "integ.dt = 0.01\n"
        "integ.t_max = 10\n"
        "mode.x = 1.0\n"
        "mode.y_star = 0.5\n"
        "perturb.mode = amplitude\n"
        "perturb.M = 0\n"
        "sweep.m_values = 0, 4, 0.5, 6\n"
        "run.seed = 4\n",
    )
    out = tmp_path / "out"
    assert main(["perturb-sweep", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "         M certified      T_bound   settled_at      final_E    kept\n"
        "         0     False         none         0.01            0    none\n"
    )
    assert captured.err == "error: state diverged (NaN/Inf) at t=7.09\n"
    assert not out.exists()


# a one-input neuron whose noisy level chatters outside its settle band: w
# reaches about -24, so a redraw moves e by up to about 0.04 against b = 5e-4
@pytest.mark.parametrize("y_star, lands", [
    ("1.0005", False), ("-0.0001", False), ("1.3", False), ("0.0", True), ("1.0", True)])
def test_a_target_gets_a_certificate_only_where_the_unit_can_land(tmp_path, y_star, lands):
    # the run lands at y* + sign(e0) b/2, b = 6.9e-6 its settle band: past 1
    # or below 0 no output reaches it.  Such a run printed bound.T = 0.62,
    # ended unsettled with bound.kept = false and exited 1; targets 0 and 1
    # land at b/2 and 1 - b/2 and settle at 0.222, inside T
    text = README_BARE.replace("mode.y_star = 0.48", f"mode.y_star = {y_star}")
    cfg = _write(tmp_path, text + "bound.gamma = 1\ninteg.t_max = 1.0\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    kv = _summary(tmp_path / "out")
    if lands:
        assert kv["bound.kept"] == "true" and float(kv["settled_at"]) < float(kv["bound.T"])
        return
    assert kv["bound"].startswith(f"none (no certificate for target {float(y_star)!r}: "
                                  "the run would land at output ")
    assert "bound.kept" not in kv and kv["settled"] == "false"
    # a sweep refuses its rows for the same reason, and exits 0
    sweep = _write(tmp_path, text + "bound.gamma = 1\ninteg.t_max = 1.0\n"
                   "sweep.m_values = 0, 0.3\n", "s.kv")
    assert main(["perturb-sweep", "--config", sweep, "--out", str(tmp_path / "s")]) == 0
    kv = _summary(tmp_path / "s")
    assert kv["row0.certified"] == kv["row1.certified"] == "false"


BROKEN_SWEEP = (
    "net.layers = 1, 1\nnet.init = zeros\nloss.alpha = 0.6513769671338443\n"
    "gains.k = 1.1245103986668186\nstop.epsilon = 2.2776021573951867e-06\n"
    "mode.x = 0.08275585610399094\nmode.y_star = 0.12181771757377756\n"
    "integ.dt = 0.0053233725914233965\ninteg.t_max = 5.33\n"
)


def test_a_sweep_row_that_broke_its_certificate_fails_the_sweep(tmp_path, capsys):
    # the M = 0.078 row printed certified True, T_bound 5.32337 and settled_at
    # none, and the sweep exited 0.  It exits 1 after writing every artifact,
    # and each row's verdict is the one train gives at that M
    sweep = _write(tmp_path, BROKEN_SWEEP + "sweep.m_values = 0, 0.07824014894821374\n", "s.kv")
    out = tmp_path / "s"
    assert main(["perturb-sweep", "--config", sweep, "--out", str(out), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the sweep broke its certificate at M = 0.0782401\n"
    table = captured.out.splitlines()
    assert table[0].split()[-1] == "kept"
    assert [line.split()[-1] for line in table[1:]] == ["true", "false"]
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    kv = _summary(out)
    assert kv["row0.bound.kept"] == "true" and kv["row1.bound.kept"] == "false"
    assert kv["row1.certified"] == "true" and kv["row1.settled"] == "false"
    for i, m in enumerate(("0", "0.07824014894821374")):
        noise = f"perturb.mode = vanishing\nperturb.M = {m}\n"
        one = _write(tmp_path, BROKEN_SWEEP + noise, "t.kv")
        code = main(["train", "--config", one, "--out", str(tmp_path / "t"), "--seed", "1"])
        kept = _summary(tmp_path / "t")["bound.kept"]
        assert kept == kv[f"row{i}.bound.kept"] and code == (1 if kept == "false" else 0)


@pytest.mark.parametrize("seed, noise, t_max", [
    # the layered certificate read T = 3.084; compare's Lyapunov row settles at 3.282
    (0, "", 4.0),
    # the perturbed certificate read T = 2.913; train settles at 3.04
    (11, "perturb.mode = vanishing\nperturb.M = 0.1\n", 12.0),
], ids=["p0", "p11-vanishing"])
def test_the_layered_law_gets_no_certificate(tmp_path, capsys, seed, noise, t_max):
    # the output-layer gradient carries |e|^alpha, so dE/dt <= -c E^beta
    # fails near the settle, with or without noise.  bound runs no flow.
    cfg = _write(tmp_path, _mlp_compare(seed, t_max) + noise)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert "refused (no certificate for the layered (mlp) law" in capsys.readouterr().out
    kv = _summary(tmp_path / "b")
    assert "bound.T" not in kv and kv["bound"].startswith(LAYERED_REFUSAL)
    # train runs, and names the refusal in place of a certificate
    short = _write(tmp_path, _mlp_compare(seed, 0.01) + noise, "short.kv")
    assert main(["train", "--config", short, "--out", str(tmp_path / "t")]) == 0
    kv = _summary(tmp_path / "t")
    assert kv["law"] == "mlp" and kv["bound"].startswith(LAYERED_REFUSAL)


@pytest.mark.parametrize("command, extra", [
    ("compare", ""),
    ("alpha-sweep", "sweep.alphas = 0.5, 0.7\n"),
], ids=["compare", "alpha-sweep"])
def test_compare_and_alpha_sweep_refuse_input_noise(tmp_path, capsys, command, extra):
    # neither runs noise: compare once wrote the bytes of the noise-free run,
    # and alpha-sweep ran noise-free without a word
    cfg = _write(tmp_path, SINGLE_NEURON + "perturb.mode = vanishing\nperturb.M = 0.5\n"
                 + extra)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{command} runs noise-free; remove perturb.mode" in captured.err
    assert not out.exists()


L2_NEURON = ("net.layers = 4, 1\nnet.init = zeros\nloss.kind = l2\n"
             "mode.x = 1, -0.6, 0.8, 0.4\nmode.y_star = 0.48\n"
             "integ.dt = 1e-3\ninteg.t_max = 0.05\n")


def test_loss_alpha_is_refused_where_nothing_reads_it(tmp_path, capsys):
    # loss.alpha = 0.3 and 0.9 once gave byte-identical L2 artifacts
    out = tmp_path / "out"
    cfg = _write(tmp_path, L2_NEURON + "loss.alpha = 0.3\n")
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert "loss.kind = l2 ignores it" in capsys.readouterr().err
    assert not out.exists()
    # a sweep's vanishing envelope reads it: the level runs as train does
    # under the same envelope
    runs = {}
    for command, noise in (("perturb-sweep", "sweep.m_values = 0.5\n"),
                           ("train", "perturb.mode = vanishing\nperturb.M = 0.5\n")):
        runs[command] = tmp_path / command
        cfg = _write(tmp_path, L2_NEURON + noise + "loss.alpha = 0.2\n", f"{command}.kv")
        assert main([command, "--config", cfg, "--out", str(runs[command])]) == 0
    assert filecmp.cmp(runs["perturb-sweep"] / "trajectory.csv",
                       runs["train"] / "trajectory.csv", shallow=False)


@pytest.mark.parametrize("command, text", [
    ("train", SINGLE_NEURON + "loss.beta = 0.1\n"),
    ("bound", BLOBS + "net.layers = 2, 1\nmode.sample = 0\n"),
    ("compare", L2_NEURON),
    ("perturb-sweep", SINGLE_NEURON),
    ("alpha-sweep", SINGLE_NEURON + "sweep.alphas = 0, 0.7\n"),
], ids=["resolve", "data", "compare-baseline", "no-levels", "alpha-zero"])
def test_a_refused_command_leaves_no_out_directory(tmp_path, capsys, command, text):
    # main once made --out before the command resolved the config, so a
    # refusal left an empty directory behind
    out = tmp_path / "nested" / "out"
    assert main([command, "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    assert "error: bad config" in capsys.readouterr().err
    assert not (tmp_path / "nested").exists()


# criterion 06's neuron: the CLI's own step, T/1e3, is 7.5e-9
HUGE_INPUT = "net.layers = 2, 1\nnet.init = zeros\nmode.x = 50000, 50000\nmode.y_star = 0.2\n"


@pytest.mark.parametrize("command, text, message", [
    ("train", HUGE_INPUT,
     "t_max/dt = 10.0/7.4652092018553e-09 = 1339547189 steps exceeds the budget of 10000000"),
    ("compare", HUGE_INPUT + "integ.dt = 1e-9\n",
     "t_max/dt = 10.0/1e-09 = 10000000000 steps exceeds the budget of 10000000"),
    ("perturb-sweep", HUGE_INPUT + "sweep.m_values = 0, 0.5\n",
     "t_max/dt = 10.0/7.4652092018553e-09 = 1339547189 steps exceeds the budget of 10000000"),
    ("train", EPOCH_BLOBS + "integ.dt = 1e-3\ninteg.t_max = 0.005\n",
     "t_max/dt = 0.005/0.001 = 5 steps is less than one epoch of 6 samples"),
], ids=["train-own-dt", "compare", "perturb-sweep", "short-of-an-epoch"])
def test_a_run_the_step_budget_cannot_hold_exits_2(tmp_path, capsys, command, text, message):
    # these exited 1 as run failures; the config's dt and t_max are at
    # fault, and the command fails before it writes anything
    out = tmp_path / "out"
    cfg = _write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: bad config:\n{message}\n"
    assert not out.exists()
    # bound and gradcheck do not integrate, so they run (gradcheck's finite
    # differences may fail at inputs of 5e4, which exits 1 as a failed check)
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
    assert main(["gradcheck", "--config", cfg, "--out", str(out)]) in (0, 1)
    assert _summary(out)["command"] == "gradcheck"
