from pathlib import Path
from types import SimpleNamespace

import pytest

from lyapflow.cli import _build_spec, main, resolve
from lyapflow.config import _KEYS, config_from_text, load_config, parse_kv
from lyapflow.errors import ConfigError


def test_parse_kv_basics():
    text = (
        "# leading comment\n"
        "a = 1\n"
        "\n"
        "b= two  # trailing comment\n"
        "  c.d =  3,4 \n"
    )
    assert parse_kv(text) == {"a": "1", "b": "two", "c.d": "3,4"}


def test_parse_kv_collects_all_problems():
    text = "a = 1\nno equals here\n = empty\na = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_kv(text, source="f.kv")
    probs = err.value.problems
    assert len(probs) == 3
    assert any("f.kv:2" in p for p in probs)          # missing '='
    assert any("empty key" in p for p in probs)       # line 3
    assert any("duplicate" in p for p in probs)       # line 4


def test_config_happy_path_covers_key_groups():
    cfg = config_from_text(
        "net.layers = 4, 8, 1\n"
        "net.output_activation = identity\n"
        "net.init = zeros\n"
        "loss.kind = lyapunov\n"
        "loss.alpha = 0.5\n"
        "loss.beta = 0.2\n"
        "gains.k = 2.5\n"
        "integ.method = euler\n"
        "integ.dt = 1e-4\n"
        "integ.t_max = 3.0\n"
        "integ.record_stride = 10\n"
        "stop.epsilon = 1e-6\n"
        "mode.kind = theory\n"
        "mode.x = 1, 0.5, -0.2, 0\n"
        "mode.y_star = -3\n"
        "bound.gamma = 0.5\n"
        "run.seed = 42\n"
        "run.out = /tmp/somewhere\n"
    )
    assert cfg["net.layers"] == (4, 8, 1)
    assert cfg["net.output_activation"] == "identity"
    assert cfg["net.init"] == "zeros"
    assert cfg["loss.alpha"] == 0.5 and cfg["loss.beta"] == 0.2
    assert cfg["gains.k"] == 2.5
    assert cfg["integ.method"] == "euler"
    assert cfg["integ.dt"] == 1e-4
    assert cfg["integ.record_stride"] == 10
    assert cfg["stop.epsilon"] == 1e-6
    assert cfg["mode.x"] == (1.0, 0.5, -0.2, 0.0)
    assert cfg["mode.y_star"] == (-3.0,)
    assert cfg["bound.gamma"] == 0.5
    assert cfg["run.seed"] == 42
    assert cfg["run.out"] == "/tmp/somewhere"


def test_config_defaults():
    cfg = config_from_text("mode.x = 0.5\nmode.y_star = 0.5\n")
    assert cfg["net.layers"] == (1, 1)
    assert cfg["loss.kind"] == "lyapunov" and cfg["loss.alpha"] == 0.7 and cfg["loss.beta"] is None
    assert cfg["integ.method"] == "rk4" and cfg["integ.dt"] is None
    assert cfg["mode.kind"] == "theory" and cfg["run.seed"] == 0


def test_unknown_key_and_bad_value_reported_together():
    with pytest.raises(ConfigError) as err:
        config_from_text(
            "mode.x = 1\nmode.y_star = 0.5\n"
            "integ.method = sympletic\n"     # bad choice
            "gains.q = 3\n"                  # unknown key
            "stop.epsilon = soon\n"          # unparsable float
        )
    probs = err.value.problems
    assert len(probs) == 3
    assert any("gains.q" in p for p in probs)
    assert any("integ.method" in p for p in probs)
    assert any("stop.epsilon" in p for p in probs)


def test_theory_mode_cross_checks():
    with pytest.raises(ConfigError, match="mode.x/mode.y_star or mode.sample"):
        config_from_text("mode.kind = theory\n")
    with pytest.raises(ConfigError, match="given together"):
        config_from_text("mode.x = 1\n")
    with pytest.raises(ConfigError, match="not both"):
        config_from_text(
            "mode.x = 1\nmode.y_star = 0.5\nmode.sample = 0\ndata.source = blobs\n"
        )
    with pytest.raises(ConfigError, match="needs a data.source"):
        config_from_text("mode.sample = 0\n")


def test_shape_cross_checks():
    with pytest.raises(ConfigError, match="mode.x has 2"):
        config_from_text("net.layers = 3, 1\nmode.x = 1, 2\nmode.y_star = 0.5\n")
    with pytest.raises(ConfigError, match="mode.y_star has 2"):
        config_from_text("mode.x = 1\nmode.y_star = 0.5, 0.5\n")
    with pytest.raises(ConfigError, match="at least input,output"):
        config_from_text("net.layers = 4\nmode.x = 1\nmode.y_star = 0.5\n")


def test_epoch_and_csv_cross_checks():
    with pytest.raises(ConfigError, match="epoch mode needs"):
        config_from_text("mode.kind = epoch\n")
    with pytest.raises(ConfigError) as err:
        config_from_text("mode.kind = epoch\ndata.source = csv\n")
    probs = err.value.problems
    assert any("data.path" in p for p in probs)
    assert any("data.features" in p for p in probs)


def test_perturb_and_positivity_cross_checks():
    with pytest.raises(ConfigError, match="needs perturb.M"):
        config_from_text("mode.x = 1\nmode.y_star = 0.5\nperturb.mode = vanishing\n")
    with pytest.raises(ConfigError, match="perturb.M needs perturb.mode"):
        config_from_text("mode.x = 1\nmode.y_star = 0.5\nperturb.M = 0.5\n")
    with pytest.raises(ConfigError, match="integ.dt"):
        config_from_text("mode.x = 1\nmode.y_star = 0.5\ninteg.dt = -1\n")
    with pytest.raises(ConfigError, match="gains.k"):
        config_from_text("mode.x = 1\nmode.y_star = 0.5\ngains.k = 0\n")


def test_epoch_mode_rejects_held_noise(tmp_path, capsys):
    # epoch mode draws a fresh offset for every sample: an offset held over
    # the next samples would have to fit envelopes it was not drawn from
    epoch = "mode.kind = epoch\ndata.source = blobs\nperturb.mode = vanishing\nperturb.M = 0.1\n"
    with pytest.raises(ConfigError, match="redraw_every > 1 needs mode.kind = theory"):
        config_from_text(epoch + "perturb.redraw_every = 2\n")
    config_from_text(epoch + "perturb.redraw_every = 1\n")
    config_from_text("mode.x = 1\nmode.y_star = 0.5\nperturb.redraw_every = 3\n")
    with pytest.raises(ConfigError, match="perturb.redraw_every': must be >= 1"):
        config_from_text("mode.x = 1\nmode.y_star = 0.5\nperturb.redraw_every = 0\n")

    path = tmp_path / "run.kv"
    path.write_text("net.layers = 4, 1\ndata.per_class = 5\nsweep.m_values = 0.1\n"
                    + epoch + "perturb.redraw_every = 4\n")
    assert main(["perturb-sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "redraw_every > 1" in capsys.readouterr().err


def test_noise_levels_are_checked_when_read():
    base = "mode.x = 1\nmode.y_star = 0.5\n"
    for bad in ("sweep.m_values = 0.1, -0.2\n", "sweep.m_values = 0.1, nan\n",
                "perturb.mode = amplitude\nperturb.M = inf\n"):
        with pytest.raises(ConfigError, match="must be finite and >= 0"):
            config_from_text(base + bad)
    # a vanishing envelope's exponent is loss.alpha, whatever the loss; a
    # sweep without perturb.mode builds vanishing envelopes
    for noise in ("perturb.mode = vanishing\nperturb.M = 0.1\n", "sweep.m_values = 0.1\n"):
        for alpha in ("1.5", "-0.2", "nan"):
            with pytest.raises(ConfigError, match=f"loss.alpha = {alpha} is the vanishing"):
                config_from_text(base + f"loss.kind = l2\nloss.alpha = {alpha}\n" + noise)
        config_from_text(base + "loss.kind = l2\nloss.alpha = 0.2\n" + noise)
    # where no vanishing envelope reads it, a baseline loss's loss.alpha is
    # refused outright, not range-checked
    for other in ("", "perturb.mode = amplitude\nperturb.M = 0.1\n"):
        for kind in ("l1", "l2"):
            with pytest.raises(ConfigError) as err:
                config_from_text(base + f"loss.kind = {kind}\nloss.alpha = 1.5\n" + other)
            assert err.value.problems == [f"<config>: loss.alpha applies to the lyapunov "
                                          "loss, or to a vanishing envelope; "
                                          f"loss.kind = {kind} ignores it"]


NOISE = {
    "none": "",
    "vanishing": "perturb.mode = vanishing\nperturb.M = 0.1\n",
    "amplitude": "perturb.mode = amplitude\nperturb.M = 0.1\n",
    "sweep": "sweep.m_values = 0, 0.5\n",
}


@pytest.mark.parametrize("unsafe", [False, True], ids=["safe", "unsafe-alpha"])
@pytest.mark.parametrize("noise", list(NOISE))
@pytest.mark.parametrize("alpha", [None, 0.0, 0.2, 1.5], ids=["absent", "0", "0.2", "1.5"])
@pytest.mark.parametrize("kind", ["lyapunov", "l1", "l2"])
def test_every_noise_exponent_case_resolves_or_is_refused(kind, alpha, noise, unsafe):
    # each case is refused with a ConfigError (exit 2) or resolves, and then
    # a vanishing envelope takes loss.alpha and an amplitude one no exponent;
    # a bare ValueError from PerturbationSpec or LyapunovLoss fails the test
    text = (f"net.layers = 4, 1\nnet.init = zeros\nloss.kind = {kind}\n"
            "mode.x = 1, -0.6, 0.8, 0.4\nmode.y_star = 0.48\n" + NOISE[noise]
            + ("" if alpha is None else f"loss.alpha = {alpha!r}\n"))
    value = 0.7 if alpha is None else alpha
    vanishing = noise in ("vanishing", "sweep")
    if kind != "lyapunov" and alpha is not None and not vanishing:
        refusal = f"loss.kind = {kind} ignores it"
    elif vanishing and not 0.0 <= value < 1.0:
        refusal = "is the vanishing envelope's exponent"
    elif kind == "lyapunov" and not (0.0 < value < 1.0 or value == 0.0 and unsafe):
        refusal = "loss: "
    else:
        refusal = None
    try:
        cfg = config_from_text(text)
        prob = resolve(cfg, SimpleNamespace(unsafe_alpha=unsafe))
    except ConfigError as exc:
        assert refusal is not None and refusal in str(exc)
        return
    assert refusal is None
    assert cfg["loss.alpha"] == value
    spec = _build_spec(cfg, 0.3)
    assert spec.mode == ("amplitude" if noise == "amplitude" else "vanishing")
    assert spec.alpha == (None if noise == "amplitude" else cfg["loss.alpha"])
    assert prob.noise == (_build_spec(cfg, 0.1) if noise in ("vanishing", "amplitude")
                          else None)


@pytest.mark.parametrize("line", [
    "integ.record_stride = 0",
    "integ.step_budget = 0",
    "integ.t_max = inf",
    "integ.dt = nan",
    "gains.k = inf",
    "stop.epsilon = nan",
    "net.scale = nan",
    "net.scale = inf",
    "bound.gamma = nan",
    "bound.gamma = -1",
    "data.count = -1",
    "data.per_class = 0",
    "data.noise_sd = nan",
    "data.noise_sd = -0.5",
    "data.separation = nan",
    "run.seed = -1",
])
def test_unusable_values_exit_2_when_read(tmp_path, capsys, line):
    # each of these once passed the config and then died in the run with a
    # traceback from the integrator, gain or stopping-rule dataclass, was
    # refused by the certificate only after the run, or gave a noise-free or
    # empty dataset
    path = tmp_path / "run.kv"
    path.write_text("net.layers = 4, 1\nmode.x = 1, -0.6, 0.8, 0.4\nmode.y_star = 0.48\n"
                    + line + "\n")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"bad value for '{line.split()[0]}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bool_spellings():
    for word, want in (("true", True), ("YES", True), ("on", True), ("1", True),
                       ("false", False), ("No", False), ("off", False), ("0", False)):
        cfg = config_from_text(
            f"mode.kind = epoch\ndata.source = blobs\ndata.normalize = {word}\n"
        )
        assert cfg["data.normalize"] is want
    with pytest.raises(ConfigError, match="data.normalize"):
        config_from_text("mode.kind = epoch\ndata.source = blobs\ndata.normalize = maybe\n")


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.kv"
    path.write_text("mode.x = 2\nmode.y_star = 0.75\ngains.k = 3\n")
    cfg = load_config(path)
    assert cfg["mode.x"] == (2.0,) and cfg["gains.k"] == 3.0
    # problems name the file so the user can find the line
    path.write_text("nonsense line\n")
    with pytest.raises(ConfigError, match="run.kv:1"):
        load_config(path)


@pytest.mark.parametrize("key,value", [
    ("mode.x", "nan, -0.6, 0.8, 0.4"),
    ("mode.x", "1, -0.6, inf, 0.4"),
    ("mode.y_star", "nan"),
    ("mode.y_star", "-inf"),
])
def test_non_finite_sample_exits_2_when_read(tmp_path, capsys, key, value):
    # a non-finite input or target once passed the config and then failed
    # the run with exit 1 from the flow
    given = {"mode.x": "1, -0.6, 0.8, 0.4", "mode.y_star": "0.48", key: value}
    path = tmp_path / "run.kv"
    path.write_text("net.layers = 4, 1\n"
                    + "".join(f"{k} = {v}\n" for k, v in given.items()))
    assert main(["bound", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"bad value for '{key}': must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_documents_exactly_the_config_keys():
    # the fenced block after the README's "Keys:" line lists every key once
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\nKeys:\n", 1)[1].split("```", 2)[1]
    documented = set(parse_kv(block, source="README.md"))
    assert documented - set(_KEYS) == set(), "documented but not accepted"
    assert set(_KEYS) - documented == set(), "accepted but not documented"
