import json
import os
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kgl.cli import (
    ConfigError,
    DEFAULTS,
    RUNNERS,
    ExperimentConfig,
    _echo,
    build_parser,
    configs_from_args,
    emit_plot_data,
    load_config,
    main,
    run,
)
from kgl.grid import VelocityGrid
from kgl.params import SoftPotentialParams
from kgl.solver import RegularizedProblem
from kgl.toy import ToyParams

README = Path(__file__).resolve().parents[1] / "README.md"


def make_cfg(tmp_path, experiment, **overrides):
    params = dict(DEFAULTS[experiment])
    params.update(overrides)
    return ExperimentConfig(
        experiment=experiment,
        params=params,
        seed=1,
        out_dir=str(tmp_path / experiment),
    )


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig("unknown", {}, 1, str(tmp_path))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        make_cfg(tmp_path, "sharpness", banana=1)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[sharpness]\ngamma = -1.0\ns = 0.5\nj_max = 12\n")
    configs = load_config(str(cfg), seed=3, out_dir=str(tmp_path / "out"))
    assert len(configs) == 1
    assert configs[0].params["j_max"] == 12
    bad = tmp_path / "bad.cfg"
    bad.write_text("[sharpness]\nnope = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(bad), 0, str(tmp_path))


def test_sharpness_run_and_determinism(tmp_path):
    cfg = make_cfg(tmp_path, "sharpness", j_max=20)
    rep1 = run(cfg)
    assert rep1.passed
    metrics1 = json.dumps(rep1.metrics, sort_keys=True, default=str)
    rep2 = run(make_cfg(tmp_path, "sharpness", j_max=20))
    metrics2 = json.dumps(rep2.metrics, sort_keys=True, default=str)
    assert metrics1 == metrics2  # byte-identical metric blocks
    csv_path = os.path.join(cfg.out_dir, "sharpness.csv")
    header = open(csv_path).readline().strip()
    assert header == "j,k_star,inf_value,predicted_2pow,ratio"


def test_vector_fields_report_lists_zero_failures(tmp_path):
    cfg = make_cfg(tmp_path, "vector-fields", corpus_size=4, max_k=3, max_alpha=2, conv_kmax=2000)
    rep = run(cfg)
    assert rep.passed
    with open(os.path.join(cfg.out_dir, "identities.json")) as fh:
        ids = json.load(fh)
    assert ids["failures"] == []


def test_picard_experiment_and_plot_data(tmp_path):
    cfg = make_cfg(tmp_path, "picard", nmax=15, steps=32)
    rep = run(cfg)
    assert rep.passed
    out = emit_plot_data(cfg.out_dir, "picard-ratios", str(tmp_path / "ratios.csv"))
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "n,diff_norm,ratio"
    assert len(lines) >= 3


def test_norms_experiment_small(tmp_path):
    cfg = make_cfg(tmp_path, "norms", corpus_size=8, grid_n=512)
    rep = run(cfg)
    assert rep.passed
    assert rep.metrics["ratio_min"] >= 1 / 8
    assert rep.metrics["ratio_max"] <= 8


def test_report_json_shape(tmp_path):
    cfg = make_cfg(tmp_path, "sharpness", j_max=12)
    rep = run(cfg)
    path = os.path.join(cfg.out_dir, "report_sharpness.json")
    payload = json.loads(open(path).read())
    assert payload["passed"] is True
    assert payload["config"]["params"]["j_max"] == 12
    assert "wall_clock_seconds" in payload


def test_main_exit_codes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sharpness]\nj_max = 12\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0
    code = main(["run", "--config", str(cfg), "--check-only", "--out", str(tmp_path / "o2")])
    assert code == 0
    assert not (tmp_path / "o2").exists()  # check-only writes nothing


def test_verify_inequalities_is_deterministic(tmp_path):
    first = run(make_cfg(tmp_path / "a", "verify-inequalities", corpus_size=12, grid_n=512))
    second = run(make_cfg(tmp_path / "b", "verify-inequalities", corpus_size=12, grid_n=512))
    assert first.passed and second.passed
    a = json.dumps(first.metrics, sort_keys=True, default=str)
    b = json.dumps(second.metrics, sort_keys=True, default=str)
    assert a == b
    with open(os.path.join(tmp_path / "a" / "verify-inequalities", "inequalities.json")) as fh:
        rows = {row["inequality_id"]: row for row in json.load(fh)}
    tau = rows["interpolation-tau"]
    assert tau["fitted_constant"] == first.metrics["fitted_interpolation_constant"]
    assert tau["failures"] == [] and abs(tau["min_margin"]) <= 1e-12


def test_jobs_flag_is_accepted_and_ignored(tmp_path):
    code = main(["sharpness", "--j-max", "12", "--jobs", "2", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "sharpness" / "report_sharpness.json") as fh:
        assert "jobs" not in json.load(fh)["config"]


def test_evolve_toy_reports_propagator_rank(tmp_path):
    rep = run(make_cfg(tmp_path, "evolve-toy", grid_n=1024, grid_l=16.0, snapshot_every=0))
    rank = rep.metrics["propagator_rank"]
    assert isinstance(rank, int) and rank > 1


def test_defaults_and_runners_cover_the_same_experiments():
    assert set(DEFAULTS) == set(RUNNERS)
    for defaults in DEFAULTS.values():
        assert all(type(value) in (int, float) for value in defaults.values())


def test_params_are_coerced_to_the_types_of_the_defaults(tmp_path):
    cfg = ExperimentConfig("sharpness", {"j_min": "2", "gamma": "-1", "j_max": 12.0}, 0, str(tmp_path))
    assert cfg.params == dict(DEFAULTS["sharpness"], j_min=2, j_max=12, gamma=-1.0)
    assert type(cfg.params["j_max"]) is int and type(cfg.params["gamma"]) is float
    typed = dict(DEFAULTS["picard"])
    assert ExperimentConfig("picard", typed, 0, str(tmp_path)).params == typed
    for key, value in (("j_max", "12.5"), ("j_max", 3.5), ("gamma", "nan"), ("t", "inf"),
                       ("s", "half"), ("j_min", None)):
        with pytest.raises(ConfigError, match=f"\\[sharpness\\] {key} "):
            ExperimentConfig("sharpness", {key: value}, 0, str(tmp_path))


def test_config_builds_the_run_objects_once(tmp_path):
    toy_cfg = ExperimentConfig("evolve-toy", {"grid_n": "512"}, 0, str(tmp_path))
    assert toy_cfg.grid == VelocityGrid(1, 512, 32.0)
    assert isinstance(toy_cfg.problem, ToyParams)
    assert toy_cfg.problem.grid is toy_cfg.grid and toy_cfg.problem.prm is toy_cfg.prm
    picard = ExperimentConfig("picard", {}, 0, str(tmp_path))
    assert isinstance(picard.problem, RegularizedProblem) and picard.problem.x_points == 0
    assert picard.problem.prm == SoftPotentialParams(-1.0, 0.5)
    vf = ExperimentConfig("vector-fields", {}, 0, str(tmp_path))
    assert vf.prm is None and vf.grid is None and vf.problem is None


BAD_CONFIGS = {
    "grid-not-power-of-two": "[evolve-toy]\ngrid_n = 1000\n",
    "fractional-steps": "[evolve-toy]\nsteps = 3.5\n",
    "x-axis-removed": "[picard]\nx_axis = of\n",
    "t-final-beyond-a0-half": "[picard]\nt_final = 0.9\n",
    "empty-corpus": "[norms]\ncorpus_size = 0\n",
    "empty-shell-range": "[sharpness]\nj_min = 5\nj_max = 3\n",
    "inadmissible-pair": "[sharpness]\ngamma = -3.5\n",
    "percent-sign": "[sharpness]\nt = 5%\n",
    "no-section-header": "gamma = -1.0\n",
    "unknown-section": "[banana]\n",
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_with_one_line(tmp_path, capsys, name):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BAD_CONFIGS[name])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--check-only", "--out", str(out)]) == 2
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("kgl: error: ") for line in err)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["picard", "--t-final", "0.9"],
        ["norms", "--corpus-size", "0"],
        ["sharpness", "--j-min", "5", "--j-max", "3"],
        ["evolve-toy", "--steps", "3.5"],
        ["picard", "--nmax", "2"],
        ["vector-fields", "--rho", "0"],
        ["vector-fields", "--conv-kmax", "1"],
    ],
)
def test_bad_flags_exit_2_with_one_line(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("kgl: error: [")
    assert not (tmp_path / "out").exists()


def test_removed_kmax_flag_exits_2_with_one_line(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sharpness", "--kmax", "10", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["kgl: error: unrecognized arguments: --kmax 10"]
    assert not (tmp_path / "out").exists()


def test_negative_exponent_form_parses_like_the_joined_flag(tmp_path):
    configs = []
    for argv in (["sharpness", "--gamma", "-1e-3"], ["sharpness", "--gamma=-1e-3"]):
        args = build_parser().parse_args(argv + ["--out", "out"])
        assert args.gamma == "-1e-3"
        (cfg,) = configs_from_args(args)
        configs.append(cfg)
    assert configs[0] == configs[1] and configs[0].params["gamma"] == -1e-3
    argv = ["picard", "--eps", "-1e-05", "--gamma", "-1E+0", "--out", str(tmp_path / "out")]
    assert main(argv) == 2  # eps must be positive: rejected before any work
    assert not (tmp_path / "out").exists()
    assert main(["sharpness", "--gamma", "-1.5e0", "--j-max", "4", "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "sharpness" / "report_sharpness.json") as fh:
        assert json.load(fh)["config"]["params"]["gamma"] == -1.5


def test_flag_override_echoes_like_the_default_run(tmp_path):
    assert main(["sharpness", "--out", str(tmp_path / "a")]) == 0
    assert main(["sharpness", "--j-max", "40", "--out", str(tmp_path / "b")]) == 0
    echoes = []
    for sub in ("a", "b"):
        with open(tmp_path / sub / "sharpness" / "report_sharpness.json") as fh:
            echo = json.load(fh)["config"]
        echoes.append({k: v for k, v in echo.items() if k != "out_dir"})
    assert echoes[0] == echoes[1]
    assert echoes[1]["params"]["j_max"] == 40


config_value = st.one_of(
    st.sampled_from(["-1", "0.5", "0.2", "1e-3", "16", "512", "3.5", "nan", "-inf", ""]),
    st.text(st.characters(codec="utf-8"), max_size=12),
    st.floats().map(repr),
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
)
config_section = st.sampled_from(sorted(DEFAULTS) + ["DEFAULT", "banana"]).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.dictionaries(
            st.sampled_from(sorted(DEFAULTS.get(name, {})) + ["x_axis"]), config_value, max_size=4
        ),
    )
)
config_text = st.one_of(
    st.text(st.characters(codec="utf-8")),
    st.lists(config_section, max_size=4, unique_by=lambda section: section[0]).map(
        lambda sections: "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
            for name, items in sections
        )
    ),
)


@settings(max_examples=300, deadline=None)
@given(text=config_text)
def test_any_config_text_loads_or_raises_config_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        configs = load_config(str(path), seed=0, out_dir="out")
    except ConfigError as exc:
        assert "\n" not in str(exc)
    else:
        assert all(set(cfg.params) == set(DEFAULTS[cfg.experiment]) for cfg in configs)


@st.composite
def overrides(draw):
    """An experiment and a few of its keys set near their defaults, as text."""
    name = draw(st.sampled_from(sorted(DEFAULTS)))
    keys = draw(st.lists(st.sampled_from(sorted(DEFAULTS[name])), unique=True, max_size=4))
    given = {}
    for key in keys:
        default = DEFAULTS[name][key]
        if isinstance(default, int):
            value = draw(st.sampled_from([default // 2, default, 2 * default]))
            given[key] = draw(st.sampled_from([str(value), repr(float(value))]))
        else:
            low, high = sorted((0.5 * default, 1.5 * default))
            given[key] = repr(draw(st.floats(min_value=low, max_value=high)))
    return name, given


@settings(max_examples=150, deadline=None)
@given(case=overrides(), seed=st.integers(min_value=0, max_value=1000))
def test_flags_and_config_file_give_the_same_config(tmp_path_factory, case, seed):
    name, given = case
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in given.items()))
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in given.items()]
    outcomes = []
    for argv in ([name, *flags], ["run", "--config", str(path)]):
        args = build_parser().parse_args(argv + ["--seed", str(seed), "--out", "out"])
        try:
            (cfg,) = configs_from_args(args)
            outcomes.append((cfg.params, _echo(cfg)))
        except ConfigError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def _command_line_section() -> str:
    text = README.read_text()
    return re.search(r"^## Command line\n(.*?)(?=^## )", text, re.S | re.M).group(1)


def test_readme_command_lines_parse_and_validate(tmp_path, monkeypatch):
    blocks = re.findall(r"^```\n(.*?)^```", _command_line_section(), re.S | re.M)
    config_blocks = [b for b in blocks if b.lstrip().startswith("[")]
    commands = [
        shlex.split(line, comments=True)[1:]
        for b in blocks
        for line in b.splitlines()
        if line.startswith("kgl ")
    ]
    assert config_blocks and len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for block in config_blocks:
        Path("batch.cfg").write_text(block)
        assert load_config("batch.cfg", seed=0, out_dir="out")
        for argv in commands:
            args = build_parser().parse_args(argv)
            if args.command != "plot-data":
                assert configs_from_args(args)
    assert sorted(os.listdir(tmp_path)) == ["batch.cfg"]  # nothing was run
