import json
import os

import pytest

from kgl.cli import (
    ConfigError,
    DEFAULTS,
    ExperimentConfig,
    emit_plot_data,
    load_config,
    main,
    run,
)


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
    assert configs[0].params["j_max"] == "12"
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
