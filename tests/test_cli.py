import csv
import filecmp
import json
import math
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kgl
from kgl import cli, dyadic, toy, vfields
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
from kgl.dyadic import shell_norms
from kgl.grid import MAX_GRID_SAMPLES, VelocityGrid, l2_norms, refine_field
from kgl.params import SoftPotentialParams
from kgl.solver import RegularizedProblem
from kgl.toy import ToyParams
from tests import per_field

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
    attempts = rep.metrics["attempts"]  # [t_final, iterations, stop reason], the returned attempt last
    assert attempts[-1][:2] == [rep.metrics["t_final"], rep.metrics["iterations"]]
    assert attempts[-1][2] in ("floor", "growth", "nmax")
    assert len(attempts) == rep.metrics["retries"] + 1
    out = emit_plot_data(cfg.out_dir, "picard-ratios", str(tmp_path / "ratios.csv"))
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "n,diff_norm,ratio"
    assert len(lines) >= 3


def test_plot_data_of_a_missing_or_truncated_artifact_exits_2(tmp_path, capsys):
    missing = ["plot-data", "--report-dir", str(tmp_path / "nowhere"), "--kind", "gevrey-fit"]
    assert main(missing + ["--out", str(tmp_path / "fit.csv")]) == 2
    cfg = make_cfg(tmp_path, "picard", nmax=15, steps=32)
    run(cfg)
    state = os.path.join(cfg.out_dir, "picard_state.json")
    with open(state) as fh:
        text = fh.read()
    with open(state, "w") as fh:
        fh.write(text[: len(text) // 2])
    truncated = ["plot-data", "--report-dir", cfg.out_dir, "--kind", "picard-ratios"]
    assert main(truncated + ["--out", str(tmp_path / "ratios.csv")]) == 2
    # a fit without its shell exponents is malformed, not a blank E_j column
    (tmp_path / "fit").mkdir()
    fit = {"j_range": [0, 7], "slope": 0.6, "constant": 1.0}
    (tmp_path / "fit" / "gevrey_fit.json").write_text(json.dumps(fit))
    no_exponents = ["plot-data", "--report-dir", str(tmp_path / "fit"), "--kind", "gevrey-fit"]
    assert main(no_exponents + ["--out", str(tmp_path / "fit.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("kgl: error: plot-data ") for line in err)
    assert "FileNotFoundError" in err[0] and "JSONDecodeError" in err[1]
    assert err[2].startswith("kgl: error: plot-data gevrey-fit ")
    assert err[2].endswith("KeyError: 'shell_exponents'")
    assert not (tmp_path / "fit.csv").exists() and not (tmp_path / "ratios.csv").exists()


def small_norms_run(tmp_path):
    """norms on a reduced grid and corpus, where both checks pass."""
    return run(make_cfg(tmp_path, "norms", corpus_size=8, grid_n=512))


def test_norms_experiment_small(tmp_path):
    rep = small_norms_run(tmp_path)
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


def test_cli_import_loads_no_scipy_module():
    # kgl runs on numpy alone; scipy.fft by itself adds ~0.3 s and ~25 MB to
    # the start-up of every run
    src = str(Path(kgl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, kgl.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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


def test_inequalities_json_holds_one_row_per_inequality(tmp_path):
    cfg = make_cfg(tmp_path, "verify-inequalities", corpus_size=12, grid_n=512)
    rep = run(cfg)
    with open(os.path.join(cfg.out_dir, "inequalities.json")) as fh:
        rows = json.load(fh)
    assert [row["inequality_id"] for row in rows] == [
        "interpolation-tau", "weighted-eps-split", "regularizer-triple"
    ]
    for row in rows:
        assert set(row) == {
            "inequality_id", "params", "corpus_size", "min_margin", "fitted_constant", "refinement_ratio",
            "failures",
        }
        assert row["params"] == {"gamma": -1.0, "s": 0.5}
        assert row["corpus_size"] == 12 and row["failures"] == []
    assert [row["fitted_constant"] for row in rows] == [
        rep.metrics["fitted_interpolation_constant"], rep.metrics["fitted_eps_constant"], 3.0
    ]
    assert rows[0]["refinement_ratio"] == rep.metrics["refinement_ratio"]
    assert rows[2]["min_margin"] == rep.metrics["regularizer_min_margin"]


REFINEMENT_RTOL = 1e-13  # a quotient of two witness ratios, each held to NORM_RTOL


def test_refinement_ratio_matches_the_per_member_oracle(tmp_path):
    cfg = make_cfg(tmp_path, "verify-inequalities", corpus_size=100)
    grid, prm = cfg.grid, cfg.prm
    fine_grid = VelocityGrid(2 * grid.points_per_axis, grid.half_width)
    law = (prm.gamma, prm.s, prm.tau)
    ratios = np.array(
        [
            per_field.interpolation_ratio(fine_grid, per_field.refine(grid, f), *law)
            / per_field.interpolation_ratio(grid, f, *law)
            for f in per_field.standard_corpus(grid, 100, cfg.seed)[::5]
        ]
    )
    worst = int(np.argmax(np.abs(ratios - 1.0)))
    rep = run(cfg)
    assert rep.checks["interpolation-refinement-stable"] and rep.passed
    with open(tmp_path / "verify-inequalities" / "inequalities.json") as fh:
        rows = {row["inequality_id"]: row for row in json.load(fh)}
    ratio = rows["interpolation-tau"]["refinement_ratio"]
    assert ratio == rep.metrics["refinement_ratio"]
    assert ratio == pytest.approx(ratios[worst], rel=REFINEMENT_RTOL, abs=0)
    assert rep.metrics["refinement_member"] == 5 * worst


def test_refinement_check_fails_on_a_modulated_refinement(tmp_path, monkeypatch):
    def modulated(grid, u):
        fine = refine_field(grid, u)
        return fine * (1.0 + 0.3 * np.cos(np.pi * np.arange(fine.shape[-1]) / 2.0))

    monkeypatch.setattr(cli, "refine_field", modulated)
    rep = run(make_cfg(tmp_path, "verify-inequalities"))
    assert abs(rep.metrics["refinement_ratio"] - 1.0) > 0.1
    assert rep.checks["interpolation-refinement-stable"] is False
    assert not rep.passed


def test_evolve_toy_reports_propagator_rank(tmp_path):
    rep = run(make_cfg(tmp_path, "evolve-toy", grid_n=2048, grid_l=16.0, snapshot_every=0))
    rank = rep.metrics["propagator_rank"]
    assert isinstance(rank, int) and rank > 1


def small_toy_run(tmp_path):
    """evolve-toy at seed 0 on a reduced grid, where all three checks pass."""
    params = dict(DEFAULTS["evolve-toy"], grid_n=2048, grid_l=16.0, steps=32, snapshot_every=0)
    return run(ExperimentConfig("evolve-toy", params, 0, str(tmp_path / "evolve-toy")))


def test_small_evolve_toy_run_passes_and_counts_the_floor_shells(tmp_path):
    rep = small_toy_run(tmp_path)
    assert rep.checks == {
        "l2-monotone": True,
        "block-rate-within-factor-4": True,
        "slope-within-15pct": True,
    }
    assert rep.metrics["blocks_compared"] > 0
    with open(tmp_path / "evolve-toy" / "gevrey_fit.json") as fh:
        exponents = json.load(fh)["shell_exponents"]
    floor = -np.log(cli.ROUNDING_FACTOR * np.finfo(float).eps)
    assert rep.metrics["fit_floor_shells"] == sum(e >= floor for e in exponents) == 2


def test_plot_data_of_an_evolve_toy_run(tmp_path):
    rep = small_toy_run(tmp_path)
    report_dir = tmp_path / "evolve-toy"
    heat = emit_plot_data(str(report_dir), "block-heatmap", str(tmp_path / "heat.csv"))
    assert filecmp.cmp(heat, report_dir / "block_magnitudes.csv", shallow=False)
    with open(heat, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    # every ring meets the grid, so no block of the final field is exactly zero
    assert rows and all(math.isfinite(float(row[2])) for row in rows)
    out = emit_plot_data(str(report_dir), "gevrey-fit", str(tmp_path / "fit.csv"))
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["j", "E_j", "fitted_line"]
    fit = rep.metrics["fit"]
    with open(report_dir / "gevrey_fit.json") as fh:
        exponents = json.load(fh)["shell_exponents"]
    assert [int(row[0]) for row in rows] == list(range(fit["j_range"][0], fit["j_range"][1] + 1))
    assert [float(row[1]) for row in rows] == exponents
    for row in rows:
        line = fit["constant"] * 2.0 ** (fit["slope"] * int(row[0]))
        assert float(row[2]) == pytest.approx(line, rel=1e-12)


def test_evolve_toy_builds_one_stepper_per_grid_and_marches_each_block_once(tmp_path, monkeypatch):
    builds, first_stacks, steps, trajs = [], {}, Counter(), []
    init, step, evolve = toy.ToyStepper.__init__, toy.ToyStepper.step, toy.evolve_toy

    def stepping(self, u):
        first_stacks.setdefault(self.params.grid, u.copy())
        steps[self.params.grid] += 1
        return step(self, u)

    monkeypatch.setattr(toy.ToyStepper, "__init__", lambda self, p: builds.append(p.grid) or init(self, p))
    monkeypatch.setattr(toy.ToyStepper, "step", stepping)
    monkeypatch.setattr(toy, "evolve_toy", lambda *args, **kw: trajs.append(evolve(*args, **kw)) or trajs[-1])
    rep = small_toy_run(tmp_path)
    (traj,) = trajs
    full = VelocityGrid(2048, 16.0)
    bandwidth = toy.coefficient_bandwidth(full, -1.0)
    named = [toy.march_grid(full, j, bandwidth) for j in traj.block_j]
    # one stepper per grid used, and each grid marched `steps` times
    assert len(builds) == len(set(builds)) == len(set(named) | {full}) > 1
    assert steps == {grid: 32 for grid in builds}
    # f0 is row 0 of the full grid's stack; every block rides the grid its
    # shell names, subsampled there without loss of norm
    assert np.array_equal(first_stacks[full][0], toy.weighted_broadband_data(full, 1.0, seed=0))
    for grid, stack in first_stacks.items():
        rows = stack[1:] if grid == full else stack
        want = sorted(norm for norm, g in zip(traj.block_norms, named) if g == grid)
        assert np.allclose(sorted(l2_norms(grid, rows)), want, rtol=1e-12, atol=0.0)
    marched = rep.metrics["marched_grids"]
    by_size = sorted(first_stacks, key=lambda g: -g.points_per_axis)
    assert [m[:2] for m in marched] == [[g.points_per_axis, len(first_stacks[g])] for g in by_size]
    assert rep.metrics["propagator_rank"] == marched[0][2]
    assert sum(m[1] for m in marched) == 1 + rep.metrics["blocks_compared"]


def _grown_step(step):
    # a 5 % gain per step outruns the slowest per-step decay of this run (3.1 %)
    return lambda self, u: 1.05 * step(self, u)


def _eightfold_law(rate):
    return lambda j, k, prm: 8.0 * rate(j, k, prm)


def _unnormalized_exponents(_):
    def exponents(grid, f0, final, j_range):
        """E_j = -ln ||Delta_j f(T)||, with the initial content prefactor left in."""
        return -np.log(shell_norms(grid, final)[j_range.start + 1 : j_range.stop + 1])

    return exponents


def _tiny_datum(data):
    # every block's norm falls below the 1e-12 floor, so none is compared
    return lambda *args, **kwargs: 1e-14 * data(*args, **kwargs)


@pytest.mark.parametrize(
    "check, owner, name, mutant",
    [
        ("l2-monotone", toy.ToyStepper, "step", _grown_step),
        ("block-rate-within-factor-4", toy, "block_decay_rate", _eightfold_law),
        ("block-rate-within-factor-4", toy, "weighted_broadband_data", _tiny_datum),
        ("slope-within-15pct", toy, "trajectory_shell_exponents", _unnormalized_exponents),
    ],
    ids=["growing-step", "eightfold-law-rate", "no-compared-block", "unnormalized-exponents"],
)
def test_each_evolve_toy_check_fails_on_its_mutant(tmp_path, monkeypatch, check, owner, name, mutant):
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    rep = small_toy_run(tmp_path)
    assert rep.checks[check] is False
    assert not rep.passed


def _wide_member_0(build):
    # exp(-0.05 v^2) keeps 4 % of its peak at |v| = 8, inside the outermost phase ring
    def corpus(grid, size, seed):
        u = build(grid, size, seed)
        u[0] = np.exp(-0.05 * grid.v_abs**2)
        return u

    return corpus


def _derivative_order_plus_one(block_sum):
    return lambda norms, p, m: block_sum(norms, p, m + 1.0)


@pytest.mark.parametrize(
    "check, owner, name, mutant",
    [
        ("tail-converged", cli, "standard_corpus", _wide_member_0),
        ("ratios-within-factor-8", dyadic, "block_sum", _derivative_order_plus_one),
    ],
    ids=["wide-member-0", "block-sum-order-plus-one"],
)
def test_each_norms_check_fails_on_its_mutant(tmp_path, monkeypatch, check, owner, name, mutant):
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    rep = small_norms_run(tmp_path)
    assert rep.checks[check] is False
    assert not rep.passed


def _sixteenfold_law(law):
    def values_times_16(*args, **kwargs):
        k_star, values = law(*args, **kwargs)
        return k_star, 16.0 * values

    return values_times_16


def _law_at_half_s(law):
    # (gamma, s/2) is still admissible, and 2 tau goes from 2/3 to 1/3 at the defaults
    return lambda js, prm, a0, t=1.0: law(js, SoftPotentialParams(prm.gamma, prm.s / 2), a0, t=t)


def _sums_one_power_too_strong(sums):
    # (k+1) S_k grows like 0.4 k, so the sup at kmax leaves the one at kmax // 2 behind
    return lambda kmax: np.arange(1.0, kmax + 2.0) * sums(kmax)


def _log_ledger_scaled(log_ledger_value):
    # ln L off by 1e-12 relative: exp(ln L) leaves the direct product by thousands of rounding units
    return lambda rho, k, exponent: log_ledger_value(rho, k, exponent) * (1 + 1e-12)


SMALL_VECTOR_FIELDS = {"corpus_size": 4, "max_k": 3, "max_alpha": 2, "conv_kmax": 2000}


@pytest.mark.parametrize(
    "check, experiment, params, owner, name, mutant",
    [
        ("ratio-bounded", "sharpness", {}, toy, "block_law", _sixteenfold_law),
        ("slope-matches-index-law", "sharpness", {}, toy, "block_law", _law_at_half_s),
        ("convolution-sup-stabilizes", "vector-fields", SMALL_VECTOR_FIELDS, vfields, "convolution_sums",
         _sums_one_power_too_strong),
        ("ledger-round-trip", "vector-fields", SMALL_VECTOR_FIELDS, vfields, "log_ledger_value",
         _log_ledger_scaled),
    ],
    ids=["sixteenfold-law", "law-at-half-s", "sums-one-power-too-strong", "log-ledger-scaled"],
)
def test_each_sharpness_and_convolution_check_fails_on_its_mutant(
    tmp_path, monkeypatch, check, experiment, params, owner, name, mutant
):
    assert run(make_cfg(tmp_path / "clean", experiment, **params)).checks[check] is True
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    rep = run(make_cfg(tmp_path / "mutant", experiment, **params))
    assert rep.checks[check] is False
    assert not rep.passed
    if experiment == "vector-fields":  # its three checks read disjoint parts of the run
        assert rep.checks == {name: name != check for name in rep.checks}


@pytest.mark.parametrize(
    "check, experiment, params, name, value, key",
    [
        ("ratio-bounded", "sharpness", {}, "SHARPNESS_RATIO_BOUND", 1.0, "ratio_bound"),
        ("slope-matches-index-law", "sharpness", {}, "SHARPNESS_SLOPE_TOL", 0.0, "slope_tolerance"),
        ("fixed-point-residual", "picard", {"nmax": 15, "steps": 32}, "PICARD_FIXED_POINT_TOL", 0.0,
         "fixed_point_tolerance"),
    ],
)
def test_each_named_bound_is_read_by_its_check_and_reported(
    tmp_path, monkeypatch, check, experiment, params, name, value, key
):
    rep = run(make_cfg(tmp_path / "clean", experiment, **params))
    assert rep.checks[check] is True and rep.metrics[key] == getattr(cli, name)
    monkeypatch.setattr(cli, name, value)
    rep = run(make_cfg(tmp_path / "tight", experiment, **params))
    assert rep.checks[check] is False and rep.metrics[key] == value


def test_defaults_and_runners_cover_the_same_experiments():
    assert set(DEFAULTS) == set(RUNNERS)
    for defaults in DEFAULTS.values():
        assert all(type(value) in (int, float) for value in defaults.values())


# every runner at a reduced config; evolve-toy keeps two snapshots
SMALL_RUNS = {
    "sharpness": {"j_max": 12},
    "evolve-toy": {"grid_n": 2048, "grid_l": 16.0, "steps": 32},
    "verify-inequalities": {"corpus_size": 12, "grid_n": 512},
    "vector-fields": {"corpus_size": 4, "max_k": 3, "max_alpha": 2, "conv_kmax": 2000},
    "picard": {"nmax": 15, "steps": 32},
    "norms": {"corpus_size": 8, "grid_n": 512},
}


def _run_outputs(rep):
    """A run's artifact bytes in write order, and its report text without timing and paths."""
    *artifacts, report = rep.artifacts
    payload = json.loads(Path(report).read_text())
    del payload["wall_clock_seconds"], payload["artifacts"], payload["config"]["out_dir"]
    return [Path(path).read_bytes() for path in artifacts], json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("experiment", sorted(RUNNERS))
def test_runners_write_nothing_and_run_writes_their_files_in_order(tmp_path, monkeypatch, experiment):
    monkeypatch.chdir(tmp_path)
    cfg = make_cfg(tmp_path / "out", experiment, **SMALL_RUNS[experiment])
    checks, metrics, files = RUNNERS[experiment](cfg)
    assert os.listdir(tmp_path) == []  # no directory, no file, not even in the working directory
    assert files and all(os.path.basename(name) == name for name in files)
    written, write = [], cli._write

    def recording_write(path, *rest):
        written.append(path)
        write(path, *rest)

    monkeypatch.setattr(cli, "_write", recording_write)
    rep = run(cfg)
    report = os.path.join(cfg.out_dir, f"report_{experiment}.json")
    assert written == [os.path.join(cfg.out_dir, name) for name in files]
    assert rep.artifacts == written + [report]
    assert sorted(os.listdir(cfg.out_dir)) == sorted([*files, os.path.basename(report)])
    assert (rep.checks, rep.metrics.keys()) == (checks, metrics.keys())
    if experiment == "evolve-toy":
        assert [name for name in files if name.endswith(".kgl")] == ["toy_t0.5000.kgl", "toy_t1.0000.kgl"]
    # a second run in the same process writes the same bytes and the same report
    again = run(make_cfg(tmp_path / "again", experiment, **SMALL_RUNS[experiment]))
    assert _run_outputs(again) == _run_outputs(rep)


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
    # a0 = 4: at a0 = 1 the data on this box falls only to exp(-16) of its peak at the edge
    toy_cfg = ExperimentConfig("evolve-toy", {"grid_n": "512", "grid_l": "4", "a0": "4"}, 0, str(tmp_path))
    assert toy_cfg.grid == VelocityGrid(512, 4.0)
    assert isinstance(toy_cfg.problem, ToyParams)
    assert toy_cfg.problem.grid is toy_cfg.grid and toy_cfg.problem.prm is toy_cfg.prm
    assert np.array_equal(toy_cfg.f0, toy.weighted_broadband_data(toy_cfg.grid, 4.0, seed=0, rough_amplitude=0.5))
    picard = ExperimentConfig("picard", {}, 0, str(tmp_path))
    assert isinstance(picard.problem, RegularizedProblem) and picard.problem.x_points == 0
    assert picard.problem.prm == SoftPotentialParams(-1.0, 0.5)
    vf = ExperimentConfig("vector-fields", {}, 0, str(tmp_path))
    assert vf.prm is None and vf.grid is None and vf.problem is None and vf.f0 is None


BAD_CONFIGS = {
    "grid-not-power-of-two": "[evolve-toy]\ngrid_n = 1000\n",
    "fractional-steps": "[evolve-toy]\nsteps = 3.5\n",
    "toy-grid-below-shell-7": "[evolve-toy]\ngrid_n = 1024\ngrid_l = 16\n",
    "x-axis-removed": "[picard]\nx_axis = of\n",
    "t-final-beyond-a0-half": "[picard]\nt_final = 0.9\n",
    "empty-corpus": "[norms]\ncorpus_size = 0\n",
    "empty-shell-range": "[sharpness]\nj_min = 5\nj_max = 3\n",
    "shell-below-minus-one": "[sharpness]\nj_min = -5\nj_max = 3\n",
    "shell-weight-overflow": "[sharpness]\nj_max = 1100\n",
    "inadmissible-pair": "[sharpness]\ngamma = -3.5\n",
    "percent-sign": "[sharpness]\nt = 5%\n",
    "no-section-header": "gamma = -1.0\n",
    "unknown-section": "[banana]\n",
    "conv-kmax-below-twice-the-peak": "[vector-fields]\nconv_kmax = 11\n",
    # the initial data reach 3.67e-14 and 1.04e-7 of their peak at the box edge
    "toy-data-wide-at-the-edge": "[evolve-toy]\na0 = 0.03\n",
    "toy-box-narrow-for-the-data": "[evolve-toy]\nsteps = 16\ngrid_n = 512\ngrid_l = 4\n",
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
        ["sharpness", "--j-min", "-5", "--j-max", "3"],
        ["sharpness", "--j-max", "1100"],
        ["evolve-toy", "--steps", "3.5"],
        ["picard", "--nmax", "2"],
        ["vector-fields", "--rho", "0"],
        ["vector-fields", "--conv-kmax", "1"],
        ["vector-fields", "--max-k", "-1"],
        ["vector-fields", "--max-alpha", "-1"],
        ["verify-inequalities", "--eps", "0"],
        ["verify-inequalities", "--eps", "-1"],
        ["sharpness", "--a0", "-1"],
        ["sharpness", "--a0", "0"],
        ["sharpness", "--t", "-1"],
        ["sharpness", "--t", "0"],
        ["evolve-toy", "--snapshot-every", "-16"],
        ["vector-fields", "--conv-kmax", "11"],
        ["evolve-toy", "--a0", "0.03"],
        ["evolve-toy", "--steps", "16", "--grid-n", "512", "--grid-l", "4"],
    ],
)
def test_bad_flags_exit_2_with_one_line(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("kgl: error: [")
    assert not (tmp_path / "out").exists()


def test_convolution_range_starts_at_twice_the_peak(tmp_path):
    # the sums peak at k = 6: up to 11 the sup at kmax // 2 <= 5 falls short of it
    assert vfields.convolution_bound(11)["stabilization_gap"] > vfields.CONVOLUTION_GAP_TOL
    rep = run(make_cfg(tmp_path, "vector-fields", corpus_size=1, max_k=1, max_alpha=1, conv_kmax=12))
    assert rep.passed and rep.metrics["convolution"]["stabilization_gap"] == 0.0
    with pytest.raises(ConfigError, match=r"\[vector-fields\] conv_kmax = 11 must be at least 12: .* k = 6$"):
        make_cfg(tmp_path, "vector-fields", conv_kmax=11)


def test_sharpness_shell_range_starts_at_minus_one(tmp_path):
    assert make_cfg(tmp_path, "sharpness", j_min=-1, j_max=3).params["j_min"] == -1
    with pytest.raises(ConfigError, match=r"\[sharpness\] j_min = -2 must be at least -1"):
        make_cfg(tmp_path, "sharpness", j_min=-2, j_max=3)


# the top shell by hand: 2**(2 s j) is a float for 2 s j < 1024, and t 2**(2 s j)
# for 2 s j + log2 t < 1024 when t > 1 (log2 1e10 = 33.2)
@pytest.mark.parametrize("s,t,top", [(0.5, 1.0, 1023), (0.5, 1e10, 990), (0.3, 0.5, 1706)])
def test_sharpness_runs_just_inside_the_float_range(tmp_path, s, t, top):
    assert cli._sharpness_j_top(s, t) == top
    rep = run(make_cfg(tmp_path, "sharpness", s=s, t=t, j_min=top - 3, j_max=top))
    assert all(math.isfinite(v) for v in rep.metrics.values())
    assert rep.checks["ratio-bounded"]  # E_j against the law's scale t^(2/(2-gamma)) 2^(2 tau j)
    with pytest.raises(ConfigError, match=rf"finite floats, j_max <= {top}$"):
        make_cfg(tmp_path, "sharpness", s=s, t=t, j_max=top + 1)


def test_evolve_toy_grid_without_the_fitted_shells_exits_2(tmp_path, capsys):
    # pi 1024 / (2 16) = 100.5 < 2^7: the grid's frequency shells stop at 6
    argv = ["evolve-toy", "--grid-n", "1024", "--grid-l", "16", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("kgl: error: [evolve-toy] ")
    assert "top frequency shell is 6" in err[0]
    assert not (tmp_path / "out").exists()
    # pi 2048 / (2 16) = 201 holds shell 7; the check reads the largest radius, not a mesh
    assert ExperimentConfig("evolve-toy", {"grid_n": 2048, "grid_l": 16}, 0, "out").grid
    assert dyadic.max_freq_shell(VelocityGrid(2**70, 32.0)) >= cli.TOY_FIT_SHELLS[-1]


@pytest.mark.parametrize("grid_n", [2**70, 2**40, MAX_GRID_SAMPLES + 1])
@pytest.mark.parametrize("experiment", sorted(name for name in DEFAULTS if "grid_n" in DEFAULTS[name]))
def test_grid_past_the_sample_bound_exits_2_with_one_line(tmp_path, capsys, experiment, grid_n):
    argv = [experiment, "--grid-n", str(grid_n), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    bound = f"grid_n = {grid_n} exceeds the {MAX_GRID_SAMPLES} samples a grid may hold"
    assert capsys.readouterr().err.splitlines() == [f"kgl: error: [{experiment}] {bound}"]
    assert not (tmp_path / "out").exists()


def test_grid_at_the_sample_bound_is_admitted():
    for experiment in ("norms", "picard"):  # neither builds a field in its config
        cfg = ExperimentConfig(experiment, {"grid_n": MAX_GRID_SAMPLES}, 0, "out")
        assert cfg.grid.points_per_axis == MAX_GRID_SAMPLES


@pytest.mark.parametrize(
    "flags", [["--grid-l", "27"], ["--a0", "20", "--grid-l", "8"], ["--grid-l", "18.82"]]
)
def test_picard_weight_past_the_float_range_exits_2_with_one_line(tmp_path, capsys, flags):
    # the weighted norms square exp(a0 <v>^2), which overflows once a0 (1 + L^2)
    # passes ln(DBL_MAX) / 2 = 354.89
    assert main(["picard", *flags, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("kgl: error: [picard] a0=")
    assert "overflows the weight" in err[0]
    assert not (tmp_path / "out").exists()


def test_picard_weight_within_the_float_range_is_admitted():
    cfg = ExperimentConfig("picard", {"grid_l": 18.81}, 0, "out")  # a0 (1 + L^2) = 354.82
    assert cfg.problem.grid.half_width == 18.81


def test_removed_kmax_flag_exits_2_with_one_line(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sharpness", "--kmax", "10", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["kgl: error: unrecognized arguments: --kmax 10"]
    assert not (tmp_path / "out").exists()


def test_removed_jobs_flag_exits_2_with_one_line(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sharpness", "--jobs", "2", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["kgl: error: unrecognized arguments: --jobs 2"]
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
    assert ExperimentConfig("picard", {"eps": 0}, 0, "out").problem.eps == 0.0  # unregularized
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


@pytest.mark.parametrize(
    "key, value",
    [
        ("grid_l", "1.3407807929942597e+154"),  # 1 + |v|^2 overflows
        ("grid_l", "4.86900049045091e-290"),  # 1 + |eta|^2 overflows
        ("a0", "1.7538469608412838e+305"),  # a0 <v>^2 overflows
    ],
)
def test_an_overflowing_evolve_toy_value_raises_config_error(tmp_path, key, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"[evolve-toy]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"^\[evolve-toy\] {key} = {re.escape(value)} overflows [^\n]*$"):
        load_config(str(path), seed=0, out_dir="out")


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
