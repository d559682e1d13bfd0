"""Experiment runner: configuration, dispatch, reports, and plot data.

Experiments are named sections of a flat ``key = value`` config file (or
direct subcommands).  Each runner computes and returns ``(checks, metrics,
files)`` and touches no file: ``files`` maps each artifact name, in write
order, to its payload, ``(header, rows)`` for ``.csv``, a JSON-able object
for ``.json`` and a field for ``.kgl``.  :func:`run` alone writes them,
then the JSON report embedding the resolved configuration; a run exits 0
only if all enabled checks pass.  Runs are deterministic for a fixed
(config, seed): corpus members are generated from the seed and reductions
use a fixed summation order.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import re
import shutil
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from kgl import dyadic, inequalities as ineq, solver, toy, vfields
from kgl.corpus import standard_corpus
from kgl.grid import MAX_GRID_SAMPLES, GridError, VelocityGrid, refine_field, save_field
from kgl.multipliers import weighted_sobolev_norms
from kgl.params import AdmissibilityError, SoftPotentialParams


class ConfigError(ValueError):
    pass


LOG_FLOAT_MAX = math.log(sys.float_info.max)  # a ledger row above it is written as inf
LEDGER_EXPONENT = 1.5  # the factorial power e of the ledger L(k) = (k+1)^3 / (rho^(k-1) (k!)^e)


def _coerce(experiment: str, key: str, value, default):
    """``value`` as the type of ``default``: an integral int or a finite float."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"[{experiment}] {key} = {value!r} is not a number") from None
    if not math.isfinite(number):
        raise ConfigError(f"[{experiment}] {key} = {value!r} is not finite")
    if isinstance(default, float):
        return number
    if not number.is_integer():
        raise ConfigError(f"[{experiment}] {key} = {value!r} is not an integer")
    return int(number)


@dataclass
class ExperimentConfig:
    """One run's settings: the boundary every parameter passes through.

    Missing keys take their defaults and every value (string or number) is
    coerced to its default's type.  The library objects the run needs are
    built here, once: ``prm``, ``grid``, ``problem`` (the ``ToyParams`` of
    evolve-toy, the ``RegularizedProblem`` of picard) and ``f0`` (evolve-toy's
    initial data at the config's seed, which must decay at the box edge);
    their validation errors, and a value that overflows the grid's squared
    brackets or that data, surface as :class:`ConfigError` before any work
    starts.
    """

    experiment: str
    params: dict
    seed: int
    out_dir: str
    prm: SoftPotentialParams | None = field(default=None, init=False, repr=False, compare=False)
    grid: VelocityGrid | None = field(default=None, init=False, repr=False, compare=False)
    problem: toy.ToyParams | solver.RegularizedProblem | None = field(
        default=None, init=False, repr=False, compare=False
    )
    f0: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        name = self.experiment
        if name not in DEFAULTS:
            raise ConfigError(f"unknown experiment {name!r}")
        unknown = set(self.params) - set(DEFAULTS[name])
        if unknown:
            raise ConfigError(f"[{name}] unknown keys {sorted(unknown)}")
        p = self.params = {
            key: _coerce(name, key, self.params.get(key, default), default)
            for key, default in DEFAULTS[name].items()
        }
        try:
            if "gamma" in p:
                self.prm = SoftPotentialParams(gamma=p["gamma"], s=p["s"])
            if "grid_n" in p:
                if p["grid_n"] > MAX_GRID_SAMPLES:
                    raise GridError(
                        f"grid_n = {p['grid_n']} exceeds the {MAX_GRID_SAMPLES} samples a grid may hold"
                    )
                self.grid = grid = VelocityGrid(p["grid_n"], p["grid_l"])
                _refuse_overflow(
                    name, "grid_l", p["grid_l"], "1 + |v|^2 or 1 + |eta|^2 on the grid",
                    lambda: (grid.v_bracket_sq, grid.eta_bracket_sq),
                )
            if name == "evolve-toy":
                self.problem = toy.ToyParams(
                    prm=self.prm, a0=p["a0"], t_final=p["t_final"], grid=self.grid, steps=p["steps"]
                )
                self.f0 = _refuse_overflow(
                    name, "a0", p["a0"], "the initial weight exp(-a0 <v>^2)",
                    lambda: toy.weighted_broadband_data(
                        self.grid, p["a0"], seed=self.seed, rough_amplitude=p["rough_amplitude"]
                    ),
                )
                toy.check_edge_decay(self.f0)
            elif name == "picard":
                self.problem = solver.RegularizedProblem(
                    eps=p["eps"], prm=self.prm, a0=p["a0"], grid=self.grid,
                    t_final=p["t_final"], steps=p["steps"],
                )
        except (AdmissibilityError, GridError, toy.ToyModelError, solver.SolverError) as exc:
            raise ConfigError(f"[{name}] {exc}") from exc
        fitted = TOY_FIT_SHELLS[-1]
        if name == "evolve-toy" and (top := dyadic.max_freq_shell(self.grid)) < fitted:
            raise ConfigError(
                f"[{name}] the grid's top frequency shell is {top}, below the shell {fitted} "
                f"the Gevrey fit reads; raise grid_n / grid_l"
            )
        for key, least in (
            ("corpus_size", 1), ("nmax", 3), ("conv_kmax", vfields.CONVOLUTION_KMAX_MIN), ("max_k", 0),
            ("max_alpha", 0), ("snapshot_every", 0), ("j_min", -1),  # no dyadic shell lies below j = -1
        ):
            if p.get(key, least) < least:
                why = (": convolution-sup-stabilizes compares the sups up to conv_kmax and conv_kmax // 2, "
                       "and the sums peak at k = 6") if key == "conv_kmax" else ""
                raise ConfigError(f"[{name}] {key} = {p[key]} must be at least {least}{why}")
        if name == "sharpness" and p["j_min"] >= p["j_max"]:
            raise ConfigError(f"[{name}] the slope fit needs j_min < j_max, got {p['j_min']}, {p['j_max']}")
        for key in POSITIVE_KEYS.get(name, ()):
            if p[key] <= 0:
                raise ConfigError(f"[{name}] {key} = {p[key]} must be positive")
        if name == "sharpness" and p["j_max"] > (top := _sharpness_j_top(p["s"], p["t"])):
            raise ConfigError(
                f"[{name}] j_max = {p['j_max']} must keep 2**(2 s j_max) and t 2**(2 s j_max) "
                f"finite floats, j_max <= {top}"
            )
        if "rho" in p and not _ledger_is_normal(p["rho"]):
            top = vfields.LEDGER_DIRECT_MAX
            lo, hi = _ledger_rho_range()
            raise ConfigError(
                f"[{name}] rho = {p['rho']} must keep rho**{top - 1} and the ledger values "
                f"L(1..{top + 1}) normal floats, about {lo:.3g} <= rho <= {hi:.3g}"
            )


def _refuse_overflow(experiment: str, key: str, value, what: str, build):
    """``build()`` with float overflow raised: an overflow is a ConfigError naming ``key``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return build()
    except FloatingPointError as exc:
        raise ConfigError(f"[{experiment}] {key} = {value!r} overflows {what} ({exc})") from None


def _shell_weight_is_finite(j: int, s: float, t: float) -> bool:
    """Whether 2**(2 s j) and t 2**(2 s j), as ``toy.block_law`` forms them, are finite floats."""
    try:
        return math.isfinite(t * 2.0 ** (2.0 * s * j))
    except OverflowError:
        return False


def _sharpness_j_top(s: float, t: float) -> int:
    """The largest shell j whose sharpness weights 2**(2 s j) and t 2**(2 s j) are finite.

    Both grow with j; the estimate from the top of the float range is
    corrected by the check itself.
    """
    j = math.floor((sys.float_info.max_exp - max(0.0, math.log2(t))) / (2.0 * s))
    while not _shell_weight_is_finite(j, s, t):
        j -= 1
    while _shell_weight_is_finite(j + 1, s, t):
        j += 1
    return j


def _ledger_is_normal(rho: float) -> bool:
    """Whether rho**(LEDGER_DIRECT_MAX - 1) and the L(k) the round trip reads are normal floats.

    The round trip reads L(k) for k = 1 .. LEDGER_DIRECT_MAX + 1; past the
    top of the float range the direct product's denominator overflows and
    L(LEDGER_DIRECT_MAX) reads 0.
    """
    top = vfields.LEDGER_DIRECT_MAX
    try:
        values = [rho ** (top - 1)]
        values += [vfields.ledger_value(rho, k, LEDGER_EXPONENT) for k in range(1, top + 2)]
    except (OverflowError, ZeroDivisionError):
        return False
    return all(sys.float_info.min <= v <= sys.float_info.max for v in values)


def _ledger_rho_range() -> tuple[float, float]:
    """About the rho that ``_ledger_is_normal`` admits, from the logs of its values.

    ln rho**(top-1) and ln L(k) = ln L(k)|_(rho=1) - (k-1) ln rho are linear
    in ln rho, so each normal-float condition bounds ln rho on one side.
    """
    top = vfields.LEDGER_DIRECT_MAX
    ln_min, ln_max = math.log(sys.float_info.min), LOG_FLOAT_MAX
    lo, hi = ln_min / (top - 1), ln_max / (top - 1)
    for k in range(2, top + 2):
        at_one = vfields.log_ledger_value(1.0, k, LEDGER_EXPONENT)
        lo, hi = max(lo, (at_one - ln_max) / (k - 1)), min(hi, (at_one - ln_min) / (k - 1))
    return math.exp(lo), math.exp(hi)


@dataclass
class RunReport:
    config: dict
    checks: dict
    metrics: dict
    artifacts: list[str]
    wall_clock: float

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> str:
        return _json_text({
            "config": self.config,
            "checks": self.checks,
            "metrics": self.metrics,
            "artifacts": self.artifacts,
            "wall_clock_seconds": self.wall_clock,
            "passed": self.passed,
        })


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"not JSON serializable: {type(x)}")


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_jsonable)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --- experiment implementations ----------------------------------------------

# The one parameter schema: each experiment's keys, whose defaults fix
# their types (int or float).
DEFAULTS = {
    "sharpness": {"gamma": -1.0, "s": 0.5, "a0": 1.0, "j_min": 1, "j_max": 40, "t": 1.0},
    "evolve-toy": {
        "gamma": -1.0,
        "s": 0.5,
        "a0": 1.0,
        "t_final": 1.0,
        "grid_n": 4096,
        "grid_l": 32.0,
        "steps": 64,
        "snapshot_every": 16,
        "rough_amplitude": 0.5,
    },
    "verify-inequalities": {
        "gamma": -1.0,
        "s": 0.5,
        "grid_n": 1024,
        "grid_l": 16.0,
        "corpus_size": 100,
        "eps": 0.25,
    },
    "vector-fields": {"corpus_size": 30, "max_k": 5, "max_alpha": 4, "rho": 2.0, "conv_kmax": 10000},
    "picard": {
        "gamma": -1.0,
        "s": 0.5,
        "eps": 0.1,
        "a0": 1.0,
        "t_final": 0.2,
        "steps": 64,
        "nmax": 30,
        "grid_n": 256,
        "grid_l": 4.0,
    },
    "norms": {"gamma": -1.0, "s": 0.5, "grid_n": 1024, "grid_l": 16.0, "corpus_size": 50},
}


# keys that must be positive, beyond the library objects' own validation
# (picard's problem admits eps = 0, the unregularized equation)
POSITIVE_KEYS = {"sharpness": ("a0", "t"), "verify-inequalities": ("eps",), "vector-fields": ("rho",)}


# ratio-bounded holds when every E_j is within this factor of the law's 2^(2 tau j) scale
SHARPNESS_RATIO_BOUND = 8.0
# slope-matches-index-law holds when the fitted log2 slope is within this of 2 tau
SHARPNESS_SLOPE_TOL = 0.05


def run_sharpness(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    p, prm = cfg.params, cfg.prm
    rows = []
    slope_target = 2.0 * prm.tau
    ratios = []
    js = range(p["j_min"], p["j_max"] + 1)
    k_star, values = toy.block_law(js, prm, p["a0"], t=p["t"])
    # over real k the law's minimum is a gamma-only factor times scale 2^(2 tau j)
    scale = p["t"] ** (2.0 / (2.0 - prm.gamma)) * p["a0"] ** (-prm.gamma / (2.0 - prm.gamma))
    for j, k, value in zip(js, k_star.tolist(), values.tolist()):
        predicted = scale * 2.0 ** (slope_target * j)
        ratio = value / predicted
        ratios.append(ratio)
        rows.append([j, k, value, predicted, ratio])
    slope = float(np.polyfit(np.array(js, dtype=float), np.log2(values), 1)[0])
    checks = {
        "ratio-bounded": bool(all(1.0 / SHARPNESS_RATIO_BOUND <= r <= SHARPNESS_RATIO_BOUND for r in ratios)),
        "slope-matches-index-law": bool(abs(slope - slope_target) <= SHARPNESS_SLOPE_TOL),
    }
    metrics = {"slope": slope, "slope_target": slope_target, "ratio_min": min(ratios), "ratio_max": max(ratios),
               "ratio_bound": SHARPNESS_RATIO_BOUND, "slope_tolerance": SHARPNESS_SLOPE_TOL}
    header = ["j", "k_star", "inf_value", "predicted_2pow", "ratio"]
    return checks, metrics, {"sharpness.csv": (header, rows)}


# a fitted shell exponent at or above -ln(ROUNDING_FACTOR eps) reads the
# rounding floor of the evolved field, not its decay
ROUNDING_FACTOR = 100.0
TOY_FIT_SHELLS = range(0, 8)  # the frequency shells j of the evolve-toy Gevrey fit
# l2-monotone holds when no step raises the L2 norm by more than this, relative
TOY_L2_MONOTONE_TOL = 1e-10
# block-rate-within-factor-4 holds when every compared block's measured decay
# exponent is within this factor of the law's, either way
TOY_BLOCK_RATE_FACTOR = 4.0
# slope-within-15pct holds when the fitted slope is within this share of 2 tau
TOY_SLOPE_TOL = 0.15


def run_evolve_toy(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    p, prm, params, f0 = cfg.params, cfg.prm, cfg.problem, cfg.f0
    snap = p["snapshot_every"] or None
    traj = toy.evolve_toy(f0, params, snapshot_every=snap)
    files = {f"toy_t{t_snap:.4f}.kgl": fsnap for t_snap, fsnap in traj.snapshots}
    ratios = traj.rate_ratios
    lo, hi = (float(ratios.min()), float(ratios.max())) if ratios.size else (None, None)
    exponents = toy.trajectory_shell_exponents(cfg.grid, f0, traj.final, TOY_FIT_SHELLS)
    fit = toy.estimate_gevrey_index(exponents, np.array(TOY_FIT_SHELLS))
    files["gevrey_fit.json"] = dict(fit.summary(), shell_exponents=[float(e) for e in fit.shell_exponents])
    norms_final = dyadic.block_norms(cfg.grid, traj.final)
    shells = [a.ravel().tolist() for a in (*dyadic.block_shells(norms_final), norms_final)]
    heat_rows = [(j, k, math.log(mag) if mag > 0 else -math.inf) for j, k, mag in zip(*shells)]
    files["block_magnitudes.csv"] = (["j", "k", "log_magnitude"], heat_rows)
    slope_target = 2.0 * prm.tau
    floor_exponent = -math.log(ROUNDING_FACTOR * np.finfo(float).eps)
    checks = {
        "l2-monotone": bool(np.all(np.diff(traj.norms) <= TOY_L2_MONOTONE_TOL * traj.norms[:-1])),
        "block-rate-within-factor-4": bool(
            ratios.size > 0 and 1.0 / TOY_BLOCK_RATE_FACTOR <= lo and hi <= TOY_BLOCK_RATE_FACTOR
        ),
        "slope-within-15pct": bool(abs(fit.slope - slope_target) <= TOY_SLOPE_TOL * slope_target),
    }
    metrics = {
        "fit": fit.summary(),
        "fit_floor_shells": int(np.count_nonzero(fit.shell_exponents >= floor_exponent)),
        "rate_ratio_min": lo,
        "rate_ratio_max": hi,
        "blocks_compared": int(ratios.size),
        "final_l2": traj.norms[-1],
        "propagator_rank": traj.propagator_rank,
        "marched_grids": [list(g) for g in traj.marched_grids],
    }
    return checks, metrics, files


# interpolation-refinement-stable holds when the constant needed on 2N points
# is within this of 1 times the constant needed on N
REFINEMENT_TOL = 0.1
# product-form-bounded holds when the product-form ratio stays below
# PRODUCT_RATIO_SLOPE tau + PRODUCT_RATIO_OFFSET, tau the fitted sum-form constant
PRODUCT_RATIO_SLOPE = 10.0
PRODUCT_RATIO_OFFSET = 10.0
# eps-constant-scaling holds when the fitted log-log slope is within this share of -s/(1-s)
EPS_SCALING_SLOPE_TOL = 0.25
# composition-bounded checks ||F(g)||_{H^s} <= COMPOSITION_CONSTANT ||g||_{H^s}
COMPOSITION_CONSTANT = 4.0


def run_verify_inequalities(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    p, prm, grid = cfg.params, cfg.prm, cfg.grid
    gamma, s, eps = prm.gamma, prm.s, p["eps"]
    corpus = standard_corpus(grid, p["corpus_size"], cfg.seed)
    theta = np.array([1e-3, 1e-2, 1e-1, 1.0])[np.arange(len(corpus)) % 4]
    tau_wit = ineq.verify_interpolation_tau(grid, corpus, prm)
    eps_wit = ineq.verify_weighted_eps_split(grid, corpus, s, eps)
    reg_wit = ineq.verify_regularizer_bounds(grid, corpus, theta)
    product_ratio = float(np.max(tau_wit.extras["product_ratio"]))
    tau_ratio = ineq.fit_constant(tau_wit)
    lhs, grad, wpart = eps_wit.lhs, eps_wit.extras["gradient_norm"], eps_wit.extras["weight_norm"]
    c_eps = ineq.eps_constant((lhs, grad, wpart), eps)
    # every fifth member, interpolated onto 2N points, must need the same constant
    fine_grid = VelocityGrid(2 * grid.points_per_axis, grid.half_width)
    fine = ineq.verify_interpolation_tau(fine_grid, refine_field(grid, corpus[::5]), prm)
    refinement = fine.ratio_without_constant() / tau_wit.ratio_without_constant()[::5]
    worst = int(np.argmax(np.abs(refinement - 1.0)))
    refinement_ratio = float(refinement[worst])
    # one inequalities.json row each: the margins at the fitted constant, and
    # the members whose margin is below -1e-12 of that right side (or of 1)
    rows = []
    for ineq_id, left, right, fitted, refined in (
        ("interpolation-tau", tau_wit.lhs, tau_wit.rhs * tau_ratio, tau_ratio, refinement_ratio),
        ("weighted-eps-split", lhs, eps * grad + c_eps * wpart, c_eps, None),
        ("regularizer-triple", reg_wit.lhs, reg_wit.rhs, 3.0, None),
    ):
        margins = right - left
        failed = np.flatnonzero(margins < -1e-12 * np.maximum(np.abs(right), 1.0))
        rows.append({
            "inequality_id": ineq_id, "params": {"gamma": gamma, "s": s}, "corpus_size": len(corpus),
            "min_margin": float(np.min(margins)), "fitted_constant": fitted, "refinement_ratio": refined,
            "failures": [f"u{i}" for i in failed],
        })
    reg_margin = rows[-1]["min_margin"]
    scaling = ineq.eps_constant_scaling(grid, s)
    target = scaling["target_slope"]
    slope_ok = abs(scaling["slope"] - target) <= EPS_SCALING_SLOPE_TOL * abs(target)
    comp_pass = True
    comp_agree = []
    nonneg = corpus[np.min(corpus, axis=-1) >= -1e-12][: max(10, len(corpus) // 10)]
    for name in ineq.COMPOSITION_MAPS:
        w = ineq.verify_composition_bound(grid, nonneg, s, name, constant=COMPOSITION_CONSTANT)
        comp_pass &= bool(np.all(w.passed) and np.all(w.extras["agreement_ok"]))
        comp_agree.extend(np.ravel(w.extras["agreement_factors"]))
    checks = {
        "interpolation-finite-constant": bool(math.isfinite(tau_ratio) and tau_ratio > 0),
        "interpolation-refinement-stable": bool(abs(refinement_ratio - 1.0) <= REFINEMENT_TOL),
        "product-form-bounded": bool(product_ratio < PRODUCT_RATIO_SLOPE * tau_ratio + PRODUCT_RATIO_OFFSET),
        "regularizer-margin-nonnegative": bool(reg_margin >= 0.0),
        "eps-constant-scaling": bool(slope_ok),
        "composition-bounded": bool(comp_pass),
    }
    metrics = {
        "fitted_interpolation_constant": tau_ratio,
        "fitted_eps_constant": c_eps,
        "refinement_ratio": refinement_ratio,
        "refinement_member": 5 * worst,
        "eps_scaling": scaling,
        "regularizer_min_margin": reg_margin,
        "composition_agreement_range": [min(comp_agree), max(comp_agree)] if comp_agree else [],
    }
    return checks, metrics, {"inequalities.json": rows}


def run_vector_fields(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    p = cfg.params
    rng = np.random.default_rng(cfg.seed)
    size = p["corpus_size"]
    polys = [vfields.random_poly(rng) for _ in range(size)]
    deltas = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 3)]
    vp_cases = [
        vfields.VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(2)),
        vfields.VFParams(gamma=Fraction(-1), s=Fraction(3, 4), lam=Fraction(2)),
        vfields.VFParams(gamma=Fraction(-2), s=Fraction(3, 4), lam=Fraction(3)),
    ]
    field_pairs = [(vp.delta1, vp.delta2, vfields.generation_coefficients(vp)) for vp in vp_cases]
    commutators, pairs, built = vfields.identity_residuals(
        vfields.stack(polys), deltas, field_pairs, p["max_k"], p["max_alpha"]
    )
    # per member, in order: its commutator failures, then its pairs' failures
    comm_failures, pair_failures = [[] for _ in polys], [[] for _ in polys]
    for delta, rows in commutators.items():
        for k, r in enumerate(rows):
            for i in vfields.members(r):
                comm_failures[i].append(f"commutator f{i} delta={delta} k={k}")
    for vp, ((rx, rv), mixed) in zip(vp_cases, pairs):
        for i in vfields.members(rx) | vfields.members(rv):
            pair_failures[i].append(f"reconstruction f{i} lam={vp.lam}")
        for (a1, a2), r in mixed.items():
            for i in vfields.members(r):
                pair_failures[i].append(f"mixed f{i} alpha=({a1},{a2})")
    # every commutator failure first, then the pairs' failures member by member
    failures = [line for lines in comm_failures + pair_failures for line in lines]
    # residuals tested for zero, counted per member
    checked = size * (sum(map(len, commutators.values())) + sum(2 + len(mixed) for _, mixed in pairs))
    rho = p["rho"]
    ledger_rows = []
    for k in range(0, 201):
        lv = vfields.log_ledger_value(rho, k, LEDGER_EXPONENT)
        ledger_rows.append([k, math.inf if lv > LOG_FLOAT_MAX else math.exp(lv) if lv > -700 else 0.0, lv])
    worst_rt = vfields.ledger_round_trip_residual(rho, LEDGER_EXPONENT)
    conv = vfields.convolution_bound(p["conv_kmax"])
    checks = {
        "identities-exact": not failures,
        "ledger-round-trip": bool(worst_rt <= vfields.LEDGER_TOLERANCE),
        "convolution-sup-stabilizes": bool(conv["stabilization_gap"] <= vfields.CONVOLUTION_GAP_TOL),
    }
    metrics = {"convolution": conv, "convolution_gap_tolerance": vfields.CONVOLUTION_GAP_TOL,
               "ledger_round_trip_worst": worst_rt, "ledger_round_trip_tolerance": vfields.LEDGER_TOLERANCE,
               "failure_count": len(failures), "residuals_checked": checked, "h_powers_built": built}
    identities = {"identity_id": "transport-commutators", "corpus_size": size, "failures": failures,
                  "params": {"max_k": p["max_k"], "max_alpha": p["max_alpha"]}}
    ledger = (["k", "L_value", "log_L"], ledger_rows)
    return checks, metrics, {"ledger.csv": ledger, "identities.json": identities}


# fixed-point-residual holds when the map moves the Picard limit by at most this (weighted sup norm)
PICARD_FIXED_POINT_TOL = 1e-6


def run_picard(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    rp, grid = cfg.problem, cfg.grid
    state = solver.picard_iterate(
        np.exp(-rp.a0 * grid.v_bracket_sq), rp, n_max=cfg.params["nmax"]
    )
    states = state.final_states
    mom = solver.moments(grid, states)
    columns = [
        state.problem.times,
        state.energy.weighted_norms,
        state.energy.dissipation_integrand,
        mom.mass,
        mom.energy,
        mom.entropy,
        solver.positivity_series(states),
    ]
    header = ["t", "weighted_norm", "dissipation", "mass", "energy", "entropy", "min_value"]
    summary = state.summary()
    checks = {
        "contraction": state.contraction,
        "fixed-point-residual": bool(state.fixed_point_residual <= PICARD_FIXED_POINT_TOL),
        "groenwall-residuals-nonnegative": not state.energy.violations,
    }
    metrics = dict(summary, fixed_point_tolerance=PICARD_FIXED_POINT_TOL)
    return checks, metrics, {
        "picard_series.csv": (header, np.column_stack(columns).tolist()), "picard_state.json": summary
    }


# ratios-within-factor-8 holds when every block-sum norm is within this factor
# of its direct weighted norm, either way
NORMS_RATIO_FACTOR = 8.0


def run_norms(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    prm, grid = cfg.prm, cfg.grid
    gamma, s = prm.gamma, prm.s
    corpus = standard_corpus(grid, cfg.params["corpus_size"], cfg.seed)
    pairs_pm = [(0.0, 0.0), (1.0, 0.0), (0.0, prm.tau), (gamma / 2.0, s)]
    norms_matrices = dyadic.block_norms(grid, corpus)
    values = np.array([dyadic.block_sum(norms_matrices, pp, mm) for pp, mm in pairs_pm])
    direct = weighted_sobolev_norms(grid, corpus, pairs_pm)
    ratios = np.divide(values, direct, out=np.full(values.shape, np.nan), where=direct > 0)
    valid = ratios[direct > 0]
    worst = (float(np.min(valid, initial=np.inf)), float(np.max(valid, initial=0.0)))
    rows = [
        [i, pp, mm, values[n, i], direct[n, i], ratios[n, i]]
        for i in range(len(corpus))
        for n, (pp, mm) in enumerate(pairs_pm)
    ]
    block_rows, tail_converged = dyadic.block_report(norms_matrices[0], gamma / 2.0, s)
    checks = {
        "ratios-within-factor-8": bool(
            worst[0] >= 1.0 / NORMS_RATIO_FACTOR and worst[1] <= NORMS_RATIO_FACTOR
        ),
        "tail-converged": tail_converged,
    }
    metrics = {"ratio_min": worst[0], "ratio_max": worst[1], "pairs": pairs_pm}
    return checks, metrics, {
        "norm_ratios.csv": (["function", "p", "m", "block_norm", "direct_norm", "ratio"], rows),
        "block_report.csv": (dyadic.BLOCK_REPORT_COLUMNS, block_rows),
    }


RUNNERS = {
    "sharpness": run_sharpness,
    "evolve-toy": run_evolve_toy,
    "verify-inequalities": run_verify_inequalities,
    "vector-fields": run_vector_fields,
    "picard": run_picard,
    "norms": run_norms,
}


def _echo(cfg: ExperimentConfig) -> dict:
    return {
        "experiment": cfg.experiment,
        "params": {k: cfg.params[k] for k in sorted(cfg.params)},
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
    }


def _write(path: str, payload, grid: VelocityGrid | None) -> None:
    """One artifact, in the format its extension names."""
    if path.endswith(".csv"):
        write_csv(path, *payload)
    elif path.endswith(".kgl"):
        save_field(grid, payload, path)
    else:
        with open(path, "w") as fh:
            fh.write(_json_text(payload))


def run(cfg: ExperimentConfig) -> RunReport:
    """Run one experiment, write its artifacts in order, then its report."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    start = time.perf_counter()
    checks, metrics, files = RUNNERS[cfg.experiment](cfg)
    paths = [os.path.join(cfg.out_dir, name) for name in files]
    for path, payload in zip(paths, files.values()):
        _write(path, payload, cfg.grid)
    report = RunReport(_echo(cfg), checks, metrics, paths, time.perf_counter() - start)
    with open(os.path.join(cfg.out_dir, f"report_{cfg.experiment}.json"), "w") as fh:
        fh.write(report.to_json())
    report.artifacts.append(fh.name)
    return report


def emit_plot_data(report_dir: str, kind: str, out_path: str) -> str:
    """Reshape a run's artifacts into tidy one-observation-per-row CSV."""
    if kind == "gevrey-fit":
        with open(os.path.join(report_dir, "gevrey_fit.json")) as fh:
            fit = json.load(fh)
        j0, j1 = fit["j_range"]
        slope, c = fit["slope"], math.log2(fit["constant"])
        rows = [
            [j, e, 2.0 ** (slope * j + c)]
            for j, e in zip(range(j0, j1 + 1), fit["shell_exponents"])
        ]
        write_csv(out_path, ["j", "E_j", "fitted_line"], rows)
    elif kind == "picard-ratios":
        with open(os.path.join(report_dir, "picard_state.json")) as fh:
            st = json.load(fh)
        diffs = st["difference_norms"]
        ratios = [""] + st["ratios"]
        rows = [[n + 1, d, ratios[n] if n < len(ratios) else ""] for n, d in enumerate(diffs)]
        write_csv(out_path, ["n", "diff_norm", "ratio"], rows)
    elif kind == "block-heatmap":  # block_magnitudes.csv is tidy already
        shutil.copyfile(os.path.join(report_dir, "block_magnitudes.csv"), out_path)
    else:
        raise ConfigError(f"unknown plot kind {kind!r}")
    return out_path


# --- command line ---------------------------------------------------------------


def load_config(path: str, seed: int, out_dir: str) -> list[ExperimentConfig]:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config {path}")
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from exc
    return [
        ExperimentConfig(
            experiment=name, params=params, seed=seed, out_dir=os.path.join(out_dir, name)
        )
        for name, params in sections.items()
    ]


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="out")


class _Parser(argparse.ArgumentParser):
    """One-line errors; ``--key -1e-3`` reads as ``--key=-1e-3`` (argparse before
    3.13 takes it for an option; no kgl option starts with ``-<digit>``)."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        for i in reversed(range(1, len(args))):
            flag = args[i - 1]
            if flag[:2] == "--" and "=" not in flag and re.match(r"-\.?\d", args[i]):
                args[i - 1 : i + 1] = [f"{flag}={args[i]}"]
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="kgl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run experiments from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--check-only", action="store_true")
    _add_common(run_p)

    for name, defaults in DEFAULTS.items():
        sp = sub.add_parser(name, help=f"run the {name} experiment with flag overrides")
        _add_common(sp)
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            aliases = ["--T"] if (name == "picard" and key == "t_final") else []
            sp.add_argument(flag, *aliases, dest=key, help=f"default {default}")

    plot_p = sub.add_parser("plot-data", help="emit tidy CSV from a report directory")
    plot_p.add_argument("--report-dir", required=True)
    plot_p.add_argument("--kind", required=True, choices=["gevrey-fit", "picard-ratios", "block-heatmap"])
    plot_p.add_argument("--out", required=True)
    return ap


def configs_from_args(args: argparse.Namespace) -> list[ExperimentConfig]:
    """The validated configs of a ``run`` or experiment command line."""
    if args.command == "run":
        return load_config(args.config, args.seed, args.out)
    given = {key: value for key in DEFAULTS[args.command] if (value := getattr(args, key)) is not None}
    return [ExperimentConfig(args.command, given, args.seed, os.path.join(args.out, args.command))]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "plot-data":
        try:
            emit_plot_data(args.report_dir, args.kind, args.out)
        except (OSError, ValueError, KeyError, TypeError) as exc:  # ValueError: bad JSON too
            where = f"plot-data {args.kind} from {args.report_dir}"
            print(f"kgl: error: {where}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        print(args.out)
        return 0

    try:
        configs = configs_from_args(args)
    except ConfigError as exc:
        print(f"kgl: error: {exc}", file=sys.stderr)
        return 2
    if args.command == "run" and args.check_only:
        for cfg in configs:
            print(f"ok: [{cfg.experiment}] {len(cfg.params)} keys")
        return 0

    all_pass = True
    for cfg in configs:
        report = run(cfg)
        status = "PASS" if report.passed else "FAIL"
        print(f"[{cfg.experiment}] {status} ({report.wall_clock:.1f}s)")
        for name, ok in report.checks.items():
            print(f"    {name}: {'pass' if ok else 'FAIL'}")
        all_pass &= report.passed
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
