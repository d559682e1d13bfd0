"""The four workloads, the key numbers each report yields, and their tolerances.

A workload is a fixed list of ``kgl`` experiments run one after another
through ``kgl.cli.run``; one pass runs the whole list.  Parameters not named
here are the CLI defaults (``kgl.cli.DEFAULTS``).  This module imports
nothing from ``kgl`` or ``numpy`` so the launcher can read it before the
thread pinning takes effect.

Reference values for the key numbers were recorded at the parent commit by
``record_reference.py`` for data seeds ``0 .. REFERENCE_SEEDS - 1``; a run
with ``--seed n`` uses data seed ``n % REFERENCE_SEEDS`` so every run can be
compared against a recorded value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

REFERENCE_SEEDS = 16


def data_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


@dataclass(frozen=True)
class Workload:
    why: str
    runs: tuple[tuple[str, dict], ...]  # (experiment, parameter overrides)


WORKLOADS = {
    # The dense N x N toy stepper does ~95 % of the work and sets the
    # ~725 MB peak: two 268 MB kernel builds, 64 single-column steps and 64
    # batched steps over the evolved blocks.  Grid, multipliers,
    # inequalities, vfields and solver do almost nothing here.
    "toy-evolve": Workload(
        why="evolve-toy at its defaults: the dense toy stepper build and steps dominate",
        runs=(("evolve-toy", {}),),
    ),
    # Thousands of small fields pass through grid, multipliers,
    # inequalities, dyadic and corpus; the Gagliardo lag loop and the
    # three-transform weighted norm dominate.  Toy, solver and vfields are
    # absent.  The refinement corpus is built internally at N = 2048.
    "corpus-battery": Workload(
        why="inequality battery and block norms over small fields: Gagliardo loop and weighted norms",
        runs=(
            ("verify-inequalities", {"corpus_size": 500}),
            ("norms", {"corpus_size": 200}),
        ),
    ),
    # Pure-Python Fraction arithmetic with no FFT and the only load on
    # kgl.vfields: a spectral change must show no change here.
    "exact-algebra": Workload(
        why="exact vector-field algebra and sharpness: pure Python, no FFT",
        runs=(
            ("vector-fields", {"corpus_size": 60}),
            ("sharpness", {}),
        ),
    ),
    # The only load on the solver layer.  The grid is used through a few
    # large batched FFTs over (steps+1, N) trajectories, and the retry path
    # runs: the three configs take 1, 1 and 2 retries.  The input is the
    # Gaussian exp(-a0 <v>^2), so this workload does not depend on the seed.
    "picard-sweep": Workload(
        why="Picard iteration with retries over three (gamma, s, eps): the solver layer",
        runs=tuple(
            ("picard", {"grid_n": 512, "grid_l": 4.0, "steps": 256, "nmax": 30,
                        "gamma": gamma, "s": s, "eps": eps})
            for gamma, s, eps in ((-1.0, 0.5, 0.1), (-1.0, 0.5, 0.05), (-2.0, 0.75, 0.05))
        ),
    ),
}


# --- key numbers ---------------------------------------------------------------


def key_numbers(experiment: str, metrics: dict) -> dict:
    """The numbers of one report that are compared against the reference."""
    if experiment == "evolve-toy":
        return {
            "fit_slope": metrics["fit"]["slope"],
            "rate_ratio_min": metrics["rate_ratio_min"],
            "rate_ratio_max": metrics["rate_ratio_max"],
            "final_l2": metrics["final_l2"],
        }
    if experiment == "verify-inequalities":
        return {
            "fitted_interpolation_constant": metrics["fitted_interpolation_constant"],
            "fitted_eps_constant": metrics["fitted_eps_constant"],
        }
    if experiment == "norms":
        return {"ratio_min": metrics["ratio_min"], "ratio_max": metrics["ratio_max"]}
    if experiment == "picard":
        return {
            "difference_norms": list(metrics["difference_norms"]),
            "fixed_point_residual": metrics["fixed_point_residual"],
        }
    if experiment == "vector-fields":
        return {
            "failure_count": metrics["failure_count"],
            "convolution_sup": metrics["convolution"]["sup"],
        }
    return {}


# Relative tolerance per key number; keys not listed use DEFAULT_RTOL.
#
# DEFAULT_RTOL (1e-9) is about 10^7 ulps: reordered sums, batched FFTs and
# other exact rewrites stay far inside it, a change to the mathematics does
# not.  The toy fit slope is the exception: its top two shells sit at the
# ~1e-15 rounding floor of the evolved field (shell exponents ~34), so it
# moves with rounding.  Multiplying every toy kernel element by
# (1 + e * noise) moved the slope by 1.5 %, 2.6 % and 6.4 % for e = 1e-15,
# 3e-15 and 1e-13 (seeds 0 and 1), while the rate ratios and final_l2 moved
# by at most 2e-13 relative.  A 5 % tolerance passes rounding-level changes
# of the step and flags a step error of 1e-13.
DEFAULT_RTOL = 1e-9
RTOL = {"fit_slope": 5e-2}

# Picard differences decay to the weight-amplified rounding floor (~1e-9
# here), where the iteration stops; where exactly it stops moves with
# rounding.  Each difference, and the fixed-point residual that lives at
# that floor, must agree within PICARD_RTOL relative plus PICARD_ATOL times
# the largest reference difference; a difference missing on one side counts
# as 0, so the two runs may differ only by iterations at the floor.
PICARD_RTOL = 1e-6
PICARD_ATOL = 1e-8


def _close(got: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - ref) <= rtol * abs(ref) + atol


def compare(got: dict, ref: dict) -> list[str]:
    """One message per key number of ``got`` that misses its reference."""
    bad = []
    atol = PICARD_ATOL * max(ref.get("difference_norms", [0.0]))
    for key, want in ref.items():
        have = got[key]
        if key == "difference_norms":
            n = max(len(have), len(want))
            pad = [0.0] * n
            ok = all(_close(h, w, PICARD_RTOL, atol)
                     for h, w in zip((have + pad)[:n], (want + pad)[:n]))
        elif key == "fixed_point_residual":
            ok = _close(have, want, PICARD_RTOL, atol)
        elif key == "failure_count":
            ok = have == want
        else:
            ok = _close(have, want, RTOL.get(key, DEFAULT_RTOL))
        if not ok:
            bad.append(f"{key}: got {have!r}, reference {want!r}")
    return bad
