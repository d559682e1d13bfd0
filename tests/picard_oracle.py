"""Fresh-allocation reference of the Picard loop.

``picard_fresh`` is the loop of ``kgl.solver.picard_iterate`` with every
array allocated where it is needed: each iterate starts from a new zero
trajectory or takes a new one from ``integrate``, each source is a new
array, and the fixed-point march allocates its own states.  It shares the
solver's march, source surrogate, difference norm and verdict, so the
library's one-workspace loop must reproduce it bit for bit.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from kgl import solver


def picard_fresh(f_in: np.ndarray, rp: solver.RegularizedProblem, n_max: int) -> SimpleNamespace:
    """Differences, ratios, attempts, residual and final states of the Picard loop."""
    problem, retries, attempts = rp, 0, []
    while True:
        weights = solver.weight_values(problem.grid, problem.a0, problem.times[:, None])
        prev = np.zeros((problem.steps + 1, problem.grid.points_per_axis), dtype=complex)
        diffs: list[float] = []
        ratios: list[float] = []
        for n in range(1, n_max + 1):
            source = solver._dissipative_source(problem, prev) if n > 1 else None
            current = solver.integrate(problem, f_in, source_traj=source).states
            diffs.append(solver._weighted_sup_diff(problem.grid, weights, current, prev))
            if len(diffs) >= 2 and diffs[-2] > 0:
                ratios.append(diffs[-1] / diffs[-2])
            prev = current
            if len(diffs) >= 2 and diffs[-1] <= 1e-6 * max(diffs) and diffs[-1] >= diffs[-2]:
                break
        attempts.append([problem.t_final, len(diffs)])
        contraction = solver._eventually_contracting(diffs, solver.RATIO_THRESHOLD)
        if contraction or retries >= solver.MAX_RETRIES:
            break
        retries += 1
        problem = replace(problem, t_final=problem.t_final / 2.0)
    final_source = solver._dissipative_source(problem, prev)
    traj = solver.integrate(problem, f_in, source_traj=final_source)
    residual = solver._weighted_sup_diff(problem.grid, weights, traj.states, prev)
    return SimpleNamespace(
        difference_norms=diffs,
        ratios=ratios,
        contraction=contraction,
        retries=retries,
        attempts=attempts,
        fixed_point_residual=residual,
        states=traj.states,
    )
