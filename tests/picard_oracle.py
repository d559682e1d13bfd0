"""Reference forms of the Picard loop and of its limit.

``picard_fresh`` is the loop of ``kgl.solver.picard_iterate`` with every
array allocated where it is needed: each iterate starts from a new zero
trajectory or takes a new one from ``integrate``, each source is a new
array, and the fixed-point march allocates its own states.  It shares the
solver's march, source surrogate, difference norm, stop rule and verdict,
so the library's one-workspace loop must reproduce it bit for bit.

``implicit_trapezoid`` solves the fixed point directly, so it checks what
the iteration converges to, not only that it converged.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from kgl import solver, toy
from kgl.grid import l2_norms


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
            current = solver.integrate(problem, f_in, source_traj=source)
            diffs.append(solver._weighted_sup_diff(problem.grid, weights, current, prev))
            if len(diffs) >= 2 and diffs[-2] > 0:
                ratios.append(diffs[-1] / diffs[-2])
            prev = current
            if reason := solver._stop_reason(diffs):
                break
        attempts.append([problem.t_final, len(diffs), reason or "nmax"])
        contraction = solver._eventually_contracting(diffs)
        if contraction or retries >= solver.MAX_RETRIES:
            break
        retries += 1
        problem = replace(problem, t_final=problem.t_final / 2.0)
    final_source = solver._dissipative_source(problem, prev)
    states = solver.integrate(problem, f_in, source_traj=final_source)
    residual = solver._weighted_sup_diff(problem.grid, weights, states, prev)
    return SimpleNamespace(
        difference_norms=diffs,
        ratios=ratios,
        contraction=contraction,
        retries=retries,
        attempts=attempts,
        fixed_point_residual=residual,
        states=states,
    )


def implicit_trapezoid(rp: solver.RegularizedProblem, f_in: np.ndarray) -> np.ndarray:
    """States of the dense march g_(n+1) = (I + dt/2 A)^-1 H (I - dt/2 A) g_n.

    A = c(v) F^-1 <eta>^(2s) F is the operator whose negative the source
    surrogate applies, so the Picard limit of a velocity-only problem is
    this march's trajectory.  A and H are built here from the coefficient,
    the symbols and a dense unitary DFT, not through the solver's source or
    step, so a fault in either does not move this reference with it.
    """
    grid, dt, s = rp.grid, rp.dt, rp.prm.s
    eta, n = grid.axis_frequencies, grid.points_per_axis
    dft = np.fft.fft(np.eye(n), axis=0, norm="ortho")  # dft @ g == fft(g, norm="ortho")
    idft = dft.conj().T

    def multiplier(symbol: np.ndarray) -> np.ndarray:
        return idft @ (symbol[:, None] * dft)

    a = toy.effective_coefficient(grid, rp.prm.gamma)[:, None] * multiplier((1.0 + eta**2) ** s)
    half = np.exp(-0.5 * rp.eps * dt * grid.v_bracket_sq ** (rp.weight_power / 2.0))
    h = half[:, None] * multiplier(np.exp(-rp.eps * dt * eta**2)) * half[None, :]
    eye = np.eye(n)
    step = np.linalg.solve(eye + 0.5 * dt * a, h @ (eye - 0.5 * dt * a))
    states = np.empty((rp.steps + 1, n), dtype=complex)
    states[0] = f_in
    for k in range(rp.steps):
        states[k + 1] = step @ states[k]
    return states


# The Picard limit's relative distance to the direct solve, in the weighted sup
# norm over the trajectory.  Clean runs land at 1e-11 to 2e-10 (criterion 10
# and picard-sweep config 3); a source lagged by one step or halved lands at
# 4e-5 to 0.5, while the fixed-point residual passes under both.
DIRECT_SOLVE_RTOL = 1e-8


def distance_to_direct_solve(
    rp: solver.RegularizedProblem, states: np.ndarray, f_in: np.ndarray
) -> float:
    """max_n ||w (g_n - d_n)|| / max_n ||w d_n|| against the direct solve d of ``rp`` from f_in."""
    direct = implicit_trapezoid(rp, f_in)
    weights = solver.weight_values(rp.grid, rp.a0, rp.times[:, None])
    error = np.max(l2_norms(rp.grid, weights * (states - direct)))
    return float(error / np.max(l2_norms(rp.grid, weights * direct)))
