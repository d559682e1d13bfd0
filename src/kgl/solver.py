"""Regularized linear parabolic solver, Picard iteration, and monitors.

The Cauchy problem marched here is

    d/dt g + v . d/dx g + eps (<v>^(2/(1-s)) - Lap_{x,v}) g = S(t),

in a reduced setting (one velocity axis, optional periodic space axis).
Each step composes exact factors into the homogeneous map H: half a
pointwise decay exp(-(eps dt/2) <v>^(2/(1-s))), the exact transport phase
shift, the exact Fourier diffusion factor, the second pointwise half; then
a trapezoidal source update, g_{n+1} = H g_n + (dt/2) H S_n + (dt/2) S_{n+1}.
All homogeneous factors have symbol <= 1, so the step is an unweighted L2
contraction; with the time-decreasing Gaussian weight it remains a weighted
contraction for eps < 1/(2 a0)^2-type smallness, which the energy monitor
checks step by step.

``integrate`` marches one problem and returns its states, one complex
array of shape (steps+1,) + state shape; the times t_n = n dt belong to
the problem (``RegularizedProblem.times``).  Its loop holds only the
sequential work: one forward and one inverse transform of H g_n per step
(per axis with the space axis on), (dt/2) S_{n+1} formed in a one-state
scratch, and two in-place additions.  The source half (dt/2) H S_n is
computed as one batch before the loop, and the additions keep the order
of the formula above, so the states are bit-identical to it.  H is a
closure built once per march: its pointwise and Fourier factors are
stored complex (numpy would cast a real factor to complex in every
product), and its velocity-axis transforms call numpy's pocketfft kernels
directly, where ``np.fft``'s argument handling would cost about as much
as a 512-point transform.

``integrate`` writes its states into ``out`` when the caller gives it and
allocates them otherwise.  One ``picard_iterate`` call owns one
workspace, which every march of the call reuses: two trajectories that
swap roles each iterate (the new iterate and the one it is compared
with) and one source buffer.

Picard retries halve the final time until the iteration contracts; only
the attempt that is returned is finished with the fixed-point residual
march and the energy monitor.  An attempt stops at ``n_max`` iterates, at
the rounding floor of its differences, or once they grow above that floor
(``_stop_reason``).  The final time, iteration count and stop reason of
every attempt are kept in ``PicardState.attempts``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

# The kernels behind np.fft.fft/ifft (numpy >= 2.0): the same transform,
# without np.fft's per-call argument handling.
from numpy.fft import _pocketfft_umath as _pocketfft

from kgl.grid import VelocityGrid, l2_norms
from kgl.params import SoftPotentialParams
from kgl.toy import effective_coefficient


class SolverError(ValueError):
    pass


class SolverAbort(RuntimeError):
    """Non-finite values appeared in a march."""


# The largest a0 <v>^2 the weight exp(a0 <v>^2) may reach: every weighted
# norm squares the weighted samples, and the square must stay a finite float.
WEIGHT_EXPONENT_MAX = math.log(sys.float_info.max) / 2.0


@dataclass(frozen=True)
class RegularizedProblem:
    eps: float
    prm: SoftPotentialParams
    a0: float
    grid: VelocityGrid
    t_final: float
    steps: int
    x_points: int = 0  # 0 disables the space axis

    def __post_init__(self):
        # eps = 0 is admitted as the transport-only diagnostic configuration
        if not (0.0 <= self.eps <= 1.0):
            raise SolverError(f"eps={self.eps} outside [0, 1]")
        if not 0 < self.a0 < math.inf:
            raise SolverError(f"a0={self.a0} must be positive and finite")
        v_max = self.grid.v_max
        if not self.a0 * (1.0 + v_max * v_max) <= WEIGHT_EXPONENT_MAX:
            raise SolverError(
                f"a0={self.a0} overflows the weight exp(a0 <v>^2), squared in the weighted norms, "
                f"at |v| = {v_max}: a0 (1 + |v|^2) must stay below "
                f"ln(DBL_MAX) / 2 = {WEIGHT_EXPONENT_MAX:.2f}"
            )
        if not 0 < self.t_final <= self.a0 / 2.0:
            raise SolverError(
                f"t_final={self.t_final} outside (0, a0/2] = (0, {self.a0 / 2}]"
            )
        if self.steps < 4:
            raise SolverError("need at least 4 steps")
        if self.x_points and not (self.x_points >= 4 and self.x_points % 2 == 0):
            raise SolverError("x_points must be an even count >= 4 when enabled")

    @property
    def dt(self) -> float:
        return self.t_final / self.steps

    @property
    def weight_power(self) -> float:
        return 2.0 / (1.0 - self.prm.s)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)


def _homogeneous_map(rp: RegularizedProblem):
    """H of one step of ``rp`` as ``H(g, out)``: a state or a stack of states (last axes) into ``out``."""
    grid, dt = rp.grid, rp.dt
    # complex, so no product casts a real factor to complex per call
    pointwise_half = np.exp(
        -0.5 * rp.eps * dt * grid.v_bracket_sq ** (rp.weight_power / 2.0)
    ).astype(complex)
    eta = grid.axis_frequencies
    transport = None
    if rp.x_points:
        xi = 2.0 * np.pi * np.fft.fftfreq(rp.x_points, d=1.0 / rp.x_points)  # torus [0,1)
        fourier = np.exp(-rp.eps * dt * (xi[:, None] ** 2 + eta[None, :] ** 2)).astype(complex)
        transport = np.exp(-1j * dt * xi[:, None] * grid.axis_points[None, :])
    else:
        fourier = np.exp(-rp.eps * dt * eta**2).astype(complex)
    ortho = np.reciprocal(np.sqrt(grid.points_per_axis, dtype=np.float64))  # as np.fft computes it
    multiply, fft, ifft = np.multiply, _pocketfft.fft, _pocketfft.ifft

    def homogeneous(g: np.ndarray, out: np.ndarray) -> np.ndarray:
        multiply(pointwise_half, g, out=out)
        if transport is not None:
            np.fft.fft(out, axis=-2, norm="ortho", out=out)
            out *= transport
        fft(out, ortho, out=out)  # np.fft.fft(out, norm="ortho", out=out)
        out *= fourier
        ifft(out, ortho, out=out)
        if transport is not None:
            np.fft.ifft(out, axis=-2, norm="ortho", out=out)
        return multiply(pointwise_half, out, out=out)

    return homogeneous


def integrate(
    rp: RegularizedProblem,
    f_in: np.ndarray,
    source_traj: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """March the problem from f_in; ``source_traj[n]`` is S at time n dt.

    Returns the steps+1 complex states, written into ``out`` when it is
    given and into a new array otherwise.
    """
    steps = rp.steps
    shape = (rp.x_points, rp.grid.points_per_axis) if rp.x_points else (rp.grid.points_per_axis,)
    full = (steps + 1,) + shape
    if source_traj is not None and np.shape(source_traj) != full:
        raise SolverError(f"source_traj is {np.shape(source_traj)}, the march needs {full}")
    if out is not None:
        if out.shape != full or out.dtype != complex:
            raise SolverError(f"out is {out.dtype} {out.shape}, the march needs complex128 {full}")
        for name, arr in (("f_in", f_in), ("source_traj", source_traj)):
            if arr is not None and np.shares_memory(out, arr):
                raise SolverError(f"out shares memory with {name}")
    states = np.empty(full, dtype=complex) if out is None else out
    states[0] = np.asarray(f_in, dtype=complex).reshape(shape)
    homogeneous = _homogeneous_map(rp)
    if source_traj is None:
        for n in range(steps):
            homogeneous(states[n], out=states[n + 1])
    else:
        # states[n+1] holds (dt/2) H S_n until H g_n is added (addition commutes)
        half_dt = 0.5 * rp.dt
        homogeneous(source_traj[:steps], out=states[1:])
        states[1:] *= half_dt
        hg, half = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        for g, nxt, s in zip(states[:-1], states[1:], source_traj[1:]):
            nxt += homogeneous(g, out=hg)
            nxt += np.multiply(half_dt, s, out=half)  # (dt/2) S_(n+1), added last
    finite = np.isfinite(states).reshape(steps + 1, -1).all(axis=1)
    if not finite.all():
        raise SolverAbort(f"non-finite state {np.argmin(finite)} (dt={rp.dt}, eps={rp.eps})")
    return states


# --- scalar reduction oracle --------------------------------------------------


def scalar_step(g: float, a: float, dt: float, s_now: float, s_next: float) -> float:
    """The same update formula collapsed to scalars: dg/dt = -a g + S."""
    decay = math.exp(-a * dt)
    return decay * g + 0.5 * dt * (decay * s_now + s_next)


def integrate_scalar(g0: float, a: float, t_final: float, steps: int, source) -> float:
    dt = t_final / steps
    g = g0
    for n in range(steps):
        g = scalar_step(g, a, dt, source(n * dt), source((n + 1) * dt))
    return g


# --- monitors -----------------------------------------------------------------


def weight_values(grid: VelocityGrid, a0: float, t: float) -> np.ndarray:
    return np.exp((a0 - t) * grid.v_bracket_sq)


@dataclass
class EnergyReport:
    weighted_norms: np.ndarray
    dissipation_integrand: np.ndarray
    dissipation_integral: float
    groenwall_residuals: np.ndarray
    sup_weighted_norm: float
    violations: list[int] = field(default_factory=list)


GROENWALL_TOL = 1e-9  # relative rounding allowance of a step-wise residual


def energy_monitor(
    states: np.ndarray,
    rp: RegularizedProblem,
    source_traj: np.ndarray | None = None,
) -> EnergyReport:
    """Weighted sup norm, dissipation functional, and step-wise bookkeeping.

    The residual at step n is

        ||w g||(t_n) + (dt/2)(||w S||(t_n) + ||w S||(t_{n+1})) - ||w g||(t_{n+1})

    which the contraction structure keeps nonnegative; violating steps are
    reported with their index.
    """
    grid = rp.grid
    if rp.x_points:
        raise SolverError("energy monitor covers the velocity-only reduction")
    vsq = grid.v_bracket_sq
    times = rp.times
    weights = weight_values(grid, rp.a0, times[:, None])  # one table for all terms
    wg = weights * states
    wnorms = l2_norms(grid, wg)
    work = np.multiply(np.sqrt(vsq), wg)  # the one work buffer
    a = l2_norms(grid, work) ** 2
    c = l2_norms(grid, np.multiply(vsq ** (1.0 / (2.0 * (1.0 - rp.prm.s))), wg, out=work)) ** 2
    grad = np.fft.fft(wg, axis=-1, norm="ortho", out=wg)  # wg is not read again
    np.multiply(1j * grid.axis_frequencies, grad, out=grad)
    np.fft.ifft(grad, axis=-1, norm="ortho", out=grad)
    diss = a + rp.eps * l2_norms(grid, grad) ** 2 + rp.eps * c
    integral = float(np.trapezoid(diss, times))
    src = 0.0
    if source_traj is not None:
        snorms = l2_norms(grid, np.multiply(weights, source_traj, out=work))
        src = 0.5 * rp.dt * (snorms[:-1] + snorms[1:])
    residuals = wnorms[:-1] + src - wnorms[1:]
    violations = np.flatnonzero(residuals < -GROENWALL_TOL * np.maximum(wnorms[:-1], 1.0)).tolist()
    return EnergyReport(
        weighted_norms=wnorms,
        dissipation_integrand=diss,
        dissipation_integral=integral,
        groenwall_residuals=residuals,
        sup_weighted_norm=float(np.max(wnorms)),
        violations=violations,
    )


@dataclass
class KineticMoments:
    mass: np.ndarray  # one value per field; a scalar for a single field
    energy: np.ndarray
    entropy: np.ndarray
    flags: dict


def moments(
    grid: VelocityGrid,
    u: np.ndarray,
    m0: float = 0.0,
    m_cap: float = np.inf,
    e_cap: float = np.inf,
    h_cap: float = np.inf,
) -> KineticMoments:
    """Quadrature moments of each field on the last axis of u, with their flags.

    Only the real part of u enters.  A stack of fields gives one value per
    field in each moment and flag.  Flags report mass >= m0/2,
    mass <= 2 M0, energy <= 2 E0 and entropy <= 2 H0 against the supplied
    reference constants.
    """
    h = grid.spacing
    vals = np.real(u)
    v = grid.axis_points
    mass = h * np.sum(vals, axis=-1)
    energy = h * np.sum(vals * v**2, axis=-1)
    # x log(1 + x), nan where 1 + x <= 0, whose log1p is never taken
    log_term = np.log1p(vals, out=np.full(vals.shape, np.nan), where=vals > -1.0)
    entropy = h * np.sum(vals * log_term, axis=-1)
    flags = {
        "mass_above_vacuum": mass >= m0 / 2.0,
        "mass_bounded": mass <= 2.0 * m_cap,
        "energy_bounded": energy <= 2.0 * e_cap,
        "entropy_bounded": entropy <= 2.0 * h_cap,
    }
    return KineticMoments(mass=mass, energy=energy, entropy=entropy, flags=flags)


def positivity_series(states: np.ndarray) -> np.ndarray:
    """Minimum real sample per snapshot; measurement only, never judged."""
    return np.min(states.real, axis=tuple(range(1, states.ndim)))


def mass_series(rp: RegularizedProblem, states: np.ndarray) -> np.ndarray:
    cell = rp.grid.spacing if not rp.x_points else rp.grid.spacing / rp.x_points
    return cell * np.sum(states.real, axis=tuple(range(1, states.ndim)))


# --- Picard iteration ----------------------------------------------------------


@dataclass
class PicardState:
    problem: RegularizedProblem
    iterations: int
    difference_norms: list[float]
    ratios: list[float]
    contraction: bool
    retries: int
    attempts: list[list]  # [t_final, iterations, stop reason] of each attempt, the returned one last
    fixed_point_residual: float
    energy: EnergyReport
    final_states: np.ndarray

    def summary(self) -> dict:
        return {
            "iterations": self.iterations,
            "difference_norms": self.difference_norms,
            "ratios": self.ratios,
            "contraction": self.contraction,
            "retries": self.retries,
            "attempts": self.attempts,
            "t_final": self.problem.t_final,
            "fixed_point_residual": self.fixed_point_residual,
            "sup_weighted_norm": self.energy.sup_weighted_norm,
            "dissipation_integral": self.energy.dissipation_integral,
        }


def _dissipative_source(
    rp: RegularizedProblem, states: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Source surrogate -<v>^gamma <D>^(2s) applied to a trajectory, into ``out``."""
    grid = rp.grid
    coeff = effective_coefficient(grid, rp.prm.gamma)
    out = np.fft.fft(states, axis=-1, norm="ortho", out=out)
    out *= grid.eta_bracket_sq ** rp.prm.s
    np.fft.ifft(out, axis=-1, norm="ortho", out=out)
    return np.multiply(-coeff, out, out=out)


def _weighted_sup_diff(grid: VelocityGrid, w: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """max over states of ||w (a - b)||; b is overwritten with w (a - b)."""
    np.subtract(a, b, out=b)
    b *= w
    return float(np.max(l2_norms(grid, b), initial=0.0))


RATIO_THRESHOLD = 0.6  # largest trailing difference ratio read as contraction
RATIO_WINDOW = 3  # consecutive ratios, ending at the smallest difference, the verdict reads
FLOOR_FRACTION = 1e-6  # an attempt stops at a non-decreasing difference below this share of its peak
GROWTH_WINDOW = 3  # an attempt stops after this many consecutive growing differences above that share
MAX_RETRIES = 4  # final-time halvings before non-contraction is reported


def _stop_reason(diffs: list[float]) -> str | None:
    """Why an attempt stops after these differences: "floor", "growth" or None (go on).

    Far below the transient peak, a non-decreasing difference marks the
    weight-amplified rounding floor, where later ratios are noise.  Above
    that floor, ``GROWTH_WINDOW`` consecutive ratios above 1 mark a
    diverging attempt: its verdict, read at the smallest difference, could
    change only if a later difference fell below that one.  One or two
    growing ratios do not stop an attempt: the first ratio is a transient,
    and a non-normal map may grow for a while before it contracts.
    """
    if len(diffs) < 2:
        return None
    if diffs[-1] <= FLOOR_FRACTION * max(diffs):
        return "floor" if diffs[-1] >= diffs[-2] else None
    tail = diffs[-GROWTH_WINDOW - 1 :]
    if len(tail) > GROWTH_WINDOW and all(0 < a < b for a, b in zip(tail, tail[1:])):
        return "growth"
    return None


def _eventually_contracting(diffs: list[float]) -> bool:
    """True when the trailing ratios down to the smallest difference pass.

    The smallest recorded difference marks where the sequence meets the
    rounding floor of the weighted norm; the ``RATIO_WINDOW`` consecutive
    ratios ending there must all stay at or below ``RATIO_THRESHOLD``.
    """
    if not diffs:
        return False
    if max(diffs) == 0.0:
        return True  # identically zero sequence contracts vacuously
    m = int(np.argmin(diffs))
    if m < RATIO_WINDOW:
        return False
    ratios = [diffs[i + 1] / diffs[i] for i in range(m - RATIO_WINDOW, m) if diffs[i] > 0]
    return len(ratios) == RATIO_WINDOW and all(r <= RATIO_THRESHOLD for r in ratios)


def picard_iterate(
    f_in: np.ndarray,
    rp: RegularizedProblem,
    n_max: int,
) -> PicardState:
    """Iterate the linear problem with the dissipative source surrogate.

    g^0 = 0; g^n solves the regularized problem from f_in with source built
    from g^(n-1).  Weighted difference norms are recorded per iterate;
    contraction holds when the trailing ratios stay below RATIO_THRESHOLD.
    On non-contraction the final time is halved (same step count) up to
    MAX_RETRIES times; exhausting retries reports non-contraction in the
    state rather than raising.  Only the attempt returned is finished with
    the fixed-point residual and the energy monitor.
    """
    if n_max < 3:
        raise SolverError("n_max must be at least 3")
    if rp.x_points:
        raise SolverError("Picard iteration covers the velocity-only reduction")
    if np.shape(f_in) != rp.grid.shape:
        raise SolverError(
            f"initial datum has shape {np.shape(f_in)}, the grid expects {rp.grid.shape}"
        )
    if not math.isfinite(l2_norms(rp.grid, weight_values(rp.grid, rp.a0, 0.0) * f_in)):
        raise SolverError("weighted norm of the initial datum is not finite")
    # one workspace for every march of the call: two trajectories that swap
    # roles each iterate, and the source
    prev, current, source = (
        np.empty((rp.steps + 1, rp.grid.points_per_axis), dtype=complex) for _ in range(3)
    )
    problem = rp
    retries = 0
    attempts = []
    while True:
        # one weight table per attempt, read by its differences and its residual
        weights = weight_values(problem.grid, problem.a0, problem.times[:, None])
        prev.fill(0.0)  # g^0
        diffs: list[float] = []
        ratios: list[float] = []
        for n in range(1, n_max + 1):
            src = _dissipative_source(problem, prev, out=source) if n > 1 else None
            integrate(problem, f_in, source_traj=src, out=current)
            diffs.append(_weighted_sup_diff(problem.grid, weights, current, prev))  # prev is spent
            if len(diffs) >= 2 and diffs[-2] > 0:
                ratios.append(diffs[-1] / diffs[-2])
            prev, current = current, prev
            if reason := _stop_reason(diffs):
                break
        attempts.append([problem.t_final, len(diffs), reason or "nmax"])
        contraction = _eventually_contracting(diffs)
        if contraction or retries >= MAX_RETRIES:
            break
        del weights  # a retried attempt's table is dropped before the next is built
        retries += 1
        problem = replace(problem, t_final=problem.t_final / 2.0)
    # fixed-point residual: rerun with the source built from the limit (prev)
    final_source = _dissipative_source(problem, prev, out=source)
    states = integrate(problem, f_in, source_traj=final_source, out=current)
    residual = _weighted_sup_diff(problem.grid, weights, states, prev)
    del prev  # spent; freed before the monitor's work buffers are built
    energy = energy_monitor(states, problem, source_traj=final_source)
    return PicardState(
        problem=problem,
        iterations=len(diffs),
        difference_norms=diffs,
        ratios=ratios,
        contraction=contraction,
        retries=retries,
        attempts=attempts,
        fixed_point_residual=residual,
        energy=energy,
        final_states=states,
    )
