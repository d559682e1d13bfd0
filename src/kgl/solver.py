"""Regularized linear parabolic solver, Picard iteration, and monitors.

The Cauchy problem marched here is

    d/dt g + v . d/dx g + eps (<v>^(2/(1-s)) - Lap_{x,v}) g = S(t),

in reduced dimension (one velocity axis, optional periodic space axis).
Each step composes exact factors into the homogeneous map H: half a
pointwise decay exp(-(eps dt/2) <v>^(2/(1-s))), the exact transport phase
shift, the exact Fourier diffusion factor, the second pointwise half; then
a trapezoidal source update, g_{n+1} = H g_n + (dt/2) H S_n + (dt/2) S_{n+1}.
All homogeneous factors have symbol <= 1, so the step is an unweighted L2
contraction; with the time-decreasing Gaussian weight it remains a weighted
contraction for eps < 1/(2 a0)^2-type smallness, which the energy monitor
checks step by step.

The march keeps only sequential work in its loop: one forward and one
inverse transform of H g_n per step (per axis with the space axis on).
The source halves H S_n are transformed as one batch before it, and the
states are checked for non-finite values once after it.  The additions keep
the order of the formula above, so the states are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from kgl.grid import SpectralField, VelocityGrid
from kgl.params import SoftPotentialParams
from kgl.toy import effective_coefficient


class SolverError(ValueError):
    pass


class SolverAbort(RuntimeError):
    """Non-finite values appeared in a march."""


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
        if self.grid.dimension != 1:
            raise SolverError("reduced setting uses a one-dimensional velocity grid")
        if self.a0 <= 0:
            raise SolverError("a0 must be positive")
        if self.t_final <= 0 or self.t_final > self.a0 / 2.0:
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

    def with_final_time(self, t_final: float) -> "RegularizedProblem":
        return replace(self, t_final=t_final)


class RegularizedStepper:
    """Exact-factor splitting for the homogeneous part plus trapezoidal source."""

    def __init__(self, rp: RegularizedProblem):
        self.rp = rp
        grid = rp.grid
        dt = rp.dt
        vsq = grid.v_bracket_sq
        self.pointwise_half = np.exp(-0.5 * rp.eps * dt * vsq ** (rp.weight_power / 2.0))
        eta = grid.axis_frequencies
        if rp.x_points:
            xi = 2.0 * np.pi * np.fft.fftfreq(rp.x_points, d=1.0 / rp.x_points)  # torus [0,1)
            self.fourier = np.exp(
                -rp.eps * dt * (xi[:, None] ** 2 + eta[None, :] ** 2)
            )
            v = grid.axis_points
            self.transport = np.exp(-1j * dt * xi[:, None] * v[None, :])
        else:
            self.fourier = np.exp(-rp.eps * dt * eta**2)
            self.transport = None

    def homogeneous(self, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """H applied to a state or to a stack of states (last axes), into ``out``."""
        if out is None:
            out = np.empty(np.shape(g), dtype=complex)
        np.multiply(self.pointwise_half, g, out=out)
        if self.transport is not None:
            np.fft.fft(out, axis=-2, norm="ortho", out=out)
            out *= self.transport
        np.fft.fft(out, axis=-1, norm="ortho", out=out)
        out *= self.fourier
        np.fft.ifft(out, axis=-1, norm="ortho", out=out)
        if self.transport is not None:
            np.fft.ifft(out, axis=-2, norm="ortho", out=out)
        return np.multiply(self.pointwise_half, out, out=out)


def _march(
    stepper: RegularizedStepper, g0: np.ndarray, steps: int, source_traj: np.ndarray | None = None
) -> np.ndarray:
    """States g_0..g_steps of the trapezoidal step; ``source_traj[n]`` is S_n."""
    states = np.empty((steps + 1,) + g0.shape, dtype=complex)
    states[0] = g0
    if source_traj is None:
        for n in range(steps):
            stepper.homogeneous(states[n], out=states[n + 1])
    else:
        # states[n+1] holds (dt/2) H S_n until H g_n is added (addition commutes)
        half_dt = 0.5 * stepper.rp.dt
        stepper.homogeneous(source_traj[:steps], out=states[1:])
        states[1:] *= half_dt
        hg = np.empty_like(g0)
        for n in range(steps):
            states[n + 1] += stepper.homogeneous(states[n], out=hg)
            states[n + 1] += half_dt * source_traj[n + 1]
    finite = np.isfinite(states).reshape(steps + 1, -1).all(axis=1)
    if not finite.all():
        rp = stepper.rp
        raise SolverAbort(f"non-finite state {np.argmin(finite)} (dt={rp.dt}, eps={rp.eps})")
    return states


def step_regularized(
    g: SpectralField,
    rp: RegularizedProblem,
    source: SpectralField | None = None,
) -> SpectralField:
    """Single public step on velocity-only fields (source frozen over the step)."""
    if rp.x_points:
        raise SolverError("field-level stepping covers the velocity-only reduction")
    frozen = None if source is None else np.stack([source.samples, source.samples])
    states = _march(RegularizedStepper(rp), g.samples.astype(complex), 1, frozen)
    return SpectralField.from_samples(g.grid, states[1])


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (steps+1, N) or (steps+1, Mx, N)

    def final(self) -> np.ndarray:
        return self.states[-1]


def integrate(
    rp: RegularizedProblem,
    f_in: np.ndarray,
    source_traj: np.ndarray | None = None,
) -> Trajectory:
    """March the problem from f_in; ``source_traj[n]`` is S at time n dt."""
    shape = (rp.x_points, rp.grid.points_per_axis) if rp.x_points else (rp.grid.points_per_axis,)
    g0 = np.asarray(f_in, dtype=complex).reshape(shape)
    states = _march(RegularizedStepper(rp), g0, rp.steps, source_traj)
    return Trajectory(times=rp.times, states=states)


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


def _l2(grid: VelocityGrid, arr: np.ndarray) -> float:
    # velocity cell is h; with the space axis on, the unit x-torus adds 1/Mx
    cell = grid.spacing if arr.ndim == 1 else grid.spacing / arr.shape[0]
    return float(np.sqrt(cell) * np.linalg.norm(arr.ravel()))


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class EnergyReport:
    times: np.ndarray
    weighted_norms: np.ndarray
    dissipation_integrand: np.ndarray
    dissipation_integral: float
    groenwall_residuals: np.ndarray
    sup_weighted_norm: float
    violations: list[int] = field(default_factory=list)


def energy_monitor(
    traj: Trajectory,
    rp: RegularizedProblem,
    source_traj: np.ndarray | None = None,
    tol: float = 1e-9,
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
    weights = weight_values(grid, rp.a0, traj.times[:, None])  # one table for all terms
    wg = weights * traj.states
    wnorms = np.array([_l2(grid, row) for row in wg])
    sqrt_vsq, vsq_pow = np.sqrt(vsq), vsq ** (1.0 / (2.0 * (1.0 - rp.prm.s)))
    weight_terms = [(_l2(grid, sqrt_vsq * row) ** 2, _l2(grid, vsq_pow * row) ** 2) for row in wg]
    grad = np.fft.fft(wg, axis=-1, norm="ortho", out=wg)  # wg is not read again
    np.multiply(1j * grid.axis_frequencies, grad, out=grad)
    np.fft.ifft(grad, axis=-1, norm="ortho", out=grad)
    diss = np.array([
        a + rp.eps * _l2(grid, g) ** 2 + rp.eps * c for (a, c), g in zip(weight_terms, grad)
    ])
    integral = float(_trapezoid(diss, traj.times))
    src = 0.0
    if source_traj is not None:
        snorms = np.array([_l2(grid, w * s) for w, s in zip(weights, source_traj)])
        src = 0.5 * rp.dt * (snorms[:-1] + snorms[1:])
    residuals = wnorms[:-1] + src - wnorms[1:]
    violations = np.flatnonzero(residuals < -tol * np.maximum(wnorms[:-1], 1.0)).tolist()
    return EnergyReport(
        times=traj.times,
        weighted_norms=wnorms,
        dissipation_integrand=diss,
        dissipation_integral=integral,
        groenwall_residuals=residuals,
        sup_weighted_norm=float(np.max(wnorms)),
        violations=violations,
    )


@dataclass
class KineticMoments:
    mass: float
    energy: float
    entropy: float
    flags: dict


def moments(
    f: SpectralField,
    m0: float = 0.0,
    m_cap: float = np.inf,
    e_cap: float = np.inf,
    h_cap: float = np.inf,
) -> KineticMoments:
    """Quadrature moments with the away-from-vacuum / boundedness flags.

    Flags report mass >= m0/2, mass <= 2 M0, energy <= 2 E0 and
    entropy <= 2 H0 against the supplied reference constants.
    """
    grid = f.grid
    if grid.dimension != 1:
        raise SolverError("moments implemented for the one-dimensional reduction")
    h = grid.spacing
    vals = f.samples.real
    v = grid.axis_points
    mass = float(h * np.sum(vals))
    energy = float(h * np.sum(vals * v**2))
    with np.errstate(invalid="ignore"):
        ent_density = np.where(vals > -1.0, vals * np.log1p(np.maximum(vals, -1 + 1e-300)), np.nan)
    entropy = float(h * np.sum(ent_density))
    flags = {
        "mass_above_vacuum": bool(mass >= m0 / 2.0),
        "mass_bounded": bool(mass <= 2.0 * m_cap),
        "energy_bounded": bool(energy <= 2.0 * e_cap),
        "entropy_bounded": bool(entropy <= 2.0 * h_cap),
    }
    return KineticMoments(mass=mass, energy=energy, entropy=entropy, flags=flags)


def positivity_series(traj: Trajectory) -> np.ndarray:
    """Minimum real sample per snapshot; measurement only, never judged."""
    return np.array([float(np.min(s.real)) for s in traj.states])


def mass_series(rp: RegularizedProblem, traj: Trajectory) -> np.ndarray:
    cell = rp.grid.spacing if not rp.x_points else rp.grid.spacing / rp.x_points
    return np.array([cell * float(np.sum(s.real)) for s in traj.states])


def _eventually_contracting(diffs: list[float], threshold: float, window: int = 3) -> bool:
    """True when the trailing ratios down to the smallest difference pass.

    The smallest recorded difference marks where the sequence meets the
    rounding floor of the weighted norm; the ``window`` consecutive ratios
    ending there must all stay at or below the threshold.
    """
    if not diffs:
        return False
    if max(diffs) == 0.0:
        return True  # identically zero sequence contracts vacuously
    m = int(np.argmin(diffs))
    if m < window:
        return False
    ratios = [diffs[i + 1] / diffs[i] for i in range(m - window, m) if diffs[i] > 0]
    return len(ratios) == window and all(r <= threshold for r in ratios)


# --- Picard iteration ----------------------------------------------------------


@dataclass
class PicardState:
    problem: RegularizedProblem
    iterations: int
    difference_norms: list[float]
    ratios: list[float]
    contraction: bool
    retries: int
    fixed_point_residual: float
    energy: EnergyReport
    final_trajectory: Trajectory

    def summary(self) -> dict:
        return {
            "iterations": self.iterations,
            "difference_norms": self.difference_norms,
            "ratios": self.ratios,
            "contraction": self.contraction,
            "retries": self.retries,
            "t_final": self.problem.t_final,
            "fixed_point_residual": self.fixed_point_residual,
            "sup_weighted_norm": self.energy.sup_weighted_norm,
            "dissipation_integral": self.energy.dissipation_integral,
        }


def _dissipative_source(rp: RegularizedProblem, states: np.ndarray) -> np.ndarray:
    """Source surrogate -<v>^gamma <D>^(2s) applied to a trajectory."""
    grid = rp.grid
    coeff = effective_coefficient(grid, rp.prm.gamma)
    out = np.fft.fft(states, axis=-1, norm="ortho")
    out *= grid.eta_bracket_sq ** rp.prm.s
    np.fft.ifft(out, axis=-1, norm="ortho", out=out)
    return np.multiply(-coeff, out, out=out)


def _weighted_sup_diff(grid: VelocityGrid, w: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return max(0.0, *(_l2(grid, wn * (an - bn)) for wn, an, bn in zip(w, a, b)))


def picard_iterate(
    f_in: SpectralField,
    rp: RegularizedProblem,
    n_max: int = 25,
    ratio_threshold: float = 0.6,
    max_retries: int = 4,
) -> PicardState:
    """Iterate the linear problem with the dissipative source surrogate.

    g^0 = 0; g^n solves the regularized problem from f_in with source built
    from g^(n-1).  Weighted difference norms are recorded per iterate;
    contraction holds when the trailing ratios stay below the threshold.
    On non-contraction the final time is halved (same step count) up to
    ``max_retries`` times; exhausting retries reports non-contraction in
    the state rather than raising.
    """
    if n_max < 3:
        raise SolverError("n_max must be at least 3")
    if not math.isfinite(_l2(rp.grid, weight_values(rp.grid, rp.a0, 0.0) * f_in.samples)):
        raise SolverError("weighted norm of the initial datum is not finite")
    problem = rp
    retries = 0
    while True:
        state = _picard_once(f_in, problem, n_max, ratio_threshold)
        state.retries = retries
        if state.contraction or retries >= max_retries:
            return state
        retries += 1
        problem = problem.with_final_time(problem.t_final / 2.0)


def _picard_once(
    f_in: SpectralField,
    rp: RegularizedProblem,
    n_max: int,
    ratio_threshold: float,
) -> PicardState:
    shape = (rp.steps + 1, rp.grid.points_per_axis)
    weights = weight_values(rp.grid, rp.a0, rp.times[:, None])  # one table per attempt
    prev = np.zeros(shape, dtype=complex)
    diffs: list[float] = []
    ratios: list[float] = []
    for n in range(1, n_max + 1):
        source = _dissipative_source(rp, prev) if n > 1 else np.zeros(shape, dtype=complex)
        traj = integrate(rp, f_in.samples, source_traj=source)
        del source  # freed before the next source or the monitor's buffer is built
        current = traj.states
        diffs.append(_weighted_sup_diff(rp.grid, weights, current, prev))
        if len(diffs) >= 2 and diffs[-2] > 0:
            ratios.append(diffs[-1] / diffs[-2])
        prev = current
        # once far below the transient peak, a non-decreasing difference
        # marks the weight-amplified rounding floor; later ratios are noise
        if (
            len(diffs) >= 2
            and diffs[-1] <= 1e-6 * max(diffs)
            and diffs[-1] >= diffs[-2]
        ):
            break
    contraction = _eventually_contracting(diffs, ratio_threshold)
    # fixed-point residual: rerun with the source built from the limit
    final_source = _dissipative_source(rp, prev)
    traj = integrate(rp, f_in.samples, source_traj=final_source)
    residual = _weighted_sup_diff(rp.grid, weights, traj.states, prev)
    energy = energy_monitor(traj, rp, source_traj=final_source)
    return PicardState(
        problem=rp,
        iterations=len(diffs),
        difference_norms=diffs,
        ratios=ratios,
        contraction=contraction,
        retries=0,
        fixed_point_residual=residual,
        energy=energy,
        final_trajectory=traj,
    )
