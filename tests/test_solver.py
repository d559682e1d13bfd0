import math

import numpy as np
import pytest

from kgl.grid import SpectralField, VelocityGrid
from kgl.params import SoftPotentialParams
from kgl.solver import (
    RegularizedProblem,
    RegularizedStepper,
    SolverAbort,
    SolverError,
    energy_monitor,
    integrate,
    integrate_scalar,
    mass_series,
    moments,
    picard_iterate,
    positivity_series,
    scalar_step,
    step_regularized,
    weight_values,
)

PRM = SoftPotentialParams(gamma=-1.0, s=0.5)


def make_problem(**kw):
    grid = kw.pop("grid", VelocityGrid(1, 256, 4.0))
    defaults = dict(eps=0.1, prm=PRM, a0=1.0, grid=grid, t_final=0.2, steps=64)
    defaults.update(kw)
    return RegularizedProblem(**defaults)


def gaussian_datum(grid, a0=1.0):
    return SpectralField.from_samples(grid, np.exp(-a0 * grid.v_bracket_sq))


# --- scalar reduction oracle ---------------------------------------------------


def test_scalar_steady_state_second_order():
    a, S = 2.0, 3.0
    errs = []
    for steps in (50, 100, 200):
        g = 0.0
        dt = 5.0 / steps
        for _ in range(steps * 4):  # run long enough to reach steady state
            g = scalar_step(g, a, dt, S, S)
        errs.append(abs(g - S / a))
    # halving dt divides the steady-state defect by about four
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_scalar_global_order_richardson():
    a = 1.3
    t_final = 1.0

    def source(t):
        return math.cos(3.0 * t)

    # reference by very fine stepping
    ref = integrate_scalar(0.7, a, t_final, 16384, source)
    errs = []
    steps_list = (64, 128, 256, 512)
    for steps in steps_list:
        errs.append(abs(integrate_scalar(0.7, a, t_final, steps, source) - ref))
    slopes = [
        math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)
    ]
    for s in slopes:
        assert 1.8 <= s <= 2.2


# --- stepping ------------------------------------------------------------------


def test_zero_source_norm_decreasing():
    rp = make_problem()
    g = gaussian_datum(rp.grid)
    traj = integrate(rp, g.samples)
    norms = [np.linalg.norm(s) for s in traj.states]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_single_mode_pure_diffusion_factor():
    grid = VelocityGrid(1, 256, 4.0)
    rp = make_problem(grid=grid, eps=1.0, t_final=0.1, steps=8)
    eta3 = grid.axis_frequencies[3]
    v = grid.v_meshes[0]
    g0 = np.exp(1j * eta3 * v)
    traj = integrate(rp, g0)
    # v-independent |g|: the pointwise factor acts pointwise; the Fourier
    # factor multiplies the single mode by exp(-eps dt eta^2) exactly
    pw = np.exp(-rp.eps * rp.dt * grid.v_bracket_sq ** (1 / (1 - PRM.s) / 1) ** 1)
    expected = g0.copy()
    for _ in range(rp.steps):
        expected = (
            np.exp(-0.5 * rp.eps * rp.dt * grid.v_bracket_sq ** 2)
            * expected
        )
        expected = np.fft.ifft(
            np.fft.fft(expected, norm="ortho") * np.exp(-rp.eps * rp.dt * grid.axis_frequencies**2),
            norm="ortho",
        )
        expected = np.exp(-0.5 * rp.eps * rp.dt * grid.v_bracket_sq ** 2) * expected
    assert np.max(np.abs(traj.final() - expected)) <= 1e-12


def _per_step_oracle(rp, f_in, source_traj=None, steps=None):
    """The per-step formula H g + (dt/2) H S_n + (dt/2) S_{n+1}, one state at a time.

    H is written out factor by factor, one transform call per axis and per
    state, independent of the solver's batched march.
    """
    st = RegularizedStepper(rp)

    def homogeneous(g):
        g = st.pointwise_half * g
        if rp.x_points:
            gh = np.fft.fft(g, axis=0, norm="ortho")
            gh *= st.transport
            gh = np.fft.fft(gh, axis=1, norm="ortho")
            gh *= st.fourier
            g = np.fft.ifft(np.fft.ifft(gh, axis=1, norm="ortho"), axis=0, norm="ortho")
        else:
            g = np.fft.ifft(np.fft.fft(g, norm="ortho") * st.fourier, norm="ortho")
        return st.pointwise_half * g

    shape = (rp.x_points, rp.grid.points_per_axis) if rp.x_points else rp.grid.shape
    g = np.asarray(f_in, dtype=complex).reshape(shape)
    states = [g]
    for n in range(rp.steps if steps is None else steps):
        g = homogeneous(g)
        if source_traj is not None:
            g = g + 0.5 * rp.dt * homogeneous(source_traj[n])
            g = g + 0.5 * rp.dt * source_traj[n + 1]
        states.append(g)
    return np.array(states)


def _band_source(grid, steps, seed):
    rng = np.random.default_rng(seed)
    spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    spec[grid.eta_abs > 0.3 * grid.nyquist] = 0.0
    band = np.exp(-grid.v_bracket_sq) * np.fft.ifft(spec, norm="ortho").real
    return np.broadcast_to(band, (steps + 1,) + grid.shape).copy()


def _complex_source(shape, seed):
    rng = np.random.default_rng(seed)
    return 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_march_is_bit_identical_to_the_per_step_formula():
    rp = make_problem(steps=32)
    g0 = gaussian_datum(rp.grid).samples
    full = (rp.steps + 1,) + rp.grid.shape
    for src in (None, _band_source(rp.grid, rp.steps, 1), _complex_source(full, 2)):
        states = integrate(rp, g0, source_traj=src).states
        assert np.array_equal(states, _per_step_oracle(rp, g0, src))
    # space axis on: the batched source half is the full two-axis H
    grid = VelocityGrid(1, 64, 4.0)
    rpx = make_problem(grid=grid, steps=16, x_points=8)
    x = np.arange(8)[:, None] / 8.0
    gx = np.exp(-grid.v_bracket_sq) * (1.0 + 0.3 * np.sin(2 * np.pi * x))
    src = _complex_source((rpx.steps + 1, 8) + grid.shape, 3)
    states = integrate(rpx, gx, source_traj=src).states
    assert np.array_equal(states, _per_step_oracle(rpx, gx, src))


def test_step_regularized_is_a_one_step_march_with_frozen_source():
    rp = make_problem()
    g = gaussian_datum(rp.grid)
    s = _band_source(rp.grid, 1, 4)
    out = step_regularized(g, rp, SpectralField.from_samples(rp.grid, s[0]))
    assert np.array_equal(out.samples, _per_step_oracle(rp, g.samples, s, steps=1)[1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x_points", [0, 8])
def test_solver_abort_names_the_first_non_finite_state(x_points):
    grid = VelocityGrid(1, 64, 4.0)
    rp = make_problem(grid=grid, steps=16, x_points=x_points)
    shape = ((x_points,) if x_points else ()) + grid.shape
    g0 = np.broadcast_to(np.exp(-grid.v_bracket_sq), shape)
    src = np.zeros((rp.steps + 1,) + shape)
    src[5] = np.inf  # enters state 5 through (dt/2) S_5, state 6 through H S_5
    with pytest.raises(SolverAbort, match=r"non-finite state 5 \("):
        integrate(rp, g0, source_traj=src)
    bad = g0.copy()
    bad[..., 7] = np.nan
    with pytest.raises(SolverAbort, match=r"non-finite state 0 \("):
        integrate(rp, bad)


def test_transform_counts_of_one_march_and_of_the_energy_monitor(monkeypatch):
    calls = {"n": 0}
    for name in ("fft", "ifft"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls["n"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)

    def count(fn, *args, **kwargs):
        calls["n"] = 0
        result = fn(*args, **kwargs)
        return calls["n"], result

    monitor_counts = set()
    for steps in (8, 32):
        rp = make_problem(steps=steps)
        g0 = gaussian_datum(rp.grid).samples
        src = _band_source(rp.grid, steps, 5)
        # two sequential transforms per step, two batched ones for the source
        assert count(integrate, rp, g0)[0] == 2 * steps
        n, traj = count(integrate, rp, g0, source_traj=src)
        assert n == 2 * steps + 2
        monitor_counts.add(count(energy_monitor, traj, rp, source_traj=src)[0])
    assert len(monitor_counts) == 1


def test_step_regularized_field_level():
    rp = make_problem()
    g = gaussian_datum(rp.grid)
    out = step_regularized(g, rp)
    assert out.l2_norm() < g.l2_norm()


def test_weighted_contraction_zero_source():
    rp = make_problem()
    g = gaussian_datum(rp.grid)
    traj = integrate(rp, g.samples)
    rep = energy_monitor(traj, rp)
    assert not rep.violations
    assert rep.sup_weighted_norm <= rep.weighted_norms[0] * (1 + 1e-12)


def test_energy_monitor_eps_scaling_of_dissipation():
    # the eps-terms of the dissipation integrand scale linearly in eps
    grid = VelocityGrid(1, 256, 4.0)
    g = gaussian_datum(grid)
    rp1 = make_problem(grid=grid, eps=0.1)
    rp2 = make_problem(grid=grid, eps=0.2)
    traj = integrate(rp1, g.samples)
    rep1 = energy_monitor(traj, rp1)
    rep2 = energy_monitor(traj, rp2)  # same states, different eps bookkeeping
    base = rep1.dissipation_integrand - 0.1 * (
        (rep2.dissipation_integrand - rep1.dissipation_integrand) / 0.1
    )
    eps_part1 = rep1.dissipation_integrand - base
    eps_part2 = rep2.dissipation_integrand - base
    assert np.allclose(eps_part2, 2.0 * eps_part1, rtol=1e-10)


def test_groenwall_residuals_with_source_random_suite():
    rng = np.random.default_rng(42)
    grid = VelocityGrid(1, 256, 4.0)
    for run in range(20):
        rp = make_problem(grid=grid, eps=float(rng.uniform(0.02, 0.2)))
        spec = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        spec[grid.eta_abs > 0.3 * grid.nyquist] = 0.0
        rough = np.fft.ifft(spec, norm="ortho").real
        band = np.exp(-grid.v_bracket_sq) * rough
        g0 = np.exp(-grid.v_bracket_sq) * (1 + 0.3 * rough)
        src = np.broadcast_to(band, (rp.steps + 1,) + grid.shape).copy()
        traj = integrate(rp, g0, source_traj=src)
        rep = energy_monitor(traj, rp, source_traj=src)
        assert not rep.violations, f"run {run}: steps {rep.violations}"


def test_moments_gaussian_values():
    grid = VelocityGrid(1, 1024, 16.0)
    v = grid.v_meshes[0]
    f = SpectralField.from_samples(grid, np.exp(-(v**2)))
    mom = moments(f, m0=1.0, m_cap=2.0, e_cap=1.0, h_cap=1.0)
    assert mom.mass == pytest.approx(math.sqrt(math.pi), abs=1e-8)
    assert mom.energy == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-8)
    assert all(mom.flags.values())


def test_moments_vacuum_flag():
    grid = VelocityGrid(1, 256, 8.0)
    zero = SpectralField.from_samples(grid, np.zeros(grid.shape))
    mom = moments(zero, m0=1.0)
    assert not mom.flags["mass_above_vacuum"]


def test_moments_violators_flagged():
    grid = VelocityGrid(1, 512, 16.0)
    v = grid.v_meshes[0]
    hot = SpectralField.from_samples(grid, np.exp(-(v**2) / 64.0))  # over-energetic
    mom = moments(hot, m0=0.1, m_cap=100.0, e_cap=1.0, h_cap=100.0)
    assert not mom.flags["energy_bounded"]
    assert mom.flags["mass_above_vacuum"]


def test_entropy_constant_on_box():
    grid = VelocityGrid(1, 256, 4.0)
    c = 0.8
    f = SpectralField.from_samples(grid, np.full(grid.shape, c))
    mom = moments(f)
    assert mom.entropy == pytest.approx(2 * grid.half_width * c * math.log(1 + c), rel=1e-12)


def test_positivity_pure_pointwise_decay():
    # nonnegative data through the pointwise factor alone stays nonnegative;
    # measured through the full splitting it may dip by rounding only
    rp = make_problem(steps=16, t_final=0.1)
    g = gaussian_datum(rp.grid)
    traj = integrate(rp, g.samples)
    mins = positivity_series(traj)
    assert mins[0] >= 0.0
    assert mins.min() >= -1e-8 * float(np.max(np.abs(g.samples)))


def test_positivity_negative_lobe_reported():
    rp = make_problem(steps=16, t_final=0.1)
    v = rp.grid.v_meshes[0]
    g = np.exp(-rp.grid.v_bracket_sq) * v  # odd: negative lobe
    traj = integrate(rp, g)
    mins = positivity_series(traj)
    assert mins[0] < 0.0


def test_transport_conserves_mass():
    grid = VelocityGrid(1, 128, 4.0)
    rp = make_problem(grid=grid, eps=0.0, t_final=0.5, steps=64, x_points=16)
    rng = np.random.default_rng(7)
    base = np.exp(-grid.v_bracket_sq)
    g0 = np.array([base * (1 + 0.2 * math.sin(2 * math.pi * m / 16)) for m in range(16)])
    traj = integrate(rp, g0)
    masses = mass_series(rp, traj)
    drift = abs(masses[-1] - masses[0]) / rp.t_final
    assert drift <= 1e-10 * abs(masses[0]) / rp.t_final + 1e-12


def test_picard_zero_datum():
    rp = make_problem(steps=16)
    zero = SpectralField.from_samples(rp.grid, np.zeros(rp.grid.shape))
    state = picard_iterate(zero, rp, n_max=4)
    assert all(d == 0.0 for d in state.difference_norms[1:])
    assert state.fixed_point_residual == 0.0


def test_picard_first_difference_is_first_iterate():
    rp = make_problem(steps=32)
    f_in = gaussian_datum(rp.grid)
    state = picard_iterate(f_in, rp, n_max=3)
    # g^0 = 0, so the first recorded difference is sup_t ||w g^1||
    src = np.zeros((rp.steps + 1,) + rp.grid.shape, dtype=complex)
    traj = integrate(rp, f_in.samples, source_traj=src)
    worst = 0.0
    for n in range(rp.steps + 1):
        w = weight_values(rp.grid, rp.a0, traj.times[n])
        worst = max(worst, math.sqrt(rp.grid.spacing) * np.linalg.norm(w * traj.states[n]))
    assert state.difference_norms[0] == pytest.approx(worst, rel=1e-12)


def test_picard_contracts_on_gaussian():
    rp = make_problem()
    f_in = gaussian_datum(rp.grid)
    state = picard_iterate(f_in, rp, n_max=30)
    assert state.contraction
    assert state.fixed_point_residual <= 1e-6
    # geometric decay down to the rounding floor of the weighted norm
    d = state.difference_norms
    m = int(np.argmin(d))
    assert all(d[i + 1] <= 0.6 * d[i] for i in range(1, m))


def test_problem_validation():
    grid = VelocityGrid(1, 256, 4.0)
    with pytest.raises(SolverError):
        RegularizedProblem(eps=1.5, prm=PRM, a0=1.0, grid=grid, t_final=0.4, steps=64)
    with pytest.raises(SolverError):
        RegularizedProblem(eps=0.1, prm=PRM, a0=1.0, grid=grid, t_final=0.6, steps=64)


def test_picard_iterations_count_the_rounding_floor_break():
    rp = make_problem()
    state = picard_iterate(gaussian_datum(rp.grid), rp, n_max=30)
    d = state.difference_norms
    # the break fired: far below the peak, the difference stopped decreasing
    assert d[-1] >= d[-2] and d[-1] <= 1e-6 * max(d)
    assert state.iterations == len(d) < 30
