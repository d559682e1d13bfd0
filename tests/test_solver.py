import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.fft import _pocketfft_umath as _pocketfft

import kgl.cli as cli
import kgl.solver as solver
from kgl.grid import VelocityGrid
from kgl.params import SoftPotentialParams
from kgl.solver import (
    RegularizedProblem,
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
    weight_values,
)
from tests.picard_oracle import DIRECT_SOLVE_RTOL, distance_to_direct_solve, picard_fresh

PRM = SoftPotentialParams(gamma=-1.0, s=0.5)


def make_problem(**kw):
    grid = kw.pop("grid", VelocityGrid(256, 4.0))
    defaults = dict(eps=0.1, prm=PRM, a0=1.0, grid=grid, t_final=0.2, steps=64)
    defaults.update(kw)
    return RegularizedProblem(**defaults)


def gaussian_datum(grid, a0=1.0):
    return np.exp(-a0 * grid.v_bracket_sq)


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
    states = integrate(rp, g)
    norms = [np.linalg.norm(s) for s in states]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_single_mode_pure_diffusion_factor():
    grid = VelocityGrid(256, 4.0)
    rp = make_problem(grid=grid, eps=1.0, t_final=0.1, steps=8)
    eta3 = grid.axis_frequencies[3]
    v = grid.axis_points
    g0 = np.exp(1j * eta3 * v)
    states = integrate(rp, g0)
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
    assert np.max(np.abs(states[-1] - expected)) <= 1e-12


def _per_step_oracle(rp, f_in, source_traj=None):
    """The per-step formula H g + (dt/2) H S_n + (dt/2) S_{n+1}, one state at a time.

    H is written out factor by factor from the problem, with real decay
    factors and one ``np.fft`` call per axis and per state, independent of
    the solver's stored factors, direct kernels and batched march.
    """
    grid, dt = rp.grid, rp.dt
    pointwise_half = np.exp(-0.5 * rp.eps * dt * grid.v_bracket_sq ** (1.0 / (1.0 - rp.prm.s)))
    eta = grid.axis_frequencies
    if rp.x_points:
        xi = 2.0 * np.pi * np.fft.fftfreq(rp.x_points, d=1.0 / rp.x_points)
        fourier = np.exp(-rp.eps * dt * (xi[:, None] ** 2 + eta[None, :] ** 2))
        transport = np.exp(-1j * dt * xi[:, None] * grid.axis_points[None, :])
    else:
        fourier = np.exp(-rp.eps * dt * eta**2)

    def homogeneous(g):
        g = pointwise_half * g
        if rp.x_points:
            gh = np.fft.fft(g, axis=0, norm="ortho")
            gh *= transport
            gh = np.fft.fft(gh, axis=1, norm="ortho")
            gh *= fourier
            g = np.fft.ifft(np.fft.ifft(gh, axis=1, norm="ortho"), axis=0, norm="ortho")
        else:
            g = np.fft.ifft(np.fft.fft(g, norm="ortho") * fourier, norm="ortho")
        return pointwise_half * g

    shape = (rp.x_points, rp.grid.points_per_axis) if rp.x_points else rp.grid.shape
    g = np.asarray(f_in, dtype=complex).reshape(shape)
    states = [g]
    for n in range(rp.steps):
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
    g0 = gaussian_datum(rp.grid)
    full = (rp.steps + 1,) + rp.grid.shape
    for src in (None, _band_source(rp.grid, rp.steps, 1), _complex_source(full, 2)):
        states = integrate(rp, g0, source_traj=src)
        assert np.array_equal(states, _per_step_oracle(rp, g0, src))
        # into a given buffer: every entry is overwritten, whatever it held
        out = np.full(full, np.nan, dtype=complex)
        assert integrate(rp, g0, source_traj=src, out=out) is out
        assert np.array_equal(out, states)
    # space axis on: the batched source half is the full two-axis H
    grid = VelocityGrid(64, 4.0)
    rpx = make_problem(grid=grid, steps=16, x_points=8)
    x = np.arange(8)[:, None] / 8.0
    gx = np.exp(-grid.v_bracket_sq) * (1.0 + 0.3 * np.sin(2 * np.pi * x))
    src = _complex_source((rpx.steps + 1, 8) + grid.shape, 3)
    states = integrate(rpx, gx, source_traj=src)
    assert np.array_equal(states, _per_step_oracle(rpx, gx, src))
    out = np.full(src.shape, np.nan, dtype=complex)
    assert integrate(rpx, gx, source_traj=src, out=out) is out
    assert np.array_equal(out, states)


# case -> (error message, f_in, source, out) from the datum g0, a good source
# and a good states buffer whose first state holds the datum
BAD_BUFFERS = {
    "out-shape": lambda g0, src, good: ("out is complex128 (17, 128)", g0, src, good[:, ::2]),
    "out-one-state": lambda g0, src, good: ("out is complex128 (256,)", g0, src, good[0]),
    "out-complex64": lambda g0, src, good: ("out is complex64", g0, src, good.astype(np.complex64)),
    "out-real": lambda g0, src, good: ("out is float64", g0, src, good.real.copy()),
    "out-is-the-source": lambda g0, src, good: ("out shares memory with source_traj", g0, src, src),
    "out-holds-the-datum": lambda g0, src, good: ("out shares memory with f_in", good[0], src, good),
    # a source one row short would end the march a step early
    "source-one-row-short": lambda g0, src, good: (
        "source_traj is (16, 256), the march needs (17, 256)", g0, src[:-1], good
    ),
    "source-one-row-long": lambda g0, src, good: (
        "source_traj is (18, 256), the march needs (17, 256)", g0, np.concatenate([src, src[:1]]),
        None,
    ),
    "source-wrong-width": lambda g0, src, good: (
        "source_traj is (17, 128), the march needs (17, 256)", g0, src[:, ::2], good
    ),
    "source-one-state": lambda g0, src, good: (
        "source_traj is (256,), the march needs (17, 256)", g0, src[0], None
    ),
    # a datum of another shape is refused, not reshaped, even at the state's size
    "datum-one-row-stack": lambda g0, src, good: (
        "f_in is (1, 256), the march needs (256,)", g0[None], src, good
    ),
    "datum-half-width": lambda g0, src, good: ("f_in is (128,), the march needs (256,)", g0[::2], src, good),
}


@pytest.mark.parametrize("case", BAD_BUFFERS)
def test_march_refuses_a_bad_buffer_before_any_step(case):
    rp = make_problem(steps=16)
    src = _band_source(rp.grid, rp.steps, 4).astype(complex)
    g0 = gaussian_datum(rp.grid)
    good = np.full(src.shape, np.nan, dtype=complex)
    good[0] = g0
    message, f_in, source, out = BAD_BUFFERS[case](g0, src, good)
    arrays = [a for a in (f_in, source, out) if a is not None]
    kept = [a.copy() for a in arrays]
    with pytest.raises(SolverError, match="^" + re.escape(message)):
        integrate(rp, f_in, source_traj=source, out=out)
    assert all(np.array_equal(a, k, equal_nan=True) for a, k in zip(arrays, kept))


# a transposed datum has the state's size, so a reshape would march it as another field
@pytest.mark.parametrize("datum", [(64, 8), (64,)], ids=["transposed", "velocity-only"])
def test_space_axis_march_refuses_a_datum_not_of_the_state_shape(datum):
    rp = make_problem(grid=VelocityGrid(64, 4.0), steps=16, x_points=8)
    with pytest.raises(SolverError, match="^" + re.escape(f"f_in is {datum}, the march needs (8, 64)")):
        integrate(rp, np.ones(datum))


def test_a_march_into_its_buffer_allocates_no_second_trajectory():
    rp = make_problem(grid=VelocityGrid(512, 4.0), steps=256)
    g0 = gaussian_datum(rp.grid)
    src = _band_source(rp.grid, rp.steps, 9).astype(complex)
    out = np.empty_like(src)
    integrate(rp, g0, source_traj=src, out=out)  # warm: first-call caches are not the march's
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        integrate(rp, g0, source_traj=src, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes / 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x_points", [0, 8])
def test_solver_abort_names_the_first_non_finite_state(x_points):
    grid = VelocityGrid(64, 4.0)
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
    # counted at the pocketfft kernels: np.fft.fft/ifft end there, and the
    # stepper calls them directly, so every complex transform counts once
    calls = {"n": 0}
    for name in ("fft", "ifft"):
        def counted(*args, _fn=getattr(_pocketfft, name), **kwargs):
            calls["n"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(_pocketfft, name, counted)

    def count(fn, *args, **kwargs):
        calls["n"] = 0
        result = fn(*args, **kwargs)
        return calls["n"], result

    monitor_counts = set()
    for steps in (8, 32):
        rp = make_problem(steps=steps)
        g0 = gaussian_datum(rp.grid)
        src = _band_source(rp.grid, steps, 5)
        # two sequential transforms per step, two batched ones for the source
        assert count(integrate, rp, g0)[0] == 2 * steps
        n, states = count(integrate, rp, g0, source_traj=src)
        assert n == 2 * steps + 2
        monitor_counts.add(count(energy_monitor, states, rp, source_traj=src)[0])
    assert len(monitor_counts) == 1


@pytest.mark.parametrize("lead", [(), (7,), (3, 4)])
@pytest.mark.parametrize("n", [64, 512, 1000])
def test_direct_kernels_equal_np_fft_ortho(n, lead):
    """The march's kernel calls, in place, are np.fft's "ortho" transforms."""
    ortho = np.reciprocal(np.sqrt(n, dtype=np.float64))  # as np.fft computes it
    x = _complex_source(lead + (n,), n)
    for kernel, public in ((_pocketfft.fft, np.fft.fft), (_pocketfft.ifft, np.fft.ifft)):
        got = x.copy()
        assert kernel(got, ortho, out=got) is got
        assert np.array_equal(got, public(x, norm="ortho"))


@pytest.mark.parametrize("n", [8, 64, 512, 4096])
def test_unregularized_step_is_the_np_fft_ortho_round_trip(n):
    # at eps = 0 every factor of H is 1, so one step is the round trip alone:
    # a kernel scaled by another ortho factor than np.fft's changes its bits
    rp = make_problem(grid=VelocityGrid(n, 4.0), eps=0.0, steps=4)
    x = _complex_source((n,), n)
    states = integrate(rp, x)
    assert np.array_equal(states[1], np.fft.ifft(np.fft.fft(x, norm="ortho"), norm="ortho"))


def _row_l2(grid, row):
    """The per-state norm the stacked one replaced: one complex row at a time."""
    return float(np.sqrt(grid.spacing) * np.linalg.norm(row.ravel()))


ROW_NORM_RTOL = 8 * np.finfo(float).eps  # stacked norms against _row_l2


def test_stacked_norms_match_the_per_row_oracle():
    rp = make_problem(steps=32)
    grid, steps = rp.grid, rp.steps
    src = _band_source(grid, steps, 7)
    states = integrate(rp, gaussian_datum(grid), source_traj=src)
    prev = integrate(rp, gaussian_datum(grid))
    w = weight_values(grid, rp.a0, rp.times[:, None])
    want = max(_row_l2(grid, wn * (a - b)) for wn, a, b in zip(w, states, prev))
    got = solver._weighted_sup_diff(grid, w, states, prev)
    assert got == pytest.approx(want, rel=ROW_NORM_RTOL, abs=0)
    rep = energy_monitor(states, rp, source_traj=src)
    wnorms = np.array([_row_l2(grid, wn * g) for wn, g in zip(w, states)])
    np.testing.assert_allclose(rep.weighted_norms, wnorms, rtol=ROW_NORM_RTOL, atol=0)
    vsq = grid.v_bracket_sq
    spectrum = np.fft.fft(w * states, norm="ortho")
    grad = np.fft.ifft(1j * grid.axis_frequencies * spectrum, norm="ortho")
    diss = [
        _row_l2(grid, np.sqrt(vsq) * row) ** 2
        + rp.eps * _row_l2(grid, g) ** 2
        + rp.eps * _row_l2(grid, vsq ** (1.0 / (2.0 * (1.0 - rp.prm.s))) * row) ** 2
        for row, g in zip(w * states, grad)
    ]
    np.testing.assert_allclose(rep.dissipation_integrand, diss, rtol=ROW_NORM_RTOL, atol=0)


def test_picard_rejects_a_datum_off_the_grid():
    rp = make_problem(steps=16)
    with pytest.raises(SolverError, match=r"datum has shape \(512,\), the grid expects \(256,\)"):
        picard_iterate(gaussian_datum(VelocityGrid(512, 4.0)), rp, n_max=3)


def test_picard_rejects_the_space_axis():
    # the iteration and its energy monitor cover the velocity-only reduction
    rp = make_problem(grid=VelocityGrid(64, 4.0), steps=16, x_points=8)
    with pytest.raises(SolverError, match="velocity-only"):
        picard_iterate(gaussian_datum(rp.grid), rp, n_max=3)


def test_weighted_contraction_zero_source():
    rp = make_problem()
    g = gaussian_datum(rp.grid)
    rep = energy_monitor(integrate(rp, g), rp)
    assert not rep.violations
    assert rep.sup_weighted_norm <= rep.weighted_norms[0] * (1 + 1e-12)


def test_energy_monitor_eps_scaling_of_dissipation():
    # the eps-terms of the dissipation integrand scale linearly in eps
    grid = VelocityGrid(256, 4.0)
    g = gaussian_datum(grid)
    rp1 = make_problem(grid=grid, eps=0.1)
    rp2 = make_problem(grid=grid, eps=0.2)
    states = integrate(rp1, g)
    rep1 = energy_monitor(states, rp1)
    rep2 = energy_monitor(states, rp2)  # same states, different eps bookkeeping
    base = rep1.dissipation_integrand - 0.1 * (
        (rep2.dissipation_integrand - rep1.dissipation_integrand) / 0.1
    )
    eps_part1 = rep1.dissipation_integrand - base
    eps_part2 = rep2.dissipation_integrand - base
    assert np.allclose(eps_part2, 2.0 * eps_part1, rtol=1e-10)


def test_groenwall_residuals_with_source_random_suite():
    rng = np.random.default_rng(42)
    grid = VelocityGrid(256, 4.0)
    for run in range(20):
        rp = make_problem(grid=grid, eps=float(rng.uniform(0.02, 0.2)))
        spec = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        spec[grid.eta_abs > 0.3 * grid.nyquist] = 0.0
        rough = np.fft.ifft(spec, norm="ortho").real
        band = np.exp(-grid.v_bracket_sq) * rough
        g0 = np.exp(-grid.v_bracket_sq) * (1 + 0.3 * rough)
        src = np.broadcast_to(band, (rp.steps + 1,) + grid.shape).copy()
        rep = energy_monitor(integrate(rp, g0, source_traj=src), rp, source_traj=src)
        assert not rep.violations, f"run {run}: steps {rep.violations}"


def test_moments_gaussian_values():
    grid = VelocityGrid(1024, 16.0)
    v = grid.axis_points
    mom = moments(grid, np.exp(-(v**2)), m0=1.0, m_cap=2.0, e_cap=1.0, h_cap=1.0)
    assert mom.mass == pytest.approx(math.sqrt(math.pi), abs=1e-8)
    assert mom.energy == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-8)
    assert all(mom.flags.values())


def test_moments_vacuum_flag():
    grid = VelocityGrid(256, 8.0)
    mom = moments(grid, np.zeros(grid.shape), m0=1.0)
    assert not mom.flags["mass_above_vacuum"]


def test_moments_violators_flagged():
    grid = VelocityGrid(512, 16.0)
    v = grid.axis_points
    hot = np.exp(-(v**2) / 64.0)  # over-energetic
    mom = moments(grid, hot, m0=0.1, m_cap=100.0, e_cap=1.0, h_cap=100.0)
    assert not mom.flags["energy_bounded"]
    assert mom.flags["mass_above_vacuum"]


def test_entropy_constant_on_box():
    grid = VelocityGrid(256, 4.0)
    c = 0.8
    mom = moments(grid, np.full(grid.shape, c))
    assert mom.entropy == pytest.approx(2 * grid.half_width * c * math.log(1 + c), rel=1e-12)


def test_entropy_is_nan_without_a_warning_at_or_below_minus_one():
    grid = VelocityGrid(64, 4.0)
    clean = np.exp(-grid.v_bracket_sq)
    bad = clean.copy()
    bad[[10, 20]] = -1.0, -2.0  # 1 + x = 0 and < 0: x log(1 + x) is undefined
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mom = moments(grid, np.stack([clean, bad]))
    assert np.isnan(mom.entropy[1]) and not mom.flags["entropy_bounded"][1]
    assert mom.entropy[0] == grid.spacing * np.sum(clean * np.log1p(clean))


def test_positivity_pure_pointwise_decay():
    # nonnegative data through the pointwise factor alone stays nonnegative;
    # measured through the full splitting it may dip by rounding only
    rp = make_problem(steps=16, t_final=0.1)
    g = gaussian_datum(rp.grid)
    mins = positivity_series(integrate(rp, g))
    assert mins[0] >= 0.0
    assert mins.min() >= -1e-8 * float(np.max(np.abs(g)))


def test_positivity_negative_lobe_reported():
    rp = make_problem(steps=16, t_final=0.1)
    v = rp.grid.axis_points
    g = np.exp(-rp.grid.v_bracket_sq) * v  # odd: negative lobe
    mins = positivity_series(integrate(rp, g))
    assert mins[0] < 0.0


@pytest.mark.parametrize("x_points", [0, 8])
def test_series_equal_the_per_state_reductions(x_points):
    rp = make_problem(steps=16, t_final=0.1, x_points=x_points)
    rng = np.random.default_rng(8)
    shape = ((x_points,) if x_points else ()) + rp.grid.shape
    states = integrate(rp, gaussian_datum(rp.grid) * (1.0 + 0.5 * rng.standard_normal(shape)))
    mins = positivity_series(states)
    assert mins.shape == (rp.steps + 1,)
    assert np.array_equal(mins, [np.min(s.real) for s in states])
    cell = rp.grid.spacing / (x_points or 1)
    want = [cell * np.sum(s.real) for s in states]
    masses = mass_series(rp, states)
    if x_points:  # the per-state sum may group a 2-D state in another order
        np.testing.assert_allclose(masses, want, rtol=1e-14, atol=0)
    else:
        assert np.array_equal(masses, want)


def test_moments_of_a_stack_equal_the_per_state_moments():
    rp = make_problem(steps=32)
    state = picard_iterate(gaussian_datum(rp.grid), rp, n_max=10)
    states = state.final_states
    caps = dict(m0=1.3, m_cap=0.3, e_cap=0.155, h_cap=0.06)  # each flag takes both values
    stacked = moments(rp.grid, states, **caps)
    single = [moments(rp.grid, g, **caps) for g in states]
    for name in ("mass", "energy", "entropy"):
        got = getattr(stacked, name)
        assert got.shape == (rp.steps + 1,)
        assert np.array_equal(got, [getattr(m, name) for m in single])
    for flag, values in stacked.flags.items():
        assert np.array_equal(values, [m.flags[flag] for m in single])
    assert all(np.any(v) and not np.all(v) for v in stacked.flags.values())


def test_transport_conserves_mass():
    grid = VelocityGrid(128, 4.0)
    rp = make_problem(grid=grid, eps=0.0, t_final=0.5, steps=64, x_points=16)
    rng = np.random.default_rng(7)
    base = np.exp(-grid.v_bracket_sq)
    g0 = np.array([base * (1 + 0.2 * math.sin(2 * math.pi * m / 16)) for m in range(16)])
    masses = mass_series(rp, integrate(rp, g0))
    drift = abs(masses[-1] - masses[0]) / rp.t_final
    assert drift <= 1e-10 * abs(masses[0]) / rp.t_final + 1e-12


def test_picard_zero_datum():
    rp = make_problem(steps=16)
    zero = np.zeros(rp.grid.shape)
    state = picard_iterate(zero, rp, n_max=4)
    assert all(d == 0.0 for d in state.difference_norms[1:])
    assert state.fixed_point_residual == 0.0


def test_picard_first_difference_is_first_iterate():
    rp = make_problem(steps=32)
    f_in = gaussian_datum(rp.grid)
    state = picard_iterate(f_in, rp, n_max=3)
    # g^0 = 0, so the first recorded difference is sup_t ||w g^1||
    src = np.zeros((rp.steps + 1,) + rp.grid.shape, dtype=complex)
    states = integrate(rp, f_in, source_traj=src)
    worst = 0.0
    for n in range(rp.steps + 1):
        w = weight_values(rp.grid, rp.a0, rp.times[n])
        worst = max(worst, math.sqrt(rp.grid.spacing) * np.linalg.norm(w * states[n]))
    assert state.difference_norms[0] == pytest.approx(worst, rel=1e-12)


def test_picard_first_iterate_is_marched_without_a_source(monkeypatch):
    sources = []

    def recording(rp, f_in, source_traj=None, **kwargs):
        sources.append(source_traj)
        return integrate(rp, f_in, source_traj=source_traj, **kwargs)

    monkeypatch.setattr(solver, "integrate", recording)
    rp = make_problem(steps=16)
    picard_iterate(gaussian_datum(rp.grid), rp, n_max=3)
    assert sources[0] is None
    assert isinstance(sources[1], np.ndarray)  # the second iterate's source


def test_a_retried_attempt_is_not_finished(monkeypatch):
    rp = make_problem(steps=32)
    f_in = gaussian_datum(rp.grid)
    direct = picard_iterate(f_in, replace(rp, t_final=rp.t_final / 2.0), n_max=30)
    assert direct.contraction and direct.retries == 0

    attempts = []  # iterations of each attempt, read off the verdict's input
    verdict = solver._eventually_contracting

    def refuse_first(diffs):
        attempts.append(len(diffs))
        return verdict(diffs) if len(attempts) > 1 else False

    calls = {"integrate": 0, "energy_monitor": 0}
    for name in calls:
        def counted(*args, _fn=getattr(solver, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    monkeypatch.setattr(solver, "_eventually_contracting", refuse_first)
    state = picard_iterate(f_in, rp, n_max=30)
    assert state.retries == 1 and len(attempts) == 2
    # one march per iterate of both attempts, one fixed-point march, one monitor
    assert calls == {"integrate": sum(attempts) + 1, "energy_monitor": 1}
    assert state.iterations == attempts[1] == direct.iterations
    assert state.difference_norms == direct.difference_norms
    assert state.fixed_point_residual == direct.fixed_point_residual
    assert np.array_equal(state.final_states, direct.final_states)
    assert state.problem.t_final == rp.t_final / 2.0


# (grid points, steps, gamma, s, eps) with 1, 3 and 4 retries
RETRYING_PICARD = [(256, 32, -1.0, 0.5, 0.1), (128, 32, -1.0, 0.5, 0.05), (128, 64, -2.0, 0.75, 0.05)]


def _retrying_problem(n, steps, gamma, s, eps):
    prm = SoftPotentialParams(gamma=gamma, s=s)
    return make_problem(grid=VelocityGrid(n, 4.0), prm=prm, eps=eps, steps=steps)


@pytest.mark.parametrize("config", RETRYING_PICARD)
def test_picard_workspace_equals_the_fresh_allocation_loop_bit_for_bit(config):
    rp = _retrying_problem(*config)
    f_in = gaussian_datum(rp.grid)
    state = picard_iterate(f_in, rp, n_max=30)
    ref = picard_fresh(f_in, rp, n_max=30)
    assert state.retries == ref.retries >= 1  # the workspace is reused across attempts
    assert state.attempts == ref.attempts
    assert state.difference_norms == ref.difference_norms
    assert state.ratios == ref.ratios
    assert state.contraction == ref.contraction
    assert state.fixed_point_residual == ref.fixed_point_residual
    assert np.array_equal(state.final_states, ref.states)


@pytest.mark.parametrize("config", RETRYING_PICARD)
def test_picard_attempts_count_every_march(config, monkeypatch):
    calls = {"n": 0}

    def counted(*args, **kwargs):
        calls["n"] += 1
        return integrate(*args, **kwargs)

    monkeypatch.setattr(solver, "integrate", counted)
    rp = _retrying_problem(*config)
    state = picard_iterate(gaussian_datum(rp.grid), rp, n_max=30)
    # one march per iterate of every attempt, one fixed-point march
    assert sum(iterations for _, iterations, _ in state.attempts) + 1 == calls["n"]
    assert [t for t, _, _ in state.attempts] == [rp.t_final / 2**k for k in range(state.retries + 1)]
    assert state.attempts[-1][:2] == [state.problem.t_final, state.iterations]
    assert {reason for _, _, reason in state.attempts} <= {"floor", "growth", "nmax"}
    assert state.summary()["attempts"] == state.attempts


# the picard-sweep benchmark configs: (gamma, s, eps) on 512 points, 256 steps
SWEEP_PICARD = [(-1.0, 0.5, 0.1), (-1.0, 0.5, 0.05), (-2.0, 0.75, 0.05)]


def _sweep_problem(gamma, s, eps):
    return _retrying_problem(512, 256, gamma, s, eps)


def test_picard_sweep_attempts_and_their_marches(monkeypatch):
    calls = {"n": 0}

    def counted(*args, **kwargs):
        calls["n"] += 1
        return integrate(*args, **kwargs)

    monkeypatch.setattr(solver, "integrate", counted)
    attempts = []
    for config in SWEEP_PICARD:
        rp = _sweep_problem(*config)
        state = picard_iterate(gaussian_datum(rp.grid), rp, n_max=30)
        assert state.contraction
        attempts.append(state.attempts)
    assert attempts == [
        [[0.2, 15, "floor"], [0.1, 11, "floor"]],
        [[0.2, 16, "floor"], [0.1, 11, "floor"]],
        [[0.2, 14, "growth"], [0.1, 25, "floor"], [0.05, 16, "floor"]],  # 30 iterates without the growth stop
    ]
    assert calls["n"] == 111  # 127 when only the floor and n_max end an attempt


# --- the Picard limit against a direct solve of its fixed point ------------------


DIRECT_SOLVE_CASES = {
    "criterion-10": lambda: make_problem(),
    "sweep-config-3": lambda: _sweep_problem(*SWEEP_PICARD[2]),
}


@pytest.mark.parametrize("case", sorted(DIRECT_SOLVE_CASES))
def test_picard_limit_is_the_direct_solve_of_its_fixed_point(case):
    rp = DIRECT_SOLVE_CASES[case]()
    f_in = gaussian_datum(rp.grid)
    state = picard_iterate(f_in, rp, n_max=30)
    assert state.contraction
    distance = distance_to_direct_solve(state.problem, state.final_states, f_in)
    assert distance <= DIRECT_SOLVE_RTOL


def _halved_source(source):
    def halved(rp, states, out=None):
        s_half = source(rp, states, out=out)
        s_half *= 0.5
        return s_half

    return halved


def _lagged_source(source):
    def lagged(rp, states, out=None):  # S_n built from g_(n-1)
        s_lag = source(rp, states, out=out)
        s_lag[1:] = s_lag[:-1].copy()
        return s_lag

    return lagged


@pytest.mark.parametrize("wrong", [_halved_source, _lagged_source])
@pytest.mark.parametrize("case", sorted(DIRECT_SOLVE_CASES))
def test_a_wrong_source_passes_the_residual_but_not_the_direct_solve(case, wrong, monkeypatch):
    rp = DIRECT_SOLVE_CASES[case]()
    f_in = gaussian_datum(rp.grid)
    monkeypatch.setattr(solver, "_dissipative_source", wrong(solver._dissipative_source))
    state = picard_iterate(f_in, rp, n_max=30)
    assert state.fixed_point_residual <= cli.PICARD_FIXED_POINT_TOL  # the residual cannot tell
    distance = distance_to_direct_solve(state.problem, state.final_states, f_in)
    assert distance > DIRECT_SOLVE_RTOL


# --- the Picard stop rule --------------------------------------------------------


def _stops(diffs: list[float]) -> list[tuple[int, str]]:
    """(iterate, reason) of every prefix at which the rule would end an attempt."""
    return [(k, r) for k in range(1, len(diffs) + 1) if (r := solver._stop_reason(diffs[:k]))]


@pytest.mark.parametrize("first_ratio", [21.7, 27.4])  # picard-sweep configs 1 and 2
def test_a_transient_first_ratio_then_contraction_is_not_stopped(first_ratio):
    diffs = [1e-3] + [1e-3 * first_ratio * 0.15**k for k in range(11)]
    assert _stops(diffs) == []
    assert solver._eventually_contracting(diffs)


def test_a_two_iterate_hump_then_contraction_is_not_stopped():
    diffs = [1e-3, 2e-2, 5e-3, 8e-3, 1.2e-2, 3e-3, 6e-4, 1e-4, 2e-5]  # ratios 1.6 and 1.5
    assert _stops(diffs) == []
    assert solver._eventually_contracting(diffs)


def test_three_growing_ratios_above_the_floor_stop_the_attempt():
    diffs = [1e-3, 2e-2, 5e-3, 2e-3, 2.1e-3, 2.5e-3, 3.1e-3, 4e-3]
    assert _stops(diffs)[0] == (7, "growth")  # ratios 1.05, 1.19 and 1.24 end at iterate 7


def test_growth_below_the_floor_stops_as_floor():
    diffs = [1e-3, 2e-2, 2e-5, 2e-8, 1e-8, 1.1e-8, 1.3e-8, 1.6e-8, 2e-8]
    assert _stops(diffs)[0] == (6, "floor")
    assert all(reason == "floor" for _, reason in _stops(diffs))


@settings(max_examples=200, deadline=None)
@given(
    ratios=st.lists(st.floats(1e-3, 1e2), min_size=1, max_size=30),
    rest=st.lists(st.floats(0.0, 1e3), max_size=10),
)
def test_cutting_at_the_stop_keeps_the_verdict_when_the_rest_stays_above(ratios, rest):
    diffs = [1.0]
    for r in ratios:
        diffs.append(diffs[-1] * r)
    stops = _stops(diffs)
    assume(stops)
    cut = diffs[: stops[0][0]]
    smallest = min(cut)
    full = cut + [smallest * (1.0 + x) for x in rest]  # never below the cut's minimum
    assert solver._eventually_contracting(full) == solver._eventually_contracting(cut)


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
    grid = VelocityGrid(256, 4.0)
    with pytest.raises(SolverError):
        RegularizedProblem(eps=1.5, prm=PRM, a0=1.0, grid=grid, t_final=0.4, steps=64)
    with pytest.raises(SolverError):
        RegularizedProblem(eps=0.1, prm=PRM, a0=1.0, grid=grid, t_final=0.6, steps=64)


@pytest.mark.parametrize("a0,half_width", [(1.0, 27.0), (20.0, 8.0), (1.0, 18.82)])
def test_problem_refuses_a_weight_past_the_float_range(a0, half_width):
    with pytest.raises(SolverError, match=f"^a0={a0} overflows the weight"):
        make_problem(a0=a0, grid=VelocityGrid(64, half_width))


def test_picard_refuses_a_datum_of_infinite_weighted_norm():
    rp = make_problem(steps=16)
    f_in = gaussian_datum(rp.grid)
    f_in[0] = math.inf
    with pytest.raises(SolverError, match="weighted norm of the initial datum is not finite"):
        picard_iterate(f_in, rp, n_max=3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["a0", "t_final"])
def test_problem_rejects_non_finite_values(name, value):
    with pytest.raises(SolverError, match=f"^{name}="):
        make_problem(**{name: value})


def test_picard_iterations_count_the_rounding_floor_break():
    rp = make_problem()
    state = picard_iterate(gaussian_datum(rp.grid), rp, n_max=30)
    d = state.difference_norms
    # the break fired: far below the peak, the difference stopped decreasing
    assert d[-1] >= d[-2] and d[-1] <= solver.FLOOR_FRACTION * max(d)
    assert state.iterations == len(d) < 30
