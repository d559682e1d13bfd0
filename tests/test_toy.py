import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.fft import _pocketfft_umath as _pocketfft

from kgl import toy
from kgl.dyadic import frequency_rings, max_freq_shell, shell_norms
from kgl.grid import (
    VelocityGrid,
    from_half_spectrum,
    half_spectrum,
    half_symbol,
    load_field,
    save_field,
)
from kgl.params import SoftPotentialParams
from kgl.toy import (
    BLOCK_FLOOR,
    INFIMUM_KMAX,
    ToyModelError,
    ToyParams,
    ToyStepper,
    _dct2,
    block_decay_rate,
    block_law,
    chebyshev_symbols,
    effective_coefficient,
    estimate_gevrey_index,
    evolve_toy,
    trajectory_shell_exponents,
    weighted_broadband_data,
)
from tests.toy_oracle import exact_semigroup, one_grid_blocks

PRM = SoftPotentialParams(gamma=-1.0, s=0.5)


def limit_exponents(gamma, s):
    """An exponent pair the toy model takes beyond the admissible range (gamma = 0 or -3).

    ``SoftPotentialParams`` refuses it; ``kgl.toy`` reads only ``gamma`` and ``s``.
    """
    return SimpleNamespace(gamma=gamma, s=s)


def small_params(**kw):
    grid = kw.pop("grid", VelocityGrid(512, 12.0))
    defaults = dict(prm=PRM, a0=1.0, t_final=0.5, grid=grid, steps=32)
    defaults.update(kw)
    return ToyParams(**defaults)


def test_gamma_zero_evolution_is_exact():
    grid = VelocityGrid(512, 12.0)
    prm0 = limit_exponents(0.0, 0.5)
    p = ToyParams(prm=prm0, a0=1.0, t_final=0.5, grid=grid, steps=32)
    v = grid.axis_points
    f0 = np.exp(-(v**2))
    traj = evolve_toy(f0, p)
    assert traj.propagator_rank == 1
    sym = grid.eta_bracket_sq**0.5
    exact = np.fft.ifftn(np.exp(-0.5 * sym) * np.fft.fftn(f0, norm="ortho"), norm="ortho")
    err = np.linalg.norm(traj.final - exact) / np.linalg.norm(exact)
    assert err <= 1e-10


def test_single_mode_first_order_expansion_richardson():
    grid = VelocityGrid(256, 8.0)
    v = grid.axis_points
    mode = np.cos(grid.axis_frequencies[3] * v)
    coeff = effective_coefficient(grid, PRM.gamma)
    sigma0 = (1.0 + grid.axis_frequencies[3] ** 2) ** PRM.s
    defects = []
    for steps_scale in (1, 2, 4):
        dt = 0.01 / steps_scale
        p = ToyParams(prm=PRM, a0=1.0, t_final=dt * 16, grid=grid, steps=16)
        stepper = ToyStepper(p)
        out = stepper.step(mode)
        first_order = (1.0 - stepper.dt * coeff * sigma0) * mode
        defects.append(np.max(np.abs(out - first_order)) / stepper.dt**2)
    # the dt^-2 scaled one-step defect stays bounded as dt -> 0
    assert max(defects) <= 2.0 * min(defects) + 1e-9


def test_l2_norm_never_grows():
    grid = VelocityGrid(512, 12.0)
    p = small_params(grid=grid)
    f0 = weighted_broadband_data(grid, p.a0, seed=2)
    traj = evolve_toy(f0, p)
    assert np.all(np.diff(traj.norms) <= 1e-10 * traj.norms[:-1])


def test_rejects_nondecaying_data():
    grid = VelocityGrid(512, 12.0)
    p = small_params(grid=grid)
    with pytest.raises(ToyModelError):
        evolve_toy(np.ones(grid.shape), p)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["a0", "t_final"])
def test_params_reject_non_finite_values(name, value):
    with pytest.raises(ToyModelError, match="finite"):
        small_params(**{name: value})


def test_snapshots_are_the_states_of_the_run(tmp_path):
    grid = VelocityGrid(512, 12.0)
    p = small_params(grid=grid)
    f0 = weighted_broadband_data(grid, p.a0, seed=3)
    traj = evolve_toy(f0, p, snapshot_every=8)
    assert [t for t, _ in traj.snapshots] == pytest.approx([0.125, 0.25, 0.375, 0.5])
    assert traj.snapshots[-1][1] is traj.final
    assert traj.final.dtype == np.float64 and traj.final.shape == grid.shape
    # the first snapshot is 8 steps of the stepper from f0
    u = f0
    stepper = ToyStepper(p)
    for _ in range(8):
        u = stepper.step(u)
    assert np.array_equal(traj.snapshots[0][1], u)
    path = str(tmp_path / "snap.kgl")
    save_field(grid, traj.final, path)
    loaded_grid, samples = load_field(path)
    assert loaded_grid == grid
    assert np.allclose(samples, traj.final, rtol=0, atol=1e-14 * np.max(np.abs(traj.final)))


def test_rejects_data_off_the_grid():
    p = small_params(grid=VelocityGrid(512, 12.0))
    f0 = weighted_broadband_data(VelocityGrid(256, 12.0), p.a0)
    with pytest.raises(ToyModelError, match=r"shape \(256,\), the grid expects \(512,\)"):
        evolve_toy(f0, p)


def test_block_decay_exact_values():
    # ln M(j, k, t) - ln M(j, k, 0) = -t 2^(2sj) 2^(gamma k) at (j, k) = (4, 2) and (5, 2)
    assert block_decay_rate(4, 2, PRM) == pytest.approx(4.0)
    # ratio between consecutive frequency shells
    step = block_decay_rate(5, 2, PRM) - block_decay_rate(4, 2, PRM)
    assert step == pytest.approx((2.0 ** (2 * PRM.s) - 1.0) * 2.0**4 * 2.0**-2)
    # the low indices -1 use exponent 0
    assert block_decay_rate(-1, -1, PRM) == block_decay_rate(0, 0, PRM) == 1.0


@pytest.mark.parametrize("n", [48, 96])
@pytest.mark.parametrize("trailing", [(), (5,), (3, 4)])
def test_dct2_matches_the_explicit_cosine_sum(n, trailing):
    x = np.random.default_rng(n).standard_normal((n,) + trailing)
    r = m = np.arange(n)
    cosines = 2.0 * np.cos(np.pi * np.outer(r, 2 * m + 1) / (2 * n))  # row r, column m
    want = np.tensordot(cosines, x, axes=1)
    got = _dct2(x)
    assert got.shape == x.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_sharpness_infimum_examples():
    k_star, values = block_law([0, 10], PRM, a0=1.0)
    assert k_star.tolist() == [0, 3]
    assert values.tolist() == [2.0, 192.0]


def test_block_law_low_shell_uses_the_block_rule():
    # <eta>^(2s) >= 1 on the low block: j = -1 has exponent 0, as in
    # block_decay_rate, so E_-1 = min_k 2^(-k) + 2^(2k) = 2, not 1.5
    k_star, values = block_law([-1, 0], PRM, a0=1.0)
    assert k_star.tolist() == [0, 0]
    assert values.tolist() == [2.0, 2.0]


def test_sharpness_infimum_ratio_window():
    k_star, values = block_law(range(1, 41), PRM, a0=1.0)
    ratios = values / 2.0 ** (2.0 * np.arange(1, 41) / 3.0)
    assert np.all((1.0 / 8.0 <= ratios) & (ratios <= 8.0))
    assert k_star.max() < INFIMUM_KMAX  # the first k range holds every minimum


def test_sharpness_infimum_widens_past_the_first_k_range():
    # a tiny weight pushes the minimizer beyond k = 64
    k_star, values = block_law([40], PRM, a0=1e-60)
    k = np.arange(0, 400, dtype=float)
    vals = 2.0**40 * 2.0 ** (PRM.gamma * k) + 1e-60 * 2.0 ** (2.0 * k)
    assert (k_star[0], values[0]) == (int(np.argmin(vals)), float(np.min(vals)))
    assert k_star[0] > INFIMUM_KMAX


BRUTE_FORCE_K = 1024  # a0 2^(2k) overflows past k = 612 for a0 >= 1e-60


def brute_force_law(j, prm, a0, t):
    """The first argmin of t 2^(2s max(j, 0)) 2^(gamma k) + a0 2^(2k) over one wide k range."""
    k = np.arange(0, BRUTE_FORCE_K + 1, dtype=float)
    with np.errstate(over="ignore"):
        vals = t * 2.0 ** (2.0 * prm.s * max(j, 0)) * 2.0 ** (prm.gamma * k) + a0 * 2.0 ** (2.0 * k)
    k_star = int(np.argmin(vals))
    assert k_star < BRUTE_FORCE_K  # the range holds the minimum
    return k_star, float(vals[k_star])


@st.composite
def admissible_pairs(draw):
    s = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    gamma = draw(st.floats(max(-3.0, -1.0 - 2.0 * s), 0.0, exclude_min=True, exclude_max=True))
    return SoftPotentialParams(gamma=gamma, s=s)


@settings(max_examples=200, deadline=None)
@given(
    prm=admissible_pairs(),
    a0=st.floats(-60.0, 3.0).map(lambda e: 10.0**e),
    t=st.floats(0.0, 1e10, exclude_min=True),
    js=st.lists(st.integers(-1, 60), min_size=1, max_size=6),
)
@example(prm=SoftPotentialParams(gamma=-1.0, s=0.5), a0=1e-60, t=1.0, js=[40])
def test_block_law_equals_the_brute_force_minimum(prm, a0, t, js):
    # the widening range leaves no row on a k range too short for its minimum
    k_star, values = block_law(js, prm, a0, t)
    got = list(zip(k_star.tolist(), values.tolist()))
    assert got == [brute_force_law(j, prm, a0, t) for j in js]


def test_block_law_slopes_match_index():
    for gamma, s, r_target in ((-1.0, 0.5, 1.5), (-2.0, 0.75, 4.0 / 3.0)):
        prm = SoftPotentialParams(gamma=gamma, s=s)
        fit = estimate_gevrey_index(block_law(range(16, 41), prm, 1.0)[1], range(16, 41))
        # three significant figures of the predicted raw slope
        assert abs(fit.slope - 4.0 * s / (2.0 - gamma)) <= 5e-4
        assert fit.estimated_index == pytest.approx(r_target, rel=1e-3)


def test_block_law_heat_type_slope_one():
    # s = 1/2, gamma -> 0: no weight competition, E_j ~ t 2^j
    prm = SoftPotentialParams(gamma=-1e-9, s=0.5)
    fit = estimate_gevrey_index(block_law(range(16, 41), prm, 1.0)[1], range(16, 41))
    assert fit.slope == pytest.approx(1.0, rel=1e-6)
    assert fit.clamped_index == pytest.approx(1.0, rel=1e-6)


def test_analytic_clamp():
    prm = SoftPotentialParams(gamma=-0.5, s=0.75)
    raw = (2.0 - prm.gamma) / (4.0 * prm.s)
    assert raw == pytest.approx(0.8333, abs=1e-4)
    fit = estimate_gevrey_index(block_law(range(16, 41), prm, 1.0)[1], range(16, 41))
    assert fit.estimated_index == pytest.approx(raw, rel=1e-2)
    assert fit.clamped_index == 1.0


def test_gevrey_fit_needs_eight_shells():
    with pytest.raises(ToyModelError):
        estimate_gevrey_index(np.array([1.0, 2.0, 4.0]), np.array([0, 1, 2]))


def test_block_law_consistency_small_grid():
    grid = VelocityGrid(1024, 16.0)
    p = ToyParams(prm=PRM, a0=1.0, t_final=1.0, grid=grid, steps=32)
    f0 = weighted_broadband_data(grid, 1.0, seed=4)
    traj = evolve_toy(f0, p)
    ratios = traj.rate_ratios
    assert ratios.size > 0
    assert 0.25 <= ratios.min() and ratios.max() <= 4.0
    # every compared block's law-predicted final norm clears the floor
    assert np.all(np.exp(-traj.predicted_exponents) * traj.block_norms >= BLOCK_FLOOR)


def test_trajectory_shell_measurement_clean():
    # frequency-shell norms of a band-limited field see no cutoff leakage
    grid = VelocityGrid(1024, 16.0)
    rng = np.random.default_rng(6)
    amp = np.zeros(grid.shape)
    sel = (grid.eta_abs > 2.0) & (grid.eta_abs < 5.0)
    amp[sel] = rng.standard_normal(np.count_nonzero(sel))
    amp += np.roll(amp[::-1], 1)  # even in eta, so the field is real
    f = np.fft.ifftn(amp, norm="ortho").real
    norms = shell_norms(grid, f)
    jmax = max_freq_shell(grid)
    weights = frequency_rings(grid)
    spectral = [np.sqrt(grid.spacing) * np.linalg.norm(w * amp) for w in weights]
    np.testing.assert_allclose(norms, spectral, rtol=1e-12, atol=1e-15 * np.linalg.norm(amp))
    for j in range(-1, jmax + 1):
        ring = 2.0**j * np.array([0.75, 8.0 / 3.0]) if j >= 0 else np.array([0.0, 4.0 / 3.0])
        if ring[1] < 2.0 or ring[0] > 5.0:
            # the ring weight vanishes on the band exactly; the shell norm of
            # the sampled field keeps only the rounding of its transform
            assert np.linalg.norm(weights[j + 1] * amp) == 0.0
            assert norms[j + 1] <= 1e-15 * np.linalg.norm(amp)


def test_trajectory_shell_exponents_read_only_the_grid_shells():
    grid = VelocityGrid(1024, 16.0)  # frequency shells -1..6
    f0 = weighted_broadband_data(grid, 1.0, seed=2)
    final = 0.5 * f0
    got = trajectory_shell_exponents(grid, f0, final, range(0, 7))
    init = shell_norms(grid, f0)[1:8]
    np.testing.assert_allclose(got, -np.log(0.5 * init / np.max(init)), rtol=1e-14)
    for j_range in (range(0, 8), range(-2, 5)):
        with pytest.raises(ToyModelError, match=r"the grid.s are -1\.\.6"):
            trajectory_shell_exponents(grid, f0, final, j_range)


def test_infimum_slope_window_high_shells():
    # log2(inf value)/j approaches 4s/(2-gamma); absolute slope deviation
    # over j in [20, 40] stays below 0.05
    js = np.arange(20, 41)
    vals = block_law(js, PRM, a0=1.0)[1]
    slope = np.polyfit(js.astype(float), np.log2(vals), 1)[0]
    assert abs(slope - 2.0 / 3.0) <= 0.05


def test_gamma_zero_commutes_with_multipliers():
    # at gamma = 0 the step itself is a Fourier multiplier, so it commutes
    # with any other multiplier; checked on the stepper since the bracket
    # multiplier's e^{-|v|} kernel tails fail the trajectory decay gate
    grid = VelocityGrid(256, 8.0)
    prm0 = limit_exponents(0.0, 0.5)
    p = ToyParams(prm=prm0, a0=1.0, t_final=0.25, grid=grid, steps=16)
    stepper = ToyStepper(p)
    v = grid.axis_points
    f0 = np.exp(-(v**2))
    sym = grid.eta_bracket_sq ** (0.7 / 2.0)

    def multiply(samples):
        return from_half_spectrum(grid, half_symbol(sym) * half_spectrum(grid, samples))

    a = stepper.step(multiply(f0))
    b = multiply(stepper.step(f0))
    assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)


# --- low-rank propagator against the dense kernel -----------------------------


def dense_propagator(stepper):
    """The frozen kernel exp(-dt m(v) <eta>^(2s)) as a dense matrix.

    It is N x N; N <= 1024 keeps it small.
    """
    grid = stepper.params.grid
    dft = np.fft.fft(np.eye(grid.points_per_axis), axis=0, norm="ortho")
    sigma = grid.eta_bracket_sq ** stepper.params.prm.s
    kernel = np.exp(-stepper.dt * np.outer(stepper.coefficient, sigma))
    return (dft.conj().T * kernel) @ dft


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("gamma", [-1.0, -2.0, -3.0])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_low_rank_step_matches_dense_kernel(gamma, s):
    grid = VelocityGrid(1024, 16.0)
    prm = limit_exponents(gamma, s)
    stepper = ToyStepper(ToyParams(prm=prm, a0=1.0, t_final=1.0, grid=grid, steps=16))
    assert stepper.rank > 1
    columns = np.random.default_rng(3).standard_normal((1024, 3))
    want = (dense_propagator(stepper) @ columns).T
    got = stepper.step(columns.T)
    assert relative_error(got, want) <= 1e-12
    assert relative_error(stepper.step(columns[:, 0]), want[0]) <= 1e-12


# --- the march against its exact semigroup ------------------------------------

# The frozen-coefficient step is first order in dt: at N = 512, L = 8, T = 1
# the relative final-L2 error of evolve_toy reads 0.018 dt to 0.151 dt over
# these three pairs at 64 to 256 steps, halving exactly with dt.
SEMIGROUP_ERROR_PER_DT = 0.2
SEMIGROUP_PAIRS = [(-1.0, 0.5), (-2.0, 0.75), (-0.5, 0.25)]


def semigroup_errors(prm, march_prm, step_counts):
    """Relative final-L2 errors of the march with ``march_prm`` against exp(-T A) at ``prm``."""
    grid = VelocityGrid(512, 8.0)
    f0 = weighted_broadband_data(grid, 1.0, seed=0)
    exact = exact_semigroup(ToyParams(prm=prm, a0=1.0, t_final=1.0, grid=grid), f0)
    errors = []
    for n in step_counts:
        march = ToyParams(prm=march_prm, a0=1.0, t_final=1.0, grid=grid, steps=n)
        errors.append(relative_error(evolve_toy(f0, march).final, exact))
    return errors


@pytest.mark.parametrize("gamma,s", SEMIGROUP_PAIRS)
def test_toy_march_converges_to_its_exact_semigroup_at_first_order(gamma, s):
    prm = SoftPotentialParams(gamma=gamma, s=s)
    coarse, fine = semigroup_errors(prm, prm, (64, 128))
    assert coarse <= SEMIGROUP_ERROR_PER_DT / 64 and fine <= SEMIGROUP_ERROR_PER_DT / 128
    assert 1.9 <= coarse / fine <= 2.1


def test_a_march_at_the_wrong_s_misses_the_exact_semigroup():
    prm = SoftPotentialParams(gamma=-1.0, s=0.5)
    (error,) = semigroup_errors(prm, SoftPotentialParams(gamma=-1.0, s=0.55), (64,))
    assert error > 5 * SEMIGROUP_ERROR_PER_DT / 64  # 3.0e-2 against the bound's 3.1e-3


# --- the grouped march against the one-grid march ---------------------------

# Every compared block marched on the full grid, as the rows of one stack,
# is the oracle of the march on each block's coarsest grid.  Over these
# cases the rate ratios of the two agree to 5.7e-12 relative at most.
ONE_GRID_RTOL = 1e-10
ONE_GRID_PAIRS = [(-1.0, 0.5), (-2.0, 0.75), (-0.5, 0.25), (-2.5, 0.9), (-1.5, 0.5)]


def grouped_and_one_grid(grid, prm, seed):
    p = ToyParams(prm=prm, a0=1.0, t_final=1.0, grid=grid)
    f0 = weighted_broadband_data(grid, p.a0, seed=seed)
    return evolve_toy(f0, p), one_grid_blocks(f0, p)


def rate_ratio_drift(traj, ref):
    assert np.array_equal(traj.block_j, ref.block_j) and np.array_equal(traj.block_k, ref.block_k)
    return float(np.max(np.abs(traj.rate_ratios / ref.rate_ratios - 1.0)))


@pytest.mark.parametrize("grid", [VelocityGrid(1024, 16.0), VelocityGrid(2048, 16.0), VelocityGrid(1024, 8.0)])
@pytest.mark.parametrize("gamma,s", ONE_GRID_PAIRS)
def test_grouped_march_matches_the_one_grid_march(grid, gamma, s):
    prm = SoftPotentialParams(gamma=gamma, s=s)
    for seed in range(4):
        traj, ref = grouped_and_one_grid(grid, prm, seed)
        assert np.array_equal(traj.final, ref.final) and np.array_equal(traj.norms, ref.norms)
        assert traj.propagator_rank == ref.propagator_rank
        assert rate_ratio_drift(traj, ref) <= ONE_GRID_RTOL


def test_a_march_without_the_coefficient_margin_misses_the_one_grid_march(monkeypatch):
    # with only the ring's top to clear, what a step spreads past the coarse
    # Nyquist folds back (4.4e-2 here, 4.6e-2 at the evolve-toy defaults)
    monkeypatch.setattr(toy, "coefficient_bandwidth", lambda grid, gamma: 0.0)
    traj, ref = grouped_and_one_grid(VelocityGrid(1024, 16.0), PRM, seed=0)
    assert np.array_equal(traj.final, ref.final)
    assert rate_ratio_drift(traj, ref) > 1e3 * ONE_GRID_RTOL


def test_blocks_march_on_the_coarsest_grid_their_ring_and_the_margin_allow():
    grid = VelocityGrid(4096, 32.0)
    bandwidth = toy.coefficient_bandwidth(grid, PRM.gamma)
    assert 17.0 < bandwidth < 17.5  # against a Nyquist of 201
    points = [toy.march_grid(grid, j, bandwidth).points_per_axis for j in range(-1, 8)]
    assert points == [512, 512, 512, 1024, 1024, 2048, 4096, 4096, 4096]
    assert toy.march_grid(grid, 7, bandwidth) == grid
    assert toy.march_grid(VelocityGrid(8, 1.0), -1, 0.0).points_per_axis == 8


def test_complex_fields_are_rejected():
    # the model evolves real fields; an imaginary part is never dropped
    p = small_params()
    f0 = weighted_broadband_data(p.grid, p.a0).astype(complex)
    with pytest.raises(ToyModelError, match="complex"):
        evolve_toy(f0, p)
    with pytest.raises(TypeError):
        ToyStepper(p).step(f0)


def test_unresolved_kernel_is_rejected(monkeypatch):
    # s = 3/4 over 16 steps needs 96 Chebyshev nodes on this grid
    import kgl.toy

    prm = SoftPotentialParams(gamma=-1.0, s=0.75)
    p = ToyParams(prm=prm, a0=1.0, t_final=1.0, grid=VelocityGrid(1024, 16.0), steps=16)
    node_counts = []

    def recording(x):
        node_counts.append(len(x))
        return _dct2(x)

    monkeypatch.setattr(kgl.toy, "_dct2", recording)
    ToyStepper(p)
    # the loop tries 48 nodes, then 96; the weights' DCT reads the 96 again
    assert sorted(set(node_counts)) == [kgl.toy.CHEBYSHEV_NODES, 2 * kgl.toy.CHEBYSHEV_NODES]
    monkeypatch.setattr(kgl.toy, "MAX_CHEBYSHEV_NODES", kgl.toy.CHEBYSHEV_NODES)
    with pytest.raises(ToyModelError, match="not resolved"):
        ToyStepper(p)


@pytest.mark.parametrize(
    "grid, gamma, s",
    [
        (VelocityGrid(128, 8.0), -1.0, 0.5),
        (VelocityGrid(128, 8.0), -3.0, 0.25),
    ],
)
def test_separation_at_the_numerical_rank(grid, gamma, s):
    # The rule drops the singular values of the node-sampled kernel below
    # 16 eps (toy.SINGULAR_TOL) times the largest, a spectral-norm bound.
    # Sampled on the grid's own (v, eta) points instead of the nodes, the
    # kept terms meet that bound and one term fewer misses it.  (In max norm
    # a dropped term is 10 to 50 times smaller than its singular value, and
    # the SVD's rounding is about eps times the largest, so max norm cannot
    # see a missing term.)
    dt = 1.0 / 32
    m = effective_coefficient(grid, gamma)
    sigma = half_symbol(grid.eta_bracket_sq) ** s
    a, b = chebyshev_symbols(m, sigma, dt)
    a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    exact = np.exp(-dt * np.outer(m.ravel(), sigma.ravel()))
    bound = 16 * np.finfo(float).eps * np.linalg.norm(exact, 2)
    assert np.linalg.norm(a.T @ b - exact, 2) <= bound
    assert np.linalg.norm(a[:-1].T @ b[:-1] - exact, 2) > bound


@pytest.mark.parametrize("grid", [VelocityGrid(512, 12.0)])
def test_a_step_makes_one_transform_per_term_and_one_more(monkeypatch, grid):
    # counted at the pocketfft kernels, where every numpy transform ends
    stepper = ToyStepper(small_params(grid=grid))
    u = weighted_broadband_data(grid, 1.0)
    calls = {"n": 0}
    for name in ("fft", "ifft", "irfft", "rfft_n_even", "rfft_n_odd"):
        def counted(*args, _fn=getattr(_pocketfft, name), **kwargs):
            calls["n"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(_pocketfft, name, counted)
    stepper.step(np.array([u, u]))
    assert calls["n"] == stepper.rank + 1
