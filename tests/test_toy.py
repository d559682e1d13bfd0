import math

import numpy as np
import pytest

from kgl.dyadic import build_bump_pair, max_freq_shell, shell_norms
from kgl.grid import SpectralField, VelocityGrid
from kgl.params import SoftPotentialParams, inverse_power_law, predicted_index
from kgl.toy import (
    BlockLawState,
    SchemeViolation,
    ToyModelError,
    ToyParams,
    ToyStepper,
    block_decay_exact,
    block_law_consistency,
    effective_coefficient,
    estimate_gevrey_index,
    evolve_toy,
    sharpness_infimum,
    weighted_broadband_data,
)

PRM = SoftPotentialParams(gamma=-1.0, s=0.5)


def small_params(**kw):
    grid = kw.pop("grid", VelocityGrid(1, 512, 12.0))
    defaults = dict(prm=PRM, a0=1.0, t_final=0.5, grid=grid, steps=32)
    defaults.update(kw)
    return ToyParams(**defaults)


def test_gamma_zero_evolution_is_exact():
    grid = VelocityGrid(1, 512, 12.0)
    prm0 = SoftPotentialParams(gamma=0.0, s=0.5, strict=False)
    p = ToyParams(prm=prm0, a0=1.0, t_final=0.5, grid=grid, steps=32)
    v = grid.v_meshes[0]
    f0 = SpectralField.from_samples(grid, np.exp(-(v**2)))
    traj = evolve_toy(f0, p)
    assert traj.propagator_rank == 1
    sym = grid.eta_bracket_sq**0.5
    exact = SpectralField.from_coefficients(grid, np.exp(-0.5 * sym) * f0.coefficients)
    err = (traj.final - exact).l2_norm() / exact.l2_norm()
    assert err <= 1e-10


def test_single_mode_first_order_expansion_richardson():
    grid = VelocityGrid(1, 256, 8.0)
    v = grid.v_meshes[0]
    mode = np.exp(1j * grid.axis_frequencies[3] * v)
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


def test_l2_monotone_and_abort_guard():
    grid = VelocityGrid(1, 512, 12.0)
    p = small_params(grid=grid)
    f0 = weighted_broadband_data(grid, p.a0, seed=2)
    traj = evolve_toy(f0, p)
    assert np.all(np.diff(traj.norms) <= 1e-10 * traj.norms[:-1])


def test_rejects_nondecaying_data():
    grid = VelocityGrid(1, 512, 12.0)
    p = small_params(grid=grid)
    f_bad = SpectralField.from_samples(grid, np.ones(grid.shape))
    with pytest.raises(ToyModelError):
        evolve_toy(f_bad, p)


def test_block_decay_exact_values():
    assert block_decay_exact(4, 2, 0.0, PRM) == 1.0
    assert block_decay_exact(4, 2, 1.0, PRM) == pytest.approx(math.exp(-4.0))
    # ratio between consecutive frequency shells
    r = block_decay_exact(5, 2, 1.0, PRM) / block_decay_exact(4, 2, 1.0, PRM)
    assert r == pytest.approx(math.exp(-(2.0 ** (2 * PRM.s) - 1.0) * 2.0**4 * 2.0**-2))


def test_sharpness_infimum_examples():
    res0 = sharpness_infimum(0, PRM, a0=1.0)
    assert (res0.k_star, res0.value) == (0, 2.0)
    res10 = sharpness_infimum(10, PRM, a0=1.0)
    assert (res10.k_star, res10.value) == (3, 192.0)


def test_sharpness_infimum_ratio_window():
    for j in range(1, 41):
        res = sharpness_infimum(j, PRM, a0=1.0)
        ratio = res.value / 2.0 ** (2.0 * j / 3.0)
        assert 1.0 / 8.0 <= ratio <= 8.0


def test_sharpness_infimum_kmax_guard():
    with pytest.raises(ToyModelError):
        sharpness_infimum(10, PRM, a0=1.0, kmax=32)


def test_block_law_slopes_match_index():
    for gamma, s, r_target in ((-1.0, 0.5, 1.5), (-2.0, 0.75, 4.0 / 3.0)):
        prm = SoftPotentialParams(gamma=gamma, s=s)
        law = BlockLawState.with_envelope(prm, 1.0, range(16, 41), range(0, 81))
        fit = estimate_gevrey_index(law.shell_exponents(1.0), law.j_range)
        # three significant figures of the predicted raw slope
        assert abs(fit.slope - 4.0 * s / (2.0 - gamma)) <= 5e-4
        assert fit.estimated_index == pytest.approx(r_target, rel=1e-3)


def test_block_law_heat_type_slope_one():
    # s = 1/2, gamma -> 0: no weight competition, E_j ~ t 2^j
    prm = SoftPotentialParams(gamma=-1e-9, s=0.5)
    law = BlockLawState.with_envelope(prm, 1.0, range(16, 41), range(0, 81))
    fit = estimate_gevrey_index(law.shell_exponents(1.0), law.j_range)
    assert fit.slope == pytest.approx(1.0, rel=1e-6)
    assert fit.clamped_index == pytest.approx(1.0, rel=1e-6)


def test_analytic_clamp():
    prm = SoftPotentialParams(gamma=-0.5, s=0.75)
    raw = (2.0 - prm.gamma) / (4.0 * prm.s)
    assert raw == pytest.approx(0.8333, abs=1e-4)
    law = BlockLawState.with_envelope(prm, 1.0, range(16, 41), range(0, 81))
    fit = estimate_gevrey_index(law.shell_exponents(1.0), law.j_range)
    assert fit.estimated_index == pytest.approx(raw, rel=1e-2)
    assert fit.clamped_index == 1.0


def test_predicted_index_values():
    assert predicted_index(PRM) == 1.5
    assert predicted_index(SoftPotentialParams(-2.0, 0.75)) == pytest.approx(4.0 / 3.0)
    ipl = inverse_power_law(3.0)
    assert (ipl.gamma, ipl.s) == (-1.0, 0.5)
    assert ipl.gamma + 4 * ipl.s == pytest.approx(1.0)


def test_gevrey_fit_needs_eight_shells():
    with pytest.raises(ToyModelError):
        estimate_gevrey_index(np.array([1.0, 2.0, 4.0]), np.array([0, 1, 2]))


def test_gevrey_fit_floor_truncation():
    js = np.arange(0, 12)
    e = 2.0 ** (0.5 * js)
    e[10:] = 800.0  # beyond -ln(1e-300): dropped from the top
    fit = estimate_gevrey_index(e, js, floor=1e-300)
    assert fit.j_range[-1] == 9
    assert fit.slope == pytest.approx(0.5, rel=1e-9)


def test_block_law_consistency_small_grid():
    grid = VelocityGrid(1, 1024, 16.0)
    p = ToyParams(prm=PRM, a0=1.0, t_final=1.0, grid=grid, steps=32)
    f0 = weighted_broadband_data(grid, 1.0, seed=4)
    pair = build_bump_pair()
    res = block_law_consistency(f0, p, pair)
    lo, hi = res.worst_ratios()
    assert res.included()
    assert 0.25 <= lo and hi <= 4.0


def test_trajectory_shell_measurement_clean(bump_pair):
    # frequency-shell norms of a band-limited field see no cutoff leakage
    grid = VelocityGrid(1, 1024, 16.0)
    rng = np.random.default_rng(6)
    amp = np.zeros(grid.shape, dtype=complex)
    sel = (grid.eta_abs > 2.0) & (grid.eta_abs < 5.0)
    amp[sel] = rng.standard_normal(np.count_nonzero(sel))
    f = SpectralField.from_coefficients(grid, amp)
    norms = shell_norms(f, bump_pair)
    jmax = max_freq_shell(grid)
    for j in range(-1, jmax + 1):
        ring = 2.0**j * np.array([0.75, 8.0 / 3.0]) if j >= 0 else np.array([0.0, 4.0 / 3.0])
        if ring[1] < 2.0 or ring[0] > 5.0:
            assert norms[j + 1] == 0.0


def test_infimum_slope_window_high_shells():
    # log2(inf value)/j approaches 4s/(2-gamma); absolute slope deviation
    # over j in [20, 40] stays below 0.05
    js = np.arange(20, 41)
    vals = np.array([sharpness_infimum(int(j), PRM, a0=1.0).value for j in js])
    slope = np.polyfit(js.astype(float), np.log2(vals), 1)[0]
    assert abs(slope - 2.0 / 3.0) <= 0.05


def test_gamma_zero_commutes_with_multipliers():
    # at gamma = 0 the step itself is a Fourier multiplier, so it commutes
    # with any other multiplier; checked on the stepper since the bracket
    # multiplier's e^{-|v|} kernel tails fail the trajectory decay gate
    from kgl.multipliers import MultiplierSpec

    grid = VelocityGrid(1, 256, 8.0)
    prm0 = SoftPotentialParams(gamma=0.0, s=0.5, strict=False)
    p = ToyParams(prm=prm0, a0=1.0, t_final=0.25, grid=grid, steps=16)
    stepper = ToyStepper(p)
    v = grid.v_meshes[0]
    f0 = SpectralField.from_samples(grid, np.exp(-(v**2)))
    sym = MultiplierSpec(order=0.7).symbol(grid)

    def multiply(samples):
        return np.fft.ifft(np.fft.fft(samples, norm="ortho") * sym, norm="ortho")

    a = stepper.step(multiply(f0.samples))
    b = multiply(stepper.step(f0.samples))
    assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)


# --- low-rank propagator against the dense kernel -----------------------------


def dense_propagator(stepper):
    """The frozen kernel exp(-dt m(v) <eta>^(2s)) as a dense matrix.

    It acts on flattened fields; N^d <= 1024 keeps it small.
    """
    grid = stepper.params.grid
    n = grid.points_per_axis
    dft = axis_dft = np.fft.fft(np.eye(n), axis=0, norm="ortho")
    for _ in range(grid.dimension - 1):
        dft = np.kron(dft, axis_dft)
    sigma = (grid.eta_bracket_sq ** stepper.params.prm.s).ravel()
    kernel = np.exp(-stepper.dt * np.outer(stepper.coefficient.ravel(), sigma))
    return (dft.conj().T * kernel) @ dft


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("gamma", [-1.0, -2.0, -3.0])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_low_rank_step_matches_dense_kernel(gamma, s):
    grid = VelocityGrid(1, 1024, 16.0)
    prm = SoftPotentialParams(gamma=gamma, s=s, strict=False)
    stepper = ToyStepper(ToyParams(prm=prm, a0=1.0, t_final=1.0, grid=grid, steps=16))
    assert stepper.rank > 1
    rng = np.random.default_rng(3)
    real = rng.standard_normal((1024, 3))
    complex_ = real + 1j * rng.standard_normal((1024, 3))
    dense = dense_propagator(stepper)
    for columns in (real, complex_):
        want = (dense @ columns).T
        got = stepper.step(columns.T)
        assert np.iscomplexobj(got) == np.iscomplexobj(columns)
        assert relative_error(got, want) <= 1e-12
        assert relative_error(stepper.step(columns[:, 0]), want[0]) <= 1e-12


def test_two_dimensional_evolution_matches_dense_kernel():
    grid = VelocityGrid(2, 32, 8.0)
    p = ToyParams(prm=PRM, a0=1.0, t_final=0.5, grid=grid, steps=16)
    f0 = weighted_broadband_data(grid, p.a0, seed=5)
    traj = evolve_toy(f0, p)
    assert np.all(np.diff(traj.norms) <= 1e-10 * traj.norms[:-1])
    assert traj.norms[-1] < traj.norms[0]
    dense = dense_propagator(ToyStepper(p))
    u = f0.samples.ravel()
    for _ in range(p.steps):
        u = dense @ u
    assert relative_error(traj.final.samples.ravel(), u) <= 1e-12


def test_rejects_data_not_decaying_along_second_axis():
    grid = VelocityGrid(2, 32, 8.0)
    p = ToyParams(prm=PRM, a0=1.0, t_final=0.5, grid=grid, steps=16)
    v1 = grid.v_meshes[0]  # decays in v_1, constant in v_2
    with pytest.raises(ToyModelError, match="decay"):
        evolve_toy(SpectralField.from_samples(grid, np.exp(-(v1**2))), p)
    v2 = grid.v_meshes[1]
    evolve_toy(SpectralField.from_samples(grid, np.exp(-(v1**2) - v2**2)), p)


def test_unresolved_kernel_is_rejected(monkeypatch):
    # s = 3/4 over 16 steps needs 96 Chebyshev nodes on this grid
    import kgl.toy

    prm = SoftPotentialParams(gamma=-1.0, s=0.75)
    p = ToyParams(prm=prm, a0=1.0, t_final=1.0, grid=VelocityGrid(1, 1024, 16.0), steps=16)
    assert ToyStepper(p).rank > kgl.toy.CHEBYSHEV_NODES // 2
    monkeypatch.setattr(kgl.toy, "MAX_CHEBYSHEV_NODES", kgl.toy.CHEBYSHEV_NODES)
    with pytest.raises(ToyModelError, match="not resolved"):
        ToyStepper(p)
