import numpy as np
import pytest

from kgl.grid import SpectralField, VelocityGrid
from kgl.multipliers import (
    MultiplierError,
    MultiplierSpec,
    RegularizerSpec,
    WeightError,
    WeightFunction,
    apply_multiplier,
    apply_regularizer,
    apply_weight,
    weighted_sobolev_norm,
)
from tests.conftest import random_band_limited


def dense_multiplier_oracle(f, symbol):
    """Apply a Fourier multiplier through explicit DFT matrices."""
    n = f.grid.points_per_axis
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    idft = dft.conj().T
    # numpy's fft matches this matrix convention with ortho normalization
    return idft @ (symbol * (dft @ f.samples))


def test_identity_multiplier(gaussian_half):
    out = apply_multiplier(gaussian_half, MultiplierSpec(order=0.0))
    assert np.allclose(out.samples, gaussian_half.samples, atol=1e-14)


def test_single_mode_bracket_square():
    grid = VelocityGrid(1, 64, np.pi)  # integer dual frequencies
    v = grid.v_meshes[0]
    f = SpectralField.from_samples(grid, np.exp(1j * v))  # mode eta = 1
    out = apply_multiplier(f, MultiplierSpec(order=2.0))
    assert np.allclose(out.samples, 2.0 * f.samples, atol=1e-12)


def test_fractional_matches_dense_oracle(gaussian_half):
    spec = MultiplierSpec(order=1.0, kind="fractional")  # |eta|^(2s), s = 1/2
    out = apply_multiplier(gaussian_half, spec)
    oracle = dense_multiplier_oracle(gaussian_half, spec.symbol(gaussian_half.grid))
    assert np.max(np.abs(out.samples - oracle)) <= 1e-10


def test_fractional_validation():
    with pytest.raises(MultiplierError):
        MultiplierSpec(order=2.5, kind="fractional")


def test_multiplier_composition(grid1d):
    rng = np.random.default_rng(5)
    f = random_band_limited(grid1d, rng)
    one = apply_multiplier(
        apply_multiplier(f, MultiplierSpec(order=0.7)), MultiplierSpec(order=1.3)
    )
    two = apply_multiplier(f, MultiplierSpec(order=2.0))
    assert np.max(np.abs(one.coefficients - two.coefficients)) <= 1e-12 * max(
        np.max(np.abs(two.coefficients)), 1.0
    )


def test_weight_identity_and_point_value(gaussian_half):
    out = apply_weight(gaussian_half, WeightFunction(kind="polynomial", exponent=0.0))
    assert np.allclose(out.samples, gaussian_half.samples, atol=1e-14)
    grid = gaussian_half.grid
    w = WeightFunction(kind="exponential", a0=1.0, t=0.0)
    vals = w.values(grid)
    center = np.argmin(np.abs(grid.axis_points))
    assert vals[center] == pytest.approx(np.e)  # <0>^2 = 1 so exp(a0) = e


def test_weight_rejects_late_time():
    with pytest.raises(WeightError):
        WeightFunction(kind="exponential", a0=1.0, t=0.6)


def test_weight_time_derivative_finite_difference(grid1d_small):
    # d/dt omega = -<v>^2 omega, checked at t = 0.25 by central differences;
    # the second-order truncation error is (dt^2/6) <v>^6 omega
    a0, t, dt = 1.0, 0.25, 1e-4
    grid = grid1d_small
    up = WeightFunction(kind="exponential", a0=a0, t=t + dt).values(grid)
    dn = WeightFunction(kind="exponential", a0=a0, t=t - dt).values(grid)
    fd = (up - dn) / (2 * dt)
    exact = WeightFunction(kind="exponential", a0=a0, t=t).time_derivative_values(grid)
    center = np.argmin(np.abs(grid.axis_points))
    assert fd[center] == pytest.approx(-np.exp(0.75), abs=1e-6)
    vb = grid.v_bracket_sq
    tol = (dt**2 / 6.0) * vb**2 * np.abs(exact) * 1.5 + 1e-12 * np.abs(exact)
    assert np.all(np.abs(fd - exact) <= tol)


def test_weight_monotone_in_time(grid1d_small):
    w1 = WeightFunction(kind="exponential", a0=1.0, t=0.1).values(grid1d_small)
    w2 = WeightFunction(kind="exponential", a0=1.0, t=0.4).values(grid1d_small)
    assert np.all(w2 <= w1)


def test_weight_gradient_bound(grid1d_small):
    # |d/dv omega| = 2(a0 - t)|v| omega <= 2 a0 <v> omega on [0, a0/2];
    # the analytic derivative is cross-checked against finite differences
    # where the truncation error is controlled
    grid = grid1d_small
    v = grid.axis_points
    h = grid.spacing
    for t in (0.0, 0.2, 0.5):
        c = 1.0 - t
        w = WeightFunction(kind="exponential", a0=1.0, t=t).values(grid)
        exact = 2.0 * c * v * w
        bound = 2.0 * 1.0 * np.sqrt(1 + v**2) * w
        assert np.all(np.abs(exact) <= bound * (1 + 1e-12))
        inner = np.abs(v) <= 2.0
        fd = np.gradient(w, h)
        # central-difference truncation: (h^2/6) |d^3 omega| with
        # d^3 exp(c(1+v^2)) = (8 c^3 v^3 + 12 c^2 v) exp(c(1+v^2))
        third = (8 * c**3 * np.abs(v) ** 3 + 12 * c**2 * np.abs(v)) * w
        tol = (h**2 / 6.0) * third * 1.5 + 1e-10 * w
        assert np.all(np.abs(fd[inner] - exact[inner]) <= tol[inner])


def test_regularizer_contraction_and_triple_bound(grid1d):
    rng = np.random.default_rng(11)
    for theta in (1e-3, 1e-2, 1e-1, 1.0):
        for _ in range(25):
            f = random_band_limited(grid1d, rng)
            base = f.l2_norm()
            spec = RegularizerSpec(theta=theta)
            n0 = apply_regularizer(f, spec, 0).l2_norm()
            n1 = apply_regularizer(f, spec, 1).l2_norm()
            n2 = apply_regularizer(f, spec, 2).l2_norm()
            assert n0 <= base * (1 + 1e-12)
            assert n0 + n1 + n2 <= 3.0 * base * (1 + 1e-12)


def test_regularizer_single_mode_gain():
    # at theta |eta|^2 = 1 the first-order symbol peaks at exactly 1/2
    grid = VelocityGrid(1, 128, np.pi)
    theta = 1.0 / 16.0  # puts theta^(-1/2) = 4 on the integer frequency grid
    v = grid.v_meshes[0]
    f = SpectralField.from_samples(grid, np.exp(4j * v))
    out = apply_regularizer(f, RegularizerSpec(theta=theta), derivative_order=1)
    assert out.l2_norm() / f.l2_norm() == pytest.approx(0.5, rel=1e-12)


def test_weighted_sobolev_norm_gaussian():
    grid = VelocityGrid(1, 1024, 16.0)
    v = grid.v_meshes[0]
    f = SpectralField.from_samples(grid, np.exp(-(v**2) / 2.0))
    # int exp(-v^2) dv = sqrt(pi)
    assert weighted_sobolev_norm(grid, f.samples, 0.0, 0.0) == pytest.approx(np.pi**0.25, abs=1e-8)


def test_weight_multiplier_ordering_equivalence(grid1d):
    from kgl.grid import scale_pointwise

    rng = np.random.default_rng(21)
    for _ in range(100):
        f = random_band_limited(grid1d, rng)
        p, m = -0.5, 0.5
        a = weighted_sobolev_norm(grid1d, f.samples, p, m)
        g = scale_pointwise(f, grid1d.v_bracket_sq ** (p / 2.0))
        b = apply_multiplier(g, MultiplierSpec(order=m)).l2_norm()
        ratio = a / b
        assert 0.25 <= ratio <= 4.0


def test_multiplier_rejects_tampered_field(grid1d_small):
    rng = np.random.default_rng(31)
    f = SpectralField.from_samples(grid1d_small, rng.standard_normal(grid1d_small.shape))
    before = apply_multiplier(f, MultiplierSpec(order=1.0)).samples.copy()
    with pytest.raises(ValueError):
        f.coefficients[3] += 0.5  # the field's arrays are read-only
    with pytest.raises(ValueError):
        f.samples[3] += 0.5
    after = apply_multiplier(f, MultiplierSpec(order=1.0)).samples
    assert np.array_equal(before, after)


def test_regularizer_small_theta_limit(grid1d_small):
    rng = np.random.default_rng(32)
    f = SpectralField.from_samples(grid1d_small, rng.standard_normal(grid1d_small.shape))
    spec = RegularizerSpec(theta=1e-9)
    n0 = apply_regularizer(f, spec, 0).l2_norm()
    n1 = apply_regularizer(f, spec, 1).l2_norm()
    n2 = apply_regularizer(f, spec, 2).l2_norm()
    base = f.l2_norm()
    assert n0 == pytest.approx(base, rel=1e-4)
    assert n1 <= 1e-3 * base and n2 <= 1e-3 * base


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the numpy.fft functions called while the test runs."""
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_field_operators_cost_only_their_own_transforms(grid1d_small, fft_calls, monkeypatch):
    rng = np.random.default_rng(33)
    f = SpectralField.from_samples(grid1d_small, rng.standard_normal(grid1d_small.shape))
    assert fft_calls == []  # coefficients are derived on first access
    f.coefficients
    f.coefficients
    assert fft_calls == ["fftn"]  # ... and cached

    def no_check(self):
        raise AssertionError("operators must not re-check a field")

    monkeypatch.setattr(SpectralField, "round_trip_error", no_check)
    del fft_calls[:]
    weighted_sobolev_norm(f.grid, f.samples, 1.0, 0.5)
    assert fft_calls == ["rfftn", "irfftn"]
    del fft_calls[:]
    apply_multiplier(f, MultiplierSpec(order=1.0))
    apply_weight(f, WeightFunction("polynomial", exponent=2.0))
    g = apply_regularizer(f, RegularizerSpec(theta=0.5), derivative_order=1)
    assert fft_calls == ["ifftn", "ifftn"]
    g.coefficients  # seeded by scale_spectrum, no forward transform
    assert fft_calls == ["ifftn", "ifftn"]
