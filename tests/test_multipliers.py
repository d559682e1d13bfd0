import numpy as np
import pytest

from kgl.grid import (
    VelocityGrid,
    from_half_spectrum,
    half_spectrum,
    half_symbol,
    l2_norms,
)
from kgl.inequalities import gagliardo_hs_norm_sq, verify_regularizer_bounds
from kgl.multipliers import MultiplierError, weighted_sobolev_norm, weighted_sobolev_norms
from kgl.params import SoftPotentialParams
from kgl.solver import RegularizedProblem, SolverError, weight_values
from tests import per_field
from tests.conftest import random_band_limited


def multiply(grid, u, symbol):
    """The even Fourier multiplier ``symbol`` on the real transform, as the norms apply it."""
    return from_half_spectrum(grid, half_symbol(symbol) * half_spectrum(grid, u))


def dense_multiplier_oracle(grid, f, symbol):
    """Apply a Fourier multiplier through explicit DFT matrices."""
    n = grid.points_per_axis
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    idft = dft.conj().T
    # numpy's fft matches this matrix convention with ortho normalization
    return idft @ (symbol * (dft @ f))


def test_identity_multiplier(grid1d, gaussian_half):
    out = multiply(grid1d, gaussian_half, grid1d.eta_bracket_sq**0.0)
    assert np.allclose(out, gaussian_half, atol=1e-14)


def test_single_mode_bracket_square():
    grid = VelocityGrid(64, np.pi)  # integer dual frequencies
    v = grid.axis_points
    f = np.cos(v)  # modes eta = +-1
    out = multiply(grid, f, grid.eta_bracket_sq)
    assert np.allclose(out, 2.0 * f, atol=1e-12)
    norm = per_field.l2_norm(grid, f)
    assert weighted_sobolev_norm(grid, f, 0.0, 2.0) == pytest.approx(2.0 * norm, rel=1e-12)


def test_fractional_matches_dense_oracle(grid1d, gaussian_half):
    symbol = grid1d.eta_abs**1.0  # |eta|^(2s), s = 1/2
    out = multiply(grid1d, gaussian_half, symbol)
    oracle = dense_multiplier_oracle(grid1d, gaussian_half, symbol)
    assert np.max(np.abs(out - oracle)) <= 1e-10


def test_multiplier_composition(grid1d):
    rng = np.random.default_rng(5)
    f = random_band_limited(grid1d, rng)
    bracket = grid1d.eta_bracket_sq
    one = multiply(grid1d, multiply(grid1d, f, bracket ** (0.7 / 2.0)), bracket ** (1.3 / 2.0))
    two = multiply(grid1d, f, bracket ** (2.0 / 2.0))
    one_hat, two_hat = half_spectrum(grid1d, one), half_spectrum(grid1d, two)
    assert np.max(np.abs(one_hat - two_hat)) <= 1e-12 * max(np.max(np.abs(two_hat)), 1.0)


def test_weight_identity_and_point_value(grid1d, gaussian_half):
    plain = l2_norms(grid1d, gaussian_half)
    assert weighted_sobolev_norm(grid1d, gaussian_half, 0.0, 0.0) == pytest.approx(plain, rel=1e-14)
    vals = weight_values(grid1d, 1.0, 0.0)
    center = np.argmin(np.abs(grid1d.axis_points))
    assert vals[center] == pytest.approx(np.e)  # <0>^2 = 1 so exp(a0) = e


def test_weight_time_derivative_finite_difference(grid1d_small):
    # d/dt omega = -<v>^2 omega, checked at t = 0.25 by central differences;
    # the second-order truncation error is (dt^2/6) <v>^6 omega
    a0, t, dt = 1.0, 0.25, 1e-4
    grid = grid1d_small
    up = weight_values(grid, a0, t + dt)
    dn = weight_values(grid, a0, t - dt)
    fd = (up - dn) / (2 * dt)
    vb = grid.v_bracket_sq
    exact = -vb * weight_values(grid, a0, t)
    center = np.argmin(np.abs(grid.axis_points))
    assert fd[center] == pytest.approx(-np.exp(0.75), abs=1e-6)
    tol = (dt**2 / 6.0) * vb**2 * np.abs(exact) * 1.5 + 1e-12 * np.abs(exact)
    assert np.all(np.abs(fd - exact) <= tol)


def test_weight_rejects_late_time(grid1d_small):
    # the weight's decay and derivative bounds hold for 0 <= t <= a0/2; the
    # problem that marches with it admits final times up to a0/2 exactly
    prm = SoftPotentialParams(gamma=-1.0, s=0.5)
    for a0 in (1.0, 0.3):
        kw = dict(eps=0.1, prm=prm, a0=a0, grid=grid1d_small, steps=16)
        RegularizedProblem(t_final=a0 / 2.0, **kw)
        with pytest.raises(SolverError):
            RegularizedProblem(t_final=np.nextafter(a0 / 2.0, 1.0), **kw)


def test_regularizer_rejects_theta_out_of_range(grid1d_small):
    f = np.ones(grid1d_small.shape)
    for theta in (0.0, -0.5, 1.5, [0.5, 2.0]):
        with pytest.raises(MultiplierError, match="theta"):
            verify_regularizer_bounds(grid1d_small, np.stack([f, f]), theta)


def test_weight_monotone_in_time(grid1d_small):
    w1 = weight_values(grid1d_small, 1.0, 0.1)
    w2 = weight_values(grid1d_small, 1.0, 0.4)
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
        w = weight_values(grid, 1.0, t)
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


def regularizer_terms(grid, f, theta):
    """||R f||, ||theta^(1/2) R d f||, ||theta R d^2 f|| and ||f|| of one field."""
    w = verify_regularizer_bounds(grid, f, theta)
    return (*w.extras["term_norms"], w.rhs / 3.0)


def test_regularizer_contraction_and_triple_bound(grid1d):
    rng = np.random.default_rng(11)
    for theta in (1e-3, 1e-2, 1e-1, 1.0):
        for _ in range(25):
            f = random_band_limited(grid1d, rng)
            n0, n1, n2, base = regularizer_terms(grid1d, f, theta)
            assert n0 <= base * (1 + 1e-12)
            assert n0 + n1 + n2 <= 3.0 * base * (1 + 1e-12)


def test_regularizer_single_mode_gain():
    # at theta |eta|^2 = 1 the first-order symbol peaks at exactly 1/2
    grid = VelocityGrid(128, np.pi)
    theta = 1.0 / 16.0  # puts theta^(-1/2) = 4 on the integer frequency grid
    v = grid.axis_points
    _, n1, _, base = regularizer_terms(grid, np.cos(4.0 * v), theta)
    assert n1 / base == pytest.approx(0.5, rel=1e-12)


def test_complex_fields_are_rejected(grid1d_small):
    # the norms transform real fields only, so an imaginary part is never dropped
    f = np.exp(-grid1d_small.v_bracket_sq) * (1.0 + 1j)
    with pytest.raises(TypeError):
        weighted_sobolev_norms(grid1d_small, f, [(0.0, 1.0)])
    with pytest.raises(TypeError):
        verify_regularizer_bounds(grid1d_small, f, 0.5)
    with pytest.raises(TypeError):
        gagliardo_hs_norm_sq(grid1d_small, f, 0.5)


def test_weighted_sobolev_norm_gaussian():
    grid = VelocityGrid(1024, 16.0)
    v = grid.axis_points
    # int exp(-v^2) dv = sqrt(pi)
    assert weighted_sobolev_norm(grid, np.exp(-(v**2) / 2.0), 0.0, 0.0) == pytest.approx(
        np.pi**0.25, abs=1e-8
    )


def test_weight_multiplier_ordering_equivalence(grid1d):
    rng = np.random.default_rng(21)
    for _ in range(100):
        f = random_band_limited(grid1d, rng)
        p, m = -0.5, 0.5
        a = weighted_sobolev_norm(grid1d, f, p, m)
        g = f * grid1d.v_bracket_sq ** (p / 2.0)
        b = l2_norms(grid1d, multiply(grid1d, g, grid1d.eta_bracket_sq ** (m / 2.0)))
        ratio = a / b
        assert 0.25 <= ratio <= 4.0


def test_regularizer_small_theta_limit(grid1d_small):
    rng = np.random.default_rng(32)
    f = rng.standard_normal(grid1d_small.shape)
    n0, n1, n2, base = regularizer_terms(grid1d_small, f, 1e-9)
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


def test_field_operators_cost_only_their_own_transforms(grid1d_small, fft_calls):
    rng = np.random.default_rng(33)
    f = rng.standard_normal((3,) + grid1d_small.shape)
    weighted_sobolev_norm(grid1d_small, f, 1.0, 0.5)
    assert fft_calls == ["rfft", "irfft"]
    del fft_calls[:]
    # weights alone need no transform; Parseval pairs share one forward transform
    weighted_sobolev_norms(grid1d_small, f, [(0.0, 0.0), (2.0, 0.0)])
    assert fft_calls == []
    weighted_sobolev_norms(grid1d_small, f, [(0.0, 0.5), (0.0, 1.0), (1.0, 0.0)])
    assert fft_calls == ["rfft"]
