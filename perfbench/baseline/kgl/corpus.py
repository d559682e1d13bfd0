"""Deterministic test-function corpora.

Three families span the weight-dominated and derivative-dominated regimes:
shifted Gaussians exp(-c (v - v0)^2) with c in [1/4, 4] and |v0| <= L/4,
Hermite functions up to degree 12, and random band-limited fields whose
spectra decay like <eta>^-2.
"""

from __future__ import annotations

import numpy as np

from kgl.grid import SpectralField, VelocityGrid


def gaussian(grid: VelocityGrid, c: float = 0.5, center: float = 0.0) -> SpectralField:
    shifted_sq = sum((m - center) ** 2 for m in grid.v_meshes)
    return SpectralField.from_samples(grid, np.exp(-c * shifted_sq))


def hermite_function(grid: VelocityGrid, degree: int) -> SpectralField:
    """L2-normalized Hermite function of one variable (tensorized via axis 0)."""
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    x = grid.v_meshes[0]
    vals = np.polynomial.hermite.hermval(x, coeffs) * np.exp(-(x**2) / 2.0)
    if grid.dimension > 1:
        vals = vals * np.exp(-sum(m**2 for m in grid.v_meshes[1:]) / 2.0)
    f = SpectralField.from_samples(grid, vals)
    n = f.l2_norm()
    return f * (1.0 / n) if n > 0 else f


def band_limited(
    grid: VelocityGrid,
    rng: np.random.Generator,
    band_fraction: float = 0.5,
    decay: float = 2.0,
) -> SpectralField:
    """Random real field with spectrum supported in a Nyquist fraction.

    Coefficient magnitudes follow <eta>^-decay with uniform random phases;
    Hermitian symmetry is imposed by taking the real part.
    """
    amp = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * (
        grid.eta_bracket_sq ** (-decay / 2.0)
    )
    amp[grid.eta_abs > band_fraction * grid.nyquist] = 0.0
    samples = np.fft.ifftn(amp, norm="ortho").real
    f = SpectralField.from_samples(grid, samples)
    n = f.l2_norm()
    return f * (1.0 / n) if n > 0 else f


def standard_corpus(
    grid: VelocityGrid,
    size: int,
    seed: int,
    hermite_max_degree: int = 12,
) -> list[SpectralField]:
    """Deterministic mixed corpus of the three families, `size` members."""
    rng = np.random.default_rng(seed)
    out: list[SpectralField] = []
    n_hermite = min(hermite_max_degree + 1, max(size // 5, 0))
    n_band = max(size // 5, 0)
    n_gauss = size - n_hermite - n_band
    for _ in range(n_gauss):
        c = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        v0 = float(rng.uniform(-grid.half_width / 4.0, grid.half_width / 4.0))
        out.append(gaussian(grid, c=c, center=v0))
    for deg in range(n_hermite):
        out.append(hermite_function(grid, deg))
    for _ in range(n_band):
        out.append(band_limited(grid, rng))
    return out


def dilation_family(
    grid: VelocityGrid,
    scale_min: float,
    scale_max: float,
    count: int,
) -> list[SpectralField]:
    """Centered Gaussians exp(-v^2 / (2 sigma^2)) on a log grid of scales."""
    sigmas = np.geomspace(scale_min, scale_max, count)
    vsq = sum(m**2 for m in grid.v_meshes)
    return [
        SpectralField.from_samples(grid, np.exp(-vsq / (2.0 * s * s))) for s in sigmas
    ]
