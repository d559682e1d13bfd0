"""Deterministic test-function corpora.

Three families span the weight-dominated and derivative-dominated regimes:
shifted Gaussians exp(-c (v - v0)^2) with c in [1/4, 4] and |v0| <= L/4,
Hermite functions up to degree 12, and random band-limited fields whose
spectra decay like <eta>^-2.  A corpus is one real array of shape
``(members,) + grid.shape``.
"""

from __future__ import annotations

import numpy as np

from kgl.grid import VelocityGrid, l2_norms


def _column(values) -> np.ndarray:
    """Per-member scalars shaped to broadcast against a stack of fields."""
    return np.reshape(values, (-1, 1))


def _normalized(grid: VelocityGrid, fields: np.ndarray) -> np.ndarray:
    """Each member scaled to unit L2 norm; zero members stay zero.

    The norm reads the real part of a complex copy: at that stride the dot
    product sums exactly as numpy's ``linalg.norm`` of the member cast to
    complex does, which keeps the members' values bit for bit.
    """
    n = l2_norms(grid, fields.astype(complex).real)
    return fields * _column(np.divide(1.0, n, out=np.ones_like(n), where=n > 0))


def gaussians(grid: VelocityGrid, c, center) -> np.ndarray:
    """exp(-c (v - center)^2) for each pair of the sequences c and center."""
    shifted_sq = (grid.axis_points - _column(center)) ** 2
    return np.exp(-_column(c) * shifted_sq)


def hermite_functions(grid: VelocityGrid, degrees) -> np.ndarray:
    """L2-normalized Hermite functions of the given degrees."""
    x = grid.axis_points
    polys = [np.polynomial.hermite.hermval(x, np.eye(deg + 1)[deg]) for deg in degrees]
    out = np.reshape(polys, (len(polys),) + grid.shape) * np.exp(-(x**2) / 2.0)
    return _normalized(grid, out)


HERMITE_MAX_DEGREE = 12  # the Hermite family stops at this degree
BAND_FRACTION = 0.5  # band-limited spectra stop at this fraction of the Nyquist frequency
BAND_DECAY = 2.0  # ... and decay like <eta>^-BAND_DECAY inside it


def band_limited(
    grid: VelocityGrid,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Random real fields with spectra supported in a Nyquist fraction.

    Coefficient magnitudes follow <eta>^-BAND_DECAY with uniform random phases;
    Hermitian symmetry is imposed by taking the real part.  Each member
    draws its real then its imaginary parts from ``rng``.  The band is cut
    on the integer mode index, |m| <= BAND_FRACTION (N // 2), so whether
    the edge mode is kept does not hang on the rounding of its frequency.
    """
    n = grid.points_per_axis
    draws = rng.standard_normal((count, 2) + grid.shape)
    amp = (draws[:, 0] + 1j * draws[:, 1]) * (grid.eta_bracket_sq ** (-BAND_DECAY / 2.0))
    amp[:, np.abs(np.fft.fftfreq(n) * n) > BAND_FRACTION * (n // 2)] = 0.0
    return _normalized(grid, np.fft.ifft(amp, norm="ortho").real)


def standard_corpus(
    grid: VelocityGrid,
    size: int,
    seed: int,
) -> np.ndarray:
    """Deterministic mixed corpus of the three families, ``size`` members."""
    rng = np.random.default_rng(seed)
    n_hermite = min(HERMITE_MAX_DEGREE + 1, max(size // 5, 0))
    n_band = max(size // 5, 0)
    n_gauss = size - n_hermite - n_band
    params = [
        (
            float(np.exp(rng.uniform(np.log(0.25), np.log(4.0)))),
            float(rng.uniform(-grid.half_width / 4.0, grid.half_width / 4.0)),
        )
        for _ in range(n_gauss)
    ]
    c, center = np.reshape(params, (n_gauss, 2)).T
    return np.concatenate(
        [
            gaussians(grid, c, center),
            hermite_functions(grid, range(n_hermite)),
            band_limited(grid, rng, n_band),
        ]
    )


def dilation_family(
    grid: VelocityGrid,
    scale_min: float,
    scale_max: float,
    count: int,
) -> np.ndarray:
    """Centered Gaussians exp(-v^2 / (2 sigma^2)) on a log grid of scales."""
    sigmas = np.geomspace(scale_min, scale_max, count)
    return np.exp(-(grid.axis_points**2) / _column(2.0 * sigmas * sigmas))
