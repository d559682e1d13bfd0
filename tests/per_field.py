"""Per-field oracles for the stacked (members,) + grid.shape code paths.

Each function here computes one field at a time as a ``SpectralField``,
with full complex transforms: the corpus builders draw member by member,
and the norms take the multiplier-then-weight composition, the regularizer
symbols, the Gagliardo autocorrelation and the block projections field by
field.  The library computes the same quantities for a whole stack at once
through the real transform; the tests hold it to these oracles.
"""

from __future__ import annotations

import numpy as np

from kgl.dyadic import max_freq_shell, max_phase_shell
from kgl.grid import SpectralField, VelocityGrid, scale_pointwise
from kgl.multipliers import MultiplierSpec, RegularizerSpec, apply_multiplier, apply_regularizer

# relative tolerance of stacked norms against these oracles
NORM_RTOL = 1e-14
# block norms against the oracle: absolute, times the field's L2 norm
BLOCK_ATOL = 1e-15


# --- corpus builders, one member at a time ---------------------------------


def gaussian(grid: VelocityGrid, c: float, center: float) -> SpectralField:
    shifted_sq = sum((m - center) ** 2 for m in grid.v_meshes)
    return SpectralField.from_samples(grid, np.exp(-c * shifted_sq))


def hermite_function(grid: VelocityGrid, degree: int) -> SpectralField:
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    x = grid.v_meshes[0]
    vals = np.polynomial.hermite.hermval(x, coeffs) * np.exp(-(x**2) / 2.0)
    if grid.dimension > 1:
        vals = vals * np.exp(-sum(m**2 for m in grid.v_meshes[1:]) / 2.0)
    f = SpectralField.from_samples(grid, vals)
    n = f.l2_norm()
    return f * (1.0 / n) if n > 0 else f


def band_limited(grid: VelocityGrid, rng: np.random.Generator) -> SpectralField:
    amp = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * (
        grid.eta_bracket_sq ** (-2.0 / 2.0)
    )
    amp[grid.eta_abs > 0.5 * grid.nyquist] = 0.0
    f = SpectralField.from_samples(grid, np.fft.ifftn(amp, norm="ortho").real)
    n = f.l2_norm()
    return f * (1.0 / n) if n > 0 else f


def standard_corpus(grid: VelocityGrid, size: int, seed: int) -> list[SpectralField]:
    rng = np.random.default_rng(seed)
    out = []
    n_hermite = min(13, max(size // 5, 0))
    n_band = max(size // 5, 0)
    for _ in range(size - n_hermite - n_band):
        c = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        v0 = float(rng.uniform(-grid.half_width / 4.0, grid.half_width / 4.0))
        out.append(gaussian(grid, c, v0))
    out += [hermite_function(grid, deg) for deg in range(n_hermite)]
    out += [band_limited(grid, rng) for _ in range(n_band)]
    return out


def dilation_family(grid: VelocityGrid, scale_min: float, scale_max: float, count: int):
    vsq = sum(m**2 for m in grid.v_meshes)
    return [
        SpectralField.from_samples(grid, np.exp(-vsq / (2.0 * s * s)))
        for s in np.geomspace(scale_min, scale_max, count)
    ]


# --- norms, one field at a time ----------------------------------------------


def weighted_sobolev_norm(f: SpectralField, p: float, m: float) -> float:
    g = apply_multiplier(f, MultiplierSpec(order=m, kind="bracket"))
    return scale_pointwise(g, f.grid.v_bracket_sq ** (p / 2.0)).l2_norm()


def interpolation_ratio(f: SpectralField, gamma: float, s: float, tau: float) -> float:
    """lhs / (A + B) of the interpolation witness: the constant f requires."""
    lhs = weighted_sobolev_norm(f, 0.0, tau)
    return lhs / (weighted_sobolev_norm(f, 1.0, 0.0) + weighted_sobolev_norm(f, gamma / 2.0, s))


def regularizer_norms(f: SpectralField, theta: float, axis: int = 0) -> list[float]:
    """||R f||, ||theta^(1/2) R d f||, ||theta R d^2 f|| and ||f||."""
    spec = RegularizerSpec(theta=theta)
    terms = [apply_regularizer(f, spec, derivative_order=q, axis=axis).l2_norm() for q in (0, 1, 2)]
    return terms + [f.l2_norm()]


def gagliardo_hs_norm_sq(f: SpectralField, s: float) -> float:
    g = f.samples.real
    h, n = f.grid.spacing, f.grid.points_per_axis
    l2sq = h * float(np.sum(g * g))
    corr = np.fft.irfft(np.abs(np.fft.rfft(g)) ** 2, n)
    lags = np.arange(1, n // 2)
    diff_sq = 2.0 * (corr[0] - corr[lags])
    total = 2.0 * float(np.sum(diff_sq * h * h / (lags * h) ** (1.0 + 2.0 * s)))
    tail = 4.0 * l2sq * 2.0 * f.grid.half_width ** (-2.0 * s) / (2.0 * s)
    return l2sq + total + tail


def block_norms(f: SpectralField, pair) -> np.ndarray:
    """Block norms with every ring weight evaluated where it is used."""
    grid = f.grid
    jmax, kmax = max_freq_shell(grid), max_phase_shell(grid)
    out = np.zeros((jmax + 2, kmax + 2))
    for k in range(-1, kmax + 1):
        gh = np.fft.fftn(f.samples * pair.ring_weight(grid.v_abs, k), norm="ortho")
        for j in range(-1, jmax + 1):
            wj = pair.ring_weight(grid.eta_abs, j)
            out[j + 1, k + 1] = np.sqrt(grid.cell_volume) * np.linalg.norm((gh * wj).ravel())
    return out
