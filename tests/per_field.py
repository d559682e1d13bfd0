"""Per-field oracles for the stacked (members,) + grid.shape code paths.

Each function here takes one field at a time as a complex numpy array of
its samples and uses plain numpy: one full complex ``fftn`` of the field,
and one ``ifftn`` for each operator applied to it.  The corpus builders
draw member by member, and the norms take the multiplier-then-weight
composition, the regularizer symbols, the Gagliardo autocorrelation and the
block projections field by field; the refinement zero-pads one field's
full spectrum.  The library computes the same
quantities for a whole stack at once through the real transform; the tests
hold it to these oracles.
"""

from __future__ import annotations

import numpy as np

from kgl.dyadic import max_freq_shell, max_phase_shell, ring_weight
from kgl.grid import VelocityGrid

# relative tolerance of stacked norms against these oracles
NORM_RTOL = 1e-14
# block norms against the oracle: absolute, times the field's L2 norm
BLOCK_ATOL = 1e-15


def l2_norm(grid: VelocityGrid, f: np.ndarray) -> float:
    """Quadrature L2 norm of one field."""
    return float(np.sqrt(grid.spacing) * np.linalg.norm(np.ravel(f)))


def _unit(grid: VelocityGrid, f: np.ndarray) -> np.ndarray:
    n = l2_norm(grid, f)
    return f * (1.0 / n) if n > 0 else f


def _spectral(f: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """The Fourier multiplier ``symbol`` applied to the samples f."""
    return np.fft.ifftn(np.fft.fftn(f, norm="ortho") * symbol, norm="ortho")


# --- corpus builders, one member at a time ---------------------------------


def gaussian(grid: VelocityGrid, c: float, center: float) -> np.ndarray:
    shifted_sq = (grid.axis_points - center) ** 2
    return np.exp(-c * shifted_sq).astype(complex)


def hermite_function(grid: VelocityGrid, degree: int) -> np.ndarray:
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    x = grid.axis_points
    vals = np.polynomial.hermite.hermval(x, coeffs) * np.exp(-(x**2) / 2.0)
    return _unit(grid, vals.astype(complex))


def band_limited(grid: VelocityGrid, rng: np.random.Generator) -> np.ndarray:
    amp = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * (
        grid.eta_bracket_sq ** (-2.0 / 2.0)
    )
    amp[grid.eta_abs > 0.5 * grid.nyquist] = 0.0
    return _unit(grid, np.fft.ifftn(amp, norm="ortho").real.astype(complex))


def standard_corpus(grid: VelocityGrid, size: int, seed: int) -> list[np.ndarray]:
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


def refine(grid: VelocityGrid, f: np.ndarray) -> np.ndarray:
    """f on 2N points: its full spectrum zero-padded, the Nyquist mode split in half."""
    n = grid.points_per_axis
    fh = np.fft.fft(f, norm="ortho")
    fine = np.zeros(2 * n, dtype=complex)
    fine[: n // 2] = fh[: n // 2]
    fine[n // 2] = fine[-(n // 2)] = fh[n // 2] / 2.0
    fine[-(n // 2) + 1 :] = fh[n // 2 + 1 :]
    return np.fft.ifft(fine, norm="ortho") * np.sqrt(2.0)


def dilation_family(grid: VelocityGrid, scale_min: float, scale_max: float, count: int):
    vsq = grid.axis_points**2
    return [
        np.exp(-vsq / (2.0 * s * s)).astype(complex)
        for s in np.geomspace(scale_min, scale_max, count)
    ]


# --- norms, one field at a time ----------------------------------------------


def weighted_sobolev_norm(grid: VelocityGrid, f: np.ndarray, p: float, m: float) -> float:
    g = _spectral(f, grid.eta_bracket_sq ** (m / 2.0))
    return l2_norm(grid, g * grid.v_bracket_sq ** (p / 2.0))


def interpolation_ratio(
    grid: VelocityGrid, f: np.ndarray, gamma: float, s: float, tau: float
) -> float:
    """lhs / (A + B) of the interpolation witness: the constant f requires."""
    lhs = weighted_sobolev_norm(grid, f, 0.0, tau)
    return lhs / (
        weighted_sobolev_norm(grid, f, 1.0, 0.0) + weighted_sobolev_norm(grid, f, gamma / 2.0, s)
    )


def regularizer_norms(grid: VelocityGrid, f: np.ndarray, theta: float) -> list[float]:
    """||R f||, ||theta^(1/2) R d f||, ||theta R d^2 f|| and ||f||.

    R is the inverse of 1 - theta Lap, symbol (1 + theta |eta|^2)^(-1); the
    derivative d is spectral, (i eta)^q.
    """
    fh = np.fft.fftn(f, norm="ortho")
    resolvent = (1.0 / (1.0 + theta * grid.eta_abs**2)).astype(complex)
    terms = []
    for q in (0, 1, 2):
        sym = resolvent
        if q > 0:
            sym = sym * (1j * grid.axis_frequencies) ** q * theta ** (q / 2.0)
        terms.append(l2_norm(grid, np.fft.ifftn(fh * sym, norm="ortho")))
    return terms + [l2_norm(grid, f)]


def gagliardo_hs_norm_sq(grid: VelocityGrid, f: np.ndarray, s: float) -> float:
    g = np.real(f)
    h, n = grid.spacing, grid.points_per_axis
    l2sq = h * float(np.sum(g * g))
    corr = np.fft.irfft(np.abs(np.fft.rfft(g)) ** 2, n)
    lags = np.arange(1, n // 2)
    diff_sq = 2.0 * (corr[0] - corr[lags])
    total = 2.0 * float(np.sum(diff_sq * h * h / (lags * h) ** (1.0 + 2.0 * s)))
    tail = 4.0 * l2sq * 2.0 * grid.half_width ** (-2.0 * s) / (2.0 * s)
    return l2sq + total + tail


def block_norms(grid: VelocityGrid, f: np.ndarray) -> np.ndarray:
    """Block norms with every ring weight evaluated where it is used."""
    jmax, kmax = max_freq_shell(grid), max_phase_shell(grid)
    out = np.zeros((jmax + 2, kmax + 2))
    for k in range(-1, kmax + 1):
        gh = np.fft.fftn(f * ring_weight(grid.v_abs, k), norm="ortho")
        for j in range(-1, jmax + 1):
            wj = ring_weight(grid.eta_abs, j)
            out[j + 1, k + 1] = np.sqrt(grid.spacing) * np.linalg.norm((gh * wj).ravel())
    return out
