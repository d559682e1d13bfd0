"""Fourier multipliers, velocity weights and the inverse elliptic regularizer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kgl.grid import (
    SpectralField,
    VelocityGrid,
    by_parts,
    from_half_spectrum,
    half_power,
    half_spectrum,
    half_symbol,
    l2_norms,
    scale_pointwise,
    scale_spectrum,
    summed,
)


class MultiplierError(ValueError):
    pass


class WeightError(ValueError):
    pass


@dataclass(frozen=True)
class MultiplierSpec:
    """Radial Fourier multiplier: bracket <eta>^r or fractional power |eta|^(2s).

    ``kind`` is "bracket" (order = r, any real) or "fractional"
    (order = 2s with 0 < s < 1).
    """

    order: float
    kind: str = "bracket"

    def __post_init__(self):
        if self.kind not in ("bracket", "fractional"):
            raise MultiplierError(f"unknown multiplier kind {self.kind!r}")
        if self.kind == "fractional" and not (0.0 < self.order < 2.0):
            raise MultiplierError(
                f"fractional power {self.order} requires 0 < 2s < 2"
            )

    def symbol(self, grid: VelocityGrid) -> np.ndarray:
        if self.kind == "bracket":
            return grid.eta_bracket_sq ** (self.order / 2.0)
        return grid.eta_abs**self.order


@dataclass(frozen=True)
class WeightFunction:
    """Pointwise velocity weight.

    kind "polynomial": <v>^p with exponent p.
    kind "exponential": exp(c <v>^2) with c = a0 - t, restricted to
    0 <= t <= a0/2 so the standard decay/derivative bounds apply.
    """

    kind: str
    exponent: float = 0.0
    a0: float = 1.0
    t: float = 0.0

    def __post_init__(self):
        if self.kind not in ("polynomial", "exponential"):
            raise WeightError(f"unknown weight kind {self.kind!r}")
        if self.kind == "exponential":
            if self.a0 <= 0:
                raise WeightError(f"a0={self.a0} must be positive")
            if not (0.0 <= self.t <= self.a0 / 2.0):
                raise WeightError(
                    f"t={self.t} outside [0, a0/2] = [0, {self.a0 / 2}]"
                )

    @property
    def coefficient(self) -> float:
        if self.kind != "exponential":
            raise WeightError("coefficient only defined for the exponential weight")
        return self.a0 - self.t

    def values(self, grid: VelocityGrid) -> np.ndarray:
        if self.kind == "polynomial":
            return grid.v_bracket_sq ** (self.exponent / 2.0)
        return np.exp(self.coefficient * grid.v_bracket_sq)

    def time_derivative_values(self, grid: VelocityGrid) -> np.ndarray:
        """d/dt of the exponential weight: -<v>^2 * omega."""
        if self.kind != "exponential":
            raise WeightError("time derivative only defined for the exponential weight")
        return -grid.v_bracket_sq * self.values(grid)


@dataclass(frozen=True)
class RegularizerSpec:
    """Inverse of 1 - theta * Laplacian; symbol (1 + theta |eta|^2)^(-1)."""

    theta: float

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise MultiplierError(f"theta={self.theta} outside (0, 1]")

    def symbol(self, grid: VelocityGrid) -> np.ndarray:
        return 1.0 / (1.0 + self.theta * grid.eta_abs**2)


def apply_multiplier(f: SpectralField, spec: MultiplierSpec) -> SpectralField:
    return scale_spectrum(f, spec.symbol(f.grid))


def apply_weight(f: SpectralField, w: WeightFunction) -> SpectralField:
    return scale_pointwise(f, w.values(f.grid))


def apply_regularizer(
    f: SpectralField,
    spec: RegularizerSpec,
    derivative_order: int = 0,
    axis: int = 0,
) -> SpectralField:
    """Apply theta^(order/2) * (1 - theta Lap)^(-1) * d^order along one axis.

    The derivative is spectral: (i eta_axis)^order.  Orders 0, 1, 2 are the
    ones whose symbols are uniformly bounded (by 1, 1/2 and 1).
    """
    if derivative_order not in (0, 1, 2):
        raise MultiplierError(f"derivative_order {derivative_order} not in {{0,1,2}}")
    if not (0 <= axis < f.grid.dimension):
        raise MultiplierError(f"axis {axis} out of range for d={f.grid.dimension}")
    sym = spec.symbol(f.grid).astype(complex)
    if derivative_order > 0:
        eta_axis = f.grid.eta_meshes[axis]
        sym = sym * (1j * eta_axis) ** derivative_order * spec.theta ** (derivative_order / 2.0)
    return scale_spectrum(f, sym)


def weighted_sobolev_norms(grid: VelocityGrid, u: np.ndarray, pairs) -> np.ndarray:
    """|| <v>^p <D>^m u || for each (p, m) in ``pairs``, row i for pair i.

    ``u`` holds fields on the trailing grid axes (a stack of them, or one);
    the result has shape ``(len(pairs),) + u.shape[:-d]``.  One real
    transform of ``u`` serves every pair: m = 0 norms are taken on the
    samples, p = 0 norms by Parseval on the half spectrum (all in one
    matrix product), and each other pair costs one inverse transform.
    """
    if np.iscomplexobj(u):
        return by_parts(lambda v: weighted_sobolev_norms(grid, v, pairs), u)
    out = np.empty((len(pairs),) + u.shape[: u.ndim - grid.dimension])
    bracket_sq = half_symbol(grid.eta_bracket_sq)
    parseval = [i for i, (p, m) in enumerate(pairs) if p == 0 and m != 0]
    inverse = [i for i, (p, m) in enumerate(pairs) if p != 0 and m != 0]
    coeff = half_spectrum(grid, u) if parseval or inverse else None
    if parseval:
        symbols = np.array([bracket_sq ** pairs[i][1] for i in parseval])
        out[parseval] = np.moveaxis(np.sqrt(summed(grid, half_power(grid, coeff), symbols)), -1, 0)
    buf = None  # one physical buffer for every remaining pair
    for i, (p, m) in enumerate(pairs):
        if i in parseval:
            continue
        if m == 0:
            buf = np.multiply(u, grid.v_bracket_sq ** (p / 2.0), out=buf)
        else:
            # no pair after the last inverse one reads the spectrum: scale it in place
            in_place = coeff if i == inverse[-1] else None
            buf = from_half_spectrum(
                grid, np.multiply(coeff, bracket_sq ** (m / 2.0), out=in_place), out=buf
            )
            buf *= grid.v_bracket_sq ** (p / 2.0)
        out[i] = l2_norms(grid, buf)
    return out


def weighted_sobolev_norm(grid: VelocityGrid, u: np.ndarray, p: float, m: float) -> np.ndarray:
    """|| <v>^p <D>^m u || of each field on the trailing grid axes of u."""
    return weighted_sobolev_norms(grid, u, [(p, m)])[0]
