"""Periodic velocity grid and spectral fields kept in sample/coefficient sync.

The truncated domain is the box [-L, L)^d, periodized, with N samples per
axis (N a power of two).  Transforms are unitary (1/sqrt(N) per axis), so
the quadrature L2 norm of the samples and the scaled l2 norm of the
coefficients coincide.  Dual frequencies are eta_m = (pi/L) * m with
m in [-N/2, N/2)^d.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CONTAINER_MAGIC = b"KGL1"


class GridError(ValueError):
    pass


class FieldConsistencyError(ValueError):
    """Samples and coefficients disagree beyond the round-trip tolerance."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class VelocityGrid:
    """Uniform periodic grid on [-L, L)^d.

    Parameters
    ----------
    dimension : 1, 2 or 3
    points_per_axis : N, a power of two >= 8
    half_width : L > 0
    """

    dimension: int
    points_per_axis: int
    half_width: float

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise GridError(f"dimension {self.dimension} not in {{1,2,3}}")
        if self.points_per_axis < 8 or not _is_power_of_two(self.points_per_axis):
            raise GridError(
                f"points_per_axis {self.points_per_axis} must be a power of two >= 8"
            )
        if not self.half_width > 0:
            raise GridError(f"half_width {self.half_width} must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    @property
    def nyquist(self) -> float:
        """Largest per-axis dual frequency, pi/L * N/2."""
        return np.pi / self.half_width * (self.points_per_axis / 2.0)

    @cached_property
    def axis_points(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points_per_axis)

    @cached_property
    def axis_frequencies(self) -> np.ndarray:
        """Dual frequencies (pi/L)*m in FFT storage order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    @cached_property
    def v_meshes(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*([self.axis_points] * self.dimension), indexing="ij")

    @cached_property
    def eta_meshes(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*([self.axis_frequencies] * self.dimension), indexing="ij")

    @cached_property
    def v_abs(self) -> np.ndarray:
        """Euclidean |v| of the principal-domain representative."""
        return np.sqrt(sum(m**2 for m in self.v_meshes))

    @cached_property
    def eta_abs(self) -> np.ndarray:
        return np.sqrt(sum(m**2 for m in self.eta_meshes))

    @cached_property
    def v_bracket_sq(self) -> np.ndarray:
        """1 + |v|^2 on the grid."""
        return 1.0 + self.v_abs**2

    @cached_property
    def eta_bracket_sq(self) -> np.ndarray:
        return 1.0 + self.eta_abs**2


class SpectralField:
    """A grid function stored as samples together with its Fourier coefficients.

    Both representations are held and kept in sync; constructors derive one
    from the other through the unitary transform, so a freshly built field
    always satisfies the round-trip invariant.  `from_pair` validates
    externally supplied representations and rejects inconsistent input.
    """

    __slots__ = ("grid", "samples", "coefficients")

    def __init__(self, grid: VelocityGrid, samples: np.ndarray, coefficients: np.ndarray):
        self.grid = grid
        self.samples = samples
        self.coefficients = coefficients

    @classmethod
    def from_samples(cls, grid: VelocityGrid, samples: np.ndarray) -> "SpectralField":
        samples = np.asarray(samples, dtype=complex).reshape(grid.shape)
        coeff = np.fft.fftn(samples, norm="ortho")
        return cls(grid, samples, coeff)

    @classmethod
    def from_coefficients(cls, grid: VelocityGrid, coeff: np.ndarray) -> "SpectralField":
        coeff = np.asarray(coeff, dtype=complex).reshape(grid.shape)
        samples = np.fft.ifftn(coeff, norm="ortho")
        return cls(grid, samples, coeff)

    @classmethod
    def from_pair(
        cls,
        grid: VelocityGrid,
        samples: np.ndarray,
        coefficients: np.ndarray,
        tol: float = 1e-12,
    ) -> "SpectralField":
        f = cls(
            grid,
            np.asarray(samples, dtype=complex).reshape(grid.shape),
            np.asarray(coefficients, dtype=complex).reshape(grid.shape),
        )
        err = f.round_trip_error()
        if err > tol:
            raise FieldConsistencyError(
                f"sample/coefficient round-trip error {err:.3e} exceeds {tol:.1e}"
            )
        return f

    def round_trip_error(self) -> float:
        """Relative mismatch between samples and the synthesis of coefficients."""
        synth = np.fft.ifftn(self.coefficients, norm="ortho")
        scale = max(np.linalg.norm(self.samples.ravel()), 1e-300)
        return float(np.linalg.norm((synth - self.samples).ravel()) / scale)

    def require_consistent(self, tol: float = 1e-10) -> None:
        err = self.round_trip_error()
        if err > tol:
            raise FieldConsistencyError(
                f"field inconsistent: round-trip error {err:.3e} > {tol:.1e}"
            )

    def l2_norm(self) -> float:
        """Quadrature-weighted L2 norm, equal to the scaled coefficient norm."""
        return float(
            np.sqrt(self.grid.cell_volume) * np.linalg.norm(self.coefficients.ravel())
        )

    def samples_l2_norm(self) -> float:
        return float(
            np.sqrt(self.grid.cell_volume) * np.linalg.norm(self.samples.ravel())
        )

    @property
    def real_samples(self) -> np.ndarray:
        return self.samples.real

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.samples.copy(), self.coefficients.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(
            self.grid, self.samples + other.samples, self.coefficients + other.coefficients
        )

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(
            self.grid, self.samples - other.samples, self.coefficients - other.coefficients
        )

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.samples * scalar, self.coefficients * scalar)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "SpectralField") -> None:
        if self.grid != other.grid:
            raise GridError("fields live on different grids")


def scale_pointwise(f: SpectralField, factor: np.ndarray) -> SpectralField:
    """Multiply samples pointwise and resynchronize coefficients."""
    samples = f.samples * factor
    return SpectralField(f.grid, samples, np.fft.fftn(samples, norm="ortho"))


def scale_spectrum(f: SpectralField, symbol: np.ndarray) -> SpectralField:
    """Multiply coefficients by a symbol and resynthesize samples."""
    coeff = f.coefficients * symbol
    return SpectralField(f.grid, np.fft.ifftn(coeff, norm="ortho"), coeff)


def save_field(f: SpectralField, path: str) -> None:
    """Write the flat binary container.

    Layout: magic ``KGL1``, uint32 dimension, uint32 N per axis, float64
    half-width, then little-endian float64 (re, im) pairs of the Fourier
    coefficients in row-major frequency order.
    """
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack("<I", g.dimension))
        for _ in range(g.dimension):
            fh.write(struct.pack("<I", g.points_per_axis))
        fh.write(struct.pack("<d", g.half_width))
        flat = np.ascontiguousarray(f.coefficients).ravel()
        buf = np.empty(2 * flat.size, dtype="<f8")
        buf[0::2] = flat.real
        buf[1::2] = flat.imag
        fh.write(buf.tobytes())


def load_field(path: str) -> SpectralField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CONTAINER_MAGIC:
            raise GridError(f"bad container magic {magic!r}")
        (d,) = struct.unpack("<I", fh.read(4))
        ns = [struct.unpack("<I", fh.read(4))[0] for _ in range(d)]
        if len(set(ns)) != 1:
            raise GridError(f"anisotropic axis counts {ns} unsupported")
        (half_width,) = struct.unpack("<d", fh.read(8))
        grid = VelocityGrid(dimension=d, points_per_axis=ns[0], half_width=half_width)
        raw = np.frombuffer(fh.read(), dtype="<f8")
        expected = 2 * ns[0] ** d
        if raw.size != expected:
            raise GridError(f"payload has {raw.size} floats, expected {expected}")
        coeff = raw[0::2] + 1j * raw[1::2]
        return SpectralField.from_coefficients(grid, coeff.reshape(grid.shape))
