"""Periodic velocity grid and the transforms of fields on it.

The truncated domain is the interval [-L, L), periodized, with N samples (N
a power of two).  Transforms are unitary (1/sqrt(N)), so the quadrature L2
norm of the samples and the scaled l2 norm of the coefficients coincide.
Dual frequencies are eta_m = (pi/L) * m with m in [-N/2, N/2).

A field is the real array of its N samples, of shape ``grid.shape``; many
fields at once are one array of shape ``(members,) + grid.shape`` (any
leading axes stack them).  Every operator applied to such a stack here is
real, so it goes through the real transform along the last axis
(:func:`half_spectrum`), which rejects complex input with TypeError, and a
norm of the form ||a(D) u|| is read off the half spectrum by Parseval
(:func:`half_power`).  :func:`l2_norms` is the one quadrature norm.
:func:`refine_field` interpolates fields onto twice as many points.  Data
entering the program from a file is validated where it enters:
:func:`load_field`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CONTAINER_MAGIC = b"KGL1"
CONTAINER_HEADER = "<IId"  # after the magic: axis count (always 1), N, half-width
CONTAINER_IMAG_TOL = 1e-12  # largest |Im| of loaded samples, relative to their largest |Re|
# Largest sample count of a grid that a config or a container may name.  The
# experiments' largest grid has 8192 points; at 2**20 one complex field takes
# 16 MiB and a run holds tens to hundreds of fields in its stacks, so a larger
# count is refused where it enters rather than failing inside numpy mid-run.
MAX_GRID_SAMPLES = 2**20


class GridError(ValueError):
    pass


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class VelocityGrid:
    """Uniform periodic grid on [-L, L).

    Parameters
    ----------
    points_per_axis : N, a power of two >= 8
    half_width : L > 0
    """

    points_per_axis: int
    half_width: float

    def __post_init__(self):
        if self.points_per_axis < 8 or not _is_power_of_two(self.points_per_axis):
            raise GridError(
                f"points_per_axis {self.points_per_axis} must be a power of two >= 8"
            )
        if not 0 < self.half_width < np.inf:
            raise GridError(f"half_width {self.half_width} must be positive and finite")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple[int]:
        return (self.points_per_axis,)

    @property
    def nyquist(self) -> float:
        """Largest dual frequency, pi/L * N/2."""
        return np.pi / self.half_width * (self.points_per_axis / 2.0)

    @cached_property
    def axis_points(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points_per_axis)

    @cached_property
    def axis_frequencies(self) -> np.ndarray:
        """Dual frequencies (pi/L)*m in FFT storage order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    @cached_property
    def v_abs(self) -> np.ndarray:
        return np.abs(self.axis_points)

    @cached_property
    def eta_abs(self) -> np.ndarray:
        return np.abs(self.axis_frequencies)

    @property
    def eta_max(self) -> float:
        """max(eta_abs) without the array, at the Nyquist mode formed as
        ``axis_frequencies`` forms it: 2 pi times fftfreq's (N/2) / (N spacing)."""
        n = self.points_per_axis
        return 2.0 * np.pi * ((n // 2) * (1.0 / (n * self.spacing)))

    @cached_property
    def v_bracket_sq(self) -> np.ndarray:
        """1 + |v|^2 on the grid."""
        return 1.0 + self.v_abs**2

    @cached_property
    def eta_bracket_sq(self) -> np.ndarray:
        return 1.0 + self.eta_abs**2

    @cached_property
    def half_multiplicity(self) -> np.ndarray:
        """Spacing times the columns each half-spectrum column stands for.

        The rfft layout keeps the frequencies 0 .. N/2; columns 1 .. N/2-1
        also stand for their conjugate mirrors, so |u_hat|^2 times this sums
        to the squared L2 norm.
        """
        mult = np.full(self.points_per_axis // 2 + 1, 2.0 * self.spacing)
        mult[[0, -1]] = self.spacing
        return mult


def half_symbol(symbol: np.ndarray) -> np.ndarray:
    """An even Fourier symbol on the rfft layout (frequencies 0 .. N/2)."""
    return symbol[..., : symbol.shape[-1] // 2 + 1]


def half_spectrum(grid: VelocityGrid, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unitary real transform of the real fields on the last axis of u."""
    return np.fft.rfft(u, norm="ortho", out=out)


def from_half_spectrum(
    grid: VelocityGrid, coeff: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`half_spectrum`: real fields from their half spectra."""
    return np.fft.irfft(coeff, grid.points_per_axis, norm="ortho", out=out)


def half_power(grid: VelocityGrid, coeff: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|coeff|^2 weighted so that a sum over the half spectrum is a squared L2 norm."""
    out = np.abs(coeff, out=out)
    out *= out
    out *= grid.half_multiplicity
    return out


def l2_norms(grid: VelocityGrid, u: np.ndarray) -> np.ndarray:
    """Quadrature L2 norms of the fields on the last axis of u.

    A complex stack is read as its (re, im) float64 pairs.
    """
    if np.iscomplexobj(u):
        u = u.view(np.float64)
    return np.sqrt(grid.spacing) * np.sqrt(np.vecdot(u, u))


def refine_field(grid: VelocityGrid, u: np.ndarray) -> np.ndarray:
    """Band-limited interpolation of the real fields of u onto 2N points.

    The half spectrum is zero-padded; the Nyquist mode splits in half
    between +N/2 and its mirror -N/2, so the interpolant stays real and
    agrees with u on the coarse points; sqrt(2) keeps the transforms
    unitary across the two sizes.  The stack axes of u are kept.
    """
    n = grid.points_per_axis
    coeff = np.fft.rfft(u, norm="ortho")
    fine = np.zeros(coeff.shape[:-1] + (n + 1,), dtype=complex)
    fine[..., : n // 2 + 1] = coeff
    fine[..., n // 2] *= 0.5
    return np.fft.irfft(fine, 2 * n, norm="ortho") * np.sqrt(2.0)


def save_field(grid: VelocityGrid, u: np.ndarray, path: str) -> None:
    """Write the real field ``u`` on ``grid`` as the flat binary container.

    Layout: magic ``KGL1``, uint32 axis count (always 1), uint32 N, float64
    half-width, then little-endian float64 (re, im) pairs of the unitary
    Fourier coefficients in frequency order.
    """
    if np.shape(u) != grid.shape:
        raise GridError(f"field of shape {np.shape(u)} is not on a grid of shape {grid.shape}")
    if np.iscomplexobj(u):
        raise GridError("complex samples; a field is real")
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack(CONTAINER_HEADER, 1, grid.points_per_axis, grid.half_width))
        coeff = np.fft.fft(u, norm="ortho")
        buf = np.empty(2 * coeff.size, dtype="<f8")
        buf[0::2] = coeff.real
        buf[1::2] = coeff.imag
        fh.write(buf.tobytes())


def _unpack(fmt: str, data: bytes, offset: int) -> tuple:
    try:
        return struct.unpack_from(fmt, data, offset)
    except struct.error:
        raise GridError(f"container truncated at byte {len(data)}") from None


def load_field(path: str) -> tuple[VelocityGrid, np.ndarray]:
    """Read the flat binary container as (grid, real float64 samples).

    A malformed container raises GridError, as does one whose samples carry
    an imaginary part above ``CONTAINER_IMAG_TOL`` (a saved field leaves ~1e-16).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CONTAINER_MAGIC:
        raise GridError(f"bad container magic {data[:4]!r}")
    axes, n, half_width = _unpack(CONTAINER_HEADER, data, len(CONTAINER_MAGIC))
    if axes != 1:
        raise GridError(f"container names {axes} axes; the velocity grid has one")
    if n > MAX_GRID_SAMPLES:
        raise GridError(f"{n} samples exceed the {MAX_GRID_SAMPLES} a grid may hold")
    grid = VelocityGrid(points_per_axis=n, half_width=half_width)
    payload = data[len(CONTAINER_MAGIC) + struct.calcsize(CONTAINER_HEADER) :]
    if len(payload) != 16 * n:
        raise GridError(f"payload has {len(payload)} bytes, expected {16 * n}")
    raw = np.frombuffer(payload, dtype="<f8")
    if not np.all(np.isfinite(raw)):
        raise GridError("payload holds non-finite coefficients")
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.fft.ifft(raw[0::2] + 1j * raw[1::2], norm="ortho")
    if not np.all(np.isfinite(samples)):
        raise GridError("payload coefficients synthesize non-finite samples")
    imag = float(np.max(np.abs(samples.imag)))
    if imag > CONTAINER_IMAG_TOL * float(np.max(np.abs(samples.real))):
        raise GridError(f"payload synthesizes complex samples (largest imaginary part {imag:.3e})")
    return grid, samples.real.copy()
