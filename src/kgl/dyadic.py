"""Dyadic phase/frequency decomposition with a telescoping bump pair.

The low cutoff psi is 1 inside |xi| <= 1 and falls smoothly to 0 across
[1, 4/3] through a bridge built from exp(-a/x); it is evaluated in closed
form.  The ring profile is defined by the telescope
phi(xi) := psi(xi/2) - psi(xi).  The partition

    psi(xi) + sum_{j>=0} phi(2^-j xi) = psi(2^-(J+1) xi) -> 1

is then exact by construction, ring supports sit inside {1 <= |xi| <= 8/3},
and rings two apart are disjoint.  The shells stop at the last ring that
meets the grid (:func:`max_phase_shell`, :func:`max_freq_shell`).  The ring
weights on a grid's |v| and |eta| are tabulated once per (grid, shell
range) as read-only arrays (:func:`phase_rings`, :func:`frequency_rings`).
The (j, k) block of a field u is the product of frequency ring j with the
unitary transform of (phase ring k) * u, transformed back.
:func:`block_norms` and :func:`shell_norms` take a whole stack of real
fields, ``(members,) + grid.shape``, through the real transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from kgl.grid import (
    VelocityGrid,
    half_power,
    half_spectrum,
    half_symbol,
    summed,
)

PSI_FLAT_RADIUS = 1.0
PSI_SUPPORT_RADIUS = 4.0 / 3.0
BRIDGE_STEEPNESS = 4.0  # a in the exp(-a/x) glue


def _bridge(x: np.ndarray) -> np.ndarray:
    """Smooth 1 -> 0 transition on [0, 1] from the exp(-a/x) glue.

    Exactly 1 for x <= 0 and exactly 0 for x >= 1.
    """
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        up = np.where(x > 0, np.exp(-BRIDGE_STEEPNESS / np.maximum(x, 1e-300)), 0.0)
        dn = np.where(x < 1, np.exp(-BRIDGE_STEEPNESS / np.maximum(1.0 - x, 1e-300)), 0.0)
    return dn / (up + dn)


@dataclass(frozen=True)
class BumpPair:
    """Radial cutoff pair (psi, phi) in closed form.

    psi(r) is the bridge across [PSI_FLAT_RADIUS, PSI_SUPPORT_RADIUS], so it
    is exactly 1 for |r| <= 1 and exactly 0 for |r| >= 4/3.  phi is always
    evaluated as psi(r/2) - psi(r), which keeps the dyadic partition
    identity exact.  The pair has no parameters, so all instances are equal
    and share the cached ring tables.
    """

    def psi(self, r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        return _bridge((r - PSI_FLAT_RADIUS) / (PSI_SUPPORT_RADIUS - PSI_FLAT_RADIUS))

    def phi(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return self.psi(r / 2.0) - self.psi(r)

    def ring_weight(self, r, shell: int) -> np.ndarray:
        """phi(2^-shell r) for shell >= 0, psi(r) for shell = -1."""
        if shell == -1:
            return self.psi(r)
        return self.phi(np.asarray(r, dtype=float) / 2.0**shell)


def build_bump_pair() -> BumpPair:
    """The bump pair every decomposition uses."""
    return BumpPair()


def _ring_table(pair: BumpPair, radii: np.ndarray, top: int) -> np.ndarray:
    table = np.array([pair.ring_weight(radii, shell) for shell in range(-1, top + 1)])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def phase_rings(pair: BumpPair, grid: VelocityGrid, kmax: int) -> np.ndarray:
    """Read-only phase ring weights on |v|: row k + 1 for k = -1..kmax."""
    return _ring_table(pair, grid.v_abs, kmax)


@lru_cache(maxsize=8)
def frequency_rings(pair: BumpPair, grid: VelocityGrid, jmax: int) -> np.ndarray:
    """Read-only frequency ring weights on |eta|: row j + 1 for j = -1..jmax."""
    return _ring_table(pair, grid.eta_abs, jmax)


def _max_shell(radii: np.ndarray) -> int:
    """Largest shell s >= -1 whose ring meets the radii: 2^s < max(radii).

    Ring s >= 0 is nonzero only for 2^s < r < 2^s * 8/3, and the partition
    psi(r) + sum_{j<=s} phi(2^-j r) = psi(2^-(s+1) r) is exactly 1 where
    r <= 2^(s+1), which holds for every radius.
    """
    mantissa, exponent = math.frexp(float(np.max(radii)))  # max = mantissa * 2^exponent
    return max(exponent - 1 - (mantissa == 0.5), -1)


def max_phase_shell(grid: VelocityGrid) -> int:
    """Largest k whose phase ring meets the grid: 2^k < max |v|."""
    return _max_shell(grid.v_abs)


def max_freq_shell(grid: VelocityGrid) -> int:
    """Largest j whose frequency ring meets the grid: 2^j < max |eta|."""
    return _max_shell(grid.eta_abs)


def block_norms(
    grid: VelocityGrid,
    u: np.ndarray,
    pair: BumpPair,
    jmax: int | None = None,
    kmax: int | None = None,
) -> np.ndarray:
    """Block L2 norms of each field on the trailing grid axes of u.

    Shape ``u.shape[:-d] + (jmax + 2, kmax + 2)``: rows j = -1..jmax, cols
    k = -1..kmax.  Per phase shell, one real transform of the whole stack;
    all frequency shells of it come from one matrix product of the
    half-spectrum power with the squared ring weights.
    """
    jmax = max_freq_shell(grid) if jmax is None else jmax
    kmax = max_phase_shell(grid) if kmax is None else kmax
    rings_sq = half_symbol(frequency_rings(pair, grid, jmax)) ** 2
    out = np.empty(u.shape[: u.ndim - grid.dimension] + (jmax + 2, kmax + 2))
    buf = coeff = power = None  # one physical, one spectral and one power buffer
    for k, wk in enumerate(phase_rings(pair, grid, kmax)):
        buf = np.multiply(u, wk, out=buf)
        coeff = half_spectrum(grid, buf, out=coeff)
        power = half_power(grid, coeff, out=power)
        out[..., k] = np.sqrt(summed(grid, power, rings_sq))
    return out


def shell_norms(
    grid: VelocityGrid, u: np.ndarray, pair: BumpPair, jmax: int | None = None
) -> np.ndarray:
    """Frequency-shell norms ||Delta_j u|| for j = -1..jmax (no phase cutoff).

    Shape ``u.shape[:-d] + (jmax + 2,)``, read off one half spectrum of the
    whole stack by Parseval.
    """
    jmax = max_freq_shell(grid) if jmax is None else jmax
    rings_sq = half_symbol(frequency_rings(pair, grid, jmax)) ** 2
    return np.sqrt(summed(grid, half_power(grid, half_spectrum(grid, u)), rings_sq))


def block_sum(norms: np.ndarray, p: float, m: float) -> np.ndarray:
    """Weighted block-sum norm from precomputed block-norm matrices.

    ``norms[..., j+1, k+1]`` must hold the (j, k) block L2 norms as produced
    by :func:`block_norms`; reusing them across several (p, m) pairs avoids
    recomputing the projections.  Leading axes stack fields.
    """
    jmax = norms.shape[-2] - 2
    kmax = norms.shape[-1] - 2
    js = np.arange(-1, jmax + 1)[:, None]
    ks = np.arange(-1, kmax + 1)[None, :]
    weights = 2.0 ** (2.0 * p * ks) * 2.0 ** (2.0 * m * js)
    return np.sqrt(np.sum(weights * norms**2, axis=(-2, -1)))


@dataclass
class BlockNormReport:
    value: float
    rows: list[dict]
    tail_converged: bool
    jmax: int
    kmax: int


BLOCK_REPORT_COLUMNS = ["j", "k", "block_l2", "weight_2kp", "weight_2mj", "contribution"]
TAIL_TOL = 1e-8  # largest share of the total the outermost phase ring may carry


def block_norm_characterization(
    grid: VelocityGrid,
    u: np.ndarray,
    p: float,
    m: float,
    pair: BumpPair,
) -> BlockNormReport:
    """Block-sum norm (sum_{j,k} 2^{2kp} 2^{2mj} ||block||^2)^(1/2).

    The k sum stops at the last ring meeting the box; the report flags a
    non-convergent tail when the outermost ring still contributes more
    than TAIL_TOL of the total.
    """
    jmax = max_freq_shell(grid)
    kmax = max_phase_shell(grid)
    norms = block_norms(grid, u, pair, jmax=jmax, kmax=kmax)
    rows = []
    total = 0.0
    last_ring = 0.0
    for k in range(-1, kmax + 1):
        for j in range(-1, jmax + 1):
            b = norms[j + 1, k + 1]
            wk = 2.0 ** (2 * k * p)
            wj = 2.0 ** (2 * m * j)
            contrib = wk * wj * b * b
            total += contrib
            if k == kmax:
                last_ring += contrib
            rows.append(
                {
                    "j": j,
                    "k": k,
                    "block_l2": b,
                    "weight_2kp": wk,
                    "weight_2mj": wj,
                    "contribution": contrib,
                }
            )
    tail_ok = last_ring <= TAIL_TOL * max(total, 1e-300)
    return BlockNormReport(
        value=float(np.sqrt(total)),
        rows=rows,
        tail_converged=bool(tail_ok),
        jmax=jmax,
        kmax=kmax,
    )
