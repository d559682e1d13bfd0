"""Dyadic phase/frequency decomposition with a telescoping bump pair.

The low cutoff :func:`psi` is 1 inside |xi| <= 1 and falls smoothly to 0
across [1, 4/3] through a bridge built from exp(-a/x); it is evaluated in
closed form.  The ring profile :func:`phi` is defined by the telescope
phi(xi) := psi(xi/2) - psi(xi).  The partition

    psi(xi) + sum_{j>=0} phi(2^-j xi) = psi(2^-(J+1) xi) -> 1

is then exact by construction, ring supports sit inside {1 <= |xi| <= 8/3},
and rings two apart are disjoint.  The grid alone decides which shells
exist: up to the last ring that is nonzero on it (:func:`max_phase_shell`,
:func:`max_freq_shell`).  Their weights (:func:`ring_weight`) on its |v| and
|eta| are tabulated once per grid as read-only arrays (:func:`phase_rings`,
:func:`frequency_rings`).  The (j, k) block of a field u is the product of
frequency ring j with the unitary transform of (phase ring k) * u,
transformed back.  :func:`block_norms` and :func:`shell_norms` take a whole
stack of real fields, ``(members,) + grid.shape``, through the real transform.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from kgl.grid import VelocityGrid, half_power, half_spectrum, half_symbol

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


def psi(r) -> np.ndarray:
    """The low cutoff: exactly 1 for |r| <= 1, exactly 0 for |r| >= 4/3, bridged between."""
    r = np.abs(np.asarray(r, dtype=float))
    return _bridge((r - PSI_FLAT_RADIUS) / (PSI_SUPPORT_RADIUS - PSI_FLAT_RADIUS))


def phi(r) -> np.ndarray:
    """The ring profile psi(r/2) - psi(r), which keeps the partition identity exact."""
    r = np.asarray(r, dtype=float)
    return psi(r / 2.0) - psi(r)


def ring_weight(r, shell: int) -> np.ndarray:
    """phi(2^-shell r) for shell >= 0, psi(r) for shell = -1."""
    if shell == -1:
        return psi(r)
    return phi(np.asarray(r, dtype=float) / 2.0**shell)


def build_bump_pair() -> None:
    """No-op with no caller in ``kgl``: the benchmark warm-up still calls it.

    ROADMAP item 1 deletes it together with that warm-up call.
    """


def _ring_table(radii: np.ndarray, top: int) -> np.ndarray:
    table = np.array([ring_weight(radii, shell) for shell in range(-1, top + 1)])
    table.flags.writeable = False
    return table


def _max_shell(largest: float) -> int:
    """Largest shell s >= -1 whose ring is nonzero at some radius up to ``largest``.

    Ring s >= 0 is nonzero only for 2^s < r < 2^s * 8/3 and grows with r up
    to 2^(s+1): the s with 2^s < largest <= 2^(s+1) is kept unless its weight
    at ``largest`` rounds to 0, where ring s - 1 is 1.  Either way the rows
    psi(r) + sum_{j<=s} phi(2^-j r) = psi(2^-(s+1) r) are exactly 1.
    """
    mantissa, exponent = math.frexp(largest)  # largest = mantissa * 2^exponent
    top = max(exponent - 1 - (mantissa == 0.5), -1)
    if top >= 0 and ring_weight(largest, top) == 0.0:
        top -= 1
    return top


@lru_cache(maxsize=8)
def max_phase_shell(grid: VelocityGrid) -> int:
    """Largest k whose phase ring is nonzero somewhere on the grid."""
    return _max_shell(grid.v_max)


@lru_cache(maxsize=8)
def max_freq_shell(grid: VelocityGrid) -> int:
    """Largest j whose frequency ring is nonzero somewhere on the grid."""
    return _max_shell(grid.eta_max)


@lru_cache(maxsize=8)
def phase_rings(grid: VelocityGrid) -> np.ndarray:
    """Read-only phase ring weights on |v|: row k + 1 for k = -1..max_phase_shell(grid)."""
    return _ring_table(grid.v_abs, max_phase_shell(grid))


@lru_cache(maxsize=8)
def frequency_rings(grid: VelocityGrid) -> np.ndarray:
    """Read-only frequency ring weights on |eta|: row j + 1 for j = -1..max_freq_shell(grid)."""
    return _ring_table(grid.eta_abs, max_freq_shell(grid))


def _frequency_rings_sq(grid: VelocityGrid) -> np.ndarray:
    """Squared frequency ring weights on the half spectrum."""
    return half_symbol(frequency_rings(grid)) ** 2


def block_norms(grid: VelocityGrid, u: np.ndarray) -> np.ndarray:
    """Block L2 norms of each field on the last axis of u.

    Shape ``u.shape[:-1] + (jmax + 2, kmax + 2)``: rows j = -1..jmax, cols
    k = -1..kmax, the grid's shells.  Per phase shell, one real transform of
    the whole stack; all frequency shells of it come from one matrix product
    of the half-spectrum power with the squared ring weights.
    """
    rings_sq = _frequency_rings_sq(grid)
    phases = phase_rings(grid)
    out = np.empty(u.shape[:-1] + (len(rings_sq), len(phases)))
    buf = coeff = power = None  # one physical, one spectral and one power buffer
    for k, wk in enumerate(phases):
        buf = np.multiply(u, wk, out=buf)
        coeff = half_spectrum(grid, buf, out=coeff)
        power = half_power(grid, coeff, out=power)
        out[..., k] = np.sqrt(power @ rings_sq.T)
    return out


def shell_norms(grid: VelocityGrid, u: np.ndarray) -> np.ndarray:
    """Frequency-shell norms ||Delta_j u|| for j = -1..max_freq_shell (no phase cutoff).

    Shape ``u.shape[:-1] + (jmax + 2,)``, read off one half spectrum of the
    whole stack by Parseval.
    """
    power = half_power(grid, half_spectrum(grid, u))
    return np.sqrt(power @ _frequency_rings_sq(grid).T)


def block_shells(norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (j, k) of each entry ``norms[..., j+1, k+1]`` of a block-norm matrix, as int matrices."""
    rows, cols = norms.shape[-2:]
    return np.meshgrid(np.arange(-1, rows - 1), np.arange(-1, cols - 1), indexing="ij")


def _weights(norms: np.ndarray, p: float, m: float) -> tuple[np.ndarray, np.ndarray]:
    """The block weights 2^(2kp) and 2^(2mj) of a block-norm matrix."""
    j, k = block_shells(norms)
    return 2.0 ** (2.0 * p * k), 2.0 ** (2.0 * m * j)


def block_sum(norms: np.ndarray, p: float, m: float) -> np.ndarray:
    """Weighted block-sum norm (sum_{j,k} 2^{2kp} 2^{2mj} ||block||^2)^(1/2).

    ``norms`` holds block-norm matrices as produced by :func:`block_norms`;
    reusing them across several (p, m) pairs avoids recomputing the
    projections.  Leading axes stack fields.
    """
    wk, wj = _weights(norms, p, m)
    return np.sqrt(np.sum(wk * wj * norms**2, axis=(-2, -1)))


BLOCK_REPORT_COLUMNS = ["j", "k", "block_l2", "weight_2kp", "weight_2mj", "contribution"]
TAIL_TOL = 1e-8  # largest share of the total the outermost phase ring may carry


def block_report(norms: np.ndarray, p: float, m: float) -> tuple[list[tuple], bool]:
    """Rows of BLOCK_REPORT_COLUMNS for one block-norm matrix (k outer), and the tail flag.

    The contributions 2^{2kp} 2^{2mj} ||block||^2 sum to ``block_sum ** 2``;
    the k sum stops at the last ring that meets the box, so the tail has
    converged when that ring carries at most TAIL_TOL of the total.
    """
    wk, wj = _weights(norms, p, m)
    contribution = wk * wj * norms**2
    tail_converged = contribution[:, -1].sum() <= TAIL_TOL * max(contribution.sum(), 1e-300)
    columns = [a.T.ravel().tolist() for a in (*block_shells(norms), norms, wk, wj, contribution)]
    return list(zip(*columns)), bool(tail_converged)
