"""Degenerate fractional-diffusion model evolution and its dyadic decay law.

The model is d/dt f + <v>^gamma <D_v>^(2s) f = 0 on the periodic grid.  Its
dyadic blocks obey the closed-form decay law

    M(j, k, t) = exp(-t 2^(2sj) 2^(gamma k)) M(j, k, 0),

and with a Gaussian-in-velocity initial weight exp(-a0 <v>^2) the
competition between dissipation and weight produces shell exponents
growing like 2^(4s/(2-gamma) j), which pins the regularity-class index
(2-gamma)/(4s) before the analytic clamp at 1.  :func:`block_law` is the
one statement of those exponents, E_j = min over k >= 0 of
a0 2^(2k) + t 2^(2sj) 2^(gamma k), for any set of shells.

:func:`evolve_toy` checks the law in one march: the field and the dyadic
blocks of it whose decay can be compared advance together, each block on
the coarsest grid of the box that holds its frequency ring and the
coefficient's bandwidth (:func:`march_grid`), one stack and one
:class:`ToyStepper` per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.chebyshev import chebval

from kgl.dyadic import (
    PSI_SUPPORT_RADIUS,
    _bridge,
    frequency_rings,
    max_freq_shell,
    phase_rings,
    shell_norms,
)
from kgl.grid import VelocityGrid, half_symbol, l2_norms
from kgl.params import SoftPotentialParams


class ToyModelError(ValueError):
    pass


@dataclass(frozen=True)
class ToyParams:
    prm: SoftPotentialParams
    a0: float
    t_final: float
    grid: VelocityGrid
    steps: int = 64

    def __post_init__(self):
        if not 0 < self.a0 < math.inf:
            raise ToyModelError(f"a0={self.a0} must be positive and finite")
        if self.steps < 16:
            raise ToyModelError(f"steps={self.steps} < 16")
        if not 0 < self.t_final < math.inf:
            raise ToyModelError(f"final time {self.t_final} must be positive and finite")


BLEND_START = 0.8  # fraction of the half-width where the edge blend begins


def effective_coefficient(
    grid: VelocityGrid, gamma: float
) -> np.ndarray:
    """<v>^gamma blended to a constant near the box edge.

    The raw coefficient has a derivative kink at the periodic wrap whose
    slowly decaying Fourier tail scatters spectral content across shells;
    blending to the constant edge value beyond ``BLEND_START * L`` restores
    smooth periodicity.  Data in acceptance runs is below 1e-300 there.
    """
    raw = grid.v_bracket_sq ** (gamma / 2.0)
    r = grid.v_abs
    lo = BLEND_START * grid.half_width
    hi = grid.half_width
    chi = _bridge((r - lo) / (hi - lo))
    edge = (1.0 + hi * hi) ** (gamma / 2.0)
    return raw * chi + edge * (1.0 - chi)


CHEBYSHEV_NODES = 48  # first node count tried; doubled until the series resolves
MAX_CHEBYSHEV_NODES = 3072  # beyond this the kernel is rejected as unresolved
RESOLVED_TAIL = 64 * np.finfo(float).eps  # top-half coefficients of a resolved series
SINGULAR_TOL = 16 * np.finfo(float).eps  # kept singular values exceed this times the largest


def _dct2(x: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-II along axis 0, y_r = 2 sum_m x_m cos(pi r (2m+1) / 2n).

    Makhoul's construction: one complex FFT of the even-indexed values
    followed by the odd-indexed ones reversed, times the twiddle
    exp(-i pi r / 2n).
    """
    n = x.shape[0]
    spectrum = np.fft.fft(np.concatenate([x[::2], x[1::2][::-1]]), axis=0)
    twiddle = np.exp(-0.5j * np.pi * np.arange(n) / n).reshape((n,) + (1,) * (x.ndim - 1))
    return 2.0 * (twiddle * spectrum).real


def chebyshev_symbols(
    coefficient: np.ndarray, sigma: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Separate exp(-dt m sigma) in m over the range of ``coefficient`` at its numerical rank.

    The kernel is sampled at n Chebyshev nodes m_k of [min m, max m]; n
    doubles until the top half of the samples' Chebyshev series (their DCT)
    sits at rounding level.  The samples K = U S V^T (shape (n, sigma.size))
    then separate at their numerical rank (Eckart-Young): the rank keeps the
    singular values above SINGULAR_TOL times the largest, the symbols b_q are
    the kept rows of V^T, and the weights a_q are the Chebyshev interpolants
    of the kept columns of U S at x = (m - center) / half.  A constant
    coefficient gives rank 1.  Returns (a, b) with a of shape
    (rank,) + coefficient.shape and b of shape (rank,) + sigma.shape.
    """
    lo, hi = float(np.min(coefficient)), float(np.max(coefficient))
    center, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    n = CHEBYSHEV_NODES
    while True:
        nodes = center + half * np.cos(np.pi * (np.arange(n) + 0.5) / n)
        kernel = np.exp(-dt * nodes.reshape((n,) + (1,) * sigma.ndim) * sigma)
        b = _dct2(kernel) / n
        b[0] /= 2.0
        size = np.max(np.abs(b.reshape(n, -1)), axis=1)
        floor = max(float(np.max(size[n // 2 :])), np.finfo(float).eps * size[0])
        if floor <= RESOLVED_TAIL * size[0]:
            break
        if n >= MAX_CHEBYSHEV_NODES:
            raise ToyModelError(
                f"toy kernel not resolved by {n} Chebyshev nodes (tail {floor:.1e})"
            )
        n *= 2
    u, singular, vt = np.linalg.svd(kernel.reshape(n, -1), full_matrices=False)
    rank = int(np.count_nonzero(singular > SINGULAR_TOL * singular[0]))
    c = _dct2(u[:, :rank] * singular[:rank]) / n
    c[0] /= 2.0
    x = (coefficient - center) / half if half > 0 else np.zeros_like(coefficient)
    return chebval(x, c, tensor=True), vt[:rank].reshape((rank,) + sigma.shape).copy()


class ToyStepper:
    """One-step propagator for the model on a fixed grid.

    The step applies the frozen kernel exp(-dt m(v) <eta>^(2s)), with m the
    effective coefficient, mode by mode.  The kernel depends on v only
    through m, so its separation in m (see :func:`chebyshev_symbols` for the
    rank rule; ``rank`` holds it) splits the step into rank + 1 transforms:

        step(u) = sum_q a_q(v) * irfft(b_q(eta) * rfft(u)).

    A constant coefficient (gamma = 0) is the rank-1 case, the exact
    multiplier flow.  Every kernel element lies in (0, 1], so the step is
    unconditionally stable.

    The operator is real (a_q, b_q real, b_q even in eta) and marches real
    arrays with real transforms; complex input raises TypeError.
    """

    def __init__(self, p: ToyParams):
        grid = p.grid
        self.params = p
        self.dt = p.t_final / p.steps
        self.coefficient = effective_coefficient(grid, p.prm.gamma)
        sigma = half_symbol(grid.eta_bracket_sq) ** p.prm.s
        self.weights, self.symbols = chebyshev_symbols(self.coefficient, sigma, self.dt)
        self.rank = len(self.symbols)

    def step(self, u: np.ndarray) -> np.ndarray:
        """Advance by dt the real fields on the last axis of u (leading axes stack them)."""
        n = self.params.grid.points_per_axis
        coeff = np.fft.rfft(u)
        scaled = np.empty_like(coeff)
        out = np.zeros(u.shape)
        # in-place products: a fresh temporary per term costs about as much
        # as the term's transform
        for a, b in zip(self.weights, self.symbols):
            y = np.fft.irfft(np.multiply(b, coeff, out=scaled), n)
            y *= a
            out += y
        return out


@dataclass
class ToyTrajectory:
    """One march of f0 and its compared blocks (see :func:`evolve_toy`).

    ``norms``, ``final`` and ``snapshots`` follow f0.  The block arrays hold
    one entry per compared block: its shell indices j and k, its initial
    norm, and its measured and law-predicted decay exponents.
    ``marched_grids`` holds one (points, rows, rank) triple per grid
    marched, the full grid first.
    """

    norms: np.ndarray
    final: np.ndarray
    marched_grids: list[tuple[int, int, int]]
    block_j: np.ndarray
    block_k: np.ndarray
    block_norms: np.ndarray
    measured_exponents: np.ndarray
    predicted_exponents: np.ndarray
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list)

    @property
    def rate_ratios(self) -> np.ndarray:
        return self.measured_exponents / self.predicted_exponents

    @property
    def propagator_rank(self) -> int:
        """The rank of the full grid's stepper, the one that marches f0."""
        return self.marched_grids[0][2]


def _check_shape(u: np.ndarray, grid: VelocityGrid) -> None:
    if np.shape(u) != grid.shape:
        raise ToyModelError(
            f"initial field has shape {np.shape(u)}, the grid expects {grid.shape}"
        )
    if np.iscomplexobj(u):
        raise ToyModelError("initial field is complex; the model evolves real fields")


BLOCK_FLOOR = 1e-12  # a block is compared when its law-predicted final norm clears this
# A coarse march drops the coefficient's spectrum above this share of its
# mean.  What spills past the coarse Nyquist enters a block's squared norm,
# so a spill of about sqrt(eps) costs rounding.
SPILL_TOL = 1e-8


def coefficient_bandwidth(grid: VelocityGrid, gamma: float) -> float:
    """The largest |eta| where |rfft| of the effective coefficient exceeds SPILL_TOL of its mean mode.

    The coefficient is analytic in a strip, so its spectrum decays
    exponentially and the bandwidth sits far below the Nyquist (17.3 at the
    evolve-toy defaults, against 201).
    """
    spectrum = np.abs(np.fft.rfft(effective_coefficient(grid, gamma)))
    return float(np.max(half_symbol(grid.eta_abs)[spectrum > SPILL_TOL * spectrum[0]]))


def march_grid(grid: VelocityGrid, j: int, bandwidth: float) -> VelocityGrid:
    """The coarsest grid of the box whose Nyquist clears ring j's top plus ``bandwidth``.

    Ring j lies below PSI_SUPPORT_RADIUS 2^(j+1), and a step multiplies by
    functions of the coefficient, which spread it by about ``bandwidth``.
    The coarse points are every (N / n)-th fine point, so the samples of a
    block below the coarse Nyquist are its fine samples subsampled, exactly.
    """
    top = PSI_SUPPORT_RADIUS * 2.0 ** (j + 1) + bandwidth
    n = grid.points_per_axis
    while n > 8 and VelocityGrid(n // 2, grid.half_width).nyquist > top:
        n //= 2
    return VelocityGrid(n, grid.half_width)


def evolve_toy(
    f0: np.ndarray,
    p: ToyParams,
    snapshot_every: int | None = None,
) -> ToyTrajectory:
    """March the samples f0 on ``p.grid`` to t_final with the blocks the law compares.

    A dyadic block Delta_j (phi_k f0) is compared when its law-predicted
    norm at t_final, exp(-t_final 2^(2sj) 2^(gamma k)) times its initial
    norm, is at least ``BLOCK_FLOOR`` (so its initial norm is too); the
    other blocks are dropped before any step.  Each compared block is
    marched on its :func:`march_grid`, with the coefficient bandwidth
    measured once per run; blocks that share a grid are the rows of one
    stack, marched by that grid's own stepper.  f0 is row 0 of the full
    grid's stack.  At the defaults the 24 compared blocks ride on the
    4096-, 2048-, 1024- and 512-point grids, 1, 3, 8 and 12 of them.  The
    coefficient and symbol are blockwise within a bounded ratio of their
    dyadic representatives, so a block's measured exponent
    -ln(||b(T)|| / ||b(0)||) must land within a factor 4 of the predicted
    one.  The L2 norm of f0 is recorded after every step.
    """
    grid = p.grid
    _check_shape(f0, grid)
    check_edge_decay(f0)
    bandwidth = coefficient_bandwidth(grid, p.prm.gamma)
    rings = half_symbol(frequency_rings(grid))
    stacks = {grid: [f0]}  # the rows of each grid marched
    blocks, rows = [], []  # each compared block's metadata, and its (grid, row)
    for k, wk in enumerate(phase_rings(grid), start=-1):
        gh = np.fft.rfft(f0 * wk)
        projected = np.fft.irfft(rings * gh, grid.points_per_axis)
        for j, (b, norm) in enumerate(zip(projected, l2_norms(grid, projected)), start=-1):
            predicted = p.t_final * block_decay_rate(j, k, p.prm)
            if math.exp(-predicted) * norm >= BLOCK_FLOOR:
                coarse = march_grid(grid, j, bandwidth)
                stack = stacks.setdefault(coarse, [])
                rows.append((coarse, len(stack)))
                stack.append(b[:: grid.points_per_axis // coarse.points_per_axis])
                blocks.append((j, k, norm, predicted))
    marched = sorted(stacks, key=lambda g: -g.points_per_axis)  # the full grid first
    steppers = {g: ToyStepper(replace(p, grid=g)) for g in marched}
    u = {g: np.array(stacks[g]) for g in marched}
    norms = [l2_norms(grid, f0)]
    snaps: list[tuple[float, np.ndarray]] = []
    for n in range(p.steps):
        for g in marched:
            u[g] = steppers[g].step(u[g])
        f = u[grid][0].copy()  # a snapshot keeps f alone, not the whole stack
        norms.append(l2_norms(grid, f))
        if snapshot_every and (n + 1) % snapshot_every == 0:
            snaps.append(((n + 1) * steppers[grid].dt, f))
    finals = {g: l2_norms(g, u[g]) for g in marched}
    meta = np.array(blocks, dtype=float).reshape(-1, 4)
    # math.log as for the other scalars: numpy's vector log may differ by an ulp
    measured = [
        -math.log(max(float(finals[g][row]), 1e-300) / nb0)
        for (g, row), nb0 in zip(rows, meta[:, 2])
    ]
    return ToyTrajectory(
        norms=np.array(norms),
        final=f,
        marched_grids=[(g.points_per_axis, len(u[g]), steppers[g].rank) for g in marched],
        block_j=meta[:, 0].astype(int),
        block_k=meta[:, 1].astype(int),
        block_norms=meta[:, 2],
        measured_exponents=np.array(measured),
        predicted_exponents=meta[:, 3],
        snapshots=snaps,
    )


EDGE_DECAY_TOL = 1e-14  # the largest |f0| on the box edge, relative to its peak, a march admits


def check_edge_decay(f0: np.ndarray) -> None:
    """ToyModelError unless f0 decays to EDGE_DECAY_TOL of its peak at the box edge.

    The edge is the first sample, v = -L, where the periodic box would
    otherwise join the data to a jump.
    """
    boundary = abs(float(f0[0]))
    peak = float(np.max(np.abs(f0)))
    if peak > 0 and boundary > EDGE_DECAY_TOL * peak:
        raise ToyModelError(
            f"initial data does not decay at the box edge ({boundary / peak:.2e} of peak)"
        )


# --- closed-form block decay law -------------------------------------------


def block_decay_rate(j: int, k: int, prm: SoftPotentialParams) -> float:
    """2^(2sj) 2^(gamma k), the rate of M(j, k, t); the -1 (low) indices use exponent 0."""
    return 2.0 ** (2.0 * prm.s * max(j, 0)) * 2.0 ** (prm.gamma * max(k, 0))


# --- the finite-shell law ---------------------------------------------------


INFIMUM_KMAX = 64  # first k range of the law's minimum, 0..64


def block_law(
    js, prm: SoftPotentialParams, a0: float, t: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """E_j = min over integer k >= 0 of t 2^(2sj) 2^(gamma k) + a0 2^(2k), and its first minimizer.

    E_j is -ln sup_k M(j, k, t) for the initial profile exp(-a0 2^(2k)),
    one row per shell j of ``js``, with the low-shell rule of
    :func:`block_decay_rate` at j = -1.  Ties break toward the smaller k.
    The k range 0..INFIMUM_KMAX doubles while a row's minimum lands on its
    last k; a0 2^(2k) leaves the float range before k = 1100 for every
    positive a0, so the range stops growing by k = 2048.  Returns
    (k_star, E), one entry per j.
    """
    shell = np.array([t * block_decay_rate(int(j), 0, prm) for j in js]).reshape(-1, 1)
    kmax = INFIMUM_KMAX
    while True:
        k = np.arange(0, kmax + 1, dtype=float)
        with np.errstate(over="ignore"):  # a0 2^(2k) past the float range is inf, never the minimum
            vals = shell * 2.0 ** (prm.gamma * k) + a0 * 2.0 ** (2.0 * k)
        k_star = np.argmin(vals, axis=1)
        if np.all(k_star < kmax):
            return k_star, np.take_along_axis(vals, k_star[:, None], axis=1)[:, 0]
        kmax *= 2


# --- regularity-index estimation -------------------------------------------


@dataclass
class GevreyFit:
    estimated_index: float
    clamped_index: float
    constant: float
    shell_exponents: np.ndarray
    j_range: np.ndarray
    slope: float
    residual: float
    monotone: bool

    def summary(self) -> dict:
        return {
            "estimated_index": self.estimated_index,
            "clamped_index": self.clamped_index,
            "slope": self.slope,
            "constant": self.constant,
            "residual": self.residual,
            "monotone": self.monotone,
            "j_range": [int(self.j_range[0]), int(self.j_range[-1])],
        }


def estimate_gevrey_index(
    shell_exponents: np.ndarray,
    j_range: np.ndarray,
) -> GevreyFit:
    """Least-squares fit of log2 E_j against j; slope is 1/r-hat.

    Every shell enters the fit; at least 8 are required.
    """
    e = np.asarray(shell_exponents, dtype=float)
    js = np.asarray(j_range, dtype=float)
    if e.shape != js.shape:
        raise ToyModelError("shell exponents and j range differ in length")
    if e.size < 8:
        raise ToyModelError(f"only {e.size} usable shells; need at least 8")
    if np.any(e <= 0):
        raise ToyModelError("shell exponents must be positive for the log fit")
    y = np.log2(e)
    slope, intercept = np.polyfit(js, y, 1)
    pred = slope * js + intercept
    residual = float(np.sqrt(np.mean((y - pred) ** 2)))
    monotone = bool(np.all(np.diff(e) > 0))
    if slope <= 0:
        raise ToyModelError(f"nonpositive fitted slope {slope}")
    r_hat = 1.0 / slope
    return GevreyFit(
        estimated_index=float(r_hat),
        clamped_index=float(max(r_hat, 1.0)),
        constant=float(2.0**intercept),
        shell_exponents=e,
        j_range=js.astype(int),
        slope=float(slope),
        residual=residual,
        monotone=monotone,
    )


def trajectory_shell_exponents(
    grid: VelocityGrid,
    f0: np.ndarray,
    final: np.ndarray,
    j_range: range,
) -> np.ndarray:
    """Shell exponents E_j = -ln(||Delta_j f(T)|| / c) from a full-field run.

    The normalization c is the largest initial shell content over the fit
    range: the regularity index is an exponential rate, and removing the
    O(1) content prefactor keeps a finite-shell fit centered on that rate
    (evolution is linear, so this equals evolving f0 / c).  Shell content
    is measured purely on the Fourier side, which is leakage-free.  The
    shells of ``j_range`` must be on the grid.
    """
    top = max_freq_shell(grid)
    if j_range.start < -1 or j_range.stop - 1 > top:
        raise ToyModelError(f"shells {j_range[0]}..{j_range[-1]} asked; the grid's are -1..{top}")
    both = shell_norms(grid, np.array([f0, final]))
    init, evolved = both[:, j_range.start + 1 : j_range.stop + 1]
    norm_c = float(np.max(init))
    if norm_c <= 0:
        raise ToyModelError("initial data has no content on the fitted shells")
    return -np.log(np.maximum(evolved / norm_c, 1e-300))


# --- canonical broadband initial data ---------------------------------------


BROADBAND_FRACTION = 0.95  # the band of q reaches this fraction of the Nyquist mode


def weighted_broadband_data(
    grid: VelocityGrid,
    a0: float,
    seed: int = 1,
    rough_amplitude: float = 0.5,
) -> np.ndarray:
    """exp(-a0 <v>^2) times (1 + q) with q broadband and real.

    q has random phases, a mild <eta>^(-1/2) envelope so every dyadic shell
    carries comparable content, and is normalized in sup norm; the product
    populates all measurable (j, k) blocks while keeping the Gaussian
    weight competition intact.
    """
    rng = np.random.default_rng(seed)
    n = grid.points_per_axis
    mode_abs = np.abs(np.fft.fftfreq(n) * n)
    band = (mode_abs >= 1) & (mode_abs <= BROADBAND_FRACTION * n / 2)
    phases = np.exp(2j * np.pi * rng.random(grid.shape))
    amp = np.where(band, phases * grid.eta_bracket_sq ** (-0.25), 0.0)
    q = np.fft.ifft(amp, norm="ortho").real
    q = q / max(float(np.max(np.abs(q))), 1e-300) * rough_amplitude
    return np.exp(-a0 * grid.v_bracket_sq) * (1.0 + q)
