"""Degenerate fractional-diffusion model evolution and its dyadic decay law.

The model is d/dt f + <v>^gamma <D_v>^(2s) f = 0 on the periodic grid.  Its
dyadic blocks obey the closed-form decay law

    M(j, k, t) = exp(-t 2^(2sj) 2^(gamma k)) M(j, k, 0),

and with a Gaussian-in-velocity initial weight exp(-a0 <v>^2) the
competition between dissipation and weight produces shell exponents
growing like 2^(4s/(2-gamma) j), which pins the regularity-class index
(2-gamma)/(4s) before the analytic clamp at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from scipy.fft import dct

from kgl.dyadic import BumpPair, _bridge, build_bump_pair, max_freq_shell, max_phase_shell
from kgl.grid import SpectralField, VelocityGrid
from kgl.params import SoftPotentialParams


class ToyModelError(ValueError):
    pass


class SchemeViolation(RuntimeError):
    """L2 norm grew beyond tolerance during a step."""


@dataclass(frozen=True)
class ToyParams:
    prm: SoftPotentialParams
    a0: float
    t_final: float
    grid: VelocityGrid
    steps: int = 64

    def __post_init__(self):
        if self.a0 <= 0:
            raise ToyModelError(f"a0={self.a0} must be positive")
        if self.steps < 16:
            raise ToyModelError(f"steps={self.steps} < 16")
        if self.t_final <= 0:
            raise ToyModelError("final time must be positive")


def effective_coefficient(
    grid: VelocityGrid, gamma: float, blend_start: float = 0.8
) -> np.ndarray:
    """<v>^gamma blended to a constant near the box edge.

    The raw coefficient has a derivative kink at the periodic wrap whose
    slowly decaying Fourier tail scatters spectral content across shells;
    blending to the constant edge value beyond ``blend_start * L`` restores
    smooth periodicity.  Data in acceptance runs is below 1e-300 there.
    """
    if gamma == 0.0:
        return np.ones(grid.shape)
    raw = grid.v_bracket_sq ** (gamma / 2.0)
    r = grid.v_abs
    lo = blend_start * grid.half_width
    hi = grid.half_width
    chi = _bridge((r - lo) / (hi - lo), 4.0)
    edge = (1.0 + hi * hi) ** (gamma / 2.0)
    return raw * chi + edge * (1.0 - chi)


CHEBYSHEV_NODES = 48  # first node count tried; doubled until the series resolves
MAX_CHEBYSHEV_NODES = 3072  # beyond this the kernel is rejected as unresolved
RESOLVED_TAIL = 64 * np.finfo(float).eps  # top-half coefficients of a resolved series
PLATEAU_FACTOR = 2.0  # coefficients within this factor of the floor are rounding


def chebyshev_symbols(
    coefficient: np.ndarray, sigma: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Separate exp(-dt m sigma) in m over the range of ``coefficient``.

    With x = (m - center) / half mapping [min m, max m] onto [-1, 1],

        exp(-dt m sigma) = sum_r b_r(sigma) T_r(x),

    where b_r is the DCT of the kernel sampled at Chebyshev nodes m_k.  The
    computed coefficients level off at a rounding plateau instead of
    decaying further, so the rank is read from the plateau: the floor is
    the largest coefficient in the top half of the series (at least eps
    times b_0), and the rank keeps every term above PLATEAU_FACTOR times
    it.  The node count doubles until the top half sits at rounding level.
    A constant coefficient gives rank 1.  Returns (b, x) with b of shape
    (rank,) + sigma.shape.
    """
    lo, hi = float(np.min(coefficient)), float(np.max(coefficient))
    center, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    n = CHEBYSHEV_NODES
    while True:
        nodes = center + half * np.cos(np.pi * (np.arange(n) + 0.5) / n)
        kernel = np.exp(-dt * nodes.reshape((n,) + (1,) * sigma.ndim) * sigma)
        b = dct(kernel, type=2, axis=0) / n
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
    rank = int(np.nonzero(size > PLATEAU_FACTOR * floor)[0][-1]) + 1
    x = (coefficient - center) / half if half > 0 else np.zeros_like(coefficient)
    return b[:rank], x


class ToyStepper:
    """One-step propagator for the model on a fixed grid, any dimension d.

    The step applies the frozen kernel exp(-dt m(v) <eta>^(2s)), with m the
    effective coefficient, mode by mode.  The kernel depends on v only
    through m, so a Chebyshev expansion in m separates it:

        step(u) = sum_r a_r(v) * irfftn(b_r(eta) * rfftn(u)),

    with a_r = T_r(x(v)) and b_r the Chebyshev coefficients of the kernel
    (see :func:`chebyshev_symbols` for the rank rule; ``rank`` holds it).
    A constant coefficient (gamma = 0) is the rank-1 case, the exact
    multiplier flow.  Every kernel element lies in (0, 1], so the step is
    unconditionally stable.

    The operator is real (a_r, b_r real, b_r even in eta) and marches real
    arrays with real transforms; complex input is split by linearity,
    S(u) = S(Re u) + i S(Im u), and input whose imaginary part is zero
    returns a real array.
    """

    def __init__(self, p: ToyParams):
        grid = p.grid
        self.params = p
        self.dt = p.t_final / p.steps
        self.coefficient = effective_coefficient(grid, p.prm.gamma)
        sigma = _rfft_half(grid.eta_bracket_sq) ** p.prm.s
        self.symbols, x = chebyshev_symbols(self.coefficient, sigma, self.dt)
        self.rank = len(self.symbols)
        # T_0(x) .. T_(rank-1)(x) by the three-term recurrence
        self.weights = np.ascontiguousarray(np.moveaxis(chebvander(x, self.rank - 1), -1, 0))

    def step(self, samples: np.ndarray) -> np.ndarray:
        """Advance by dt the fields on the trailing d axes (leading axes stack them)."""
        return _by_parts(self._apply, samples)

    def _apply(self, u: np.ndarray) -> np.ndarray:
        """The step on real fields over the trailing d axes of u."""
        shape = self.params.grid.shape
        axes = tuple(range(-len(shape), 0))
        coeff = np.fft.rfftn(u, axes=axes)
        scaled = np.empty_like(coeff)
        out = np.zeros(u.shape)
        # in-place products: a fresh temporary per term costs about as much
        # as the term's transform
        for a, b in zip(self.weights, self.symbols):
            y = np.fft.irfftn(np.multiply(b, coeff, out=scaled), s=shape, axes=axes)
            y *= a
            out += y
        return out


def _rfft_half(symbol: np.ndarray) -> np.ndarray:
    """An even Fourier symbol on the rfftn layout (last axis 0 .. N/2)."""
    return symbol[..., : symbol.shape[-1] // 2 + 1]


def _by_parts(apply, u: np.ndarray) -> np.ndarray:
    """Apply a real linear operator to u, splitting complex u by linearity."""
    if not np.iscomplexobj(u):
        return apply(u)
    if not np.any(u.imag):
        return apply(u.real)
    return apply(u.real) + 1j * apply(u.imag)


@dataclass
class ToyTrajectory:
    params: ToyParams
    times: np.ndarray
    norms: np.ndarray
    final: SpectralField
    propagator_rank: int
    snapshots: list[tuple[float, SpectralField]] = field(default_factory=list)


def evolve_toy(
    f0: SpectralField,
    p: ToyParams,
    snapshot_every: int | None = None,
    growth_tol: float = 1e-10,
) -> ToyTrajectory:
    """March the model to t_final, monitoring the L2 norm each step.

    Any step that grows the norm by a relative factor beyond ``growth_tol``
    aborts with :class:`SchemeViolation`.
    """
    if f0.grid != p.grid:
        raise ToyModelError("initial field lives on a different grid")
    boundary = _edge_peak(f0.samples)
    peak = float(np.max(np.abs(f0.samples)))
    if peak > 0 and boundary > 1e-14 * peak:
        raise ToyModelError(
            f"initial data does not decay at the box edge ({boundary / peak:.2e} of peak)"
        )
    stepper = ToyStepper(p)
    u = f0.samples
    norms = [float(np.linalg.norm(u.ravel()))]
    times = [0.0]
    snaps: list[tuple[float, SpectralField]] = []
    for n in range(p.steps):
        u = stepper.step(u)
        nn = float(np.linalg.norm(u.ravel()))
        if nn > norms[-1] * (1.0 + growth_tol):
            raise SchemeViolation(
                f"norm grew at step {n}: {norms[-1]:.6e} -> {nn:.6e}"
            )
        norms.append(nn)
        times.append((n + 1) * stepper.dt)
        if snapshot_every and (n + 1) % snapshot_every == 0:
            snaps.append(((n + 1) * stepper.dt, SpectralField.from_samples(p.grid, u)))
    scale = math.sqrt(p.grid.cell_volume)
    return ToyTrajectory(
        params=p,
        times=np.asarray(times),
        norms=scale * np.asarray(norms),
        final=SpectralField.from_samples(p.grid, u),
        propagator_rank=stepper.rank,
        snapshots=snaps,
    )


def _edge_peak(samples: np.ndarray) -> float:
    """Largest |f| on the v_i = -L face of every axis i."""
    return max(float(np.max(np.abs(np.take(samples, 0, axis=a)))) for a in range(samples.ndim))


# --- closed-form block decay law -------------------------------------------


def block_decay_exact(j: int, k: int, t: float, prm: SoftPotentialParams) -> float:
    """exp(-t 2^(2sj) 2^(gamma k)); the -1 (low) indices use exponent 0."""
    return math.exp(-t * block_decay_rate(j, k, prm))


def block_decay_rate(j: int, k: int, prm: SoftPotentialParams) -> float:
    return 2.0 ** (2.0 * prm.s * max(j, 0)) * 2.0 ** (prm.gamma * max(k, 0))


# --- sharpness infimum ------------------------------------------------------


@dataclass(frozen=True)
class InfimumResult:
    j: int
    k_star: int
    value: float
    widened: bool


def sharpness_infimum(
    j: int,
    prm: SoftPotentialParams,
    a0: float,
    kmax: int = 64,
    t: float = 1.0,
) -> InfimumResult:
    """Brute-force min over integer k >= 0 of t 2^(2sj) 2^(gamma k) + a0 2^(2k).

    Ties break toward smaller k.  If the minimum lands on the last k the
    range is widened and retried (flagged in the result).
    """
    if kmax < 64:
        raise ToyModelError(f"kmax={kmax} < 64")
    widened = False
    while True:
        k = np.arange(0, kmax + 1, dtype=float)
        vals = t * 2.0 ** (2.0 * prm.s * j) * 2.0 ** (prm.gamma * k) + a0 * 2.0 ** (
            2.0 * k
        )
        k_star = int(np.argmin(vals))
        if k_star < kmax:
            return InfimumResult(j=j, k_star=k_star, value=float(vals[k_star]), widened=widened)
        if kmax > 1 << 20:
            raise ToyModelError("infimum did not stabilize while widening the k range")
        kmax *= 2
        widened = True


# --- block-law state (log domain) ------------------------------------------


@dataclass
class BlockLawState:
    """Exact dyadic magnitudes in the log domain.

    log_m0[j, k] holds ln M(j, k, 0) for j in j_range, k in k_range; the
    initial profile is exp(-a0 2^(2k)) times a supplied spectral envelope.
    """

    prm: SoftPotentialParams
    a0: float
    j_range: np.ndarray
    k_range: np.ndarray
    log_m0: np.ndarray

    @classmethod
    def with_envelope(
        cls,
        prm: SoftPotentialParams,
        a0: float,
        j_range: range,
        k_range: range,
        log_envelope=None,
    ) -> "BlockLawState":
        js = np.asarray(list(j_range))
        ks = np.asarray(list(k_range))
        log_m0 = np.zeros((js.size, ks.size))
        for a, j in enumerate(js):
            for b, k in enumerate(ks):
                env = 0.0 if log_envelope is None else float(log_envelope(j, k))
                log_m0[a, b] = -a0 * 2.0 ** (2.0 * k) + env
        return cls(prm=prm, a0=a0, j_range=js, k_range=ks, log_m0=log_m0)

    def log_magnitudes(self, t: float) -> np.ndarray:
        rates = np.array(
            [
                [block_decay_rate(int(j), int(k), self.prm) for k in self.k_range]
                for j in self.j_range
            ]
        )
        return self.log_m0 - t * rates

    def shell_exponents(self, t: float) -> np.ndarray:
        """E_j = -ln sup_k M(j, k, t), one entry per j in j_range."""
        return -np.max(self.log_magnitudes(t), axis=1)


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
    floor: float | None = None,
) -> GevreyFit:
    """Least-squares fit of log2 E_j against j; slope is 1/r-hat.

    ``floor`` guards measured (floating-point) magnitude sources: shells
    whose magnitudes sat below it are dropped from the top of the range
    before fitting.  Exact log-domain sources pass ``None`` (no shell is
    an underflow artifact there).  At least 8 usable shells are required.
    """
    e = np.asarray(shell_exponents, dtype=float)
    js = np.asarray(j_range, dtype=float)
    if e.shape != js.shape:
        raise ToyModelError("shell exponents and j range differ in length")
    if floor is not None:
        cap = -math.log(floor)
        usable = e < cap
        if not np.all(usable):
            last = int(np.argmin(usable))  # first saturated shell
            e, js = e[:last], js[:last]
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


# --- per-block evolution against the law ------------------------------------


@dataclass
class BlockComparison:
    j: int
    k: int
    initial_norm: float
    measured_exponent: float
    predicted_exponent: float
    included: bool

    @property
    def rate_ratio(self) -> float:
        return self.measured_exponent / self.predicted_exponent


@dataclass
class BlockLawConsistency:
    comparisons: list[BlockComparison]

    def included(self) -> list[BlockComparison]:
        return [c for c in self.comparisons if c.included]

    def worst_ratios(self) -> tuple[float, float]:
        rats = [c.rate_ratio for c in self.included()]
        return (min(rats), max(rats)) if rats else (1.0, 1.0)


def block_law_consistency(
    f0: SpectralField,
    p: ToyParams,
    pair: BumpPair | None = None,
    floor: float = 1e-12,
) -> BlockLawConsistency:
    """Evolve each dyadic block of f0 through the model and compare decays.

    For every block with initial norm >= ``floor`` the block is evolved on
    its own and its measured decay exponent -ln(||b(T)|| / ||b(0)||) is
    recorded.  Blocks whose law-predicted evolved magnitude also stays
    >= ``floor`` enter the rate comparison; the coefficient and symbol are
    blockwise within a bounded ratio of their dyadic representatives, so
    the rate ratio must land in [1/4, 4].
    """
    pair = pair or build_bump_pair()
    grid = p.grid
    stepper = ToyStepper(p)
    jmax = max_freq_shell(grid)
    kmax = max_phase_shell(grid)
    scale = math.sqrt(grid.cell_volume)
    eta_half = _rfft_half(grid.eta_abs)
    rings = np.array([pair.ring_weight(eta_half, j) for j in range(-1, jmax + 1)])
    axes = tuple(range(-grid.dimension, 0))

    def project(g):
        gh = np.fft.rfftn(g, axes=axes)
        return np.fft.irfftn(rings * gh, s=grid.shape, axes=axes)

    blocks, meta = [], []
    for k in range(-1, kmax + 1):
        g = f0.samples * pair.ring_weight(grid.v_abs, k)
        for j, b in enumerate(_by_parts(project, g), start=-1):
            nb = scale * float(np.linalg.norm(b.ravel()))
            if nb >= floor:
                blocks.append(b)
                meta.append((j, k, nb))
    if not blocks:
        raise ToyModelError("no blocks above the magnitude floor")
    batch = np.array(blocks)  # shape (blocks,) + grid.shape
    for _ in range(p.steps):
        batch = stepper.step(batch)
    comparisons = []
    for i, (j, k, nb0) in enumerate(meta):
        nbT = scale * float(np.linalg.norm(batch[i].ravel()))
        measured = -math.log(max(nbT, 1e-300) / nb0)
        rate = block_decay_rate(j, k, p.prm)
        predicted = p.t_final * rate
        included = math.exp(-predicted) * nb0 >= floor
        comparisons.append(
            BlockComparison(
                j=j,
                k=k,
                initial_norm=nb0,
                measured_exponent=measured,
                predicted_exponent=predicted,
                included=included,
            )
        )
    return BlockLawConsistency(comparisons=comparisons)


def trajectory_shell_exponents(
    f0: SpectralField,
    final: SpectralField,
    pair: BumpPair,
    j_range: range,
) -> np.ndarray:
    """Shell exponents E_j = -ln(||Delta_j f(T)|| / c) from a full-field run.

    The normalization c is the largest initial shell content over the fit
    range: the regularity index is an exponential rate, and removing the
    O(1) content prefactor keeps a finite-shell fit centered on that rate
    (evolution is linear, so this equals evolving f0 / c).  Shell content
    is measured purely on the Fourier side, which is leakage-free.
    """
    from kgl.dyadic import shell_norms

    j_lo, j_hi = j_range.start, j_range.stop - 1
    init = shell_norms(f0, pair, jmax=j_hi)[j_lo + 1 :]
    evolved = shell_norms(final, pair, jmax=j_hi)[j_lo + 1 :]
    norm_c = float(np.max(init))
    if norm_c <= 0:
        raise ToyModelError("initial data has no content on the fitted shells")
    return -np.log(np.maximum(evolved / norm_c, 1e-300))


# --- canonical broadband initial data ---------------------------------------


def weighted_broadband_data(
    grid: VelocityGrid,
    a0: float,
    seed: int = 1,
    rough_amplitude: float = 0.5,
    band_fraction: float = 0.95,
) -> SpectralField:
    """exp(-a0 <v>^2) times (1 + q) with q broadband and real.

    q has random phases, a mild <eta>^(-1/2) envelope so every dyadic shell
    carries comparable content, and is normalized in sup norm; the product
    populates all measurable (j, k) blocks while keeping the Gaussian
    weight competition intact.
    """
    rng = np.random.default_rng(seed)
    n = grid.points_per_axis
    modes = np.fft.fftfreq(n) * n
    mesh = np.meshgrid(*([modes] * grid.dimension), indexing="ij")
    mode_abs = np.sqrt(sum(m**2 for m in mesh))
    band = (mode_abs >= 1) & (mode_abs <= band_fraction * n / 2)
    phases = np.exp(2j * np.pi * rng.random(grid.shape))
    amp = np.where(band, phases * grid.eta_bracket_sq ** (-0.25), 0.0)
    q = np.fft.ifftn(amp, norm="ortho").real
    q = q / max(float(np.max(np.abs(q))), 1e-300) * rough_amplitude
    samples = np.exp(-a0 * grid.v_bracket_sq) * (1.0 + q)
    return SpectralField.from_samples(grid, samples)
