"""Numerical verification of the standalone weighted-interpolation inequalities.

Each operation checks a whole stack of fields at once (a real array of
shape ``(members,) + grid.shape``, or one field) and produces one
:class:`InequalityWitness` for it.  :func:`fit_constant` and
:func:`eps_constant` fit the smallest admissible constant over the stack,
and :func:`eps_constant_scaling` checks the scaling law C_eps must obey.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from kgl.corpus import dilation_family
from kgl.grid import VelocityGrid, half_power, half_spectrum, half_symbol
from kgl.multipliers import weighted_sobolev_norm, weighted_sobolev_norms
from kgl.params import SoftPotentialParams


class InequalityInputError(ValueError):
    pass


@dataclass
class InequalityWitness:
    """One inequality checked on a stack of fields.

    ``lhs``, ``rhs`` and the array-valued extras have the stack's leading
    shape (a 0-d value for a single field); member i is named ``f"u{i}"``
    in reports.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    constant_used: float
    extras: dict = field(default_factory=dict)

    @property
    def margin(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def passed(self) -> np.ndarray:
        return self.margin >= 0.0

    def ratio_without_constant(self) -> np.ndarray:
        """lhs / (rhs / C): the constant each member alone would require."""
        base = self.rhs / self.constant_used if self.constant_used != 0 else np.inf
        return _ratio(self.lhs, base, 0.0)


def _ratio(num, den, fallback: float) -> np.ndarray:
    """num / den where den > 0, else ``fallback``."""
    num, den = np.broadcast_arrays(num, den)
    return np.divide(num, den, out=np.full(num.shape, fallback), where=den > 0)


def _finite_or_raise(*vals: np.ndarray) -> None:
    for v in vals:
        if not np.all(np.isfinite(v)):
            raise InequalityInputError(f"non-finite norm in {np.ravel(v)[:4]}")


# --- interpolation between the weighted space and the coercive norm -------


def verify_interpolation_tau(
    grid: VelocityGrid,
    u: np.ndarray,
    prm: SoftPotentialParams,
) -> InequalityWitness:
    """||<D>^tau u|| <= C (||<v> u|| + ||<v>^(g/2) <D>^s u||), sum form, taken with C = 1.

    The extras carry the sharper product form
    ||<D>^tau u|| <= C * B^theta * A^(1-theta) with theta = 2/(2-gamma),
    where A = ||<v> u|| and B is the coercive seminorm; the scalar
    Young inequality a^t b^(1-t) <= t a + (1-t) b makes the product form
    imply the sum form.
    """
    lhs, a_term, b_term = weighted_sobolev_norms(
        grid, u, [(0.0, prm.tau), (1.0, 0.0), (prm.gamma / 2.0, prm.s)]
    )
    _finite_or_raise(lhs, a_term, b_term)
    theta = 2.0 / (2.0 - prm.gamma)
    product_rhs = b_term**theta * a_term ** (1.0 - theta)
    return InequalityWitness(
        lhs=lhs,
        rhs=a_term + b_term,
        constant_used=1.0,
        extras={
            "weighted_l2": a_term,
            "coercive": b_term,
            "theta": theta,
            "product_ratio": _ratio(lhs, product_rhs, 0.0),
        },
    )


# --- epsilon-split of the mixed weight/derivative norm --------------------


def verify_weighted_eps_split(
    grid: VelocityGrid,
    u: np.ndarray,
    s: float,
    eps: float,
    constant: float = 1.0,
) -> InequalityWitness:
    """||<v>^s <D>^s u|| <= eps ||<D> u|| + C_eps ||<v>^(s/(1-s)) u||."""
    if eps <= 0:
        raise InequalityInputError(f"eps={eps} must be positive")
    lhs, grad, wpart = _eps_split_norms(grid, u, s)
    _finite_or_raise(lhs, grad, wpart)
    return InequalityWitness(
        lhs=lhs,
        rhs=eps * grad + constant * wpart,
        constant_used=constant,
        extras={"gradient_norm": grad, "weight_norm": wpart},
    )


def _eps_split_norms(grid: VelocityGrid, u: np.ndarray, s: float) -> np.ndarray:
    """Rows lhs, grad, wpart of the split inequality for each field of u."""
    if not (0.0 < s < 1.0):
        raise InequalityInputError(f"s={s} outside (0, 1)")
    return weighted_sobolev_norms(grid, u, [(s, s), (0.0, 1.0), (s / (1.0 - s), 0.0)])


def eps_constant(norms, eps: float) -> float:
    """Smallest C_eps making the split hold for every (lhs, grad, wpart) member."""
    lhs, grad, wpart = norms
    worst = np.max(_ratio(lhs - eps * grad, wpart, -np.inf), initial=0.0)
    return max(float(worst), 1e-12)


def fit_eps_constant(grid: VelocityGrid, fields: np.ndarray, s: float, eps: float) -> float:
    """Smallest C_eps making the split inequality hold on the whole family."""
    return eps_constant(_eps_split_norms(grid, fields, s), eps)


SCALING_EPS = (1.0, 0.5, 0.25, 0.125)  # the eps the scaling law is regressed over
SCALING_FAMILY_SIZE = 60  # Gaussian dilations, grid spacing to 8


def eps_constant_scaling(grid: VelocityGrid, s: float) -> dict:
    """Regress log C_eps against log eps over a Gaussian dilation family.

    The family spans scales around the critical one for each eps, which is
    where the split inequality saturates; the slope must track
    -s/(1-s).
    """
    fields = dilation_family(
        grid, scale_min=grid.spacing, scale_max=8.0, count=SCALING_FAMILY_SIZE
    )
    norms = _eps_split_norms(grid, fields, s)
    consts = [eps_constant(norms, e) for e in SCALING_EPS]
    slope, intercept = np.polyfit(np.log(SCALING_EPS), np.log(consts), 1)
    return {
        "eps_grid": list(SCALING_EPS),
        "constants": consts,
        "slope": float(slope),
        "intercept": float(intercept),
        "target_slope": -s / (1.0 - s),
    }


# --- composition with a bounded-slope function in H^s ----------------------

COMPOSITION_MAPS = {
    "log1p": np.log1p,
    "x/(1+x)": lambda x: x / (1.0 + x),
}
AGREEMENT_FACTOR = 4.0  # the two H^s norms agree within this factor either way


def gagliardo_hs_norm_sq(grid: VelocityGrid, g: np.ndarray, s: float) -> np.ndarray:
    """Squared H^s norm via the pairwise-difference quadrature.

    The lag sum is truncated at |y| <= L/2; the remainder is bounded
    analytically by 4 ||f||^2 integral_{L/2}^inf y^(-1-2s) dy per sign and
    added, so the result is an upper estimate of the truncated kernel form.
    Each lag's sum of squared differences comes from the circular
    autocorrelation R = irfft(|rfft g|^2): sum_i (g_(i+l) - g_i)^2 =
    2 R(0) - 2 R(l).  The real fields on the last axis of g take one
    transform pair in all.
    """
    if not (0.0 < s < 1.0):
        raise InequalityInputError(f"s={s} outside (0, 1)")
    h = grid.spacing
    n = grid.points_per_axis
    l2sq = h * np.vecdot(g, g)
    corr = np.fft.irfft(np.abs(np.fft.rfft(g)) ** 2, n)
    lags = np.arange(1, n // 2)
    diff_sq = 2.0 * (corr[..., :1] - corr[..., lags])
    total = 2.0 * (diff_sq @ (h * h / (lags * h) ** (1.0 + 2.0 * s)))  # both lag signs
    tail = 4.0 * l2sq * 2.0 * grid.half_width ** (-2.0 * s) / (2.0 * s)
    return l2sq + total + tail


def verify_composition_bound(
    grid: VelocityGrid,
    g: np.ndarray,
    s: float,
    map_name: str,
    constant: float = 1.0,
) -> InequalityWitness:
    """||F(g)||_{H^s} <= C ||g||_{H^s} for F with F(x) <= x, 0 <= F' <= 1.

    The H^s norms are computed two ways (bracket multiplier and the
    pairwise-difference quadrature); the extras record their agreement,
    which must stay within AGREEMENT_FACTOR.  Every member of g must be
    nonnegative (to 1e-12 of its peak).
    """
    if map_name not in COMPOSITION_MAPS:
        raise InequalityInputError(f"unknown composition map {map_name!r}")
    peak = np.maximum(np.max(np.abs(g), axis=-1), 1.0)
    if np.any(np.min(g, axis=-1) < -1e-12 * peak):
        raise InequalityInputError("composition input must be nonnegative")
    fg = COMPOSITION_MAPS[map_name](np.maximum(g, 0.0))
    lhs = weighted_sobolev_norm(grid, fg, 0.0, s)
    rhs_norm = weighted_sobolev_norm(grid, g, 0.0, s)
    gag_lhs = np.sqrt(gagliardo_hs_norm_sq(grid, fg, s))
    gag_rhs = np.sqrt(gagliardo_hs_norm_sq(grid, g, s))
    agree = [_ratio(gag_lhs, lhs, 1.0), _ratio(gag_rhs, rhs_norm, 1.0)]
    agree_ok = (np.minimum(*agree) >= 1.0 / AGREEMENT_FACTOR) & (
        np.maximum(*agree) <= AGREEMENT_FACTOR
    )
    return InequalityWitness(
        lhs=lhs,
        rhs=constant * rhs_norm,
        constant_used=constant,
        extras={
            "gagliardo_pass": gag_lhs <= constant * gag_rhs,
            "agreement_factors": agree,
            "agreement_ok": agree_ok,
        },
    )


# --- the inverse elliptic regularizer triple bound -------------------------


def verify_regularizer_bounds(
    grid: VelocityGrid,
    g: np.ndarray,
    theta,
) -> InequalityWitness:
    """||R g|| + ||theta^(1/2) R dg|| + ||theta R d^2 g|| <= 3 ||g||.

    Symbol-exact: the three factors are bounded by 1, 1/2 and 1 pointwise,
    so the margin is nonnegative for every field and every theta in (0, 1].
    ``theta`` is one value or one per field of g.  The four norms are read
    off one half spectrum by Parseval.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta > 0.0) & (theta <= 1.0)):
        raise InequalityInputError(f"theta={theta} outside (0, 1]")
    th = theta.reshape(theta.shape + (1,))
    derivative_sq = th * half_symbol(grid.axis_frequencies) ** 2
    resolvent_sq = 1.0 / (1.0 + th * half_symbol(grid.eta_abs) ** 2) ** 2

    power = half_power(grid, half_spectrum(grid, g))
    sums = [np.sum(power, axis=-1)]
    for factor in (resolvent_sq, derivative_sq, derivative_sq):  # |symbol|^2, q = 0, 1, 2
        power *= factor
        sums.append(np.sum(power, axis=-1))
    base, *term_norms = np.sqrt(sums)
    return InequalityWitness(
        lhs=term_norms[0] + term_norms[1] + term_norms[2],
        rhs=3.0 * base,
        constant_used=3.0,
        extras={"term_norms": term_norms},
    )


# --- fitted constants and the product form ---------------------------------


def fit_constant(w: InequalityWitness) -> float:
    """Empirical best constant: max over the members of lhs/(rhs/C)."""
    return float(np.max(w.ratio_without_constant(), initial=0.0))


def amgm_implication_holds(w: InequalityWitness) -> np.ndarray:
    """Product-form witnesses imply the sum form via a^t b^(1-t) <= ta + (1-t)b."""
    a = w.extras["coercive"]
    b = w.extras["weighted_l2"]
    theta = w.extras["theta"]
    lhs = a**theta * b ** (1.0 - theta)
    return lhs <= theta * a + (1.0 - theta) * b + 1e-12 * (a + b + 1.0)
