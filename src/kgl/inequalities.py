"""Numerical verification of the standalone weighted-interpolation inequalities.

Each operation produces an :class:`InequalityWitness`; corpus-level drivers
fit the smallest admissible constant, track margins, and check the scaling
laws the constants must obey.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from kgl.corpus import dilation_family
from kgl.grid import SpectralField, VelocityGrid
from kgl.multipliers import RegularizerSpec, apply_regularizer, weighted_sobolev_norm
from kgl.params import SoftPotentialParams


class InequalityInputError(ValueError):
    pass


@dataclass
class InequalityWitness:
    inequality_id: str
    lhs: float
    rhs: float
    constant_used: float
    test_function_id: str
    extras: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0

    def ratio_without_constant(self) -> float:
        """lhs / (rhs / C): the constant this witness alone would require."""
        base = self.rhs / self.constant_used if self.constant_used != 0 else np.inf
        return self.lhs / base if base > 0 else 0.0


@dataclass
class InequalityReport:
    inequality_id: str
    params: dict
    corpus_size: int
    min_margin: float
    fitted_constant: float
    refinement_ratio: float | None = None
    failures: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "inequality_id": self.inequality_id,
            "params": self.params,
            "corpus_size": self.corpus_size,
            "min_margin": self.min_margin,
            "fitted_constant": self.fitted_constant,
            "refinement_ratio": self.refinement_ratio,
            "failures": self.failures,
        }
        out.update(self.extras)
        return out


def _finite_or_raise(*vals: float) -> None:
    for v in vals:
        if not math.isfinite(v):
            raise InequalityInputError(f"non-finite norm {v}")


# --- interpolation between the weighted space and the coercive norm -------


def verify_interpolation_tau(
    u: SpectralField,
    prm: SoftPotentialParams,
    constant: float = 1.0,
    function_id: str = "u",
) -> InequalityWitness:
    """||<D>^tau u|| <= C (||<v> u|| + ||<v>^(g/2) <D>^s u||), sum form.

    The extras carry the sharper product form
    ||<D>^tau u|| <= C * B^theta * A^(1-theta) with theta = 2/(2-gamma),
    where A = ||<v> u|| and B is the coercive seminorm; the scalar
    Young inequality a^t b^(1-t) <= t a + (1-t) b makes the product form
    imply the sum form.
    """
    tau = prm.tau
    lhs = weighted_sobolev_norm(u, 0.0, tau)
    a_term = weighted_sobolev_norm(u, 1.0, 0.0)
    b_term = weighted_sobolev_norm(u, prm.gamma / 2.0, prm.s)
    _finite_or_raise(lhs, a_term, b_term)
    theta = 2.0 / (2.0 - prm.gamma)
    product_rhs = constant * b_term**theta * a_term ** (1.0 - theta)
    return InequalityWitness(
        inequality_id="interpolation-tau",
        lhs=lhs,
        rhs=constant * (a_term + b_term),
        constant_used=constant,
        test_function_id=function_id,
        extras={
            "weighted_l2": a_term,
            "coercive": b_term,
            "theta": theta,
            "product_rhs": product_rhs,
            "product_ratio": lhs / product_rhs if product_rhs > 0 else 0.0,
        },
    )


# --- epsilon-split of the mixed weight/derivative norm --------------------


def verify_weighted_eps_split(
    u: SpectralField,
    s: float,
    eps: float,
    constant: float = 1.0,
    function_id: str = "u",
) -> InequalityWitness:
    """||<v>^s <D>^s u|| <= eps ||<D> u|| + C_eps ||<v>^(s/(1-s)) u||."""
    if eps <= 0:
        raise InequalityInputError(f"eps={eps} must be positive")
    if not (0.0 < s < 1.0):
        raise InequalityInputError(f"s={s} outside (0, 1)")
    lhs = weighted_sobolev_norm(u, s, s)
    grad = weighted_sobolev_norm(u, 0.0, 1.0)
    wpart = weighted_sobolev_norm(u, s / (1.0 - s), 0.0)
    _finite_or_raise(lhs, grad, wpart)
    return InequalityWitness(
        inequality_id="weighted-eps-split",
        lhs=lhs,
        rhs=eps * grad + constant * wpart,
        constant_used=constant,
        test_function_id=function_id,
        extras={"eps": eps, "gradient_norm": grad, "weight_norm": wpart},
    )


def _eps_split_norms(fields: list[SpectralField], s: float) -> list[tuple[float, float, float]]:
    return [
        (
            weighted_sobolev_norm(u, s, s),
            weighted_sobolev_norm(u, 0.0, 1.0),
            weighted_sobolev_norm(u, s / (1.0 - s), 0.0),
        )
        for u in fields
    ]


def eps_constant(norms: list[tuple[float, float, float]], eps: float) -> float:
    """Smallest C_eps making the split hold for every (lhs, grad, wpart) triple."""
    worst = max(
        ((lhs - eps * grad) / wpart for lhs, grad, wpart in norms if wpart > 0),
        default=0.0,
    )
    return max(worst, 1e-12)


def fit_eps_constant(fields: list[SpectralField], s: float, eps: float) -> float:
    """Smallest C_eps making the split inequality hold on the whole family."""
    return eps_constant(_eps_split_norms(fields, s), eps)


def eps_constant_scaling(
    grid: VelocityGrid,
    s: float,
    eps_grid: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125),
    family_size: int = 60,
) -> dict:
    """Regress log C_eps against log eps over a Gaussian dilation family.

    The family spans scales around the critical one for each eps, which is
    where the split inequality saturates; the slope must track
    -s/(1-s).
    """
    fields = dilation_family(grid, scale_min=grid.spacing, scale_max=8.0, count=family_size)
    norms = _eps_split_norms(fields, s)
    consts = [eps_constant(norms, e) for e in eps_grid]
    slope, intercept = np.polyfit(np.log(eps_grid), np.log(consts), 1)
    return {
        "eps_grid": list(eps_grid),
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


def gagliardo_hs_norm_sq(f: SpectralField, s: float) -> float:
    """Squared H^s norm via the pairwise-difference quadrature (d = 1).

    The lag sum is truncated at |y| <= L/2; the remainder is bounded
    analytically by 4 ||f||^2 integral_{L/2}^inf y^(-1-2s) dy per sign and
    added, so the result is an upper estimate of the truncated kernel form.
    Each lag's sum of squared differences comes from the circular
    autocorrelation R = irfft(|rfft g|^2): sum_i (g_(i+l) - g_i)^2 =
    2 R(0) - 2 R(l).
    """
    if f.grid.dimension != 1:
        raise InequalityInputError("pairwise-difference form implemented for d = 1")
    if not (0.0 < s < 1.0):
        raise InequalityInputError(f"s={s} outside (0, 1)")
    g = f.samples.real
    h = f.grid.spacing
    n = f.grid.points_per_axis
    l2sq = h * float(np.sum(g * g))
    corr = np.fft.irfft(np.abs(np.fft.rfft(g)) ** 2, n)
    lags = np.arange(1, n // 2)
    diff_sq = 2.0 * (corr[0] - corr[lags])
    total = 2.0 * float(np.sum(diff_sq * h * h / (lags * h) ** (1.0 + 2.0 * s)))  # both lag signs
    half = f.grid.half_width
    tail = 4.0 * l2sq * 2.0 * half ** (-2.0 * s) / (2.0 * s)
    return l2sq + total + tail


def verify_composition_bound(
    g: SpectralField,
    s: float,
    map_name: str,
    constant: float = 1.0,
    function_id: str = "g",
    agreement_factor: float = 4.0,
) -> InequalityWitness:
    """||F(g)||_{H^s} <= C ||g||_{H^s} for F with F(x) <= x, 0 <= F' <= 1.

    The H^s norms are computed two ways (bracket multiplier and the
    pairwise-difference quadrature); the extras record their agreement,
    which must stay within ``agreement_factor``.
    """
    if map_name not in COMPOSITION_MAPS:
        raise InequalityInputError(f"unknown composition map {map_name!r}")
    vals = g.samples.real
    if np.min(vals) < -1e-12 * max(np.max(np.abs(vals)), 1.0):
        raise InequalityInputError("composition input must be nonnegative")
    F = COMPOSITION_MAPS[map_name]
    fg = SpectralField.from_samples(g.grid, F(np.maximum(vals, 0.0)))
    lhs = weighted_sobolev_norm(fg, 0.0, s)
    rhs_norm = weighted_sobolev_norm(g, 0.0, s)
    gag_lhs = math.sqrt(gagliardo_hs_norm_sq(fg, s))
    gag_rhs = math.sqrt(gagliardo_hs_norm_sq(g, s))
    agree = [
        gag_lhs / lhs if lhs > 0 else 1.0,
        gag_rhs / rhs_norm if rhs_norm > 0 else 1.0,
    ]
    agree_ok = all(1.0 / agreement_factor <= a <= agreement_factor for a in agree)
    return InequalityWitness(
        inequality_id="composition-hs",
        lhs=lhs,
        rhs=constant * rhs_norm,
        constant_used=constant,
        test_function_id=function_id,
        extras={
            "map": map_name,
            "gagliardo_lhs": gag_lhs,
            "gagliardo_rhs": gag_rhs,
            "gagliardo_pass": gag_lhs <= constant * gag_rhs,
            "agreement_factors": agree,
            "agreement_ok": agree_ok,
        },
    )


# --- the inverse elliptic regularizer triple bound -------------------------


def verify_regularizer_bounds(
    g: SpectralField,
    theta: float,
    axis: int = 0,
    function_id: str = "g",
) -> InequalityWitness:
    """||R g|| + ||theta^(1/2) R dg|| + ||theta R d^2 g|| <= 3 ||g||.

    Symbol-exact: the three factors are bounded by 1, 1/2 and 1 pointwise,
    so the margin is nonnegative for every field and every theta in (0, 1].
    """
    spec = RegularizerSpec(theta=theta)
    norms = [
        apply_regularizer(g, spec, derivative_order=q, axis=axis).l2_norm()
        for q in (0, 1, 2)
    ]
    base = g.l2_norm()
    return InequalityWitness(
        inequality_id="regularizer-triple",
        lhs=float(sum(norms)),
        rhs=3.0 * base,
        constant_used=3.0,
        test_function_id=function_id,
        extras={"theta": theta, "term_norms": norms},
    )


# --- coercive norm in the radial reduction ---------------------------------


def _require_radial(u: SpectralField, tol: float = 1e-9) -> None:
    """Reject non-radial data in d >= 2 by comparing equal-|v| grid classes."""
    if u.grid.dimension == 1:
        return
    n = u.grid.points_per_axis
    # axis point i sits at (i - N/2) h, so the squared radius in grid units
    # is an exact integer key grouping all equal-|v| samples
    idx = np.arange(n, dtype=np.int64) - n // 2
    meshes = np.meshgrid(*([idx] * u.grid.dimension), indexing="ij")
    r2 = sum(m**2 for m in meshes)
    keys = r2.ravel()
    vals = u.samples.ravel()
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    vals_sorted = vals[order]
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    boundaries = np.flatnonzero(np.diff(keys_sorted)) + 1
    for seg in np.split(vals_sorted, boundaries):
        if seg.size > 1 and np.max(np.abs(seg - seg[0])) > tol * scale:
            raise InequalityInputError("input is not radial on the grid")


def triple_norm_radial(
    u: SpectralField,
    prm: SoftPotentialParams,
    constant: float = 1.0,
    function_id: str = "u",
) -> InequalityWitness:
    """Coercive seminorm ||<v>^(g/2) <D>^s u|| on radial data.

    On radial (or one-dimensional) input the spherical part of the full
    coercive norm vanishes, so the seminorm reduces to the weighted
    fractional norm; the witness checks the interpolation consequence
    ||<D>^tau u|| <= C (||<v> u|| + seminorm).
    """
    _require_radial(u)
    seminorm = weighted_sobolev_norm(u, prm.gamma / 2.0, prm.s)
    lhs = weighted_sobolev_norm(u, 0.0, prm.tau)
    a_term = weighted_sobolev_norm(u, 1.0, 0.0)
    _finite_or_raise(seminorm, lhs, a_term)
    return InequalityWitness(
        inequality_id="triple-norm-radial",
        lhs=lhs,
        rhs=constant * (a_term + seminorm),
        constant_used=constant,
        test_function_id=function_id,
        extras={"triple_norm": seminorm},
    )


# --- corpus drivers ---------------------------------------------------------


def fit_constant(witnesses: list[InequalityWitness]) -> float:
    """Empirical best constant: max over the corpus of lhs/(rhs/C)."""
    return max((w.ratio_without_constant() for w in witnesses), default=0.0)


def aggregate(
    inequality_id: str,
    params: dict,
    witnesses: list[InequalityWitness],
    refinement_ratio: float | None = None,
    extras: dict | None = None,
) -> InequalityReport:
    fitted = fit_constant(witnesses)
    margins = []
    failures = []
    for w in witnesses:
        scaled_rhs = (w.rhs / w.constant_used) * fitted if w.constant_used else w.rhs
        margin = scaled_rhs - w.lhs
        margins.append(margin)
        if margin < -1e-12 * max(abs(scaled_rhs), 1.0):
            failures.append(w.test_function_id)
    return InequalityReport(
        inequality_id=inequality_id,
        params=params,
        corpus_size=len(witnesses),
        min_margin=float(min(margins)) if margins else 0.0,
        fitted_constant=float(fitted),
        refinement_ratio=refinement_ratio,
        failures=failures,
        extras=extras or {},
    )


def amgm_implication_holds(w: InequalityWitness) -> bool:
    """Product-form witnesses imply the sum form via a^t b^(1-t) <= ta + (1-t)b."""
    a = w.extras["coercive"]
    b = w.extras["weighted_l2"]
    theta = w.extras["theta"]
    lhs = a**theta * b ** (1.0 - theta)
    return lhs <= theta * a + (1.0 - theta) * b + 1e-12 * (a + b + 1.0)
