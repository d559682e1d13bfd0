import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgl.corpus import standard_corpus
from kgl.grid import SpectralField, VelocityGrid
from kgl.inequalities import (
    InequalityInputError,
    fit_eps_constant,
    amgm_implication_holds,
    aggregate,
    eps_constant_scaling,
    fit_constant,
    gagliardo_hs_norm_sq,
    triple_norm_radial,
    verify_composition_bound,
    verify_interpolation_tau,
    verify_regularizer_bounds,
    verify_weighted_eps_split,
)
from kgl.multipliers import weighted_sobolev_norm
from kgl.params import SoftPotentialParams
from tests.conftest import random_band_limited


PRM = SoftPotentialParams(gamma=-1.0, s=0.5)


def test_tau_theta_values():
    assert PRM.tau == pytest.approx(1.0 / 3.0)
    w = verify_interpolation_tau(
        SpectralField.from_samples(VelocityGrid(1, 256, 8.0), np.zeros(256)), PRM
    )
    assert w.extras["theta"] == pytest.approx(2.0 / 3.0)
    assert w.lhs == 0.0 and w.margin == 0.0  # zero input: margin exactly zero


def test_interpolation_constant_stable_under_refinement():
    consts = []
    for n in (1024, 2048):
        grid = VelocityGrid(1, n, 16.0)
        corpus = standard_corpus(grid, 60, seed=7)
        wits = [
            verify_interpolation_tau(u, PRM, function_id=f"u{i}")
            for i, u in enumerate(corpus)
        ]
        consts.append(fit_constant(wits))
        for w in wits:
            assert amgm_implication_holds(w)
    assert consts[0] == pytest.approx(consts[1], rel=0.1)


def test_interpolation_product_form_implies_sum_form():
    grid = VelocityGrid(1, 1024, 16.0)
    v = grid.v_meshes[0]
    u = SpectralField.from_samples(grid, np.exp(-(v**2) / 2.0))
    w = verify_interpolation_tau(u, PRM)
    # with the fitted product constant, the sum form holds with the same C
    c_prod = w.extras["product_ratio"]
    assert w.lhs <= c_prod * (w.extras["weighted_l2"] + w.extras["coercive"]) * (1 + 1e-12)


def test_eps_split_constant_mode():
    grid = VelocityGrid(1, 256, 8.0)
    u = SpectralField.from_samples(grid, np.ones(256))
    w = verify_weighted_eps_split(u, 0.5, eps=0.25)
    # constant field: <D> acts as identity on the zero mode
    from kgl.multipliers import weighted_sobolev_norm

    assert w.extras["gradient_norm"] == pytest.approx(u.l2_norm(), rel=1e-12)
    assert w.lhs == pytest.approx(weighted_sobolev_norm(u, 0.5, 0.0), rel=1e-12)


def test_eps_split_rejects_bad_eps(gaussian_half):
    with pytest.raises(InequalityInputError):
        verify_weighted_eps_split(gaussian_half, 0.5, eps=-1.0)


@pytest.mark.parametrize("s", [0.5, 0.75])
def test_eps_constant_scaling_slope(s):
    grid = VelocityGrid(1, 8192, 32.0)
    res = eps_constant_scaling(grid, s)
    target = -s / (1.0 - s)
    assert abs(res["slope"] - target) <= 0.25 * abs(target)


def test_eps_split_gaussian_passes_with_fit():
    grid = VelocityGrid(1, 2048, 16.0)
    corpus = standard_corpus(grid, 40, seed=3)
    s, eps = 0.75, 0.25
    wits = [verify_weighted_eps_split(u, s, eps, function_id=str(i)) for i, u in enumerate(corpus)]
    # fit the epsilon constant and re-check every witness with it
    consts = [
        (w.lhs - eps * w.extras["gradient_norm"]) / w.extras["weight_norm"]
        for w in wits
        if w.extras["weight_norm"] > 0
    ]
    c = max(max(consts), 1e-12)
    for w in wits:
        assert w.lhs <= eps * w.extras["gradient_norm"] + c * w.extras["weight_norm"] * (1 + 1e-12)


def test_composition_zero_and_constant():
    grid = VelocityGrid(1, 512, 8.0)
    z = SpectralField.from_samples(grid, np.zeros(512))
    w = verify_composition_bound(z, 0.5, "log1p")
    assert w.lhs == 0.0
    c = 0.7
    const = SpectralField.from_samples(grid, np.full(512, c))
    w2 = verify_composition_bound(const, 0.5, "x/(1+x)", constant=1.0)
    # constant input: the H^s norms reduce to L2 and F(c) = c/(1+c) <= c
    assert w2.lhs == pytest.approx((c / (1 + c)) / c * w2.rhs, rel=1e-10)
    assert w2.passed


def test_composition_gaussian_agreement(grid1d):
    v = grid1d.v_meshes[0]
    g = SpectralField.from_samples(grid1d, np.exp(-(v**2)))
    w = verify_composition_bound(g, 0.5, "log1p", constant=4.0)
    assert w.passed
    assert w.extras["agreement_ok"]
    assert w.extras["gagliardo_pass"]


def test_composition_rejects_negative(grid1d):
    v = grid1d.v_meshes[0]
    f = SpectralField.from_samples(grid1d, np.sin(v))
    with pytest.raises(InequalityInputError):
        verify_composition_bound(f, 0.5, "log1p")


def test_gagliardo_vs_multiplier_factor(grid1d):
    v = grid1d.v_meshes[0]
    g = SpectralField.from_samples(grid1d, np.exp(-(v**2)))
    s = 0.5
    ratio = math.sqrt(gagliardo_hs_norm_sq(g, s)) / weighted_sobolev_norm(g, 0.0, s)
    assert 0.25 <= ratio <= 4.0


def direct_lag_sum_hs_norm_sq(f: SpectralField, s: float) -> float:
    """The pairwise-difference quadrature as a direct sum over lags."""
    g = f.samples.real
    h, n = f.grid.spacing, f.grid.points_per_axis
    l2sq = h * float(np.sum(g * g))
    total = 0.0
    for lag in range(1, n // 2):
        diff = np.roll(g, -lag) - g
        total += float(np.sum(diff * diff)) * h * h / (lag * h) ** (1.0 + 2.0 * s)
    tail = 4.0 * l2sq * 2.0 * f.grid.half_width ** (-2.0 * s) / (2.0 * s)
    return l2sq + 2.0 * total + tail


@st.composite
def real_fields(draw):
    """A real field on N = 8 .. 256 points of [-16, 16), scaled to max |g| = 1.

    The autocorrelation carries rounding of order eps * sum g^2 into every
    lag; the lag weights amplify it by at most h^(-2s) <= 64 at L = 16.
    """
    n = 2 ** draw(st.integers(min_value=3, max_value=8))
    g = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    peak = float(np.max(np.abs(g)))
    return SpectralField.from_samples(VelocityGrid(1, n, 16.0), g / peak if peak > 0 else g)


# s >= 1e-6: the analytic tail grows like 1/s and overflows both forms near s = 1e-308
@settings(max_examples=200, deadline=None)
@given(f=real_fields(), s=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True))
def test_gagliardo_autocorrelation_matches_direct_lag_sum(f, s):
    want = direct_lag_sum_hs_norm_sq(f, s)
    got = gagliardo_hs_norm_sq(f, s)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_regularizer_bounds_corpus(grid1d):
    rng = np.random.default_rng(17)
    for theta in (1e-3, 1e-2, 1e-1, 1.0):
        for _ in range(25):
            f = random_band_limited(grid1d, rng)
            w = verify_regularizer_bounds(f, theta)
            assert w.margin >= 0.0


def test_regularizer_single_mode_ratio():
    grid = VelocityGrid(1, 128, np.pi)
    theta = 1.0 / 16.0
    v = grid.v_meshes[0]
    f = SpectralField.from_samples(grid, np.exp(4j * v))  # theta |eta|^2 = 1
    w = verify_regularizer_bounds(f, theta)
    assert w.lhs / f.l2_norm() == pytest.approx(1.5, rel=1e-12)


def test_triple_norm_radial_d1(gaussian_half):
    w = triple_norm_radial(gaussian_half, PRM, constant=2.0)
    assert w.extras["triple_norm"] > 0
    zero = SpectralField.from_samples(gaussian_half.grid, np.zeros(gaussian_half.grid.shape))
    wz = triple_norm_radial(zero, PRM)
    assert wz.extras["triple_norm"] == 0.0


def test_triple_norm_unit_weight_boundary():
    # gamma = 0 diagnostic: the triple norm equals the plain fractional norm
    prm0 = SoftPotentialParams(gamma=-1e-12, s=0.5)
    grid = VelocityGrid(1, 512, 8.0)
    v = grid.v_meshes[0]
    u = SpectralField.from_samples(grid, np.exp(-(v**2)))
    from kgl.multipliers import weighted_sobolev_norm

    w = triple_norm_radial(u, prm0)
    assert w.extras["triple_norm"] == pytest.approx(
        weighted_sobolev_norm(u, 0.0, 0.5), rel=1e-9
    )


def test_radial_rejection_2d():
    grid = VelocityGrid(2, 32, 8.0)
    vx, vy = grid.v_meshes
    radial = SpectralField.from_samples(grid, np.exp(-(vx**2 + vy**2)))
    triple_norm_radial(radial, PRM)  # accepted
    skew = SpectralField.from_samples(grid, np.exp(-(vx**2 + 2 * vy**2)))
    with pytest.raises(InequalityInputError):
        triple_norm_radial(skew, PRM)


def test_fitted_constant_monotone_under_corpus_shrinkage(grid1d):
    corpus = standard_corpus(grid1d, 30, seed=9)
    wits = [verify_interpolation_tau(u, PRM, function_id=str(i)) for i, u in enumerate(corpus)]
    full = fit_constant(wits)
    for cut in (20, 10, 5):
        assert fit_constant(wits[:cut]) <= full + 1e-15


def test_aggregate_report_shape(grid1d):
    corpus = standard_corpus(grid1d, 20, seed=5)
    wits = [verify_interpolation_tau(u, PRM, function_id=str(i)) for i, u in enumerate(corpus)]
    rep = aggregate("interpolation-tau", {"gamma": PRM.gamma, "s": PRM.s}, wits)
    assert rep.corpus_size == 20
    assert rep.failures == []
    assert rep.min_margin >= -1e-12
    d = rep.to_json_dict()
    assert {"inequality_id", "params", "corpus_size", "min_margin", "fitted_constant", "refinement_ratio"} <= set(d)


def test_eps_constant_refinement_stable():
    s, eps = 0.75, 0.25
    consts = []
    for n in (1024, 2048):
        grid = VelocityGrid(1, n, 16.0)
        corpus = standard_corpus(grid, 40, seed=3)
        consts.append(fit_eps_constant(corpus, s, eps))
    assert consts[1] == pytest.approx(consts[0], rel=0.1)


def test_radial_corollary_on_corpus(grid1d):
    # in the radial reduction the coercive seminorm equals the weighted
    # fractional norm, so the interpolation consequence holds with the
    # same fitted constant as the sum form
    corpus = standard_corpus(grid1d, 30, seed=11)
    sum_wits = [verify_interpolation_tau(u, PRM, function_id=str(i)) for i, u in enumerate(corpus)]
    c_hat = fit_constant(sum_wits)
    for i, u in enumerate(corpus):
        w = triple_norm_radial(u, PRM, constant=c_hat, function_id=str(i))
        assert w.margin >= -1e-12 * max(w.rhs, 1.0)
