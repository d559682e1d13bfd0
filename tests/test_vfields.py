import math
from fractions import Fraction

import numpy as np
import pytest

from kgl import vfields
from kgl.vfields import (
    LEDGER_TOLERANCE,
    MissingTableEntries,
    PolyFunction,
    VFError,
    VFParams,
    apply_H,
    apply_H_power,
    commutator_residual,
    convolution_bound,
    generation_coefficients,
    ledger_round_trip_residual,
    ledger_value,
    log_ledger_value,
    mixed_commutator_residual,
    random_poly,
    reconstruct_derivatives,
    reconstruction_residuals,
    transport,
    xy_norms_mixed,
    xy_norms_single,
)

X1V1 = PolyFunction.monomial(1, x=(1, 0, 0), v=(1, 0, 0))


def test_apply_H_worked_example():
    # H_1 (x1 v1) = (1/2) t^2 v1 + t x1
    out = apply_H(X1V1, 1)
    expected = PolyFunction.monomial(Fraction(1, 2), t=2, v=(1, 0, 0)) + PolyFunction.monomial(
        1, t=1, x=(1, 0, 0)
    )
    assert (out - expected).is_zero()


def test_apply_H_annihilates_constants():
    assert apply_H(PolyFunction.constant(5), 2).is_zero()


def test_H_is_a_derivation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = random_poly(rng, max_total_degree=4, n_terms=3)
        g = random_poly(rng, max_total_degree=4, n_terms=3)
        delta = Fraction(3, 2)
        lhs = apply_H(f * g, delta)
        rhs = apply_H(f, delta) * g + f * apply_H(g, delta)
        assert (lhs - rhs).is_zero()


def test_commutator_hand_expansion():
    # T H1 f = 2 t v1 + x1 and H1 T f = 2 t v1 for f = x1 v1
    th = transport(apply_H(X1V1, 1))
    ht = apply_H(transport(X1V1), 1)
    expected_th = PolyFunction.monomial(2, t=1, v=(1, 0, 0)) + PolyFunction.monomial(
        1, x=(1, 0, 0)
    )
    assert (th - expected_th).is_zero()
    assert (ht - PolyFunction.monomial(2, t=1, v=(1, 0, 0))).is_zero()
    assert commutator_residual(X1V1, 1, 1).is_zero()


def test_commutator_k0_convention():
    assert commutator_residual(X1V1, 2, 0).is_zero()


def test_commutator_nontrivial_instance():
    f = PolyFunction.monomial(1, x=(2, 0, 0), v=(3, 0, 0))
    assert commutator_residual(f, 2, 3).is_zero()


@pytest.mark.parametrize("delta", [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 3)])
def test_commutator_corpus(delta):
    rng = np.random.default_rng(int(delta * 6))
    for i in range(12):
        f = random_poly(rng)
        for k in range(0, 6):
            res = commutator_residual(f, delta, k)
            assert res.is_zero(), f"poly {i}, k={k}: residual {res}"


def test_mixed_commutator_exact():
    rng = np.random.default_rng(9)
    vp = VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(2))
    for i in range(10):
        f = random_poly(rng)
        for a1 in range(0, 5):
            for a2 in range(0, 5 - a1):
                res = mixed_commutator_residual(f, vp.delta1, vp.delta2, (a1, a2))
                assert res.is_zero(), f"poly {i}, alpha=({a1},{a2})"


def test_field_pair_commute():
    rng = np.random.default_rng(13)
    vp = VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(2))
    for _ in range(10):
        f = random_poly(rng)
        ab = apply_H(apply_H(f, vp.delta2), vp.delta1)
        ba = apply_H(apply_H(f, vp.delta1), vp.delta2)
        assert (ab - ba).is_zero()


def test_vfparams_regimes():
    vp = VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(2))
    # gamma/2 + 2s = 1/2 < 1: delta2 = 1 + (1 - 2 tau) lambda with tau = 1/3
    assert vp.tau == Fraction(1, 3)
    assert vp.delta2 == Fraction(5, 3)
    vp2 = VFParams(gamma=Fraction(-1), s=Fraction(3, 4), lam=Fraction(2))
    assert vp2.strong_singularity  # gamma/2 + 2s = 1
    assert vp2.delta2 == 1


def test_vfparams_ordering_sweep():
    rng = np.random.default_rng(1)
    count = 0
    while count < 100:
        gamma = Fraction(int(rng.integers(-29, 0)), 10)
        s = Fraction(int(rng.integers(1, 10)), 10)
        if gamma + 2 * s <= -1:
            continue
        tau = 2 * s / (2 - gamma)
        lam = max(Fraction(1), 1 / (2 * tau)) + Fraction(int(rng.integers(1, 5)), 2)
        vp = VFParams(gamma=gamma, s=s, lam=lam)
        assert vp.delta1 > vp.delta2 >= 1
        count += 1


def test_vfparams_rejects_small_lambda():
    with pytest.raises(VFError):
        VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(1))


def test_generation_coefficients_worked_instance():
    vp = VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(2))
    co = generation_coefficients(vp)
    assert co["cx1"] == Fraction(-24)
    assert co["cx2"] == Fraction(24)
    assert co["cv1"] == Fraction(9)
    assert co["cv2"] == Fraction(-8)
    # 9 H1 f - 8 t^(1/3) H2 f = t^2 dv1 f on f = x1 v1
    h1 = apply_H(X1V1, vp.delta1)
    h2 = apply_H(X1V1, vp.delta2).mul_t_power(vp.delta1 - vp.delta2)
    combo = h1.scale(9) + h2.scale(-8)
    direct = X1V1.diff_v(1).mul_t_power(2)
    assert (combo - direct).is_zero()


def test_reconstruction_exact_both_regimes():
    rng = np.random.default_rng(23)
    cases = [
        VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(2)),
        VFParams(gamma=Fraction(-1), s=Fraction(3, 4), lam=Fraction(2)),
        VFParams(gamma=Fraction(-2), s=Fraction(3, 4), lam=Fraction(3)),
    ]
    for vp in cases:
        for _ in range(15):
            f = random_poly(rng)
            rx, rv = reconstruction_residuals(f, vp)
            assert rx.is_zero() and rv.is_zero()


def test_reconstruction_kernel_case():
    vp = VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(2))
    f = PolyFunction.monomial(3, x=(0, 2, 0), v=(0, 0, 1))  # no x1, v1 dependence
    gx, gv = reconstruct_derivatives(f, vp)
    assert gx.is_zero() and gv.is_zero()


def test_ledger_values():
    assert ledger_value(2.0, 0, 1.0) == 1.0
    assert ledger_value(2.0, 2, 1.0) == pytest.approx(27.0 / 4.0)
    direct = 4.0**3 / (2.0**2 * 6.0**1.5)
    assert ledger_value(2.0, 3, 1.5) == pytest.approx(direct, rel=1e-12)
    assert math.exp(log_ledger_value(2.0, 3, 1.5)) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("rho", [0.5, 2.0, 7.3])
@pytest.mark.parametrize("exponent", [1.0, 1.5])
def test_ledger_branches_agree_to_rounding(rho, exponent):
    assert ledger_round_trip_residual(rho, exponent) <= LEDGER_TOLERANCE


def test_ledger_round_trip_detects_a_perturbed_log_domain(monkeypatch):
    exact = vfields.log_ledger_value
    monkeypatch.setattr(
        vfields, "log_ledger_value", lambda rho, k, e: exact(rho, k, e) * (1.0 + 1e-12)
    )
    for rho in (0.5, 2.0, 7.3):
        assert ledger_round_trip_residual(rho, 1.5) > LEDGER_TOLERANCE


def test_ledger_log_domain_handles_large_k():
    # (k!)^(3/2) overflows floats near k = 110; the log value must stay finite
    v = log_ledger_value(2.0, 150, 1.5)
    assert math.isfinite(v)
    assert v < -400


def test_convolution_bound_values():
    res = convolution_bound(64)
    # hand sums: k=2 gives 27/64, k=3 gives 2 * 64/(8*27)
    assert res["sup"] >= 27.0 / 64.0
    assert res["sup"] >= 2 * 64.0 / (8 * 27.0)
    assert res["arg_k"] == 6


def test_convolution_bound_stabilizes():
    res = convolution_bound(10_000)
    assert res["stabilization_gap"] <= 1e-6


def test_xy_norms_zero_and_scaling():
    table = {
        (i, j, k): (0.0, 0.0) for i in (1, 2) for j in (1, 2, 3) for k in range(0, 3)
    }
    assert xy_norms_single(table, 2.0, 1.5, 2) == (0.0, 0.0)
    c = 0.7
    table0 = {
        (i, j, k): ((c, c) if k == 0 else (0.0, 0.0))
        for i in (1, 2)
        for j in (1, 2, 3)
        for k in range(0, 3)
    }
    x, y = xy_norms_single(table0, 2.0, 1.5, 2)
    assert x == pytest.approx(6 * c)
    assert y == pytest.approx(6 * c)


def test_xy_norms_geometric_fixed_point():
    rho, e = 2.0, 1.5
    kmax = 30

    def val(k):
        if k == 0:
            return 1.0
        return rho ** (k - 1) * math.factorial(k) ** e / (k + 1) ** 3

    table = {
        (i, j, k): (val(k), val(k)) for i in (1, 2) for j in (1, 2, 3) for k in range(kmax + 1)
    }
    x, y = xy_norms_single(table, rho, e, kmax)
    assert x == pytest.approx(6.0, rel=1e-9)
    assert y == pytest.approx(6.0, rel=1e-9)


def test_xy_norms_missing_entries():
    table = {(1, 1, 0): (1.0, 1.0)}
    with pytest.raises(MissingTableEntries):
        xy_norms_single(table, 2.0, 1.5, 1)


def test_xy_norms_mixed_regime():
    kmax = 3
    table = {
        (j, (a1, a2)): (1.0, 0.5)
        for j in (1, 2, 3)
        for k in range(kmax + 1)
        for a1 in range(k + 1)
        for a2 in [k - a1]
    }
    x, y = xy_norms_mixed(table, 2.0, 1.5, kmax)
    # the k = 1 ledger weight (2^3 / rho^0) dominates a flat table
    assert x == pytest.approx(24.0)
    assert y == pytest.approx(12.0)


def test_H_power_composition():
    f = random_poly(np.random.default_rng(2))
    once = apply_H(apply_H(f, Fraction(3, 2)), Fraction(3, 2))
    twice = apply_H_power(f, Fraction(3, 2), 2)
    assert (once - twice).is_zero()
