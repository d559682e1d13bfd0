import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgl import vfields
from kgl.cli import DEFAULTS, ConfigError, ExperimentConfig, run
from kgl.vfields import (
    LEDGER_TOLERANCE,
    PolyFunction,
    VFError,
    VFParams,
    H_chain,
    H_table,
    apply_H,
    commutator_residuals,
    convolution_bound,
    generation_coefficients,
    ledger_round_trip_residual,
    ledger_value,
    log_ledger_value,
    mixed_commutator_residuals,
    random_poly,
    reconstruct_derivatives,
    reconstruction_residuals,
    transport,
)
from tests import ref_poly

X1V1 = PolyFunction.monomial(1, x=(1, 0, 0), v=(1, 0, 0))


# --- single-order oracle: every power rebuilt from f, one order at a time ---
# (the fields act along x_1 and v_1)


def apply_H_power(f, delta, k):
    for _ in range(k):
        f = vfields.apply_H(f, delta)
    return f


def commutator_residual(f, delta, k):
    delta = Fraction(delta)
    lhs = vfields.transport(apply_H_power(f, delta, k)) - apply_H_power(
        vfields.transport(f), delta, k
    )
    if k == 0:
        return lhs
    rhs = apply_H_power(f, delta, k - 1).diff_v(1).mul_t_power(delta - 1).scale(delta * k)
    return lhs - rhs


def mixed_commutator_residual(f, delta1, delta2, alpha):
    a1, a2 = alpha
    d1, d2 = Fraction(delta1), Fraction(delta2)

    def power(g, b1, b2):
        return apply_H_power(apply_H_power(g, d2, b2), d1, b1)

    lhs = vfields.transport(power(f, a1, a2)) - power(vfields.transport(f), a1, a2)
    rhs = PolyFunction()
    if a1 > 0:
        rhs = rhs + power(f, a1 - 1, a2).diff_v(1).mul_t_power(d1 - 1).scale(d1 * a1)
    if a2 > 0:
        rhs = rhs + power(f, a1, a2 - 1).diff_v(1).mul_t_power(d2 - 1).scale(d2 * a2)
    return lhs - rhs


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
        f = random_poly(rng)
        g = random_poly(rng)
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
    assert commutator_residuals(X1V1, 1, 1)[1].is_zero()


def test_commutator_k0_convention():
    assert commutator_residuals(X1V1, 2, 0)[0].is_zero()


def test_commutator_nontrivial_instance():
    f = PolyFunction.monomial(1, x=(2, 0, 0), v=(3, 0, 0))
    assert commutator_residuals(f, 2, 3)[3].is_zero()


@pytest.mark.parametrize("delta", [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 3)])
def test_commutator_corpus(delta):
    rng = np.random.default_rng(int(delta * 6))
    for i in range(12):
        f = random_poly(rng)
        residuals = commutator_residuals(f, delta, 5)
        assert len(residuals) == 6
        for k, res in enumerate(residuals):
            assert res.is_zero(), f"poly {i}, k={k}: residual {res}"


def test_mixed_commutator_exact():
    rng = np.random.default_rng(9)
    vp = VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(2))
    for i in range(10):
        f = random_poly(rng)
        residuals = mixed_commutator_residuals(f, vp.delta1, vp.delta2, 4)
        assert list(residuals) == [(a1, a2) for a1 in range(0, 5) for a2 in range(0, 5 - a1)]
        for (a1, a2), res in residuals.items():
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
    # about two draws in three put delta1 or delta2 off the 1/T_UNIT lattice:
    # those must be rejected, and 100 on-lattice draws must be ordered
    rng = np.random.default_rng(1)
    count = rejected = 0
    while count < 100:
        gamma = Fraction(int(rng.integers(-29, 0)), 10)
        s = Fraction(int(rng.integers(1, 10)), 10)
        if gamma + 2 * s <= -1:
            continue
        tau = 2 * s / (2 - gamma)
        lam = max(Fraction(1), 1 / (2 * tau)) + Fraction(int(rng.integers(1, 5)), 2)
        try:
            vp = VFParams(gamma=gamma, s=s, lam=lam)
        except VFError as err:
            assert "off the t-exponent lattice" in str(err)
            rejected += 1
            continue
        assert vp.delta1 > vp.delta2 >= 1
        count += 1
    assert rejected > 0


@pytest.mark.parametrize(
    "gamma,s,lam,message",
    [
        (-1, 0, 2, "s=0 outside"),  # tau = 0: 1/(2 tau) would divide by zero
        (2, Fraction(1, 2), 2, "gamma=2 outside"),  # 2 - gamma = 0 in tau
        (-1, 1, 2, "s=1 outside"),
        (-2, Fraction(1, 2), 3, r"gamma \+ 2s = -1 <= -1"),
    ],
    ids=["s=0", "gamma=2", "s=1", "gamma+2s=-1"],
)
def test_vfparams_rejects_inadmissible_pairs(gamma, s, lam, message):
    with pytest.raises(VFError, match=message):
        VFParams(gamma=gamma, s=s, lam=lam)


def test_vfparams_rejects_small_lambda():
    with pytest.raises(VFError):
        VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(1))


def test_vfparams_rejects_deltas_off_the_lattice():
    # tau = 1/6, so lambda = 16/5 > 3 is admissible, but delta1 = 16/5 and
    # delta2 = 47/15 are not multiples of 1/12
    with pytest.raises(VFError, match=r"delta1 16/5 is off the t-exponent lattice \(1/12\) Z"):
        VFParams(gamma=Fraction(-1), s=Fraction(1, 4), lam=Fraction(16, 5))
    vp = VFParams(gamma=Fraction(-1), s=Fraction(1, 4), lam=Fraction(7, 2))  # delta2 = 10/3
    assert (vp.delta1, vp.delta2) == (Fraction(7, 2), Fraction(10, 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: apply_H(X1V1, Fraction(8, 7)),
        lambda: X1V1.mul_t_power(Fraction(8, 7)),
        lambda: PolyFunction.monomial(1, t=Fraction(8, 7)),
    ],
    ids=["apply_H", "mul_t_power", "monomial"],
)
def test_off_lattice_exponents_are_rejected(call):
    with pytest.raises(VFError, match=r"8/7 is off the t-exponent lattice \(1/12\) Z"):
        call()


def test_apply_H_cancels_an_x_part_against_a_v_part():
    # H_1 x1 = (1/2) t^2 and H_1 (-(1/2) t v1) = -(1/2) t^2 land on one monomial
    f = PolyFunction.monomial(1, x=(1, 0, 0)) - PolyFunction.monomial(Fraction(1, 2), t=1, v=(1, 0, 0))
    out = apply_H(f, 1)
    assert out == PolyFunction()
    assert out.terms == {} and out.den == 1


def test_constructor_does_not_share_the_callers_dict():
    key, other = (0, (1, 0, 0, 0, 0, 0)), (12, (0, 0, 0, 1, 0, 0))
    terms = {key: 2}  # already canonical over 3: nothing to reduce or drop
    p = PolyFunction(terms, 3)
    terms[key] = 5
    terms[other] = 1
    assert p.terms == {key: 2} and p.den == 3
    assert p == PolyFunction.monomial(Fraction(2, 3), x=(1, 0, 0))


@pytest.mark.parametrize("delta", [2, Fraction(2), 2.0], ids=["int", "Fraction", "float"])
def test_apply_H_reads_delta_of_any_rational_type(delta):
    f = random_poly(np.random.default_rng(5))
    assert apply_H(f, delta) == apply_H(f, Fraction(2))
    assert apply_H(X1V1, delta) == apply_H(X1V1, 2)


def test_repr_prints_rational_coefficients_and_t_exponents():
    f = PolyFunction.monomial(Fraction(1, 2), t=Fraction(5, 3), x=(1, 0, 0))
    f = f + PolyFunction.monomial(-3, v=(0, 0, 2))
    assert repr(f) == "PolyFunction(-3*v3^2 + 1/2*t^5/3*x1^1)"
    assert repr(PolyFunction()) == "PolyFunction(0)"


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


def direct_convolution_bound(kmax):
    """The convolution sup as a loop over k, each sum taken directly."""
    sup_val, sup_arg, sup_at_half = 0.0, 0, 0.0
    for k in range(2, kmax + 1):
        j = np.arange(1, k, dtype=float)
        s = float(np.sum((k + 1) ** 3 / ((j + 1) ** 3 * (k - j + 1) ** 3)))
        if s > sup_val:
            sup_val, sup_arg = s, k
        if k == kmax // 2:
            sup_at_half = sup_val
    return {
        "sup": sup_val,
        "arg_k": sup_arg,
        "sup_at_half_range": sup_at_half,
        "stabilization_gap": abs(sup_val - sup_at_half),
        "kmax": kmax,
    }


@pytest.mark.parametrize("kmax", [2, 3, 64, 2000])
def test_convolution_bound_matches_the_direct_k_loop(kmax):
    assert convolution_bound(kmax) == direct_convolution_bound(kmax)


def test_convolution_bound_stabilizes():
    res = convolution_bound(10_000)
    assert res["stabilization_gap"] <= 1e-6


def test_H_power_composition():
    f = random_poly(np.random.default_rng(2))
    once = apply_H(apply_H(f, Fraction(3, 2)), Fraction(3, 2))
    twice = H_chain(f, Fraction(3, 2), 2)[2]
    assert (once - twice).is_zero()


def test_chain_and_table_entries_equal_the_composed_powers():
    rng = np.random.default_rng(31)
    d1, d2 = Fraction(2), Fraction(5, 3)
    for _ in range(4):
        f = random_poly(rng)
        chain = H_chain(f, d1, 5)
        assert len(chain) == 6
        for k, h in enumerate(chain):
            assert h == apply_H_power(f, d1, k)
        table = H_table(f, d1, d2, 4)
        assert sorted(table) == [(a1, a2) for a1 in range(5) for a2 in range(5 - a1)]
        for (a1, a2), h in table.items():
            assert h == apply_H_power(apply_H_power(f, d2, a2), d1, a1)


def test_negative_order_is_rejected():
    with pytest.raises(VFError):
        commutator_residuals(X1V1, 1, -1)
    with pytest.raises(VFError):
        mixed_commutator_residuals(X1V1, 2, Fraction(5, 3), -1)


def _x_blind_H(f, delta):
    """H without its x-part: its commutator with transport leaves -t^delta d/dx."""
    return f.diff_v(1).mul_t_power(Fraction(delta))


@pytest.mark.parametrize("field", [None, _x_blind_H], ids=["H", "x-blind-H"])
def test_batched_residuals_equal_the_single_order_oracle(monkeypatch, field):
    # under the x-blind field the residuals are nonzero, so equality is not 0 == 0
    if field is not None:
        monkeypatch.setattr(vfields, "apply_H", field)
    rng = np.random.default_rng(17)
    vp = VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(2))
    nonzero = 0
    for _ in range(4):
        f = random_poly(rng)
        for delta in (Fraction(1), Fraction(5, 3)):
            for k, res in enumerate(commutator_residuals(f, delta, 5)):
                assert res == commutator_residual(f, delta, k)
                nonzero += not res.is_zero()
        for alpha, res in mixed_commutator_residuals(f, vp.delta1, vp.delta2, 4).items():
            assert res == mixed_commutator_residual(f, vp.delta1, vp.delta2, alpha)
            nonzero += not res.is_zero()
    assert (nonzero > 0) == (field is not None)


def _vector_fields_config(tmp_path, **overrides):
    params = dict(DEFAULTS["vector-fields"], conv_kmax=64, **overrides)
    return ExperimentConfig("vector-fields", params, 0, str(tmp_path / "vector-fields"))


def apply_H_budget(corpus, max_k, max_alpha):
    """apply_H calls of one vector-fields run: 4 deltas x 2 chains of max_k,
    3 field pairs x 2 tables of (max_alpha+1)(max_alpha+2)/2 - 1 entries, and
    3 reconstructions of 2 fields each, per polynomial."""
    per_poly = 4 * 2 * max_k + 3 * ((max_alpha + 1) * (max_alpha + 2) - 2) + 3 * 2
    return corpus * per_poly


@pytest.mark.parametrize("corpus,max_k,max_alpha", [(2, 5, 4), (3, 2, 1), (1, 0, 0)])
def test_vector_fields_applies_H_once_per_chain_entry(tmp_path, monkeypatch, corpus, max_k, max_alpha):
    calls = []
    exact = vfields.apply_H
    monkeypatch.setattr(vfields, "apply_H", lambda *a, **kw: calls.append(1) or exact(*a, **kw))
    cfg = _vector_fields_config(tmp_path, corpus_size=corpus, max_k=max_k, max_alpha=max_alpha)
    assert run(cfg).metrics["failure_count"] == 0
    assert len(calls) == apply_H_budget(corpus, max_k, max_alpha)
    assert apply_H_budget(60, 5, 4) == 7800  # the exact-algebra benchmark settings


def test_vector_fields_builds_no_fraction_per_H(tmp_path, monkeypatch):
    # runs that differ only in max_k differ only in the number of apply_H and
    # _ladder calls, so equal Fraction counts mean none is built per call
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    counts = {}
    for max_k in (2, 5):
        built.clear()
        run(_vector_fields_config(tmp_path / str(max_k), corpus_size=2, max_k=max_k, max_alpha=2))
        counts[max_k] = len(built)
    assert counts[2] > 0  # the counter sees the Fractions the run does build
    assert counts[2] == counts[5]


def test_vector_fields_writes_inf_above_the_float_range(tmp_path):
    # ln L(200) is about 1012 at rho = 1e-5: past exp's range, written as inf
    run(_vector_fields_config(tmp_path, corpus_size=1, max_k=1, max_alpha=1, rho=1e-5))
    with open(tmp_path / "vector-fields" / "ledger.csv") as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    log_l = [float(row[2]) for row in rows]
    values = [float(row[1]) for row in rows]
    assert log_l[200] > 1000 and values[200] == math.inf
    assert all(math.isfinite(v) == (lv <= math.log(sys.float_info.max)) for v, lv in zip(values, log_l))
    assert values[1:] == sorted(values[1:])  # L(k) grows with k at this rho


@pytest.mark.parametrize("rho,inside", [(1e-20, 1e-16), (1e17, 1e16)])
def test_config_rejects_rho_whose_ledger_power_is_not_a_normal_float(tmp_path, rho, inside):
    # rho**19 underflows to 0 at 1e-20 (the round trip divided by it) and overflows at 1e17
    with pytest.raises(ConfigError, match=r"rho\*\*19 a normal float, about 6.42e-17 <= rho <= 1.67e\+16"):
        _vector_fields_config(tmp_path, rho=rho)
    _vector_fields_config(tmp_path, rho=inside)


def residual_budget(max_k, max_alpha):
    """Residuals one vector-fields run checks per polynomial: 4 deltas x (max_k + 1)
    commutator orders, and per field pair 2 reconstructions plus one mixed residual
    for each of the (max_alpha+1)(max_alpha+2)/2 multi-indices."""
    return 4 * (max_k + 1) + 3 * (2 + (max_alpha + 1) * (max_alpha + 2) // 2)


@pytest.mark.parametrize("corpus,max_k,max_alpha", [(2, 5, 4), (3, 2, 1), (1, 0, 0)])
def test_vector_fields_counts_every_residual_checked(tmp_path, corpus, max_k, max_alpha):
    cfg = _vector_fields_config(tmp_path, corpus_size=corpus, max_k=max_k, max_alpha=max_alpha)
    assert run(cfg).metrics["residuals_checked"] == corpus * residual_budget(max_k, max_alpha)
    assert residual_budget(DEFAULTS["vector-fields"]["max_k"], DEFAULTS["vector-fields"]["max_alpha"]) == 75
    assert 60 * residual_budget(5, 4) == 4500  # the exact-algebra benchmark settings


def _off_by_one_ladder(g, delta, k):
    return g.diff_v(1).mul_t_power(delta - 1).scale(delta * (k + 1))


def _wrong_generation_coefficient(vp):
    co = generation_coefficients(vp)
    co["cv1"] += 1
    return co


@pytest.mark.parametrize(
    "name,mutant,kinds",
    [
        (None, None, set()),
        ("_ladder", _off_by_one_ladder, {"commutator", "mixed"}),
        ("apply_H", _x_blind_H, {"commutator", "mixed", "reconstruction"}),
        ("generation_coefficients", _wrong_generation_coefficient, {"reconstruction"}),
    ],
    ids=["exact", "delta-k-off-by-one", "H-without-x-part", "wrong-generation-coefficient"],
)
def test_identity_checks_fail_under_a_mutant(tmp_path, monkeypatch, name, mutant, kinds):
    if mutant is not None:
        monkeypatch.setattr(vfields, name, mutant)
    cfg = _vector_fields_config(tmp_path, corpus_size=3, max_k=2, max_alpha=2)
    rep = run(cfg)
    with open(tmp_path / "vector-fields" / "identities.json") as fh:
        failures = json.load(fh)["failures"]
    assert rep.metrics["failure_count"] == len(failures)
    assert rep.checks["identities-exact"] == (not kinds)
    assert {line.split()[0] for line in failures} == kinds
    if "commutator" in kinds:
        # the k = 0 residual carries no delta k term and no H, so it never fails
        assert all(" k=0" not in line for line in failures)


# --- property test: the integer representation against the Fraction reference ---

T_LATTICE = st.integers(-vfields.T_UNIT, 3 * vfields.T_UNIT).map(lambda u: Fraction(u, vfields.T_UNIT))
COEFFICIENTS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def poly_pairs(draw, max_terms=3):
    """One polynomial built both ways from the same drawn monomials."""
    lib, ref = PolyFunction(), {}
    for _ in range(draw(st.integers(0, max_terms))):
        c, t = draw(COEFFICIENTS), draw(T_LATTICE.filter(lambda q: q >= 0))
        e = draw(st.tuples(*[st.integers(0, 2)] * 6))
        lib = lib + PolyFunction.monomial(c, t=t, x=e[:3], v=e[3:])
        ref = ref_poly.add(ref, ref_poly.monomial(c, t, e))
    return lib, ref


# name: (library operation, reference operation, argument strategy); a
# polynomial argument is drawn as a (library, reference) pair
CHAIN_OPS = {
    "add": (lambda p, a: p + a[0], lambda r, a: ref_poly.add(r, a[1]), poly_pairs()),
    "sub": (lambda p, a: p - a[0], lambda r, a: ref_poly.add(r, a[1], -1), poly_pairs()),
    "mul": (lambda p, a: p * a[0], lambda r, a: ref_poly.mul(r, a[1]), poly_pairs(max_terms=2)),
    "scale": (PolyFunction.scale, ref_poly.scale, COEFFICIENTS),
    "diff_t": (lambda p, a: p.diff_t(), lambda r, a: ref_poly.diff_t(r), st.none()),
    "diff_x": (PolyFunction.diff_x, ref_poly.diff_x, st.integers(1, 3)),
    "diff_v": (PolyFunction.diff_v, ref_poly.diff_v, st.integers(1, 3)),
    "mul_v": (PolyFunction.mul_v, ref_poly.mul_v, st.integers(1, 3)),
    "mul_t_power": (PolyFunction.mul_t_power, ref_poly.mul_t_power, T_LATTICE),
    "transport": (lambda p, a: transport(p), lambda r, a: ref_poly.transport(r), st.none()),
    "apply_H": (apply_H, ref_poly.apply_H, T_LATTICE.filter(lambda q: q >= 1)),
}
CHAIN_STEP = st.one_of(*(st.tuples(st.just(name), op[2]) for name, op in CHAIN_OPS.items()))


def as_reference(p: PolyFunction) -> dict:
    return {(Fraction(t, vfields.T_UNIT), e): Fraction(c, p.den) for (t, e), c in p.terms.items()}


def assert_canonical(p: PolyFunction):
    """Integer numerators and t-keys over one positive denominator, in lowest terms."""
    assert type(p.den) is int and p.den > 0
    for (t, e), c in p.terms.items():
        assert type(t) is int and type(c) is int and c != 0
        assert all(type(x) is int for x in e)
    assert math.gcd(p.den, *p.terms.values()) == 1


@settings(max_examples=200, deadline=None)
@given(start=poly_pairs(), chain=st.lists(CHAIN_STEP, max_size=6))
def test_integer_polynomials_agree_with_the_fraction_reference(start, chain):
    lib, ref = start
    assert_canonical(lib)
    assert as_reference(lib) == ref
    for name, arg in chain:
        lib_op, ref_op, _ = CHAIN_OPS[name]
        lib, ref = lib_op(lib, arg), ref_op(ref, arg)
        assert_canonical(lib)
        assert as_reference(lib) == ref, name
