import json
import math
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kgl import cli, vfields
from kgl.cli import DEFAULTS, ConfigError, ExperimentConfig, run
from kgl.vfields import (
    LEDGER_TOLERANCE,
    PolyFunction,
    VFError,
    VFParams,
    apply_H,
    commutator_residuals,
    convolution_bound,
    convolution_sums,
    generation_coefficients,
    ledger_round_trip_residual,
    ledger_value,
    log_ledger_value,
    mixed_commutator_residuals,
    random_poly,
    reconstruction_residuals,
    transport,
)
from tests import ref_poly

X1V1 = PolyFunction.monomial(1, x=(1, 0, 0), v=(1, 0, 0))


def as_reference(p: PolyFunction) -> dict:
    return {(Fraction(t, vfields.T_UNIT), e): Fraction(c, p.den) for (t, e), c in p.terms.items()}


def from_reference(r: dict) -> PolyFunction:
    """The library polynomial of a reference one, each exponent tuple kept as it
    is, so a stacked key keeps its member slot."""
    den = math.lcm(*(c.denominator for c in r.values()))
    return PolyFunction({(vfields._t_units(t), e): int(c * den) for (t, e), c in r.items()}, den)


# --- single-order oracle, composed in the Fraction reference: every power ---
# rebuilt from f, one order at a time (the fields act along x_1 and v_1)


def x_blind_H_reference(r, delta):
    """H without its x-part: its commutator with transport leaves -t^delta d/dx."""
    return ref_poly.mul_t_power(ref_poly.diff_v(r, 1), delta)


def _x_blind_H(f, delta):
    """The x-blind field on a library polynomial: the mutant of apply_H."""
    return from_reference(x_blind_H_reference(as_reference(f), delta))


def H_power(r, delta, k, H=ref_poly.apply_H):
    for _ in range(k):
        r = H(r, delta)
    return r


def ladder(r, delta, k):
    """delta k t^(delta-1) d/dv_1 r."""
    delta = Fraction(delta)
    return ref_poly.scale(ref_poly.mul_t_power(ref_poly.diff_v(r, 1), delta - 1), delta * k)


def commutator_residual(f, delta, k, H=ref_poly.apply_H):
    r = as_reference(f)
    lhs = ref_poly.transport(H_power(r, delta, k, H))
    out = ref_poly.add(lhs, H_power(ref_poly.transport(r), delta, k, H), -1)
    if k:
        out = ref_poly.add(out, ladder(H_power(r, delta, k - 1, H), delta, k), -1)
    return out


def mixed_commutator_residual(f, delta1, delta2, alpha, H=ref_poly.apply_H):
    a1, a2 = alpha
    r = as_reference(f)

    def power(g, b1, b2):
        return H_power(H_power(g, delta2, b2, H), delta1, b1, H)

    out = ref_poly.add(ref_poly.transport(power(r, a1, a2)), power(ref_poly.transport(r), a1, a2), -1)
    if a1:
        out = ref_poly.add(out, ladder(power(r, a1 - 1, a2), delta1, a1), -1)
    if a2:
        out = ref_poly.add(out, ladder(power(r, a1, a2 - 1), delta2, a2), -1)
    return out


def reconstructed_derivatives(f, vp, H=ref_poly.apply_H):
    """t^(lam+1) d/dx_1 f and t^lam d/dv_1 f rebuilt from the two fields with the
    generation coefficients."""
    co = generation_coefficients(vp)
    r = as_reference(f)
    h1 = H(r, vp.delta1)
    h2 = ref_poly.mul_t_power(H(r, vp.delta2), vp.delta1 - vp.delta2)

    def combo(c1, c2):
        return ref_poly.add(ref_poly.scale(h1, c1), ref_poly.scale(h2, c2))

    return combo(co["cx1"], co["cx2"]), combo(co["cv1"], co["cv2"])


def test_apply_H_worked_example():
    # H_1 (x1 v1) = (1/2) t^2 v1 + t x1
    out = apply_H(X1V1, 1)
    expected = PolyFunction.monomial(Fraction(1, 2), t=2, v=(1, 0, 0)) + PolyFunction.monomial(
        1, t=1, x=(1, 0, 0)
    )
    assert out == expected


def test_apply_H_annihilates_constants():
    assert apply_H(PolyFunction.monomial(5), 2).is_zero()


def test_H_is_a_derivation():
    # products are taken in the reference; H is the library's
    rng = np.random.default_rng(3)
    delta = Fraction(3, 2)
    for _ in range(20):
        f, g = random_poly(rng), random_poly(rng)
        rf, rg = as_reference(f), as_reference(g)
        lhs = as_reference(apply_H(from_reference(ref_poly.mul(rf, rg)), delta))
        rhs = ref_poly.add(
            ref_poly.mul(as_reference(apply_H(f, delta)), rg), ref_poly.mul(rf, as_reference(apply_H(g, delta)))
        )
        assert lhs == rhs


def test_commutator_hand_expansion():
    # T H1 f = 2 t v1 + x1 and H1 T f = 2 t v1 for f = x1 v1
    th = transport(apply_H(X1V1, 1))
    ht = apply_H(transport(X1V1), 1)
    expected_th = PolyFunction.monomial(2, t=1, v=(1, 0, 0)) + PolyFunction.monomial(
        1, x=(1, 0, 0)
    )
    assert th == expected_th
    assert ht == PolyFunction.monomial(2, t=1, v=(1, 0, 0))
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
        assert ab == ba


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
        lambda: PolyFunction.monomial(1, t=Fraction(8, 7)),
    ],
    ids=["apply_H", "monomial"],
)
def test_off_lattice_exponents_are_rejected(call):
    with pytest.raises(VFError, match=r"8/7 is off the t-exponent lattice \(1/12\) Z"):
        call()


def test_apply_H_cancels_an_x_part_against_a_v_part():
    # H_1 x1 = (1/2) t^2 and H_1 (-(1/2) t v1) = -(1/2) t^2 land on one monomial
    f = PolyFunction.monomial(1, x=(1, 0, 0)) + PolyFunction.monomial(Fraction(-1, 2), t=1, v=(1, 0, 0))
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
    stacked = vfields.stack([X1V1, PolyFunction.monomial(-3, v=(0, 0, 2)), PolyFunction.monomial(2)])
    assert repr(stacked) == "PolyFunction(2@f2 + -3*v3^2@f1 + 1*x1^1*v1^1@f0)"


def test_stack_and_members_refuse_the_wrong_kind_of_key():
    stacked = vfields.stack([X1V1, PolyFunction(), X1V1 + X1V1])
    assert vfields.members(stacked) == {0, 2}
    assert vfields.members(PolyFunction()) == set()
    with pytest.raises(VFError, match="no member slot"):
        vfields.members(X1V1)
    with pytest.raises(VFError, match="unstacked"):
        vfields.stack([X1V1, stacked])


def test_generation_coefficients_worked_instance():
    vp = VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(2))
    co = generation_coefficients(vp)
    assert co["cx1"] == Fraction(-24)
    assert co["cx2"] == Fraction(24)
    assert co["cv1"] == Fraction(9)
    assert co["cv2"] == Fraction(-8)
    # 9 H1 f - 8 t^(1/3) H2 f = t^2 dv1 f on f = x1 v1
    h1 = as_reference(apply_H(X1V1, vp.delta1))
    h2 = ref_poly.mul_t_power(as_reference(apply_H(X1V1, vp.delta2)), vp.delta1 - vp.delta2)
    combo = ref_poly.add(ref_poly.scale(h1, 9), ref_poly.scale(h2, -8))
    direct = ref_poly.mul_t_power(ref_poly.diff_v(as_reference(X1V1), 1), 2)
    assert combo == direct


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
    assert reconstructed_derivatives(f, vp) == ({}, {})
    rx, rv = reconstruction_residuals(f, vp)
    assert rx.is_zero() and rv.is_zero()


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


def test_convolution_sums_match_the_exact_sums():
    sums = convolution_sums(300)
    assert sums[0] == sums[1] == 0.0
    eps = sys.float_info.epsilon
    for k in range(2, 301):
        exact = sum(Fraction((k + 1) ** 3, ((j + 1) * (k - j + 1)) ** 3) for j in range(1, k))
        assert abs(Fraction(sums[k]) - exact) <= 16 * eps * exact, k


def test_convolution_sums_match_the_direct_convolution():
    kmax = 10_000
    k = np.arange(kmax + 1, dtype=float)
    a = np.where(k > 0, (k + 1.0) ** -3, 0.0)
    direct = (k + 1.0) ** 3 * np.convolve(a, a)[: kmax + 1]
    np.testing.assert_allclose(convolution_sums(kmax), direct, rtol=1e-13, atol=0.0)


def test_convolution_bound_is_linear_in_kmax():
    # the direct sum would take ~1e12 multiply-adds here; the closed form keeps
    # at most six float arrays of kmax + 1 alive
    kmax = 10**6
    tracemalloc.start()
    try:
        res = convolution_bound(kmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res["sup"], res["arg_k"], res["stabilization_gap"]) == (0.683990234375, 6, 0.0)
    assert peak <= 6 * 8 * (kmax + 1)


def test_H_power_composition():
    f = random_poly(np.random.default_rng(2))
    twice = apply_H(apply_H(f, Fraction(3, 2)), Fraction(3, 2))
    assert twice == from_reference(H_power(as_reference(f), Fraction(3, 2), 2))


def test_chain_and_table_entries_equal_the_composed_powers():
    # every entry the builder's store holds is apply_H of f, transport f or an
    # earlier entry; each must equal the reference power of its word, built once
    rng = np.random.default_rng(31)
    d1, d2 = Fraction(2), Fraction(5, 3)
    exact_H, exact_transport = vfields.apply_H, vfields.transport
    for _ in range(4):
        f = random_poly(rng)
        words = {id(f): ("f", ())}
        entries = []

        def recorded_transport(g):
            out = exact_transport(g)
            words[id(out)] = ("T", ())
            entries.append((None, out))  # keeps out alive, so its id is not reused
            return out

        def recorded_H(g, delta):
            out = exact_H(g, delta)
            src, word = words[id(g)]
            words[id(out)] = (src, word + (delta,))
            entries.append(((src, word + (delta,)), out))
            return out

        with mock.patch.object(vfields, "transport", recorded_transport), \
                mock.patch.object(vfields, "apply_H", recorded_H):
            *_, built = vfields.identity_residuals(f, [d1], [(d1, d2, None)], 5, 4)
        built_words = [w for w, _ in entries if w is not None]
        assert built == len(built_words) == len(set(built_words))
        chain = {(src, (d1,) * k) for src in "fT" for k in range(1, 6)}
        table = {(src, (d2,) * a2 + (d1,) * a1) for src in "fT" for a1 in range(5) for a2 in range(5 - a1)}
        assert set(built_words) == (chain | table) - {("f", ()), ("T", ())}
        sources = {"f": as_reference(f), "T": ref_poly.transport(as_reference(f))}
        for word, h in entries:
            if word is None:
                continue
            src, fields = word
            r = sources[src]
            for delta in fields:
                r = ref_poly.apply_H(r, delta)
            assert as_reference(h) == r


def test_negative_order_is_rejected():
    with pytest.raises(VFError):
        commutator_residuals(X1V1, 1, -1)
    with pytest.raises(VFError):
        mixed_commutator_residuals(X1V1, 2, Fraction(5, 3), -1)


FIELDS = [(None, ref_poly.apply_H), (_x_blind_H, x_blind_H_reference)]


@pytest.mark.parametrize("field,H", FIELDS, ids=["H", "x-blind-H"])
def test_batched_residuals_equal_the_single_order_oracle(monkeypatch, field, H):
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
                assert as_reference(res) == commutator_residual(f, delta, k, H)
                nonzero += not res.is_zero()
        for alpha, res in mixed_commutator_residuals(f, vp.delta1, vp.delta2, 4).items():
            assert as_reference(res) == mixed_commutator_residual(f, vp.delta1, vp.delta2, alpha, H)
            nonzero += not res.is_zero()
    assert (nonzero > 0) == (field is not None)


def _vector_fields_config(tmp_path, **overrides):
    params = dict(DEFAULTS["vector-fields"], conv_kmax=64, **overrides)
    return ExperimentConfig("vector-fields", params, 0, str(tmp_path / "vector-fields"))


RUN_DELTAS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 3))  # the runner's commutator fields
# (delta1, delta2) of the runner's three VFParams
RUN_PAIRS = ((Fraction(2), Fraction(5, 3)), (Fraction(2), Fraction(1)), (Fraction(3), Fraction(7, 4)))


def apply_H_budget(max_k, max_alpha):
    """apply_H calls of one vector-fields run: the distinct chain entries of its
    one builder call on the stacked corpus, whatever the corpus size.

    An entry is a source, f or transport f, and the nonempty word of the
    fields applied to it, H2's before H1's: delta^k for k <= max_k per
    commutator delta, delta2^a2 delta1^a1 for |alpha| <= max_alpha per field
    pair, and delta1 and delta2 on f alone for the pair's reconstruction.
    """
    words = {(src, (d,) * k) for src in "fT" for d in RUN_DELTAS for k in range(1, max_k + 1)}
    for d1, d2 in RUN_PAIRS:
        words |= {
            (src, (d2,) * a2 + (d1,) * a1)
            for src in "fT" for a1 in range(max_alpha + 1) for a2 in range(max_alpha + 1 - a1) if a1 + a2
        }
        words |= {("f", (d1,)), ("f", (d2,))}
    return len(words)


@pytest.mark.parametrize("corpus,max_k,max_alpha", [(2, 5, 4), (3, 2, 1), (1, 0, 0)])
def test_vector_fields_applies_H_once_per_chain_entry(tmp_path, monkeypatch, corpus, max_k, max_alpha):
    calls = []
    exact = vfields.apply_H
    monkeypatch.setattr(vfields, "apply_H", lambda *a, **kw: calls.append(1) or exact(*a, **kw))
    cfg = _vector_fields_config(tmp_path, corpus_size=corpus, max_k=max_k, max_alpha=max_alpha)
    rep = run(cfg)
    assert rep.metrics["failure_count"] == 0
    assert len(calls) == rep.metrics["h_powers_built"] == apply_H_budget(max_k, max_alpha)
    assert apply_H_budget(5, 4) == 92  # the exact-algebra benchmark settings, at any corpus size


def test_vector_fields_builds_no_fraction_per_H(tmp_path, monkeypatch):
    # runs that differ only in max_k differ only in the number of apply_H and
    # _add_ladder calls, so equal Fraction counts mean none is built per call
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


@pytest.mark.parametrize("rho", [1e-20, 5e14, 1e15, 1e17])
def test_config_rejects_rho_whose_ledger_is_not_a_normal_float(tmp_path, rho):
    # 1e-20: rho**19 underflows to 0, which the round trip divided by;
    # 5e14: L(21) is subnormal, so the round trip failed on underflow;
    # 1e15: the denominator rho**19 (20!)**1.5 overflows, L(20) read 0 and
    # the round trip divided by it; 1e17: rho**19 overflows
    with pytest.raises(
        ConfigError,
        match=r"rho\*\*19 and the ledger values L\(1\.\.21\) normal floats, "
        r"about 6.42e-17 <= rho <= 1.28e\+14",
    ):
        _vector_fields_config(tmp_path, rho=rho)


def test_vector_fields_runs_just_inside_the_ledger_range(tmp_path):
    lo, hi = cli._ledger_rho_range()  # the range the error message states
    for rho in (lo * (1 + 1e-6), hi * (1 - 1e-6)):
        rep = run(_vector_fields_config(tmp_path / repr(rho), corpus_size=1, max_k=1, max_alpha=1, rho=rho))
        assert rep.checks["ledger-round-trip"], rep.metrics["ledger_round_trip_worst"]
    for rho in (lo * (1 - 1e-6), hi * (1 + 1e-6)):
        with pytest.raises(ConfigError, match="normal floats"):
            _vector_fields_config(tmp_path, rho=rho)


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


_exact_ladder = vfields._add_ladder


def _off_by_one_ladder(out, g, delta, k, m):
    """The ladder term with delta (k+1) in place of delta k."""
    _exact_ladder(out, g, delta, k + 1, m)


def _wrong_generation_coefficient(vp):
    co = generation_coefficients(vp)
    co["cv1"] += 1
    return co


MUTANTS = pytest.mark.parametrize(
    "name,mutant,kinds",
    [
        (None, None, set()),
        ("_add_ladder", _off_by_one_ladder, {"commutator", "mixed"}),
        ("apply_H", _x_blind_H, {"commutator", "mixed", "reconstruction"}),
        ("generation_coefficients", _wrong_generation_coefficient, {"reconstruction"}),
    ],
    ids=["exact", "delta-k-off-by-one", "H-without-x-part", "wrong-generation-coefficient"],
)


@MUTANTS
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


def per_family_failures(polys, max_k, max_alpha):
    """The vector-fields failure list from the per-family calls, one polynomial
    at a time: every commutator failure, then the reconstruction and mixed
    failures polynomial by polynomial."""
    commutators, pairs = [], []
    for i, f in enumerate(polys):
        for delta in RUN_DELTAS:
            rows = commutator_residuals(f, delta, max_k)
            commutators += [f"commutator f{i} delta={delta} k={k}" for k, r in enumerate(rows) if not r.is_zero()]
        for vp in VF_CASES[:3]:  # the runner's field pairs
            rx, rv = reconstruction_residuals(f, vp)
            if not (rx.is_zero() and rv.is_zero()):
                pairs.append(f"reconstruction f{i} lam={vp.lam}")
            mixed = mixed_commutator_residuals(f, vp.delta1, vp.delta2, max_alpha)
            pairs += [f"mixed f{i} alpha=({a1},{a2})" for (a1, a2), r in mixed.items() if not r.is_zero()]
    return commutators + pairs


@MUTANTS
@pytest.mark.parametrize("seed", range(4))
def test_stacked_run_lists_the_per_family_failures(tmp_path, monkeypatch, name, mutant, kinds, seed):
    if mutant is not None:
        monkeypatch.setattr(vfields, name, mutant)
    params = dict(DEFAULTS["vector-fields"], corpus_size=8, max_k=5, max_alpha=4, conv_kmax=64)
    run(ExperimentConfig("vector-fields", params, seed, str(tmp_path)))
    with open(tmp_path / "identities.json") as fh:
        failures = json.load(fh)["failures"]
    rng = np.random.default_rng(seed)
    assert failures == per_family_failures([random_poly(rng) for _ in range(8)], 5, 4)
    assert bool(failures) == bool(kinds)


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
    "transport": (lambda p, a: transport(p), lambda r, a: ref_poly.transport(r), st.none()),
    "apply_H": (apply_H, ref_poly.apply_H, T_LATTICE.filter(lambda q: q >= 1)),
}
CHAIN_STEP = st.one_of(*(st.tuples(st.just(name), op[2]) for name, op in CHAIN_OPS.items()))


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


# --- property test: the one-pass residuals against the composed expressions ---

DELTAS = T_LATTICE.filter(lambda q: q >= 1)
VF_CASES = [
    VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(2)),
    VFParams(gamma=Fraction(-1), s=Fraction(3, 4), lam=Fraction(2)),
    VFParams(gamma=Fraction(-2), s=Fraction(3, 4), lam=Fraction(3)),
    VFParams(gamma=Fraction(-1), s=Fraction(1, 4), lam=Fraction(7, 2)),
]


@pytest.mark.parametrize("field,H", FIELDS, ids=["H", "x-blind-H"])
@settings(max_examples=100, deadline=None)
@given(
    pair=poly_pairs(), delta1=DELTAS, delta2=DELTAS, kmax=st.integers(0, 3),
    max_alpha=st.integers(0, 2), vp=st.sampled_from(VF_CASES),
)
def test_one_pass_residuals_equal_the_composed_expressions(
    field, H, pair, delta1, delta2, kmax, max_alpha, vp
):
    # under the x-blind field the residuals are nonzero: they must agree monomial for monomial
    f, r = pair
    with mock.patch.object(vfields, "apply_H", field or vfields.apply_H):
        for k, res in enumerate(commutator_residuals(f, delta1, kmax)):
            assert as_reference(res) == commutator_residual(f, delta1, k, H)
        for alpha, res in mixed_commutator_residuals(f, delta1, delta2, max_alpha).items():
            assert as_reference(res) == mixed_commutator_residual(f, delta1, delta2, alpha, H)
        gx, gv = reconstructed_derivatives(f, vp, H)
        rx, rv = reconstruction_residuals(f, vp)
        direct_x = ref_poly.mul_t_power(ref_poly.diff_x(r, 1), vp.lam + 1)
        direct_v = ref_poly.mul_t_power(ref_poly.diff_v(r, 1), vp.lam)
        assert as_reference(rx) == ref_poly.add(gx, direct_x, -1)
        assert as_reference(rv) == ref_poly.add(gv, direct_v, -1)


# --- property test: a stacked corpus against its members one by one ---


def _all_residuals(built):
    """The residuals of one identity_residuals result, in one fixed order."""
    commutators, pairs, _ = built
    out = [r for rows in commutators.values() for r in rows]
    for rows, mixed in pairs:
        out += [*(rows or ()), *mixed.values()]
    return out


def _member_part(r: PolyFunction, i: int) -> PolyFunction:
    """The terms of the stacked r tagged i, as an unstacked polynomial."""
    m = vfields.MEMBER
    return PolyFunction({(t, e[:m]): c for (t, e), c in r.terms.items() if e[m] == i}, r.den)


@pytest.mark.parametrize("field", [field for field, _ in FIELDS], ids=["H", "x-blind-H"])
@settings(max_examples=40, deadline=None)
@given(
    corpus=st.lists(poly_pairs(), min_size=2, max_size=4), vp=st.sampled_from(VF_CASES),
    max_k=st.integers(0, 2), max_alpha=st.integers(0, 2),
)
def test_members_are_the_members_with_a_nonzero_residual(field, corpus, vp, max_k, max_alpha):
    # under the x-blind field some residuals are nonzero, so members() is not always empty
    polys = [lib for lib, _ in corpus]
    args = ([vp.delta1, vp.delta2], [(vp.delta1, vp.delta2, generation_coefficients(vp))], max_k, max_alpha)
    with mock.patch.object(vfields, "apply_H", field or vfields.apply_H):
        stacked = _all_residuals(vfields.identity_residuals(vfields.stack(polys), *args))
        each = [_all_residuals(vfields.identity_residuals(f, *args)) for f in polys]
    for n, r in enumerate(stacked):
        assert vfields.members(r) == {i for i, rows in enumerate(each) if not rows[n].is_zero()}
        assert [_member_part(r, i) for i in range(len(polys))] == [rows[n] for rows in each]


# --- property test: the one builder against the per-family oracles ---


def _counted(field):
    """The field (apply_H when None) and the list its calls are counted in."""
    calls, apply = [], field or vfields.apply_H
    return (lambda f, delta: calls.append(1) or apply(f, delta)), calls


@pytest.mark.parametrize("field,H", FIELDS, ids=["H", "x-blind-H"])
@settings(max_examples=60, deadline=None)
@given(
    pair=poly_pairs(), vp=st.sampled_from(VF_CASES), extra=st.lists(DELTAS, max_size=2),
    off=st.tuples(DELTAS, DELTAS), max_k=st.integers(0, 2), max_alpha=st.integers(0, 3),
)
@example(
    pair=(X1V1, as_reference(X1V1)), vp=VF_CASES[0], extra=[], off=(Fraction(3), Fraction(7, 4)),
    max_k=1, max_alpha=3,
)
def test_builder_residuals_equal_the_per_family_oracles(field, H, pair, vp, extra, off, max_k, max_alpha):
    # vp's two fields are commutator deltas, so its pure mixed rows up to max_k are the
    # shared commutator residuals and those above are built; the pair `off` shares none
    f, r = pair
    deltas = list(dict.fromkeys([vp.delta1, vp.delta2, *extra]))
    assume(not set(off) & set(deltas))
    pairs = [(vp.delta1, vp.delta2, generation_coefficients(vp)), (*off, None)]
    counted, calls = _counted(field)
    with mock.patch.object(vfields, "apply_H", counted):
        commutators, per_pair, h_powers = vfields.identity_residuals(f, deltas, pairs, max_k, max_alpha)
    assert h_powers == len(calls)
    assert list(commutators) == deltas
    for delta, rows in commutators.items():
        assert rows == [from_reference(commutator_residual(f, delta, k, H)) for k in range(max_k + 1)]
    (rows, mixed), (none, off_mixed) = per_pair
    alphas = [(a1, a2) for a1 in range(max_alpha + 1) for a2 in range(max_alpha + 1 - a1)]
    for (d1, d2), out in (((vp.delta1, vp.delta2), mixed), (off, off_mixed)):
        assert list(out) == alphas
        for alpha, res in out.items():  # equal terms over an equal denominator
            assert res == from_reference(mixed_commutator_residual(f, d1, d2, alpha, H))
    gx, gv = reconstructed_derivatives(f, vp, H)
    direct_x = ref_poly.mul_t_power(ref_poly.diff_x(r, 1), vp.lam + 1)
    direct_v = ref_poly.mul_t_power(ref_poly.diff_v(r, 1), vp.lam)
    assert none is None
    assert rows == tuple(from_reference(ref_poly.add(g, d, -1)) for g, d in ((gx, direct_x), (gv, direct_v)))
