"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line (collected in the terminal summary)
and asserts both the numerical tolerance and the runtime budget.
"""

import math
import time
from fractions import Fraction

import numpy as np

from kgl import dyadic, inequalities as ineq, solver, toy, vfields
from kgl.corpus import standard_corpus
from kgl.grid import VelocityGrid, refine_field
from kgl.multipliers import weighted_sobolev_norms
from kgl.params import SoftPotentialParams


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_sharp_index_exact_block_law(record_acceptance):
    with Timer() as t:
        results = {}
        for gamma, s in ((-1.0, 0.5), (-2.0, 0.75)):
            prm = SoftPotentialParams(gamma=gamma, s=s)
            fit = toy.estimate_gevrey_index(toy.block_law(range(16, 41), prm, 1.0)[1], range(16, 41))
            target_slope = 4.0 * s / (2.0 - gamma)
            target_r = (2.0 - gamma) / (4.0 * s)
            results[(gamma, s)] = (fit.slope, target_slope, fit.estimated_index, target_r)
    ok = all(
        abs(slope - ts) <= 0.01 * ts and abs(r - tr) <= 0.01 * tr
        for slope, ts, r, tr in results.values()
    ) and t.elapsed < 1.0
    detail = ", ".join(
        f"({g},{s}): slope {v[0]:.5f} vs {v[1]:.5f}" for (g, s), v in results.items()
    )
    record_acceptance(1, "sharp-index-exact-law", ok, f"{detail}; {t.elapsed:.2f}s")
    assert ok


def test_criterion_2_analytic_regime_clamp(record_acceptance):
    with Timer() as t:
        prm = SoftPotentialParams(gamma=-0.5, s=0.75)
        raw = (2.0 - prm.gamma) / (4.0 * prm.s)
        fit = toy.estimate_gevrey_index(toy.block_law(range(16, 41), prm, 1.0)[1], range(16, 41))
    ok = (
        abs(raw - 0.8333) <= 1e-3
        and abs(fit.estimated_index - raw) <= 0.02 * raw
        and fit.clamped_index == 1.0
        and t.elapsed < 1.0
    )
    record_acceptance(
        2, "analytic-clamp", ok, f"raw {fit.estimated_index:.4f}, class {fit.clamped_index}; {t.elapsed:.2f}s"
    )
    assert ok


def test_criterion_3_pde_vs_block_law(record_acceptance):
    with Timer() as t:
        prm = SoftPotentialParams(gamma=-1.0, s=0.5)
        grid = VelocityGrid(4096, 32.0)
        params = toy.ToyParams(prm=prm, a0=1.0, t_final=1.0, grid=grid, steps=64)
        f0 = toy.weighted_broadband_data(grid, 1.0, seed=1)
        traj = toy.evolve_toy(f0, params)
        ratios = traj.rate_ratios
        lo, hi = (ratios.min(), ratios.max()) if ratios.size else (math.nan, math.nan)
        exponents = toy.trajectory_shell_exponents(grid, f0, traj.final, range(0, 8))
        fit = toy.estimate_gevrey_index(exponents, np.arange(0, 8))
        slope_dev = abs(fit.slope - 2.0 / 3.0) / (2.0 / 3.0)
    ok = (
        ratios.size > 0
        and 0.25 <= lo
        and hi <= 4.0
        and slope_dev <= 0.15
        and t.elapsed < 60.0
    )
    record_acceptance(
        3,
        "pde-vs-block-law",
        ok,
        f"{ratios.size} blocks in [{lo:.2f},{hi:.2f}], "
        f"slope {fit.slope:.4f} (dev {slope_dev * 100:.1f}%); {t.elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_infimum_brute_force(record_acceptance):
    with Timer() as t:
        prm = SoftPotentialParams(gamma=-1.0, s=0.5)
        k_star, values = toy.block_law([10], prm, a0=1.0)
        res = (int(k_star[0]), float(values[0]))
        _, values = toy.block_law(range(1, 41), prm, a0=1.0)
        ratios = [v / 2.0 ** (2.0 * j / 3.0) for j, v in zip(range(1, 41), values.tolist())]
    ok = (
        res == (3, 192.0)
        and all(1.0 / 8.0 <= r <= 8.0 for r in ratios)
        and t.elapsed < 0.1
    )
    record_acceptance(
        4, "infimum-brute-force", ok,
        f"(k*,value)=({res[0]},{res[1]:.0f}), ratios [{min(ratios):.3f},{max(ratios):.3f}]; {t.elapsed * 1e3:.0f}ms",
    )
    assert ok


def test_criterion_5_partition_and_reconstruction(record_acceptance):
    with Timer() as t:
        rng = np.random.default_rng(11)
        grid = VelocityGrid(1024, 16.0)
        xs = rng.uniform(0.0, grid.nyquist, size=10_000)
        jmax = dyadic.max_freq_shell(grid)
        rings = dyadic.frequency_rings(grid)
        total = dyadic.psi(xs) + sum(dyadic.phi(xs / 2.0**j) for j in range(jmax + 2))
        partition_err = float(np.max(np.abs(total - 1.0)))
        recon_err = 0.0
        for _ in range(50):
            amp = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            amp[grid.eta_abs > 0.45 * grid.nyquist] = 0.0
            f = np.fft.ifft(amp, norm="ortho").real
            f_hat = np.fft.fftn(f, norm="ortho")
            tot = sum(np.fft.ifftn(f_hat * w, norm="ortho") for w in rings)
            recon_err = max(
                recon_err,
                float(np.max(np.abs(tot - f)) / np.max(np.abs(f))),
            )
    ok = partition_err <= 1e-12 and recon_err <= 1e-10 and t.elapsed < 5.0
    record_acceptance(
        5, "partition-of-unity", ok,
        f"partition {partition_err:.1e}, reconstruction {recon_err:.1e}; {t.elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_norm_characterization(record_acceptance):
    with Timer() as t:
        prm = SoftPotentialParams(gamma=-1.0, s=0.5)
        pairs_pm = [(0.0, 0.0), (1.0, 0.0), (0.0, prm.tau), (prm.gamma / 2.0, prm.s)]
        grid = VelocityGrid(1024, 16.0)
        fine_grid = VelocityGrid(2048, 16.0)
        corpus = standard_corpus(grid, 200, seed=6)
        fine = refine_field(grid, corpus)
        norms_c = dyadic.block_norms(grid, corpus)
        norms_f = dyadic.block_norms(fine_grid, fine)
        direct_c = weighted_sobolev_norms(grid, corpus, pairs_pm)
        direct_f = weighted_sobolev_norms(fine_grid, fine, pairs_pm)
        ratio_lo, ratio_hi, stable = np.inf, 0.0, True
        for n, (p, m) in enumerate(pairs_pm):
            r_c = dyadic.block_sum(norms_c, p, m) / direct_c[n]
            r_f = dyadic.block_sum(norms_f, p, m) / direct_f[n]
            ratio_lo = min(ratio_lo, float(np.min(r_c)))
            ratio_hi = max(ratio_hi, float(np.max(r_c)))
            stable &= bool(np.all(np.abs(r_f / r_c - 1.0) <= 0.10))
    ok = ratio_lo >= 1.0 / 8.0 and ratio_hi <= 8.0 and stable and t.elapsed < 30.0
    record_acceptance(
        6, "norm-characterization", ok,
        f"ratios [{ratio_lo:.3f},{ratio_hi:.3f}], refinement stable {stable}; {t.elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_inequality_suite(record_acceptance):
    with Timer() as t:
        gamma, s = -1.0, 0.5
        prm = SoftPotentialParams(gamma=gamma, s=s)
        grid = VelocityGrid(1024, 16.0)
        corpus = standard_corpus(grid, 500, seed=7)
        failures = []

        def flag(name, bad):
            failures.extend((name, f"u{i}") for i in np.flatnonzero(bad))

        # interpolation: fit the constant, then re-check sum and product forms
        w = ineq.verify_interpolation_tau(grid, corpus, prm)
        c_sum = np.max(w.ratio_without_constant())
        c_prod = np.max(w.extras["product_ratio"])
        a, b, th = w.extras["weighted_l2"], w.extras["coercive"], w.extras["theta"]
        flag("interpolation-sum", w.lhs > c_sum * (a + b) * (1 + 1e-12))
        flag("interpolation-product", w.lhs > c_prod * b**th * a ** (1.0 - th) * (1 + 1e-12))
        flag("amgm", ~ineq.amgm_implication_holds(w))

        # epsilon split: fitted constant passes the corpus; slope law holds
        eps = 0.25
        c_eps = ineq.fit_eps_constant(grid, corpus, s, eps)
        w = ineq.verify_weighted_eps_split(grid, corpus, s, eps, constant=c_eps)
        flag("eps-split", ~w.passed & (w.margin < -1e-10 * np.maximum(w.rhs, 1.0)))
        scaling = ineq.eps_constant_scaling(VelocityGrid(8192, 32.0), s)
        slope_ok = abs(scaling["slope"] - scaling["target_slope"]) <= 0.25 * abs(
            scaling["target_slope"]
        )
        if not slope_ok:
            failures.append(("eps-slope", f"{scaling['slope']:.3f}"))

        # composition bound for both maps over the nonnegative members
        nonneg = corpus[np.min(corpus, axis=-1) >= -1e-12]
        comp_wits = [
            ineq.verify_composition_bound(grid, nonneg, s, name) for name in ineq.COMPOSITION_MAPS
        ]
        c_comp = max(np.max(w.ratio_without_constant()) for w in comp_wits)
        for w in comp_wits:
            flag("composition", w.lhs > c_comp * w.rhs * (1 + 1e-12))
            flag("composition-agreement", ~w.extras["agreement_ok"])

        # regularizer triple bound with the literal constant 3
        for theta in (1e-3, 1e-2, 1e-1, 1.0):
            w = ineq.verify_regularizer_bounds(grid, corpus[:125], theta)
            flag(f"regularizer {theta}", w.margin < 0.0)
    ok = not failures and slope_ok and t.elapsed < 60.0
    record_acceptance(
        7, "inequality-suite", ok,
        f"500-function corpus, {len(nonneg)} nonnegative, eps-slope {scaling['slope']:.3f} "
        f"(target {scaling['target_slope']:.1f}), failures {len(failures)}; {t.elapsed:.1f}s",
    )
    assert ok, failures[:10]


def test_criterion_8_vector_field_algebra(record_acceptance):
    with Timer() as t:
        rng = np.random.default_rng(8)
        corpus = [vfields.random_poly(rng) for _ in range(50)]
        failures = []
        for i, f in enumerate(corpus):
            for delta in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 3)):
                for k, res in enumerate(vfields.commutator_residuals(f, delta, 5)):
                    if not res.is_zero():
                        failures.append(("commutator", i, str(delta), k))
        vp = vfields.VFParams(gamma=Fraction(-1), s=Fraction(1, 2), lam=Fraction(2))
        co = vfields.generation_coefficients(vp)
        worked = (
            vp.delta1 == 2
            and vp.delta2 == Fraction(5, 3)
            and co["cx1"] == -24
            and co["cx2"] == 24
            and co["cv1"] == 9
            and co["cv2"] == -8
        )
        if not worked:
            failures.append(("worked-instance",))
        cases = [
            vp,
            vfields.VFParams(gamma=Fraction(-1), s=Fraction(3, 4), lam=Fraction(2)),
            vfields.VFParams(gamma=Fraction(-2), s=Fraction(3, 4), lam=Fraction(3)),
        ]
        for i, f in enumerate(corpus[:12]):
            for case in cases:
                rx, rv = vfields.reconstruction_residuals(f, case)
                if not (rx.is_zero() and rv.is_zero()):
                    failures.append(("reconstruction", i, str(case.lam)))
                mixed = vfields.mixed_commutator_residuals(f, case.delta1, case.delta2, 4)
                for (a1, a2), res in mixed.items():
                    if not res.is_zero():
                        failures.append(("mixed", i, a1, a2))
    ok = not failures and t.elapsed < 5.0
    record_acceptance(
        8, "vector-field-algebra", ok,
        f"50-poly corpus, k<=5, |alpha|<=4, failures {len(failures)}; {t.elapsed:.1f}s",
    )
    assert ok, failures[:10]


def test_criterion_9_ledger_and_combinatorics(record_acceptance):
    with Timer() as t:
        worst = max(vfields.ledger_round_trip_residual(2.0, e) for e in (1.0, 1.5))
        conv = vfields.convolution_bound(10_000)
    ok = (
        worst <= vfields.LEDGER_TOLERANCE
        and conv["stabilization_gap"] <= 1e-6
        and t.elapsed < 5.0
    )
    record_acceptance(
        9, "ledger-combinatorics", ok,
        f"round-trip worst {worst:.2f} of {vfields.LEDGER_TOLERANCE} rounding units, "
        f"sup {conv['sup']:.4f} at k={conv['arg_k']}, "
        f"gap {conv['stabilization_gap']:.1e}; {t.elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_picard_surrogate_contraction(record_acceptance):
    with Timer() as t:
        prm = SoftPotentialParams(gamma=-1.0, s=0.5)
        grid = VelocityGrid(256, 4.0)
        rp = solver.RegularizedProblem(
            eps=0.1, prm=prm, a0=1.0, grid=grid, t_final=0.2, steps=64
        )
        state = solver.picard_iterate(np.exp(-grid.v_bracket_sq), rp, n_max=30)
        # solver order on the scalar reduction
        a = 1.3
        ref = solver.integrate_scalar(0.7, a, 1.0, 16384, lambda t_: math.cos(3 * t_))
        errs = [
            abs(solver.integrate_scalar(0.7, a, 1.0, n, lambda t_: math.cos(3 * t_)) - ref)
            for n in (64, 128, 256)
        ]
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = (
        state.contraction
        and state.fixed_point_residual <= 1e-6
        and all(1.8 <= sl <= 2.2 for sl in slopes)
        and t.elapsed < 120.0
    )
    record_acceptance(
        10, "picard-contraction", ok,
        f"contraction {state.contraction} (T={state.problem.t_final}, retries {state.retries}), "
        f"residual {state.fixed_point_residual:.1e}, order slopes {[round(s, 2) for s in slopes]}; {t.elapsed:.1f}s",
    )
    assert ok


def test_criterion_11_moments(record_acceptance):
    with Timer() as t:
        grid = VelocityGrid(1024, 16.0)
        v = grid.axis_points
        mom = solver.moments(grid, np.exp(-(v**2)), m0=1.0, m_cap=2.0, e_cap=1.0, h_cap=1.0)
        mass_ok = abs(mom.mass - math.sqrt(math.pi)) <= 1e-8
        energy_ok = abs(mom.energy - math.sqrt(math.pi) / 2.0) <= 1e-8
        # transported-only conservation
        tgrid = VelocityGrid(128, 4.0)
        rp = solver.RegularizedProblem(
            eps=0.0,
            prm=SoftPotentialParams(-1.0, 0.5),
            a0=1.0,
            grid=tgrid,
            t_final=0.5,
            steps=64,
            x_points=16,
        )
        base = np.exp(-tgrid.v_bracket_sq)
        g0 = np.array(
            [base * (1 + 0.2 * math.sin(2 * math.pi * m / 16)) for m in range(16)]
        )
        traj = solver.integrate(rp, g0)
        masses = solver.mass_series(rp, traj)
        drift = abs(masses[-1] - masses[0]) / rp.t_final
        transport_ok = drift <= 1e-10 * max(abs(masses[0]), 1.0)
        # constructed violators
        vac = solver.moments(grid, np.zeros(grid.shape), m0=1.0)
        hot = solver.moments(
            grid,
            np.exp(-(v**2) / 64.0),
            m0=0.1,
            m_cap=100.0,
            e_cap=1.0,
            h_cap=100.0,
        )
        flags_ok = (not vac.flags["mass_above_vacuum"]) and (
            not hot.flags["energy_bounded"]
        )
    ok = mass_ok and energy_ok and transport_ok and flags_ok and t.elapsed < 30.0
    record_acceptance(
        11, "moments", ok,
        f"mass {mom.mass:.9f}, energy {mom.energy:.9f}, transport drift {drift:.1e}; {t.elapsed:.1f}s",
    )
    assert ok
