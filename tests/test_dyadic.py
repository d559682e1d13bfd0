import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgl.dyadic import (
    BLOCK_REPORT_COLUMNS,
    _bridge,
    block_norms,
    block_report,
    block_sum,
    frequency_rings,
    max_freq_shell,
    max_phase_shell,
    phase_rings,
    phi,
    psi,
    ring_weight,
    shell_norms,
)
from kgl import dyadic
from kgl.corpus import standard_corpus
from kgl.grid import VelocityGrid, from_half_spectrum, half_spectrum, half_symbol, l2_norms
from kgl.multipliers import weighted_sobolev_norm
from kgl.params import SoftPotentialParams
from kgl.toy import ToyParams, evolve_toy
from tests import per_field
from tests.conftest import random_band_limited


def test_bump_values_at_origin():
    assert psi(np.array([0.0]))[0] == 1.0
    assert phi(np.array([0.0]))[0] == 0.0


def test_bump_ranges():
    xs = np.linspace(0, 10, 4001)
    for vals in (psi(xs), phi(xs)):
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0


def test_partition_of_unity_random_points():
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, 100.0, size=10_000)
    total = psi(xs) + sum(phi(xs / 2.0**j) for j in range(9))
    assert np.max(np.abs(total - 1.0)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    top=st.integers(min_value=0, max_value=20),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=64),
)
def test_partition_identity_up_to_the_last_ring(top, fractions):
    # psi(r) + sum_{j <= J} phi(2^-j r) telescopes to psi(2^-(J+1) r) = 1 for r <= 2^J
    r = np.array(fractions) * 2.0**top
    total = psi(r) + sum(phi(r / 2.0**j) for j in range(top + 1))
    assert np.max(np.abs(total - 1.0)) <= np.finfo(float).eps


def test_partition_example_at_two():
    x = np.array([2.0])
    psi2 = psi(x)[0]
    total = psi2 + phi(x)[0] + phi(x / 2.0)[0]
    assert psi2 == 0.0
    assert total == pytest.approx(1.0, abs=1e-12)


def test_ring_supports():
    xs = np.linspace(0, 12, 10_000)
    ring = phi(xs)
    assert np.all(ring[xs < 0.75] == 0.0)
    assert np.all(ring[xs > 8.0 / 3.0] == 0.0)


def test_ring_disjointness_two_apart():
    xs = np.linspace(0.0, 50.0, 10_000)
    prod = phi(xs) * phi(xs / 4.0)  # shells (0, 2)
    assert np.all(prod == 0.0)
    prod_psi = psi(xs) * phi(xs / 2.0)  # psi vs shell 1
    assert np.all(prod_psi == 0.0)


@settings(max_examples=200, deadline=None)
@given(
    inside=st.floats(min_value=0.0, max_value=1.0),
    outside=st.floats(min_value=4.0 / 3.0, max_value=1e300),
)
def test_psi_is_exactly_one_inside_and_zero_outside(inside, outside):
    r = np.array([inside, -inside, outside, -outside])
    assert psi(r).tolist() == [1.0, 1.0, 0.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(a=st.floats(min_value=0.9, max_value=1.5), b=st.floats(min_value=0.9, max_value=1.5))
def test_psi_is_non_increasing(a, b):
    lo, hi = psi(np.array([min(a, b), max(a, b)]))
    assert lo >= hi


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=1.0))
def test_psi_bridge_symmetry(x):
    # psi(1 + x/3) + psi(4/3 - x/3) = 1.  The two radii carry ~1 ulp of
    # rounding each and |psi'| <= 24, which allows up to ~50 eps here (26.5
    # measured on 2e6 points); the bridge itself at exactly symmetric
    # arguments (y and 1 - y, y >= 1/2, so 1 - y is exact) is held to 2 eps.
    eps = np.finfo(float).eps
    total = psi(np.array([1.0 + x / 3.0, 4.0 / 3.0 - x / 3.0])).sum()
    assert abs(total - 1.0) <= 64 * eps
    y = max(x, 1.0 - x)
    assert abs(_bridge(y) + _bridge(1.0 - y) - 1.0) <= 2 * eps


# per-shell oracles for the cached ring tables: every ring weight is
# evaluated by ring_weight where it is used


def _shell_norms_oracle(grid, f):
    coeff = np.fft.fftn(f.astype(complex), norm="ortho")
    return np.array(
        [
            np.sqrt(grid.spacing)
            * np.linalg.norm((coeff * ring_weight(grid.eta_abs, j)).ravel())
            for j in range(-1, max_freq_shell(grid) + 1)
        ]
    )


def _initial_blocks_oracle(grid, f0, p, floor):
    """(j, k, ||block||) of every block of a real f0 whose law-predicted norm
    at ``p.t_final``, exp(-t 2^(2sj) 2^(gamma k)) ||block||, is at or above ``floor``."""
    eta_half = grid.eta_abs[: grid.points_per_axis // 2 + 1]
    out = []
    for k in range(-1, max_phase_shell(grid) + 1):
        gh = np.fft.rfft(f0 * ring_weight(grid.v_abs, k))
        for j in range(-1, max_freq_shell(grid) + 1):
            wj = ring_weight(eta_half, j)
            b = np.fft.irfft(wj * gh, grid.points_per_axis)
            nb = np.sqrt(grid.spacing) * float(np.linalg.norm(b.ravel()))
            rate = 2.0 ** (2.0 * p.prm.s * max(j, 0)) * 2.0 ** (p.prm.gamma * max(k, 0))
            if math.exp(-p.t_final * rate) * nb >= floor:
                out.append((j, k, nb))
    return out


@pytest.mark.parametrize("grid", [VelocityGrid(256, 8.0)])
def test_ring_tables_match_the_per_shell_oracle_bit_for_bit(grid):
    rng = np.random.default_rng(21)
    f = np.exp(-grid.v_bracket_sq) * (1.0 + 0.3 * rng.standard_normal(grid.shape))
    # block and shell norms take the real-transform path, so they hold to
    # rounding: per_field.BLOCK_ATOL times the field's norm, absolute
    atol = per_field.BLOCK_ATOL * l2_norms(grid, f)
    want = per_field.block_norms(grid, f.astype(complex))
    got = block_norms(grid, f)
    assert np.max(np.abs(got - want)) <= atol
    got = shell_norms(grid, f)
    assert np.max(np.abs(got - _shell_norms_oracle(grid, f))) <= atol
    p = ToyParams(
        prm=SoftPotentialParams(gamma=-1.0, s=0.5), a0=1.0, t_final=1.0, grid=grid, steps=16
    )
    traj = evolve_toy(f, p)
    got = list(zip(traj.block_j.tolist(), traj.block_k.tolist(), traj.block_norms.tolist()))
    assert got
    assert got == _initial_blocks_oracle(grid, f, p, floor=1e-12)


def test_ring_tables_are_built_once_per_grid(grid1d, monkeypatch):
    calls = []
    monkeypatch.setattr(dyadic, "psi", lambda r: calls.append(1) or psi(r))
    phase_rings.cache_clear()
    frequency_rings.cache_clear()
    f = np.exp(-grid1d.v_bracket_sq)
    first = block_norms(grid1d, f)
    assert calls
    calls.clear()
    second = block_norms(grid1d, f * 2.0)
    assert not calls
    assert np.array_equal(second, 2.0 * first)


def test_ring_tables_are_read_only(grid1d):
    for table in (
        phase_rings(grid1d),
        frequency_rings(grid1d),
    ):
        with pytest.raises(ValueError):
            table[0, 0] = 0.5


@pytest.mark.parametrize(
    "grid",
    [
        VelocityGrid(512, 12.0),
        VelocityGrid(1024, 16.0),
        VelocityGrid(8, 0.75),
        # largest radius just above a power of two, where the candidate top
        # ring rounds to 0: |v| up to 16.5 and 16.48, |eta| up to 32.00008
        VelocityGrid(1024, 16.5),
        VelocityGrid(1024, 16.48),
        VelocityGrid(64, 3.14159),
    ],
    ids=lambda g: f"d1-N{g.points_per_axis}-L{g.half_width:g}",
)
def test_outermost_rings_meet_the_grid_and_the_rows_sum_to_one(grid):
    # ring s >= 0 is nonzero only on 2^s < r < 2^s * 8/3: the outermost ring
    # is nonzero at some grid radius, and a ring wider than the radial
    # spacing of the grid holds some grid radius
    tables = (
        (phase_rings(grid), grid.spacing),
        (frequency_rings(grid), np.pi / grid.half_width),
    )
    for table, spacing in tables:
        assert np.all(np.sum(table, axis=0) == 1.0)
        meets = np.any(table.reshape(len(table), -1) != 0.0, axis=1)
        wide = 2.0 ** np.arange(-1, len(table) - 1) * 5.0 / 3.0 > spacing
        assert meets[-1] and np.all(meets[wide])


def test_shell_norms_of_a_stack_are_those_of_its_members(grid1d):
    rng = np.random.default_rng(7)
    u = np.array([random_band_limited(grid1d, rng) for _ in range(3)])
    stacked = shell_norms(grid1d, u)
    assert stacked.shape == (3, max_freq_shell(grid1d) + 2)
    for f, row in zip(u, stacked):
        np.testing.assert_allclose(row, shell_norms(grid1d, f), rtol=1e-14, atol=0)


def test_complex_fields_are_rejected(grid1d):
    # the norms transform real fields only, so an imaginary part is never dropped
    f = np.exp(-grid1d.v_bracket_sq) * (1.0 + 1j)
    for norms in (block_norms, shell_norms):
        with pytest.raises(TypeError):
            norms(grid1d, f)


def _phase_parts(grid, f):
    """psi(v) f, then phi(2^-k v) f for k = 0..kmax: the phase rings by pointwise product."""
    return phase_rings(grid) * f


def _frequency_parts(grid, f):
    """Delta_j f for j = -1..jmax: each frequency ring times the unitary fftn of f."""
    coeff = np.fft.fftn(f, norm="ortho")
    return [np.fft.ifftn(coeff * w, norm="ortho") for w in frequency_rings(grid)]


def test_phase_partition_telescopes(grid1d):
    # fields supported in |v| <= 2^K * 3/4 are reproduced by the partial sum
    v = grid1d.axis_points
    f = np.exp(-(v**2))
    total = np.sum(_phase_parts(grid1d, f), axis=0)
    assert np.max(np.abs(total - f)) <= 1e-12


def test_phase_projection_inner_support(grid1d):
    v = grid1d.axis_points
    f = np.where(np.abs(v) <= 0.5, 1.0, 0.0)
    # rows 1.. are the rings k >= 0
    assert np.all(l2_norms(grid1d, _phase_parts(grid1d, f)[1:]) == 0.0)


def test_phase_almost_orthogonality(grid1d):
    rng = np.random.default_rng(4)
    kmax = max_phase_shell(grid1d)
    # overlap-count oracle: pointwise sum of squared ring weights in [1/2, 1]
    v = np.linspace(0, grid1d.half_width, 20_000)
    sq = psi(v) ** 2 + sum(phi(v / 2.0**k) ** 2 for k in range(kmax + 2))
    assert np.all(sq <= 1.0 + 1e-12)
    assert np.all(sq >= 0.5 - 1e-12)
    for _ in range(100):
        f = random_band_limited(grid1d, rng)
        total = np.sum(l2_norms(grid1d, _phase_parts(grid1d, f)) ** 2)
        n2 = l2_norms(grid1d, f) ** 2
        assert n2 / 2.0 <= total <= 2.0 * n2


def test_frequency_single_mode_mapping():
    grid = VelocityGrid(256, np.pi)
    v = grid.axis_points
    f = np.exp(1j * v)  # |eta| = 1
    parts = _frequency_parts(grid, f)
    expected = phi(np.array([1.0]))[0]
    norm = per_field.l2_norm(grid, f)
    assert per_field.l2_norm(grid, parts[1]) == pytest.approx(expected * norm, rel=1e-12)
    # 2^-3 < 3/4: outside ring 3, only FFT rounding survives
    assert per_field.l2_norm(grid, parts[4]) <= 1e-15 * norm


def test_frequency_reconstruction(grid1d):
    rng = np.random.default_rng(9)
    for _ in range(50):
        f = random_band_limited(grid1d, rng)
        total = sum(_frequency_parts(grid1d, f))
        err = np.max(np.abs(total - f)) / max(np.max(np.abs(f)), 1e-300)
        assert err <= 1e-10


def test_frequency_disjoint_projections(grid1d):
    # projections compose by multiplying their rings; rings 2 and 4 are disjoint
    rng = np.random.default_rng(10)
    f = random_band_limited(grid1d, rng)
    rings = frequency_rings(grid1d)
    twice = np.fft.ifftn(np.fft.fftn(f, norm="ortho") * rings[3] * rings[5], norm="ortho")
    assert per_field.l2_norm(grid1d, twice) == 0.0


def test_block_sum_homogeneity(grid1d, gaussian_half):
    g = gaussian_half
    once, doubled = block_sum(block_norms(grid1d, np.array([g, 2.0 * g])), 1.0, 0.5)
    assert doubled == pytest.approx(2.0 * once, rel=1e-12)


def test_block_sum_against_plain_norm(grid1d):
    rng = np.random.default_rng(12)
    for _ in range(20):
        f = random_band_limited(grid1d, rng)
        norms = block_norms(grid1d, f)
        total = block_sum(norms, 0.0, 0.0)
        n = l2_norms(grid1d, f)
        # almost-orthogonality: two overlapping rings per index direction
        assert n / 2.0 <= total <= 2.0 * n


def test_block_vs_direct_norm_gaussian(grid1d, gaussian_half):
    norms = block_norms(grid1d, gaussian_half)
    direct = weighted_sobolev_norm(grid1d, gaussian_half, 1.0, 1.0 / 3.0)
    assert block_report(norms, 1.0, 1.0 / 3.0)[1]  # the tail converged
    assert 1.0 / 8.0 <= block_sum(norms, 1.0, 1.0 / 3.0) / direct <= 8.0


def test_block_report_rows(grid1d, gaussian_half):
    norms = block_norms(grid1d, gaussian_half)
    rows, _ = block_report(norms, 0.0, 0.0)
    assert len(rows) == norms.size and all(len(row) == len(BLOCK_REPORT_COLUMNS) for row in rows)
    total = sum(row[-1] for row in rows)
    assert block_sum(norms, 0.0, 0.0) == pytest.approx(np.sqrt(total), rel=1e-12)


def _block_report_oracle(norms, p, m):
    """Rows (j, k, block, 2^(2kp), 2^(2mj), contribution), k outer, one block at a time."""
    rows = []
    for k in range(-1, norms.shape[1] - 1):
        for j in range(-1, norms.shape[0] - 1):
            b, wk, wj = norms[j + 1, k + 1], 2.0 ** (2 * k * p), 2.0 ** (2 * m * j)
            rows.append((j, k, b, wk, wj, wk * wj * b * b))
    return rows


# The norms run reports member 0 of the corpus's block-norm matrices, whose
# products run over the whole stack, with whole-matrix powers; the oracle
# takes member 0 alone, with scalar powers.  They agree to rounding, and j
# and k are exact.
BLOCK_REPORT_RTOL = 1e-15


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("p,m", [(0.0, 0.0), (-0.5, 0.5), (1.0, 1.0 / 3.0)])
def test_block_report_matches_the_per_block_oracle(grid1d, p, m, seed):
    corpus = standard_corpus(grid1d, 16, seed)
    rows, tail_converged = block_report(block_norms(grid1d, corpus)[0], p, m)
    norms = block_norms(grid1d, corpus[0])
    want = _block_report_oracle(norms, p, m)
    assert [row[:2] for row in rows] == [row[:2] for row in want]
    assert all(type(j) is int and type(k) is int for j, k, *_ in rows)
    np.testing.assert_allclose(
        [row[2:] for row in rows], [row[2:] for row in want], rtol=BLOCK_REPORT_RTOL, atol=0
    )
    tail = sum(row[-1] for row in want if row[1] == norms.shape[1] - 2)
    assert tail_converged == (tail <= 1e-8 * sum(row[-1] for row in want))


def test_block_operator_composition(grid1d, gaussian_half):
    # the (2, 1) block: frequency ring 2 applied after phase ring 1
    phase = phase_rings(grid1d)[2]
    freq = frequency_rings(grid1d)[3]
    b = np.fft.ifftn(freq * np.fft.fftn(phase * gaussian_half, norm="ortho"), norm="ortho")
    real_path = from_half_spectrum(
        grid1d, half_symbol(freq) * half_spectrum(grid1d, phase * gaussian_half)
    )
    assert np.allclose(b, real_path, atol=1e-14)
    want = block_norms(grid1d, gaussian_half)[3, 2]
    assert abs(per_field.l2_norm(grid1d, b) - want) <= per_field.BLOCK_ATOL * l2_norms(
        grid1d, gaussian_half
    )

