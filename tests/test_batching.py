"""A corpus as one (members,) + grid.shape array: oracles, transform counts,
memory and determinism of the stacked code paths."""

import filecmp
import tracemalloc

import numpy as np
import pytest

from kgl import corpus, dyadic, inequalities as ineq
from kgl.cli import DEFAULTS, ExperimentConfig, run
from kgl.grid import VelocityGrid
from kgl.multipliers import weighted_sobolev_norms
from tests import per_field

GRIDS = [VelocityGrid(256, 8.0)]
PAIRS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0 / 3.0), (-0.5, 0.5), (0.5, 0.5), (0.0, 1.0), (1.0, 0.0)]


def members(grid):
    """A small corpus."""
    return corpus.standard_corpus(grid, 12, seed=4)


def fields(u):
    """The members one at a time, as the complex arrays the oracles take."""
    return list(u.astype(complex))


@pytest.mark.parametrize("grid", [VelocityGrid(1024, 16.0), *GRIDS])
@pytest.mark.parametrize("size,seed", [(100, 0), (37, 5)])
def test_corpus_members_equal_the_per_member_builder_bit_for_bit(grid, size, seed):
    u = corpus.standard_corpus(grid, size, seed)
    assert u.dtype == np.float64 and u.shape == (size,) + grid.shape
    want = np.array(per_field.standard_corpus(grid, size, seed))
    assert not np.any(want.imag) and np.array_equal(u, want.real)
    fam = corpus.dilation_family(grid, grid.spacing, 8.0, 20)
    want = [f.real for f in per_field.dilation_family(grid, grid.spacing, 8.0, 20)]
    assert np.array_equal(fam, want)


@pytest.mark.parametrize("half_width", [16.0, 27.4263])
def test_band_limited_members_keep_the_half_nyquist_mode(half_width):
    # at L = 27.4263 the frequency of mode N/4 rounds one ulp above half the Nyquist
    grid = VelocityGrid(1024, half_width)
    spectra = np.abs(np.fft.rfft(corpus.band_limited(grid, np.random.default_rng(0), 4)))
    edge = grid.points_per_axis // 4
    assert np.all(spectra[:, edge] > 1e-6 * spectra.max(axis=1))
    assert np.all(spectra[:, edge + 1 :] <= 1e-12 * spectra.max())


@pytest.mark.parametrize("grid", GRIDS)
def test_weighted_norms_match_the_per_field_oracle(grid):
    u = members(grid)
    got = weighted_sobolev_norms(grid, u, PAIRS)
    assert got.shape == (len(PAIRS), len(u))
    want = np.array(
        [[per_field.weighted_sobolev_norm(grid, f, p, m) for f in fields(u)] for p, m in PAIRS]
    )
    np.testing.assert_allclose(got, want, rtol=per_field.NORM_RTOL, atol=0)
    # a single field is the stack of one
    single = weighted_sobolev_norms(grid, u[5], PAIRS)
    np.testing.assert_allclose(single, want[:, 5], rtol=per_field.NORM_RTOL, atol=0)


@pytest.mark.parametrize("grid", GRIDS)
def test_regularizer_triple_matches_the_per_field_oracle(grid):
    u = members(grid)
    theta = np.array([1e-3, 1e-2, 1e-1, 1.0])[np.arange(len(u)) % 4]
    w = ineq.verify_regularizer_bounds(grid, u, theta)
    want = np.array([per_field.regularizer_norms(grid, f, t) for f, t in zip(fields(u), theta)]).T
    rtol = per_field.NORM_RTOL
    np.testing.assert_allclose(w.extras["term_norms"], want[:3], rtol=rtol, atol=0)
    np.testing.assert_allclose(w.rhs, 3.0 * want[3], rtol=rtol, atol=0)
    assert np.all(w.passed)


def test_gagliardo_matches_the_per_field_oracle():
    grid = GRIDS[0]
    u = members(grid)
    for s in (0.25, 0.5, 0.9):
        got = ineq.gagliardo_hs_norm_sq(grid, u, s)
        want = [per_field.gagliardo_hs_norm_sq(grid, f, s) for f in fields(u)]
        np.testing.assert_allclose(got, want, rtol=per_field.NORM_RTOL, atol=0)


@pytest.mark.parametrize("grid", GRIDS)
def test_block_norms_match_the_per_field_oracle(grid):
    u = members(grid)
    got = dyadic.block_norms(grid, u)
    for f, blocks in zip(fields(u), got):
        want = per_field.block_norms(grid, f)
        assert np.max(np.abs(blocks - want)) <= per_field.BLOCK_ATOL * per_field.l2_norm(grid, f)


def _cfg(tmp_path, experiment, **overrides):
    return ExperimentConfig(experiment, dict(DEFAULTS[experiment], **overrides), 0, str(tmp_path))


@pytest.fixture
def fft_count(monkeypatch):
    """Calls of any numpy.fft function while the test runs."""
    calls = [0]
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls[0] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("experiment", ["verify-inequalities", "norms"])
def test_transform_count_does_not_grow_with_the_corpus(tmp_path, fft_count, experiment):
    counts = []
    for size in (100, 500):
        fft_count[0] = 0
        assert run(_cfg(tmp_path / str(size), experiment, corpus_size=size)).passed
        counts.append(fft_count[0])
    assert counts[0] == counts[1] > 0


# tracemalloc peaks of the per-field code these runs replaced (N = 1024)
PEAK_BUDGET_MB = {("verify-inequalities", 500): 25.2, ("norms", 200): 6.6}


@pytest.mark.parametrize("experiment,size", list(PEAK_BUDGET_MB))
def test_corpus_runs_stay_within_the_per_field_peak_memory(tmp_path, experiment, size):
    cfg = _cfg(tmp_path, experiment, corpus_size=size)
    tracemalloc.start()
    try:
        assert run(cfg).passed
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BUDGET_MB[experiment, size]


def test_corpus_runs_are_byte_identical_when_repeated(tmp_path):
    for name in ("a", "b"):
        run(_cfg(tmp_path / name / "vi", "verify-inequalities", corpus_size=40))
        run(_cfg(tmp_path / name / "norms", "norms", corpus_size=20))
    for artifact in ("vi/inequalities.json", "norms/norm_ratios.csv", "norms/block_report.csv"):
        assert filecmp.cmp(tmp_path / "a" / artifact, tmp_path / "b" / artifact, shallow=False)
