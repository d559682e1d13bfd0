import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgl.corpus import standard_corpus
from kgl.dyadic import block_norms
from kgl.grid import (
    CONTAINER_MAGIC,
    MAX_GRID_SAMPLES,
    GridError,
    VelocityGrid,
    from_half_spectrum,
    half_power,
    half_spectrum,
    l2_norms,
    load_field,
    refine_field,
    save_field,
)
from tests import per_field


def _synthesized(u):
    """The samples a container holding the unitary transform of u reads back as."""
    return np.fft.ifftn(np.fft.fftn(u, norm="ortho"), norm="ortho").real


def test_grid_validation():
    with pytest.raises(GridError):
        VelocityGrid(100, 8.0)  # not a power of two
    with pytest.raises(GridError):
        VelocityGrid(4, 8.0)  # too small
    with pytest.raises(GridError):
        VelocityGrid(64, -1.0)


@settings(max_examples=200, deadline=None)
@given(log_n=st.integers(3, 6), half_width=st.floats(1e-3, 1e3))
def test_largest_radii_are_the_maxima_of_the_meshes(log_n, half_width):
    grid = VelocityGrid(2**log_n, half_width)
    assert grid.half_width == np.max(grid.v_abs)
    assert grid.eta_max == np.max(grid.eta_abs)


def test_dual_frequencies():
    g = VelocityGrid(64, np.pi)
    # eta_m = (pi / L) m, here L = pi so the frequencies are the integers
    freqs = np.sort(g.axis_frequencies)
    assert np.allclose(freqs, np.arange(-32, 32))
    assert g.nyquist == pytest.approx(32.0)


def test_round_trip():
    grid = VelocityGrid(64, 8.0)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(grid.shape)
    back = from_half_spectrum(grid, half_spectrum(grid, u))
    assert np.linalg.norm((back - u).ravel()) <= 1e-12 * np.linalg.norm(u.ravel())
    assert np.allclose(_synthesized(u), u, atol=1e-14)


def test_parseval(grid1d):
    rng = np.random.default_rng(1)
    u = rng.standard_normal(grid1d.shape)
    quad = l2_norms(grid1d, u)
    spec = np.sqrt(grid1d.spacing) * np.linalg.norm(np.fft.fftn(u, norm="ortho"))
    assert abs(quad - spec) <= 1e-12 * quad
    half = np.sqrt(np.sum(half_power(grid1d, half_spectrum(grid1d, u))))
    assert abs(quad - half) <= 1e-12 * quad


def test_refine_field_matches_the_per_field_oracle(grid1d_small):
    n = grid1d_small.points_per_axis
    u = standard_corpus(grid1d_small, 12, seed=2)
    u[0] = np.cos(np.pi * np.arange(n))  # all of it in the Nyquist mode
    fine = refine_field(grid1d_small, u)
    assert fine.shape == (12, 2 * n) and fine.dtype == np.float64
    want = np.array([per_field.refine(grid1d_small, f) for f in u])
    np.testing.assert_allclose(fine, want.real, rtol=0, atol=1e-14)
    np.testing.assert_allclose(fine[:, ::2], u, rtol=0, atol=1e-14)  # interpolates the samples
    assert np.array_equal(refine_field(grid1d_small, u[3]), fine[3])


def test_container_round_trip(tmp_path, grid1d_small):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid1d_small.shape)
    path = tmp_path / "field.kgl"
    save_field(grid1d_small, u, str(path))
    grid, g = load_field(str(path))
    assert grid == grid1d_small
    assert np.array_equal(g, _synthesized(u))
    raw = path.read_bytes()
    assert raw[:4] == b"KGL1"


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.kgl"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(GridError):
        load_field(str(path))


def test_container_rejects_non_finite_grid_and_payload(tmp_path):
    grid = VelocityGrid(8, 1.0)
    path = tmp_path / "f.kgl"
    save_field(grid, np.ones(8), str(path))
    good = path.read_bytes()
    header = len(CONTAINER_MAGIC) + 8
    for bad in (
        good[:header] + struct.pack("<d", np.inf) + good[header + 8 :],
        good[:-8] + struct.pack("<d", np.nan),
    ):
        path.write_bytes(bad)
        with pytest.raises(GridError):
            load_field(str(path))


def _load_or_grid_error(path, data: bytes):
    """Load ``data`` as a container, (grid, samples); None if it is rejected with GridError.

    The path is unlinked first: writing a new file is cheap, while truncating
    one that holds data can wait on the filesystem for tens of milliseconds.
    """
    path.unlink(missing_ok=True)
    path.write_bytes(data)
    try:
        return load_field(str(path))
    except GridError:
        return None


@pytest.fixture(scope="module")
def container_path(tmp_path_factory):
    return tmp_path_factory.mktemp("container") / "field.kgl"


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([8, 16]),
    half_width=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_container_round_trip_and_truncation(container_path, n, half_width, seed):
    grid = VelocityGrid(n, half_width)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.shape)
    save_field(grid, u, str(container_path))
    data = container_path.read_bytes()
    header = len(CONTAINER_MAGIC) + struct.calcsize("<IId")
    assert data[:header] == CONTAINER_MAGIC + struct.pack("<IId", 1, n, half_width)  # axis count 1
    raw = np.frombuffer(data[header:], dtype="<f8")
    assert np.array_equal(raw[0::2] + 1j * raw[1::2], np.fft.fftn(u, norm="ortho").ravel())
    loaded_grid, g = _load_or_grid_error(container_path, data)
    assert loaded_grid == grid
    assert g.dtype == np.float64 and np.array_equal(g, _synthesized(u))
    # every strict prefix is truncated: each header prefix, and payload cuts
    # (the payload is checked by its length only, so a sample of cuts covers it)
    cuts = list(range(header + 1)) + list(rng.integers(header, len(data), 8))
    for cut in cuts:
        assert _load_or_grid_error(container_path, data[:cut]) is None


_VALID_HEADER = CONTAINER_MAGIC + struct.pack("<IId", 1, 8, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=200).map(lambda b: CONTAINER_MAGIC + b),
        st.binary(min_size=128, max_size=128).map(lambda b: _VALID_HEADER + b),
    )
)
def test_container_garbage_loads_or_raises_grid_error(container_path, data):
    loaded = _load_or_grid_error(container_path, data)
    if loaded is not None:
        assert np.all(np.isfinite(loaded[1]))


def test_container_past_the_sample_bound_is_rejected_by_its_header(tmp_path):
    path = tmp_path / "big.kgl"
    past = 2 * MAX_GRID_SAMPLES
    path.write_bytes(CONTAINER_MAGIC + struct.pack("<IId", 1, past, 1.0))
    with pytest.raises(GridError, match=rf"^{past} samples exceed the {MAX_GRID_SAMPLES} "):
        load_field(str(path))
    # within the bound the header passes, and the missing payload is what is refused
    path.write_bytes(CONTAINER_MAGIC + struct.pack("<IId", 1, MAX_GRID_SAMPLES, 1.0))
    with pytest.raises(GridError, match="^payload has 0 bytes"):
        load_field(str(path))


@pytest.mark.parametrize("axes", [2, 3])
def test_container_naming_more_than_one_axis_is_refused(tmp_path, axes):
    # a whole container of 8 points per axis, as a grid with that many axes would write it
    path = tmp_path / "f.kgl"
    header = struct.pack(f"<{axes + 1}Id", axes, *[8] * axes, 1.0)
    path.write_bytes(CONTAINER_MAGIC + header + bytes(16 * 8**axes))
    with pytest.raises(GridError, match=rf"^container names {axes} axes; the velocity grid has one$"):
        load_field(str(path))


def test_loaded_fields_are_real_and_feed_the_block_norms(tmp_path):
    grid = VelocityGrid(256, 8.0)
    u = np.exp(-grid.v_bracket_sq)
    path = tmp_path / "gauss.kgl"
    save_field(grid, u, str(path))
    loaded_grid, g = load_field(str(path))
    assert loaded_grid == grid and g.dtype == np.float64
    np.testing.assert_allclose(g, u, rtol=0, atol=1e-15)
    np.testing.assert_allclose(block_norms(grid, g), block_norms(grid, u), rtol=0, atol=1e-15)


def test_container_of_complex_samples_is_rejected(tmp_path):
    grid = VelocityGrid(8, 1.0)  # the grid of _VALID_HEADER
    path = tmp_path / "f.kgl"
    with pytest.raises(GridError, match="complex"):
        save_field(grid, np.ones(8, dtype=complex), str(path))
    assert not path.exists()
    real = np.cos(np.pi * grid.axis_points)
    # an imaginary part above 1e-12 of the real peak is rejected, a rounding-sized one is not
    for samples, ok in ((1j * real, False), (real * (1 + 2e-12j), False), (real * (1 + 1e-14j), True)):
        coeff = np.fft.fft(samples, norm="ortho")
        pairs = np.column_stack([coeff.real, coeff.imag]).astype("<f8")
        path.write_bytes(_VALID_HEADER + pairs.tobytes())
        if ok:
            assert load_field(str(path))[1].dtype == np.float64
        else:
            with pytest.raises(GridError, match="complex samples"):
                load_field(str(path))


def test_save_field_rejects_samples_off_the_grid(tmp_path, grid1d_small):
    path = tmp_path / "f.kgl"
    with pytest.raises(GridError, match=r"\(128,\).*\(256,\)"):
        save_field(grid1d_small, np.ones(128), str(path))
    assert not path.exists()


def test_container_whose_samples_overflow_raises_grid_error(container_path):
    # finite coefficients whose synthesis exceeds the float64 range
    payload = np.zeros(16)
    payload[[0, 2]] = 1.7e308
    data = _VALID_HEADER + payload.astype("<f8").tobytes()
    assert _load_or_grid_error(container_path, data) is None
