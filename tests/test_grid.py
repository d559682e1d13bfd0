import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgl.grid import (
    CONTAINER_MAGIC,
    FieldConsistencyError,
    GridError,
    SpectralField,
    VelocityGrid,
    load_field,
    save_field,
    scale_pointwise,
    scale_spectrum,
)


def test_grid_validation():
    with pytest.raises(GridError):
        VelocityGrid(4, 64, 8.0)
    with pytest.raises(GridError):
        VelocityGrid(1, 100, 8.0)  # not a power of two
    with pytest.raises(GridError):
        VelocityGrid(1, 4, 8.0)  # too small
    with pytest.raises(GridError):
        VelocityGrid(1, 64, -1.0)


def test_dual_frequencies():
    g = VelocityGrid(1, 64, np.pi)
    # eta_m = (pi / L) m, here L = pi so the frequencies are the integers
    freqs = np.sort(g.axis_frequencies)
    assert np.allclose(freqs, np.arange(-32, 32))
    assert g.nyquist == pytest.approx(32.0)


@pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 16)])
def test_round_trip_all_dimensions(d, n):
    grid = VelocityGrid(d, n, 8.0)
    rng = np.random.default_rng(0)
    f = SpectralField.from_samples(grid, rng.standard_normal(grid.shape))
    assert f.round_trip_error() <= 1e-12
    g = SpectralField.from_coefficients(grid, f.coefficients)
    assert np.allclose(g.samples, f.samples, atol=1e-14)


def test_parseval(grid1d):
    rng = np.random.default_rng(1)
    f = SpectralField.from_samples(grid1d, rng.standard_normal(grid1d.shape))
    quad = f.l2_norm()
    spec = np.sqrt(grid1d.cell_volume) * np.linalg.norm(f.coefficients)
    assert abs(quad - spec) <= 1e-12 * quad


def test_from_pair_rejects_mismatch(grid1d_small):
    rng = np.random.default_rng(2)
    samples = rng.standard_normal(grid1d_small.shape)
    good = np.fft.fftn(samples, norm="ortho")
    SpectralField.from_pair(grid1d_small, samples, good)
    with pytest.raises(FieldConsistencyError):
        SpectralField.from_pair(grid1d_small, samples, good + 1e-6)


def test_container_round_trip(tmp_path, grid1d_small):
    rng = np.random.default_rng(3)
    f = SpectralField.from_samples(grid1d_small, rng.standard_normal(grid1d_small.shape))
    path = tmp_path / "field.kgl"
    save_field(f, str(path))
    g = load_field(str(path))
    assert g.grid == f.grid
    assert np.allclose(g.coefficients, f.coefficients, atol=0)
    raw = path.read_bytes()
    assert raw[:4] == b"KGL1"


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.kgl"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(GridError):
        load_field(str(path))


def test_container_round_trip_2d(tmp_path):
    grid = VelocityGrid(2, 16, 4.0)
    rng = np.random.default_rng(4)
    f = SpectralField.from_samples(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "field2d.kgl"
    save_field(f, str(path))
    g = load_field(str(path))
    assert g.grid == f.grid
    assert np.allclose(g.samples, f.samples, atol=1e-14)


def test_field_arrays_are_read_only(grid1d_small):
    rng = np.random.default_rng(5)
    raw = rng.standard_normal(grid1d_small.shape) + 0j
    f = SpectralField.from_samples(grid1d_small, raw)
    raw[0] = 7.0  # the field owns a copy of its input
    assert f.samples[0] != 7.0
    g = SpectralField.from_coefficients(grid1d_small, f.coefficients) * 2.0
    for arr in (f.samples, f.coefficients, g.samples, g.coefficients):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_container_rejects_non_finite_grid_and_payload(tmp_path):
    grid = VelocityGrid(1, 8, 1.0)
    path = tmp_path / "f.kgl"
    save_field(SpectralField.from_samples(grid, np.ones(8)), str(path))
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
    """Load ``data`` as a container; None if it is rejected with GridError."""
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
    d=st.integers(1, 3),
    n=st.sampled_from([8, 16]),
    half_width=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_container_round_trip_and_truncation(container_path, d, n, half_width, seed):
    grid = VelocityGrid(d, n, half_width)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    save_field(SpectralField.from_coefficients(grid, coeff), str(container_path))
    data = container_path.read_bytes()
    g = _load_or_grid_error(container_path, data)
    assert g.grid == grid
    assert np.array_equal(g.coefficients, coeff)
    # every strict prefix is truncated: each header prefix, and payload cuts
    # (the payload is checked by its length only, so a sample of cuts covers it)
    header = len(CONTAINER_MAGIC) + 4 * (d + 1) + 8
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
    f = _load_or_grid_error(container_path, data)
    if f is not None:
        assert np.all(np.isfinite(f.coefficients))


coefficient = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-1e-6),
)


@settings(max_examples=100, deadline=None)
@given(a=coefficient, b=coefficient, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_scale_pointwise_and_spectrum_are_linear(a, b, seed):
    grid = VelocityGrid(1, 64, 4.0)
    rng = np.random.default_rng(seed)
    f, g = (
        SpectralField.from_samples(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        for _ in range(2)
    )
    weight = rng.standard_normal(grid.shape)
    size = (abs(a) * f.l2_norm() + abs(b) * g.l2_norm()) * np.max(np.abs(weight))
    for scale in (scale_pointwise, scale_spectrum):
        combined = scale(a * f + b * g, weight)
        separate = a * scale(f, weight) + b * scale(g, weight)
        assert (combined - separate).l2_norm() <= 1e-13 * size
