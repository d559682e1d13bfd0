import numpy as np
import pytest

from kgl.grid import VelocityGrid

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def record_acceptance():
    def _record(number: int, name: str, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        line = f"acceptance {number:2d} [{name}] {status} {detail}".rstrip()
        ACCEPTANCE_LINES.append(line)
        print(line)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid1d():
    return VelocityGrid(points_per_axis=1024, half_width=16.0)


@pytest.fixture(scope="session")
def grid1d_small():
    return VelocityGrid(points_per_axis=256, half_width=8.0)


@pytest.fixture(scope="session")
def gaussian_half(grid1d):
    """exp(-v^2/2) on the session grid."""
    v = grid1d.axis_points
    return np.exp(-(v**2) / 2.0)


def random_band_limited(grid, rng, band=0.4):
    amp = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    amp[grid.eta_abs > band * grid.nyquist] = 0.0
    return np.fft.ifftn(amp, norm="ortho").real
