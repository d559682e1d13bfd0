"""Reference form of the toy march: the exact semigroup it approximates.

``exact_semigroup`` applies exp(-T A), A = m F^-1 <eta>^(2s) F, to a field
on a one-dimensional grid, with m = ``toy.effective_coefficient``.  A is m
times the symmetric positive matrix D = F^-1 <eta>^(2s) F, so it is similar
to the symmetric m^(1/2) D m^(1/2) = Q diag(lam) Q^T, and
exp(-T A) = m^(1/2) Q diag(exp(-T lam)) Q^T m^(-1/2).  It is built from the
coefficient, the symbol and a dense unitary DFT with one
``numpy.linalg.eigh``, not from the stepper's low-rank separation
(``toy.chebyshev_symbols``), so a fault in the stepper does not move it.
"""

from __future__ import annotations

import numpy as np

from kgl import toy


def exact_semigroup(p: toy.ToyParams, f0: np.ndarray) -> np.ndarray:
    """exp(-p.t_final A) f0 for the toy model of ``p`` on its one-dimensional grid."""
    grid = p.grid
    n = grid.points_per_axis
    dft = np.fft.fft(np.eye(n), axis=0, norm="ortho")  # dft @ g == fft(g, norm="ortho")
    sigma = (1.0 + grid.axis_frequencies**2) ** p.prm.s
    d = (dft.conj().T @ (sigma[:, None] * dft)).real  # real: the symbol is even in eta
    root = np.sqrt(toy.effective_coefficient(grid, p.prm.gamma))
    lam, q = np.linalg.eigh(root[:, None] * d * root[None, :])
    return root * (q @ (np.exp(-p.t_final * lam) * (q.T @ (f0 / root))))
