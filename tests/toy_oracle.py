"""Reference forms of the toy march: the exact semigroup it approximates, and
the march of every compared block on the full grid.

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

import math

import numpy as np

from kgl import toy
from kgl.dyadic import frequency_rings, phase_rings
from kgl.grid import half_symbol, l2_norms


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


def one_grid_blocks(f0: np.ndarray, p: toy.ToyParams) -> toy.ToyTrajectory:
    """``toy.evolve_toy`` with every compared block marched on the full grid.

    The same blocks are compared, but f0 and all of them are the rows of one
    stack on ``p.grid``, advanced by one stepper, so no block is subsampled
    and no coarse stepper enters.  The grouped march must reproduce f0 bit
    for bit and every rate ratio to within the spill it admits.
    """
    grid = p.grid
    rings = half_symbol(frequency_rings(grid))
    rows, blocks = [f0], []
    for k, wk in enumerate(phase_rings(grid), start=-1):
        projected = np.fft.irfft(rings * np.fft.rfft(f0 * wk), grid.points_per_axis)
        for j, (b, norm) in enumerate(zip(projected, l2_norms(grid, projected)), start=-1):
            predicted = p.t_final * toy.block_decay_rate(j, k, p.prm)
            if math.exp(-predicted) * norm >= toy.BLOCK_FLOOR:
                rows.append(b)
                blocks.append((j, k, norm, predicted))
    stepper = toy.ToyStepper(p)
    u = np.array(rows)
    norms = [l2_norms(grid, f0)]
    for _ in range(p.steps):
        u = stepper.step(u)
        norms.append(l2_norms(grid, u[0]))
    meta = np.array(blocks, dtype=float).reshape(-1, 4)
    measured = [
        -math.log(max(float(nb), 1e-300) / nb0) for nb, nb0 in zip(l2_norms(grid, u[1:]), meta[:, 2])
    ]
    return toy.ToyTrajectory(
        norms=np.array(norms),
        final=u[0].copy(),
        marched_grids=[(grid.points_per_axis, len(u), stepper.rank)],
        block_j=meta[:, 0].astype(int),
        block_k=meta[:, 1].astype(int),
        block_norms=meta[:, 2],
        measured_exponents=np.array(measured),
        predicted_exponents=meta[:, 3],
    )
