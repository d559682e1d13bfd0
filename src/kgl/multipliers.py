"""Weighted Sobolev norms || <v>^p <D>^m u || of stacks of fields."""

from __future__ import annotations

import numpy as np

from kgl.grid import (
    VelocityGrid,
    from_half_spectrum,
    half_power,
    half_spectrum,
    half_symbol,
    l2_norms,
)


class MultiplierError(ValueError):
    pass


def weighted_sobolev_norms(grid: VelocityGrid, u: np.ndarray, pairs) -> np.ndarray:
    """|| <v>^p <D>^m u || for each (p, m) in ``pairs``, row i for pair i.

    ``u`` holds real fields on its last axis (a stack of them, or one);
    the result has shape ``(len(pairs),) + u.shape[:-1]``.  One real
    transform of ``u`` serves every pair: m = 0 norms are taken on the
    samples, p = 0 norms by Parseval on the half spectrum (all in one
    matrix product), and each other pair costs one inverse transform.
    """
    out = np.empty((len(pairs),) + u.shape[:-1])
    bracket_sq = half_symbol(grid.eta_bracket_sq)
    parseval = [i for i, (p, m) in enumerate(pairs) if p == 0 and m != 0]
    inverse = [i for i, (p, m) in enumerate(pairs) if p != 0 and m != 0]
    coeff = half_spectrum(grid, u) if parseval or inverse else None
    if parseval:
        symbols = np.array([bracket_sq ** pairs[i][1] for i in parseval])
        out[parseval] = np.moveaxis(np.sqrt(half_power(grid, coeff) @ symbols.T), -1, 0)
    buf = None  # one physical buffer for every remaining pair
    for i, (p, m) in enumerate(pairs):
        if i in parseval:
            continue
        if m == 0:
            buf = np.multiply(u, grid.v_bracket_sq ** (p / 2.0), out=buf)
        else:
            # no pair after the last inverse one reads the spectrum: scale it in place
            in_place = coeff if i == inverse[-1] else None
            buf = from_half_spectrum(
                grid, np.multiply(coeff, bracket_sq ** (m / 2.0), out=in_place), out=buf
            )
            buf *= grid.v_bracket_sq ** (p / 2.0)
        out[i] = l2_norms(grid, buf)
    return out


def weighted_sobolev_norm(grid: VelocityGrid, u: np.ndarray, p: float, m: float) -> np.ndarray:
    """|| <v>^p <D>^m u || of each field on the last axis of u."""
    return weighted_sobolev_norms(grid, u, [(p, m)])[0]
