"""Pseudo-spectral laboratory for dyadic smoothing analysis of kinetic models.

Subpackages cover the periodic velocity grid and Fourier calculus
(:mod:`kgl.grid`, :mod:`kgl.multipliers`), the dyadic phase/frequency
decomposition (:mod:`kgl.dyadic`), numerical verification of the standalone
inequalities (:mod:`kgl.inequalities`), the model evolution with its sharp
regularity-index law (:mod:`kgl.toy`), exact vector-field algebra
(:mod:`kgl.vfields`), the regularized linear solver with Picard iteration
(:mod:`kgl.solver`), and the experiment runner (:mod:`kgl.cli`).

A field is a plain numpy array of its samples, of shape ``grid.shape``; a
stack of fields carries leading axes, ``(members,) + grid.shape``.  Library
functions take the samples together with their grid, either directly as
``(grid, u)`` or through a problem object that holds the grid.  The package
needs numpy alone.
"""

from kgl.params import SoftPotentialParams
from kgl.grid import VelocityGrid

__all__ = [
    "SoftPotentialParams",
    "VelocityGrid",
]

__version__ = "0.1.0"
