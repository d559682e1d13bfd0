"""Soft-potential parameter bundle."""

from __future__ import annotations

from dataclasses import dataclass


class AdmissibilityError(ValueError):
    """Parameter pair outside the admissible soft-potential range."""


@dataclass(frozen=True)
class SoftPotentialParams:
    """Exponent pair (gamma, s) of a soft-potential collision kernel.

    Admissibility requires -3 < gamma < 0, 0 < s < 1 and gamma + 2s > -1.
    The derived exponent ``tau = 2s / (2 - gamma)`` drives every index
    formula downstream; it is exact for ``Fraction`` exponents.
    """

    gamma: float
    s: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise AdmissibilityError(f"s={self.s} outside (0, 1)")
        if not (-3.0 < self.gamma < 0.0):
            raise AdmissibilityError(f"gamma={self.gamma} outside (-3, 0)")
        if not (self.gamma + 2 * self.s > -1):  # exact for Fraction exponents
            raise AdmissibilityError(f"gamma + 2s = {self.gamma + 2 * self.s} <= -1")

    @property
    def tau(self) -> float:
        return 2 * self.s / (2 - self.gamma)
