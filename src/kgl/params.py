"""Soft-potential parameter bundle and the regularity-index formulas."""

from __future__ import annotations

from dataclasses import dataclass, field


class AdmissibilityError(ValueError):
    """Parameter pair outside the admissible soft-potential range."""


@dataclass(frozen=True)
class SoftPotentialParams:
    """Exponent pair (gamma, s) of a soft-potential collision kernel.

    Admissibility requires -3 < gamma < 0, 0 < s < 1 and gamma + 2s > -1.
    The derived exponent ``tau = 2s / (2 - gamma)`` drives every index
    formula downstream.
    """

    gamma: float
    s: float
    strict: bool = field(default=True, compare=False)

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise AdmissibilityError(f"s={self.s} outside (0, 1)")
        if self.strict:
            if not (-3.0 < self.gamma < 0.0):
                raise AdmissibilityError(f"gamma={self.gamma} outside (-3, 0)")
            if not (self.gamma + 2 * self.s > -1):  # exact for Fraction exponents
                raise AdmissibilityError(
                    f"gamma + 2s = {self.gamma + 2 * self.s} <= -1"
                )

    @property
    def tau(self) -> float:
        return 2.0 * self.s / (2.0 - self.gamma)


def predicted_index(prm: SoftPotentialParams) -> float:
    """Sharp regularity-class index max{(2 - gamma)/(4 s), 1}."""
    return max((2.0 - prm.gamma) / (4.0 * prm.s), 1.0)


def inverse_power_law(p: float) -> SoftPotentialParams:
    """Exponents for an inverse repulsive potential 1/r^(p-1), p > 2.

    gamma = (p - 5)/(p - 1) and s = 1/(p - 1); soft potentials need p < 5.
    The combination gamma + 4s = 1 holds identically.
    """
    if p <= 2:
        raise AdmissibilityError(f"power-law exponent p={p} must exceed 2")
    return SoftPotentialParams(gamma=(p - 5.0) / (p - 1.0), s=1.0 / (p - 1.0))
