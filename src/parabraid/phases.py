"""Exact arithmetic for the root-of-unity phases of parafermion braiding.

Every scalar phase that shows up in this package is of the form
exp(2*pi*i*k / (8*d)) for an integer k: integer powers of
omega = exp(2*pi*i/d), the half-integer powers entering the parity
operators, and the eighth-integer powers in the diagonal braid phases.
Tracking k modulo 8*d makes phase comparisons exact instead of
tolerance-based.

The half-power branch is fixed once: omega**(1/2) means exp(pi*i/d).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CyclotomicPhase:
    """The unit complex number exp(2*pi*i*num/(8*d)), with num reduced mod 8*d."""

    num: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.d}")
        object.__setattr__(self, "num", self.num % (8 * self.d))

    @property
    def modulus(self) -> int:
        return 8 * self.d

    @classmethod
    def omega(cls, d: int, power: int = 1) -> "CyclotomicPhase":
        """omega**power with omega = exp(2*pi*i/d)."""
        return cls(8 * power, d)

    def as_complex(self) -> complex:
        return cmath.exp(2j * math.pi * self.num / self.modulus)

    def __repr__(self) -> str:
        return f"CyclotomicPhase({self.num}/{self.modulus} of 2*pi, d={self.d})"


def phase_from_complex(z: complex, d: int, tol: float = 1e-9) -> CyclotomicPhase | None:
    """Quantize a unit complex number into the 8*d phase ring.

    Returns None when z is farther than tol from every ring element
    (including the case |z| != 1).
    """
    if abs(abs(z) - 1.0) > tol:
        return None
    k = round(cmath.phase(z) * 8 * d / (2 * math.pi))
    candidate = CyclotomicPhase(k, d)
    if abs(candidate.as_complex() - z) > tol:
        return None
    return candidate
