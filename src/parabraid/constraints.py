"""Coefficient vectors of the braid ansatz and their constraint residuals.

A braid operator for one parafermion pair is determined by d complex
coefficients c_0 .. c_{d-1} (indices mod d) through
U = (1/sqrt(d)) sum_m c_m Lambda**m.  Unitarity of U requires

    for all r:  sum_m c_m conj(c_{m+r}) = d * delta_{r,0}

and the Yang-Baxter relation U_i U_{i+1} U_i = U_{i+1} U_i U_{i+1} requires

    for all k, m:  sum_r c_r c_{k-r} c_m omega**(m*r)
                 = sum_r c_r c_k c_{m-r} omega**(k*r).

Both residuals are reported in max-norm so tolerances do not depend on d.

The quadratic-phase family c_m = omega**(+-m(m+2r+d)/2) (a Frank-Zadoff-Chu
sequence for each r in Z_d and sign choice) solves both constraints for
every d; for d = 3 these 2d vectors are the complete nontrivial solution
set, while d = 4 additionally has a continuous one-parameter family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .phases import CyclotomicPhase

GAUGE_EPS = 1e-12


class CoefficientVector:
    """The d ansatz coefficients; index arithmetic is modulo d."""

    __slots__ = ("d", "c")

    def __init__(self, d: int, values):
        if d < 2:
            raise ValueError(f"dimension must be >= 2, got {d}")
        c = np.asarray(values, dtype=complex)
        if c.shape != (d,):
            raise ValueError(f"expected {d} coefficients, got shape {c.shape}")
        c.setflags(write=False)
        self.d = d
        self.c = c

    def at(self, m: int) -> complex:
        return complex(self.c[m % self.d])

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.c) ** 2))

    @property
    def is_gauge_fixed(self) -> bool:
        c0 = self.c[0]
        return abs(c0.imag) <= GAUGE_EPS and c0.real >= -GAUGE_EPS

    def distance(self, other: "CoefficientVector") -> float:
        if other.d != self.d:
            raise ValueError("dimension mismatch")
        return float(np.max(np.abs(self.c - other.c)))

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "re": [float(v) for v in self.c.real],
            "im": [float(v) for v in self.c.imag],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CoefficientVector":
        return cls(obj["d"], np.array(obj["re"]) + 1j * np.array(obj["im"]))

    def __repr__(self) -> str:
        entries = ", ".join(f"{v:.6g}" for v in self.c)
        return f"CoefficientVector(d={self.d}, [{entries}])"


def trivial_vector(d: int) -> CoefficientVector:
    """c = (sqrt(d), 0, .., 0): both constraints hold and U is the identity."""
    c = np.zeros(d, dtype=complex)
    c[0] = math.sqrt(d)
    return CoefficientVector(d, c)


def gauge_fix(vec: CoefficientVector) -> tuple[CoefficientVector, int]:
    """Rotate the global phase so the pivot coefficient is real nonnegative.

    The pivot is c_0 when |c_0| > 1e-12, else the lowest-index entry of
    non-negligible modulus.  Returns (fixed vector, pivot index).
    """
    pivot = 0
    if abs(vec.c[0]) <= GAUGE_EPS:
        nonzero = np.nonzero(np.abs(vec.c) > GAUGE_EPS)[0]
        if nonzero.size == 0:
            return CoefficientVector(vec.d, vec.c), 0
        pivot = int(nonzero[0])
    phase = vec.c[pivot] / abs(vec.c[pivot])
    return CoefficientVector(vec.d, vec.c / phase), pivot


@lru_cache(maxsize=None)
def _residual_tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of both residuals and the solver's forms for one d: built on first use, read-only."""
    idx = np.arange(d)
    plus = (idx[:, None] + idx[None, :]) % d                   # [r, m] -> (m + r) mod d
    diff = (idx[:, None] - idx[None, :]) % d                   # [k, r] -> (k - r) mod d
    omega = np.exp(2j * np.pi * (np.outer(idx, idx) % d) / d)  # [m, r] -> omega**(m r)
    for table in (plus, diff, omega):
        table.flags.writeable = False  # shared by every caller
    return plus, diff, omega


def unitarity_residuals(c: np.ndarray) -> np.ndarray:
    """Max over r of |sum_m c_m conj(c_{m+r}) - d*delta_{r,0}|, per row of a [..., d] stack.

    Both residuals reduce by summing products over the last axis, not by
    matmul, so a row of a stack gives the same bits as the vector alone.
    """
    plus, _, _ = _residual_tables(c.shape[-1])
    overlap = np.sum(c[..., None, :] * np.conj(c[..., plus]), axis=-1)  # [..., r]
    overlap[..., 0] -= c.shape[-1]
    return np.max(np.abs(overlap), axis=-1)


def yang_baxter_residuals(c: np.ndarray) -> np.ndarray:
    """Max over (k, m) of the two-sided cubic constraint mismatch, per row of a [..., d] stack.

    With S[k, m] = sum_r c_r c_{k-r} omega**(m r), the left side of
    equation (k, m) is L[k, m] = S[k, m] c_m and the right side is L[m, k].
    """
    _, diff, omega = _residual_tables(c.shape[-1])
    conv = c[..., None, :] * c[..., diff]                          # [..., k, r]: c_r c_{k-r}
    lhs = np.sum(conv[..., None, :] * omega, axis=-1) * c[..., None, :]  # [..., k, m]: S[k, m] c_m
    return np.max(np.abs(lhs - np.swapaxes(lhs, -1, -2)), axis=(-2, -1))


def unitarity_residual(vec: CoefficientVector) -> float:
    return float(unitarity_residuals(vec.c))


def yang_baxter_residual(vec: CoefficientVector) -> float:
    return float(yang_baxter_residuals(vec.c))


@dataclass(frozen=True)
class FZCParams:
    """One member of the 2d-element quadratic-phase solution family."""

    d: int
    r: int
    sign: int = +1

    def __post_init__(self) -> None:
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        object.__setattr__(self, "r", self.r % self.d)


def fzc_phase(params: FZCParams, m: int) -> CyclotomicPhase:
    """Exact phase of c_m = omega**(sign * m(m+2r+d)/2)."""
    num = params.sign * 4 * m * (m + 2 * params.r + params.d)
    return CyclotomicPhase(num, params.d)


def fzc_coefficients(params: FZCParams) -> CoefficientVector:
    """The quadratic-phase solution vector, evaluated exactly then converted.

    Periodicity c_{m+d} = c_m holds exactly in the phase ring, so reducing
    indices mod d is safe.
    """
    c = np.array([fzc_phase(params, m).as_complex() for m in range(params.d)])
    return CoefficientVector(params.d, c)


def all_fzc_params(d: int) -> list[FZCParams]:
    return [FZCParams(d, r, sign) for sign in (+1, -1) for r in range(d)]


def dft_prefactor(params: FZCParams) -> CyclotomicPhase:
    """Exact leading diagonal phase omega**(-r(r+d)/2 + d(1-d)/8) (sign +)."""
    if params.sign != +1:
        raise ValueError("closed-form prefactor is defined for the + sign family")
    r, d = params.r, params.d
    return CyclotomicPhase(-4 * r * (r + d) + d * (1 - d), d)


SYMMETRY_KINDS = ("global_phase", "twist", "conjugate_reverse")


def apply_symmetry(vec: CoefficientVector, which: str, phi: float = 0.0) -> CoefficientVector:
    """Apply one of the residual-preserving transforms, then re-gauge-fix.

    global_phase: c_n -> exp(i*phi) c_n
    twist:        c_n -> omega**n c_n
    conjugate_reverse: c_n -> conj(c_{-n})
    """
    d, c = vec.d, vec.c
    if which == "global_phase":
        new = c * np.exp(1j * phi)
    elif which == "twist":
        new = c * np.exp(2j * np.pi * np.arange(d) / d)
    elif which == "conjugate_reverse":
        new = np.conj(c[(-np.arange(d)) % d])
    else:
        raise ValueError(f"unknown symmetry {which!r}; expected one of {SYMMETRY_KINDS}")
    fixed, _ = gauge_fix(CoefficientVector(d, new))
    return fixed


def d4_family(phi: float, sign: int = +1) -> CoefficientVector:
    """Point on the continuous d = 4 solution family (1, e^{i phi}, +-1, -+e^{i phi})."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    e = np.exp(1j * phi)
    return CoefficientVector(4, [1.0, e, float(sign), -sign * e])


def d4_family_distance(vec: CoefficientVector) -> float:
    """Max-norm distance from a gauge-fixed d = 4 vector to the family."""
    if vec.d != 4:
        raise ValueError("family is defined for d = 4")
    c = vec.c
    best = math.inf
    for sign in (+1, -1):
        if abs(c[1]) > GAUGE_EPS:
            phi = math.atan2(c[1].imag, c[1].real)
        else:
            phi = 0.0
        candidate = d4_family(phi, sign)
        best = min(best, vec.distance(candidate))
    return best


# Complete nontrivial solution set for d = 3 (gauge c_0 = 1), in the closed
# form derived from the reduced constraint system: rows are
# (1, 1, w), (1, w2, w2), (1, w, 1), (1, w2, 1), (1, 1, w2), (1, w, w)
# with w = exp(2*pi*i/3), w2 = conj(w).
def d3_solution_table() -> list[CoefficientVector]:
    w = CyclotomicPhase.omega(3).as_complex()
    w2 = np.conj(w)
    rows = [
        (1, 1, w),
        (1, w2, w2),
        (1, w, 1),
        (1, w2, 1),
        (1, 1, w2),
        (1, w, w),
    ]
    return [CoefficientVector(3, row) for row in rows]
