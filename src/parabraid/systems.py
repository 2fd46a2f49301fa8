"""Dense operators on n-qudit spaces, generalized Paulis and the Fourier gate.

Basis convention, fixed for the whole package: the computational index of
an n-qudit state is k = sum_i k_i * d**(n-i), i.e. qudit 1 is the most
significant digit.  Every other module states its bases relative to this.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

import numpy as np

DEFAULT_TOL = 1e-10
SIZE_BOUND_ENV = "PARABRAID_SIZE_BOUND"
DEFAULT_SIZE_BOUND = 4096


class SizeBoundError(ValueError):
    """Raised when a requested space exceeds the configured desk-scale bound."""


def size_bound() -> int:
    """Current d**n cap; override with the PARABRAID_SIZE_BOUND env var."""
    raw = os.environ.get(SIZE_BOUND_ENV, str(DEFAULT_SIZE_BOUND))
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{SIZE_BOUND_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class QuditSystem:
    """n qudits of dimension d, total space dimension d**n."""

    d: int
    n: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.d}")
        if self.n < 1:
            raise ValueError(f"qudit count must be >= 1, got {self.n}")
        if self.d**self.n > size_bound():
            raise SizeBoundError(
                f"space dimension {self.d}**{self.n} exceeds the bound {size_bound()}"
            )

    @property
    def dim(self) -> int:
        return self.d**self.n

    def index(self, digits) -> int:
        """Computational index of a digit tuple (qudit 1 most significant)."""
        if len(digits) != self.n:
            raise ValueError(f"expected {self.n} digits, got {len(digits)}")
        k = 0
        for digit in digits:
            k = k * self.d + (digit % self.d)
        return k

    def digits(self, index: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            index, rem = divmod(index, self.d)
            out.append(rem)
        return tuple(reversed(out))


class DenseOperator:
    """A dense complex matrix acting on an n-qudit space of dimension d**n."""

    __slots__ = ("mat", "d", "n")

    def __init__(self, mat: np.ndarray, d: int, n: int):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {mat.shape}")
        if mat.shape[0] != d**n:
            raise ValueError(f"matrix dimension {mat.shape[0]} is not {d}**{n}")
        mat.setflags(write=False)
        self.mat = mat
        self.d = d
        self.n = n

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def identity(cls, system: QuditSystem) -> "DenseOperator":
        return cls(np.eye(system.dim), system.d, system.n)

    def _like(self, mat: np.ndarray) -> "DenseOperator":
        return DenseOperator(mat, self.d, self.n)

    def dag(self) -> "DenseOperator":
        return self._like(self.mat.conj().T)

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in operator product")
        return self._like(self.mat @ other.mat)

    def __mul__(self, scalar: complex) -> "DenseOperator":
        return self._like(self.mat * scalar)

    __rmul__ = __mul__

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        return self._like(self.mat - other.mat)

    def power(self, k: int) -> "DenseOperator":
        return self._like(np.linalg.matrix_power(self.mat, k))

    def max_diff(self, other: "DenseOperator") -> float:
        return float(np.max(np.abs(self.mat - other.mat)))

    def __repr__(self) -> str:
        return f"DenseOperator(dim={self.dim}, d={self.d}, n={self.n})"


def kron_all(mats) -> np.ndarray:
    return reduce(np.kron, mats)


def embed(system: QuditSystem, i: int, local: np.ndarray) -> DenseOperator:
    """Place a d**k x d**k block on qudits i..i+k-1 (1-based), identity elsewhere.

    A block whose size is not a power of d raises ValueError.
    """
    k = 1
    while system.d ** k < local.shape[0]:
        k += 1
    if system.d ** k != local.shape[0]:
        raise ValueError(f"block size {local.shape[0]} is not a power of d = {system.d}")
    if not 1 <= i <= system.n - k + 1:
        raise IndexError(f"a {k}-qudit block at qudit {i} does not fit in 1..{system.n}")
    left = np.eye(system.d ** (i - 1))
    right = np.eye(system.d ** (system.n - i - k + 1))
    return DenseOperator(kron_all([left, local, right]), system.d, system.n)


def embed_vector(system: QuditSystem, i: int, local: np.ndarray) -> np.ndarray:
    """Place a single-qudit vector, or a d x m block of them as columns, on qudit i (1-based),
    |0> on every other qudit."""
    if not 1 <= i <= system.n:
        raise IndexError(f"qudit index {i} out of range 1..{system.n}")
    ground = np.eye(system.d)[:, 0].reshape((-1,) + (1,) * (np.ndim(local) - 1))
    return kron_all([local if q == i else ground for q in range(1, system.n + 1)])


def _unit(system: QuditSystem, i: int) -> tuple[int, ...]:
    if not 1 <= i <= system.n:
        raise IndexError(f"qudit index {i} out of range 1..{system.n}")
    return tuple(int(q == i) for q in range(1, system.n + 1))


def pauli_x(system: QuditSystem, i: int) -> DenseOperator:
    """Cyclic shift X|k> = |k+1 mod d> on qudit i."""
    return pauli_monomial(system, _unit(system, i), (0,) * system.n)


def pauli_z(system: QuditSystem, i: int) -> DenseOperator:
    """Phase operator Z|k> = omega**k |k> on qudit i."""
    return pauli_monomial(system, (0,) * system.n, _unit(system, i))


def monomial_support(system: QuditSystem, x_exps, z_exps, phase: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Row and entry of each column of exp(i*pi*phase/d) prod_i X_i**x_i Z_i**z_i.

    Column k goes to the row with digits k_i + x_i mod d, with the 2d-th
    root of unity of exponent phase + 2 sum_i z_i k_i mod 2d.  Exponents and
    phase given as [k, 1] columns describe k monomials, and give [k, dim] stacks.
    """
    d, n, dim = system.d, system.n, system.dim
    if len(x_exps) != n or len(z_exps) != n:
        raise ValueError(f"exponent vectors need length n = {n}, got {len(x_exps)} and {len(z_exps)}")
    cols = np.arange(dim)
    rows, exps, place = 0 * cols, phase + 0 * cols, dim
    for a, b in zip(x_exps, z_exps):
        place //= d
        digit = cols // place % d
        rows = rows + (digit + a) % d * place
        exps = exps + 2 * b * digit
    return rows, np.exp(1j * np.pi * np.arange(2 * d) / d)[exps % (2 * d)]


def monomial_product(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, roots) of A B, for A and B given as monomial_support pairs: one gather."""
    (rows_a, roots_a), (rows_b, roots_b) = a, b
    return rows_a[rows_b], roots_a[rows_b] * roots_b


def monomial_diff(a, b, scale: complex = 1) -> float:
    """Dense max|A - scale B|: per column |e_a - scale e_b| where the rows agree, else the larger."""
    (rows_a, roots_a), (rows_b, roots_b) = a, b
    roots_b = scale * roots_b
    return float(np.max(np.where(rows_a == rows_b, np.abs(roots_a - roots_b),
                                 np.maximum(np.abs(roots_a), np.abs(roots_b)))))


def monomial_spectrum(a, d: int) -> np.ndarray:
    """Multiplicity of each eigenvalue omega**k of a monomial_support pair A with A**d = 1: the DFT
    (1/d) sum_m tr(A**m) omega**(-k m), the powers composed by d - 1 monomial_product gathers."""
    cols = np.arange(a[0].size)
    powers = accumulate([a] * (d - 1), monomial_product, initial=(cols, np.ones(cols.size)))
    traces = [roots[rows == cols].sum() for rows, roots in powers]
    k = np.arange(d)
    dft = np.exp(-2j * np.pi * (np.outer(k, k) % d) / d)
    return np.rint((dft @ traces).real / d).astype(int)


def pauli_monomial(system: QuditSystem, x_exps, z_exps, phase: int = 0) -> DenseOperator:
    """exp(i*pi*phase/d) prod_i X_i**x_i Z_i**z_i, built as the phased permutation it is."""
    rows, roots = monomial_support(system, x_exps, z_exps, phase)
    mat = np.zeros((system.dim, system.dim), dtype=complex)
    mat[rows, np.arange(system.dim)] = roots
    return DenseOperator(mat, system.d, system.n)


def fourier_gate(d: int) -> DenseOperator:
    """Qudit Fourier gate F[k, m] = omega**(k*m) / sqrt(d).

    Satisfies F X Fdag = Z and F Z Fdag = Xdag; reduces to the Hadamard
    gate at d = 2.
    """
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    k = np.arange(d)
    mat = np.exp(2j * np.pi * np.outer(k, k % d) / d) / math.sqrt(d)
    return DenseOperator(mat, d, 1)


def controlled_shift(d: int) -> DenseOperator:
    """Two-qudit gate |i, j> -> |i, i+j mod d> (control on the first qudit)."""
    mat = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            mat[i * d + (i + j) % d, i * d + j] = 1.0
    return DenseOperator(mat, d, 2)


def controlled_phase(d: int) -> DenseOperator:
    """Two-qudit gate |i, j> -> omega**(i*j) |i, j>."""
    i = np.arange(d * d) // d
    j = np.arange(d * d) % d
    return DenseOperator(np.diag(np.exp(2j * np.pi * i * j / d)), d, 2)


def equal_up_to_phase(a: DenseOperator, b: DenseOperator, tol: float = DEFAULT_TOL) -> complex | None:
    """Unit complex lambda with max|A - lambda*B| <= tol, or None.

    The candidate phase is read off at the largest-modulus entry of B so
    that near-zero entries never enter a division.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    flat_b = b.mat.ravel()
    idx = int(np.argmax(np.abs(flat_b)))
    pivot = flat_b[idx]
    if abs(pivot) <= tol:
        # b is numerically zero; equal only if a is too.
        return 1.0 + 0.0j if float(np.max(np.abs(a.mat))) <= tol else None
    lam = a.mat.ravel()[idx] / pivot
    if abs(lam) == 0.0:
        return None
    lam /= abs(lam)
    if float(np.max(np.abs(a.mat - lam * b.mat))) <= tol:
        return complex(lam)
    return None
