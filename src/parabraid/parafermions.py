"""Parafermion and parity operators from the Jordan-Wigner string construction.

2*n_pairs parafermion operators gamma_1 .. gamma_{2n} act on n_pairs qudits:

    gamma_{2i-1} = (prod_{j<i} X_j) Z_i
    gamma_{2i}   = omega**((d+1)/2) (prod_{j<=i} X_j) Z_i

They satisfy gamma_j**d = 1 and the ordered exchange relation
gamma_j gamma_k = omega**sgn(k-j) gamma_k gamma_j.  The parity of the pair
(gamma_i, gamma_{i+1}) is Lambda_i = omega**((d+1)/2) gamma_i gamma_{i+1}^dag,
a local monomial operator with spectrum {1, omega, .., omega**(d-1)}.

Every gamma_j and Lambda_i is an exact PauliLabel, made dense by to_matrix.
The build checks the defining relations exactly (a label power and a
symplectic product), so a convention bug fails the build rather than a
result downstream.  The check_* functions are the independent oracles: they
compose the monomial_support phased permutations by gathers, not labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .clifford import PauliLabel, symplectic_product
from .phases import CyclotomicPhase
from .systems import DenseOperator, QuditSystem, fourier_gate, monomial_diff, monomial_product, \
    monomial_support


@dataclass(frozen=True)
class ParafermionSystem:
    """Parafermions gamma_1 .. gamma_{2n} and parities Lambda_1 .. Lambda_{2n-1} on n qudits."""

    d: int
    n_pairs: int
    labels: tuple[PauliLabel, ...] = field(repr=False)
    parities: tuple[PauliLabel, ...] = field(repr=False)

    @property
    def n_modes(self) -> int:
        return 2 * self.n_pairs

    @property
    def system(self) -> QuditSystem:
        """The qudit register; the size bound applies to the arrays allocated over it, not to the labels."""
        return QuditSystem(self.d, self.n_pairs)

    @cached_property
    def parity_products(self) -> np.ndarray:
        """Read-only exact symplectic products sp(Lambda_i, Lambda_j), checked on first use: raises
        ValueError unless every Lambda_i**d = 1, every adjacent s in Lambda_i Lambda_(i+1) =
        omega**s Lambda_(i+1) Lambda_i is coprime to d, and every Lambda_i commutes with each
        gamma_j outside its pair, as every braid representation on the register assumes."""
        d = self.d
        identity = PauliLabel.identity(d, self.n_pairs)
        for i, lam in enumerate(self.parities, start=1):
            if lam ** d != identity:
                raise ValueError(f"Lambda_{i}**d is not the identity")
        lams = [lam.vector() for lam in self.parities]
        products = symplectic_product(lams, lams, d)
        for i, s in enumerate(np.diagonal(products, offset=1), start=1):
            if np.gcd(s, d) != 1:
                raise ValueError(f"Lambda_{i} Lambda_{i + 1} = omega**{s} Lambda_{i + 1} Lambda_{i}, "
                                 f"and {s} is not coprime to d = {d}")
        # U_i is a polynomial in Lambda_i, so it commutes with gamma_j whenever
        # Lambda_i does, for any coefficients: a zero symplectic product.
        local = symplectic_product(lams, [g.vector() for g in self.labels], d)
        for i, row in enumerate(local, start=1):
            far = [j for j in np.flatnonzero(row) + 1 if j not in (i, i + 1)]
            if far:
                raise ValueError(f"U_{i} fails to commute with gamma_{far[0]}")
        products.setflags(write=False)
        return products

    @cached_property
    def parity_powers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per parity, the monomial_support rows and roots of Lambda_i**m, m < d, each [d, dim].

        Built on first use, in one label_supports call, and kept with the system for every braid
        representation on it.
        """
        rows, roots = label_supports(self.system, [lam ** m for lam in self.parities for m in range(self.d)])
        shape = (len(self.parities), self.d, -1)
        return tuple(zip(rows.reshape(shape), roots.reshape(shape)))

    @cached_property
    def gamma_supports(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The monomial_support rows and roots of gamma_1 .. gamma_2n, built on first use."""
        return tuple(zip(*label_supports(self.system, self.labels)))

    @cached_property
    def parity_supports(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The monomial_support rows and roots of Lambda_1 .. Lambda_(2n-1), built on first use."""
        return tuple(zip(*label_supports(self.system, self.parities)))

    @cached_property
    def code_layout(self) -> tuple[tuple[PauliLabel, PauliLabel, PauliLabel], ...]:
        """(Z_L, X_L, stabilizer) of each logical qudit, one per parafermion quadruplet:
        Lambda_(4q-3), Lambda_(4q-2) and Lambda_(4q-3) Lambda_(4q-1)."""
        if self.n_modes % 4:
            raise ValueError(f"logical qudits need whole quadruplets, got {self.n_modes} parafermions")
        lam = self.parities  # lam[i] is Lambda_(i+1)
        return tuple((lam[i], lam[i + 1], lam[i] * lam[i + 2]) for i in range(0, self.n_modes - 1, 4))

    @cached_property
    def code_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only exponent rows (x|z) and phases of every X_L, then every Z_L, then
        every stabilizer: the code that logical_tableau restricts to."""
        z_l, x_l, stabilizers = zip(*self.code_layout)
        code = x_l + z_l + stabilizers
        vecs = np.array([label.vector() for label in code])
        phases = np.array([label.phase for label in code])
        vecs.setflags(write=False)
        phases.setflags(write=False)
        return vecs, phases

    def gamma(self, j: int) -> DenseOperator:
        """Dense gamma_j, 1-based."""
        if not 1 <= j <= self.n_modes:
            raise IndexError(f"parafermion index {j} out of range 1..{self.n_modes}")
        return self.labels[j - 1].to_operator()


def label_supports(system: QuditSystem, labels) -> tuple[np.ndarray, np.ndarray]:
    """The monomial_support rows and roots of every PauliLabel in one stacked call, [k, dim] each."""
    x, z = (np.array([getattr(label, f) for label in labels]).T[:, :, None] for f in "xz")  # [n, k, 1]
    return monomial_support(system, x, z, np.array([label.phase for label in labels])[:, None])


def build_parafermions(d: int, n_pairs: int) -> ParafermionSystem:
    """Construct the Jordan-Wigner parafermions and parities and check the algebra exactly.

    Builds no matrix, so no size bound applies.  Raises ValueError if some
    gamma_j**d is not the identity or some pair j < k fails
    gamma_j gamma_k = omega gamma_k gamma_j.
    """
    if d < 2 or n_pairs < 1:
        raise ValueError(f"need d >= 2 and at least one parafermion pair, got {d}, {n_pairs}")
    labels = []
    for i in range(n_pairs):
        z = tuple(int(q == i) for q in range(n_pairs))
        labels.append(PauliLabel(d, n_pairs, 0, tuple(int(q < i) for q in range(n_pairs)), z))
        labels.append(PauliLabel(d, n_pairs, d + 1, tuple(int(q <= i) for q in range(n_pairs)), z))
    identity = PauliLabel.identity(d, n_pairs)
    products = symplectic_product([g.vector() for g in labels], [g.vector() for g in labels], d)
    bad = np.triu(products != 1, k=1).any(axis=1) | [g ** d != identity for g in labels]
    if bad.any():
        raise ValueError(f"parafermion algebra violated at gamma_{np.argmax(bad) + 1}")
    pref = PauliLabel(d, n_pairs, d + 1, (0,) * n_pairs, (0,) * n_pairs)
    parities = tuple(pref * g * h.inverse() for g, h in zip(labels, labels[1:]))
    return ParafermionSystem(d, n_pairs, tuple(labels), parities)


def _power_defect(support, d: int) -> float:
    """max|A**d - 1|, with A**d composed by d - 1 gathers."""
    dim = len(support[0])
    return monomial_diff(reduce(monomial_product, [support] * d), (np.arange(dim), np.ones(dim)))


def _exchange_defect(a, b, scale: complex = 1) -> float:
    """max|A B - scale B A|, two gathers and one diff."""
    return monomial_diff(monomial_product(a, b), monomial_product(b, a), scale)


def check_defining_relations(sys_: ParafermionSystem) -> float:
    """Max residual over unitarity, gamma**d = 1 and the exchange relations."""
    d, dim = sys_.d, sys_.system.dim
    omega = CyclotomicPhase.omega(d).as_complex()
    gammas = sys_.gamma_supports
    # a phased permutation's Gram matrix is diagonal, with the row sums of |root|**2
    unitarity = max(float(np.max(np.abs(np.bincount(rows, np.abs(roots) ** 2, minlength=dim) - 1)))
                    for rows, roots in gammas)
    power = max(_power_defect(g, d) for g in gammas)
    exchange = max(_exchange_defect(gj, gk, omega) for j, gj in enumerate(gammas) for gk in gammas[j + 1:])
    return max(unitarity, power, exchange)


def parity_label(sys_: ParafermionSystem, i: int) -> PauliLabel:
    """Pair parity Lambda_i = omega**((d+1)/2) gamma_i gamma_{i+1}^dag, exactly."""
    if not 1 <= i <= sys_.n_modes - 1:
        raise IndexError(f"parity index {i} out of range 1..{sys_.n_modes - 1}")
    return sys_.parities[i - 1]


def parity(sys_: ParafermionSystem, i: int) -> DenseOperator:
    """Dense Lambda_i."""
    return parity_label(sys_, i).to_operator()


@dataclass(frozen=True)
class ParityAlgebraReport:
    far_commuting: float
    adjacent_exchange: float
    power_identity: float

    @property
    def max_residual(self) -> float:
        return max(self.far_commuting, self.adjacent_exchange, self.power_identity)


def check_parity_algebra(sys_: ParafermionSystem) -> ParityAlgebraReport:
    """Residuals of the parity exchange algebra.

    Distant parities commute; adjacent ones satisfy
    Lambda_i Lambda_j = omega**sgn(j-i) Lambda_j Lambda_i.
    """
    d = sys_.d
    omega = CyclotomicPhase.omega(d).as_complex()
    parities = sys_.parity_supports
    far = max((_exchange_defect(la, lb) for a, la in enumerate(parities)
               for lb in parities[a + 2:]), default=0.0)
    adjacent = max((_exchange_defect(la, lb, omega) for la, lb in zip(parities, parities[1:])),
                   default=0.0)
    power = max(_power_defect(lam, d) for lam in parities)
    return ParityAlgebraReport(far, adjacent, power)


@dataclass(frozen=True)
class ParityEigenbasis:
    """Eigenbasis of an odd-indexed parity Lambda_{2q-1} = X_q^dag.

    Column m of `vectors` is the single-qudit state
    |m> = (1/sqrt(d)) sum_k omega**(m*k) |k>, an eigenvector with
    eigenvalue omega**m.  The amplitude on k = 0 is real positive, which
    pins the phase convention used by the logical encoding.
    """

    d: int
    qudit: int
    vectors: np.ndarray

    def vector(self, m: int) -> np.ndarray:
        return self.vectors[:, m % self.d]


def parity_eigenbasis(sys_: ParafermionSystem, i: int) -> ParityEigenbasis:
    """Closed-form eigenbasis of Lambda_i for odd i: the Fourier columns, checked on the register by
    the algebra suite (parity_eigenbasis_action) and by every encoding's validation."""
    if not 1 <= i <= sys_.n_modes - 1:
        raise IndexError(f"parity index {i} out of range 1..{sys_.n_modes - 1}")
    if i % 2 == 0:
        raise ValueError("eigenbasis is only provided for odd-indexed parities")
    return ParityEigenbasis(sys_.d, qudit=(i + 1) // 2, vectors=fourier_gate(sys_.d).mat.copy())
