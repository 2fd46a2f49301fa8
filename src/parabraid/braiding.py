"""Braid operators built from coefficient vectors, and braid word composition.

The exchange of parafermions i and i+1 is represented by

    U_i = (1/sqrt(d)) sum_m c_m (Lambda_i)**m,

the most general unitary that commutes with every parafermion outside the
exchanged pair.  Words in the braid generators are kept in time order:
entry 0 of a BraidWord acts first, so the unitary of a word is the
right-to-left matrix product of its entries.  The compact text form used
by the CLI and fixtures is written in operator order instead (leftmost
factor applied last, the way products are usually typeset), and parsing
reverses it; both notations of the canonical entangling words are stored
below to keep the two conventions honest against each other.

For the quadratic-phase (FZC) family, with Lambda_i P = omega**s P Lambda_i,
U_i P U_i^dag = omega**(-s(s+2r+d)/2) P Lambda_i**(-s) for every Pauli label
P (phase exponent -s(s+2r+d) mod 2d), and the - sign family is the inverse
of the + family at -r.  braid_tableau composes this law, on the tableau's
integer rows, into the exact tableau of a word.  BraidRepresentation.apply,
one letter acting on a block of columns, is its oracle and the only path for
other coefficient vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import CoefficientVector, FZCParams, dft_prefactor, fzc_coefficients
from .clifford import CliffordTableau, _times_power, symplectic_product
from .parafermions import ParafermionSystem, build_parafermions, parity_eigenbasis, parity_label
from .phases import CyclotomicPhase, phase_from_complex
from .systems import DenseOperator, embed_vector, equal_up_to_phase, size_bound

BUILD_TOL = 1e-12


@dataclass(frozen=True)
class BraidWord:
    """A sequence of signed generator letters, entry 0 acting first in time."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for idx, exp in self.entries:
            if idx < 1:
                raise ValueError(f"generator index must be >= 1, got {idx}")
            if exp not in (+1, -1):
                raise ValueError(f"exponent must be +1 or -1, got {exp}")

    @classmethod
    def identity(cls) -> "BraidWord":
        return cls(())

    @classmethod
    def from_text(cls, text: str) -> "BraidWord":
        """Parse the operator-order text form, e.g. "4 3 | 5 4 6 5 | -3 -4".

        Tokens are signed generator indices; "-i" is the inverse generator;
        pipes are cosmetic.  The leftmost token is the last factor applied,
        so the parsed entries are the reversed token list.
        """
        tokens = [t for t in text.replace("|", " ").split() if t]
        ops = []
        for tok in tokens:
            val = int(tok)
            if val == 0:
                raise ValueError("generator index 0 is not valid")
            ops.append((abs(val), 1 if val > 0 else -1))
        return cls(tuple(reversed(ops)))

    def to_text(self) -> str:
        """Operator-order text form (inverse of from_text)."""
        return " ".join(str(idx * exp) for idx, exp in reversed(self.entries))

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple((idx, -exp) for idx, exp in reversed(self.entries)))

    def __mul__(self, later: "BraidWord") -> "BraidWord":
        """Concatenation in time: self acts first, then `later`."""
        return BraidWord(self.entries + later.entries)

    def power(self, k: int) -> "BraidWord":
        if k < 0:
            return self.inverse().power(-k)
        out = BraidWord.identity()
        for _ in range(k):
            out = out * self
        return out

    def shifted(self, k: int) -> "BraidWord":
        """The same word on the generators k higher: letter i becomes i + k."""
        return BraidWord(tuple((idx + k, exp) for idx, exp in self.entries))

    def max_index(self) -> int:
        return max((idx for idx, _ in self.entries), default=0)

    def __len__(self) -> int:
        return len(self.entries)


# Canonical entangling words, stored in both notations so an ordering bug in
# from_text shows up as a fixture mismatch rather than a wrong gate.
FOURIER_WORD_TEXT = "1 2 1"
ENTANGLING_S_TEXT = "4 3 | 5 4 6 5 | 5 4 6 5 | -3 -4"
ENTANGLING_S_DAGGER_TEXT = "4 3 | -5 -6 -4 -5 | -5 -6 -4 -5 | -3 -4"
CONTROLLED_PHASE_T_TEXT = "4 3 5 4 | 4 3 5 4"

CANONICAL_WORD_ENTRIES = {
    "F": ((1, 1), (2, 1), (1, 1)),
    "S": (
        (4, -1), (3, -1),
        (5, 1), (6, 1), (4, 1), (5, 1),
        (5, 1), (6, 1), (4, 1), (5, 1),
        (3, 1), (4, 1),
    ),
    "S_dagger": (
        (4, -1), (3, -1),
        (5, -1), (4, -1), (6, -1), (5, -1),
        (5, -1), (4, -1), (6, -1), (5, -1),
        (3, 1), (4, 1),
    ),
    "T": ((4, 1), (5, 1), (3, 1), (4, 1), (4, 1), (5, 1), (3, 1), (4, 1)),
}

CANONICAL_WORD_TEXTS = {
    "F": FOURIER_WORD_TEXT,
    "S": ENTANGLING_S_TEXT,
    "S_dagger": ENTANGLING_S_DAGGER_TEXT,
    "T": CONTROLLED_PHASE_T_TEXT,
}


def canonical_word(name: str) -> BraidWord:
    if name not in CANONICAL_WORD_TEXTS:
        raise KeyError(f"unknown canonical word {name!r}")
    word = BraidWord.from_text(CANONICAL_WORD_TEXTS[name])
    if word.entries != CANONICAL_WORD_ENTRIES[name]:
        raise AssertionError(f"canonical word fixtures disagree for {name!r}")
    return word


class BraidRepresentation:
    """Braid generators U_1 .. U_{2n-1} for one coefficient vector, acting on blocks of columns."""

    def __init__(self, system: ParafermionSystem, coefficients: CoefficientVector,
                 fzc: FZCParams | None = None):
        if coefficients.d != system.d:
            raise ValueError("coefficient vector dimension does not match the system")
        system.parity_products  # raises, once per register, unless its parity algebra holds
        # check_representation's residuals at s = 1; X**s is X relabelled by k -> s k, so the
        # Gram defect does not depend on s, and a NaN defect fails too
        self.weyl_residuals = _weyl_residuals(coefficients.c, 1)
        if not self.weyl_residuals[0] <= BUILD_TOL:
            raise ValueError(f"U_i not unitary: defect {self.weyl_residuals[0]:.3e}")
        self.system = system
        self.coefficients = coefficients
        self.fzc = fzc

    @classmethod
    def from_fzc(cls, d: int, n_pairs: int, r: int = 0, sign: int = +1) -> "BraidRepresentation":
        params = FZCParams(d, r, sign)
        return cls(build_parafermions(d, n_pairs), fzc_coefficients(params), fzc=params)

    def apply(self, i: int, exp: int, block: np.ndarray) -> np.ndarray:
        """U_i**exp @ block, U_i = sum_m c_m Lambda_i**m / sqrt(d): d scatters of block's rows
        along the powers' supports (exp = +1) or d gathers with conjugated entries (exp = -1)."""
        if not 1 <= i <= self.system.n_modes - 1:
            raise IndexError(f"generator index {i} out of range 1..{self.system.n_modes - 1}")
        rows, roots = self.system.parity_powers[i - 1]
        out = np.zeros(block.shape, dtype=complex)
        for m in range(self.system.d):
            entries = self.coefficients.c[m] * roots[m]
            if exp > 0:
                out[rows[m]] += entries[:, None] * block
            else:
                out += entries.conj()[:, None] * block[rows[m]]
        return out / math.sqrt(self.system.d)

    def generator(self, i: int) -> DenseOperator:
        """Dense U_i, applied to the identity."""
        eye = np.eye(*size_bound(self.system.system.dim, self.system.system.dim), dtype=complex)
        return DenseOperator(self.apply(i, +1, eye), self.system.d, self.system.n_pairs)


def _fourier_phases(c: np.ndarray) -> np.ndarray:
    """c_hat_k = sum_m c_m omega**(k m) / sqrt(d): U(Z) = sum_m c_m Z**m / sqrt(d) on |k>."""
    d = len(c)
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) @ c / math.sqrt(d)


def _weyl_residuals(c: np.ndarray, s: int) -> tuple[float, float]:
    """Max-norm Gram defect and Yang-Baxter residual of U(A) = sum_m c_m A**m / sqrt(d) on the
    d x d clock-shift pair A = Z, X**s, where Z X**s = omega**s X**s Z (s coprime to d)."""
    d = len(c)
    k = np.arange(d)
    ua = np.diag(_fourier_phases(c))
    ub = np.zeros((d, d), dtype=complex)
    ub[(k + s * k[:, None]) % d, k] = c[:, None] / math.sqrt(d)  # X**(s m) takes k to k + s m
    unitarity = max(float(np.max(np.abs(u @ u.conj().T - np.eye(d)))) for u in (ua, ub))
    return unitarity, float(np.max(np.abs(ua @ ub @ ua - ub @ ua @ ub)))


def compose_braid(rep: BraidRepresentation, word: BraidWord) -> DenseOperator:
    """Unitary of a braid word under the time-order convention: its letters applied to I."""
    out = np.eye(*size_bound(rep.system.system.dim, rep.system.system.dim), dtype=complex)
    for idx, exp in word.entries:
        out = rep.apply(idx, exp, out)
    return DenseOperator(out, rep.system.d, rep.system.n_pairs)


def braid_tableau(system: ParafermionSystem, params: FZCParams, word: BraidWord) -> CliffordTableau:
    """Exact conjugation tableau of a braid word's FZC unitary on the physical qudits.

    Each letter U_i**exp applies the exchange law to all image rows P at once:
    s = sp(Lambda_i, P), phase exponent -e s(s+2r+d), times Lambda_i**(-e s).
    """
    d, sign, rows = system.d, params.sign, 2 * system.n_pairs
    vecs, phases = np.eye(rows, dtype=np.int64), np.zeros(rows, dtype=np.int64)
    for idx, exp in word.entries:  # entry 0 acts first, so it conjugates first
        lam = parity_label(system, idx)
        lam_vec = np.array(lam.vector(), dtype=np.int64)
        e = exp * sign  # the - sign family conjugates like the inverse + family at -r
        s = symplectic_product(lam_vec, vecs, d)
        vecs, phases = _times_power(vecs, phases - e * s * (s + 2 * sign * params.r + d),
                                    (-e * s) % d, lam_vec, lam.phase, d)
    return CliffordTableau(d, system.n_pairs, vecs, phases)


@dataclass(frozen=True)
class RepresentationReport:
    unitarity: float
    yang_baxter: float
    overall_parity: float

    @property
    def max_residual(self) -> float:
        return max(self.unitarity, self.yang_baxter, self.overall_parity)


def check_representation(rep: BraidRepresentation) -> RepresentationReport:
    """Residuals of the braid-group relations, with no matrix larger than d x d.

    Adjacent parities satisfy Lambda**d = 1 and Lambda_i Lambda_(i+1) = omega**s Lambda_(i+1)
    Lambda_i with s coprime to d (system.parity_products), so they generate a copy of M_d(C)
    (Weyl 1928; Schwinger, "Unitary operator bases", PNAS 1960): unitarity and Yang-Baxter hold
    on the register iff they hold on the clock-shift pair (Z, X**s), kept at construction for
    s = 1 and evaluated here for any other s.  Locality, and with it far commutativity, is exact
    (system.parity_products); `overall_parity` counts the parities whose symplectic product with
    Lambda_1 Lambda_3 ... is nonzero.  Needs n_pairs >= 2.
    """
    sys_ = rep.system
    if sys_.n_pairs < 2:
        raise ValueError("need n_pairs >= 2 for the braid relation checks")
    products = sys_.parity_products
    residuals = [rep.weyl_residuals if s == 1 else _weyl_residuals(rep.coefficients.c, s)
                 for s in set(np.diagonal(products, offset=1))]
    unit, yb = (max(column) for column in zip(*residuals))
    # sp is bilinear, so a row sum over Lambda_1, Lambda_3, ... is the product with their product
    moved = np.count_nonzero(products[:, ::2].sum(axis=1) % sys_.d)
    return RepresentationReport(unit, yb, float(moved))


@dataclass(frozen=True)
class ConjugationResult:
    """Images of the exchanged pair under conjugation by U_i.

    For the + sign quadratic-phase family the dense images are compared with
    the exact images under braid_tableau (`residual` is the worst matrix
    mismatch), and their phases against the monomials of the law

        gamma_i     -> omega**(-r)   gamma_{i+1}
        gamma_{i+1} -> omega**(1-r)  gamma_i^dag (gamma_{i+1})**2

    are quantized into the exact ring.  For other coefficient vectors only
    the raw conjugated matrices are returned.
    """

    image_first: DenseOperator
    image_second: DenseOperator
    residual: float | None = None
    phase_first: CyclotomicPhase | None = None
    phase_second: CyclotomicPhase | None = None


def conjugation_action(rep: BraidRepresentation, i: int, tol: float = 1e-10) -> ConjugationResult:
    u = rep.generator(i)
    g1 = rep.system.gamma(i)
    g2 = rep.system.gamma(i + 1)
    img1 = u @ g1 @ u.dag()
    img2 = u @ g2 @ u.dag()
    if rep.fzc is None or rep.fzc.sign != +1:
        return ConjugationResult(img1, img2)
    d = rep.fzc.d
    labels = rep.system.labels
    exchange = braid_tableau(rep.system, rep.fzc, BraidWord(((i, +1),)))
    target1, target2 = (exchange.apply(g).to_operator() for g in labels[i - 1:i + 1])
    residual = max(img1.max_diff(target1), img2.max_diff(target2))
    lam1 = equal_up_to_phase(img1, g2, tol)
    lam2 = equal_up_to_phase(img2, (labels[i - 1].inverse() * labels[i] ** 2).to_operator(), tol)
    phase1 = phase_from_complex(lam1, d) if lam1 is not None else None
    phase2 = phase_from_complex(lam2, d) if lam2 is not None else None
    return ConjugationResult(img1, img2, residual, phase1, phase2)


@dataclass(frozen=True)
class DiagonalPhases:
    """Diagonal form of U_i on the eigenbasis of its own parity operator.

    phases[k] is the inverse DFT (1/sqrt(d)) sum_m c_m omega**(k*m); U_i
    multiplies the parity eigenvector |k> by phases[k].  For the + sign
    quadratic-phase family the identity phases[k] = conj(c_k) * phases[0]
    holds with phases[0] the closed form dft_prefactor: `prefactor` is the
    measured phases[0] quantized into the 8d ring (None off it), and both
    residuals are reported, the second against the closed form.
    """

    phases: np.ndarray
    eigenbasis_residual: float
    prefactor: CyclotomicPhase | None = None
    relation_residual: float | None = None
    prefactor_residual: float | None = None


def diagonal_phases(rep: BraidRepresentation, i: int = 1) -> DiagonalPhases:
    if i % 2 == 0:
        raise ValueError("diagonal form uses the odd-index parity eigenbasis")
    d = rep.system.d
    c = rep.coefficients.c
    phases = _fourier_phases(c)

    basis = parity_eigenbasis(rep.system, i)
    full = embed_vector(rep.system.system, basis.qudit, basis.vectors)
    worst = float(np.max(np.abs(rep.apply(i, +1, full) - full * phases)))

    if rep.fzc is None or rep.fzc.sign != +1:
        return DiagonalPhases(phases, worst)

    pref_residual = abs(phases[0] - dft_prefactor(rep.fzc).as_complex())
    relation = float(np.max(np.abs(phases - np.conj(c) * phases[0])))
    return DiagonalPhases(phases, worst, phase_from_complex(phases[0], d), relation, pref_residual)
