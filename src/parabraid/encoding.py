"""Logical qudits in parafermion quadruplets and identification of braid gates.

One logical qudit lives in the neutral-parity subspace (Lambda_1 Lambda_3 = 1)
of four parafermions; its basis states are |k>_L = |k>_1 (x) |d-k>_3 in the
Fourier-convention eigenbases of Lambda_1 and Lambda_3.  On this subspace

    T(Lambda_1) = Z,  T(Lambda_2) = X,  T(Lambda_3) = Zdag,

where T(A) = Edag A E is restriction by the encoding isometry E.  A second
quadruplet (parafermions 5..8) carries logical qudit B with the analogous
relations for Lambda_5, Lambda_6, Lambda_7.

The fixed eigenvector phase convention makes the braid gate identities exact
matrix equalities, e.g. T(U_1 U_2 U_1) equals the inverse Fourier gate times
the square of the leading diagonal phase, rather than holding only up to
basis choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .braiding import BraidRepresentation, BraidWord, canonical_word, compose_braid, diagonal_phases
from .clifford import CliffordTableau, PauliLabel, clifford_membership, extract_pauli_monomial
from .parafermions import parity, parity_eigenbasis, parity_label
from .phases import CyclotomicPhase, phase_from_complex
from .systems import (
    DenseOperator,
    QuditSystem,
    controlled_phase,
    controlled_shift,
    equal_up_to_phase,
    fourier_gate,
    pauli_monomial,
    pauli_x,
    pauli_z,
)

LEAKAGE_TOL = 1e-10
ENCODING_TOL = 1e-12
IDENTIFY_TOL = 1e-9


@dataclass(frozen=True)
class Encoding:
    """Isometry from n_logical qudits into a 2*n_logical-pair parafermion space."""

    d: int
    n_logical: int
    rep: BraidRepresentation
    isometry: np.ndarray
    logical_system: QuditSystem

    @property
    def full_dim(self) -> int:
        return self.isometry.shape[0]

    @property
    def logical_dim(self) -> int:
        return self.isometry.shape[1]


def build_encoding(d: int, n_logical: int, r: int = 0, sign: int = +1) -> Encoding:
    """Encode n_logical qudits, carrying the braid representation (r, sign).

    n_logical = 1 uses four parafermions, n_logical = 2 uses eight.
    """
    if n_logical not in (1, 2):
        raise ValueError(f"n_logical must be 1 or 2, got {n_logical}")
    rep = BraidRepresentation.from_fzc(d, 2 * n_logical, r, sign)
    bases = [parity_eigenbasis(rep.system, i) for i in range(1, rep.system.n_modes, 2)]
    logical_system = QuditSystem(d, n_logical)

    columns = []
    for logical_index in range(d**n_logical):
        digits = logical_system.digits(logical_index)
        vec = np.array([1.0], dtype=complex)
        for q, k in enumerate(digits):
            vec = np.kron(vec, bases[2 * q].vector(k))
            vec = np.kron(vec, bases[2 * q + 1].vector((d - k) % d))
        columns.append(vec)
    isometry = np.column_stack(columns)
    isometry.setflags(write=False)
    enc = Encoding(d, n_logical, rep, isometry, logical_system)
    _validate_encoding(enc)
    return enc


def _validate_encoding(enc: Encoding) -> None:
    e = enc.isometry
    gram_defect = float(np.max(np.abs(e.conj().T @ e - np.eye(enc.logical_dim))))
    if gram_defect > ENCODING_TOL:
        raise AssertionError(f"encoding columns not orthonormal: {gram_defect:.3e}")
    pairs = [(1, 2, 3)] if enc.n_logical == 1 else [(1, 2, 3), (5, 6, 7)]
    for q, (iz, ix, izd) in enumerate(pairs, start=1):
        z = pauli_z(enc.logical_system, q)
        x = pauli_x(enc.logical_system, q)
        for lam_index, target in ((iz, z), (ix, x), (izd, z.dag())):
            lam = parity(enc.rep.system, lam_index)
            restricted, leak = restrict(enc, lam)
            if restricted.max_diff(target) > ENCODING_TOL or leak > ENCODING_TOL:
                raise AssertionError(
                    f"parity {lam_index} does not restrict to the expected Pauli"
                )
    # Image lies in the neutral-parity eigenspace: (Lambda_1 Lambda_3) E = E.
    for iz, izd in ([(1, 3)] if enc.n_logical == 1 else [(1, 3), (5, 7)]):
        neutral = parity_label(enc.rep.system, iz) * parity_label(enc.rep.system, izd)
        defect = float(np.max(np.abs(neutral.to_matrix() @ e - e)))
        if defect > ENCODING_TOL:
            raise AssertionError(f"encoding leaves the neutral-parity subspace: {defect:.3e}")


def restrict(enc: Encoding, op: DenseOperator) -> tuple[DenseOperator, float]:
    """Restriction T(A) = Edag A E plus the leakage norm of A on the code space."""
    if op.dim != enc.full_dim:
        raise ValueError(f"operator dim {op.dim} does not match the full space {enc.full_dim}")
    e = enc.isometry
    restricted = DenseOperator(e.conj().T @ op.mat @ e, enc.d, enc.n_logical)
    # (I - E Edag) A E = A E - E T(A): the part of A E outside the code space.
    leakage = float(np.max(np.abs(op.mat @ e - e @ restricted.mat)))
    return restricted, leakage


def restrict_word(enc: Encoding, word: BraidWord) -> tuple[DenseOperator, float]:
    return restrict(enc, compose_braid(enc.rep, word))


@dataclass(frozen=True)
class LogicalGateID:
    """Result of matching a restricted braid against the gate dictionary."""

    name: str
    phase: complex | None
    phase_exact: CyclotomicPhase | None
    leakage: float
    matrix: DenseOperator

    def to_json(self, word_text: str) -> dict:
        return {
            "word": word_text,
            "gate": self.name,
            "phase_exponent_mod_8d": None if self.phase_exact is None else self.phase_exact.num,
            "leakage": self.leakage,
        }


def quadratic_phase_gate(enc: Encoding) -> DenseOperator:
    """Diagonal single-qudit gate with the braid phases on the diagonal."""
    phases = diagonal_phases(enc.rep, 1).phases
    return DenseOperator(np.diag(phases), enc.d, 1)


def gate_dictionary(enc: Encoding) -> list[tuple[str, DenseOperator]]:
    """Candidate gates, in the deterministic order used for identification."""
    d = enc.d
    sys_ = enc.logical_system
    entries: list[tuple[str, DenseOperator]] = [("identity", DenseOperator.identity(sys_))]
    if enc.n_logical == 1:
        for a in range(d):
            for b in range(d):
                if a == b == 0:
                    continue
                entries.append((f"X^{a}Z^{b}", pauli_monomial(sys_, (a,), (b,))))
        entries.append(("F", fourier_gate(d)))
        entries.append(("F_dagger", fourier_gate(d).dag()))
        entries.append(("quadratic_phase", quadratic_phase_gate(enc)))
    else:
        cx = controlled_shift(d)
        cz = controlled_phase(d)
        for a in range(1, d):
            entries.append((f"CX^{a}", cx.power(a)))
        for a in range(1, d):
            entries.append((f"CZ^{a}", cz.power(a)))
        for a1 in range(d):
            for b1 in range(d):
                for a2 in range(d):
                    for b2 in range(d):
                        if a1 == b1 == a2 == b2 == 0:
                            continue
                        entries.append((
                            f"X^{a1}Z^{b1}@X^{a2}Z^{b2}",
                            pauli_monomial(sys_, (a1, a2), (b1, b2)),
                        ))
    return entries


def identify_gate(enc: Encoding, word: BraidWord, tol: float = IDENTIFY_TOL) -> LogicalGateID:
    """Match the restriction of a braid word against the gate dictionary.

    The braid must preserve the computational subspace; excessive leakage is
    an error because the restricted matrix would not mean anything.
    """
    restricted, leakage = restrict_word(enc, word)
    if leakage > LEAKAGE_TOL:
        raise ValueError(f"braid word leaks out of the computational subspace: {leakage:.3e}")
    for name, candidate in gate_dictionary(enc):
        lam = equal_up_to_phase(restricted, candidate, tol)
        if lam is not None:
            return LogicalGateID(name, lam, phase_from_complex(lam, enc.d), leakage, restricted)
    return LogicalGateID("unknown", None, None, leakage, restricted)


@dataclass(frozen=True)
class PauliImage:
    """Conjugation image of one logical Pauli generator."""

    source: str
    label: PauliLabel | None
    phase: complex | None
    phase_exact: CyclotomicPhase | None
    matrix: DenseOperator


def pauli_conjugation(enc: Encoding, word: BraidWord, tol: float = IDENTIFY_TOL) -> list[PauliImage]:
    """Images T(U) P T(U)dag of the logical Pauli generators.

    Each image is decomposed as phase * X^a Z^b per logical qudit when it is
    a Pauli monomial; a non-Pauli image is reported with label None, which
    is the expected outcome for non-Clifford words.
    """
    restricted, leakage = restrict_word(enc, word)
    if leakage > LEAKAGE_TOL:
        raise ValueError(f"braid word leaks out of the computational subspace: {leakage:.3e}")
    sys_ = enc.logical_system
    names = ["X", "Z"] if enc.n_logical == 1 else ["X_A", "Z_A", "X_B", "Z_B"]
    gens = []
    for q in range(1, enc.n_logical + 1):
        gens.append(pauli_x(sys_, q))
        gens.append(pauli_z(sys_, q))

    out = []
    for name, gen in zip(names, gens):
        image = restricted @ gen @ restricted.dag()
        label = extract_pauli_monomial(image.mat, enc.d, enc.n_logical, tol)
        if label is None:
            out.append(PauliImage(name, None, None, None, image))
        else:
            lam = label.phase_value()
            out.append(PauliImage(name, label, lam, phase_from_complex(lam, enc.d), image))
    return out


EXPECTED_ENTANGLING_TABLE = {
    1: ((1, 1),),
    2: ((2, 1), (6, -2)),
    3: ((3, 1),),
    5: ((3, -2), (5, 1)),
    6: ((6, 1),),
    7: ((3, 2), (7, 1)),
}


@dataclass(frozen=True)
class ParityTableEntry:
    index: int
    matched: bool
    phase: complex | None
    residual: float


@dataclass(frozen=True)
class ParityTable:
    entries: dict[int, ParityTableEntry]
    neutral_a_residual: float
    neutral_b_residual: float

    @property
    def all_matched(self) -> bool:
        return all(e.matched for e in self.entries.values())


def parity_conjugation_table(rep: BraidRepresentation, word: BraidWord,
                             tol: float = IDENTIFY_TOL) -> ParityTable:
    """Conjugation of the parity operators by an eight-parafermion braid.

    Each image is compared, up to a recorded phase, against the expected
    parity monomial for the entangling braid; the two neutral-parity
    products must be fixed exactly, which is what preserving both logical
    subspaces means.
    """
    if rep.system.n_modes != 8:
        raise ValueError("the parity table is defined on an 8-parafermion system")
    u = compose_braid(rep, word)
    sys_ = rep.system
    labels = {i: parity_label(sys_, i) for i in range(1, 8)}
    entries = {}
    for index, factors in EXPECTED_ENTANGLING_TABLE.items():
        image = u @ labels[index].to_operator() @ u.dag()
        target = PauliLabel.identity(sys_.d, sys_.n_pairs)
        for which, power in factors:
            target = target * labels[which] ** power
        target = target.to_operator()
        lam = equal_up_to_phase(image, target, tol)
        if lam is None:
            residual = image.max_diff(target)
            entries[index] = ParityTableEntry(index, False, None, residual)
        else:
            residual = image.max_diff(lam * target)
            entries[index] = ParityTableEntry(index, True, lam, residual)
    neutral_a = (labels[1] * labels[3]).to_operator()
    neutral_b = (labels[5] * labels[7]).to_operator()
    res_a = (u @ neutral_a @ u.dag()).max_diff(neutral_a)
    res_b = (u @ neutral_b @ u.dag()).max_diff(neutral_b)
    return ParityTable(entries, res_a, res_b)


def entangling_words(d: int) -> dict[str, BraidWord]:
    """The canonical two-qudit braid words, plus the odd-d controlled shift."""
    words = {
        "S": canonical_word("S"),
        "S_dagger": canonical_word("S_dagger"),
        "T": canonical_word("T"),
    }
    if d % 2 == 1:
        words["CX"] = canonical_word("S_dagger").power((d + 1) // 2)
    return words


def certificate_r(d: int) -> int:
    """Representation parameter used for the group-generation certificates.

    At r = d // 2 the diagonal braid gate coincides (up to global phase)
    with the canonical reference phase gate.  That gives the full
    single-qudit Clifford group only once U3 is among the generators: the
    three exchanges U1, U2, U3 of one quadruplet close to the reference
    group, while U1 and U1 U2 U1 alone (the n_logical = 1 set of
    braid_generator_tableaux) miss the Pauli translations for odd d.  The
    choice of r matters too: the r = 0 diagonal is the symplectic-lift
    special point, where even all three exchanges miss the Pauli
    translations for odd d.
    """
    return d // 2


def braid_generator_tableaux(d: int, n_logical: int, r: int | None = None,
                             sign: int = +1) -> list[CliffordTableau]:
    """Conjugation tableaux of the braid-derived logical gate generators.

    n_logical = 1: only U1 (the diagonal braid gate) and the composite
    U1 U2 U1, i.e. the exchanges of parafermions 1-2-3.  U3, the exchange of
    parafermions 3 and 4, is left out, so for odd d the image contains no
    Pauli translations: only a 24- or 120-element lift of SL(2, Z_d) at
    d = 3, 5, not the full single-qudit Clifford group.
    n_logical = 2: both gates on each encoded qudit plus the entangling
    braid (the repeated inverse-S word for odd d, a single inverse S for
    even d).
    """
    if r is None:
        r = certificate_r(d)
    enc = build_encoding(d, n_logical, r=r, sign=sign)
    if n_logical == 1:
        words = [BraidWord.from_text("1"), canonical_word("F")]
    else:
        words = [
            BraidWord.from_text("1"),
            canonical_word("F"),
            BraidWord.from_text("5"),
            BraidWord.from_text("5 6 5"),
        ]
        if d % 2 == 1:
            words.append(canonical_word("S_dagger").power((d + 1) // 2))
        else:
            words.append(canonical_word("S_dagger"))
    out = []
    for word in words:
        restricted, leakage = restrict_word(enc, word)
        if leakage > LEAKAGE_TOL:
            raise ValueError(f"braid generator leaks: {leakage:.3e}")
        tab = clifford_membership(restricted)
        if tab is None:
            raise ValueError("braid generator is not a Clifford gate")
        out.append(tab)
    return out
