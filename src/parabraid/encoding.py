"""Logical qudits in parafermion quadruplets and identification of braid gates.

Logical qudit q lives on parafermions 4q-3..4q, in the neutral-parity
subspace of the stabilizer S_q = Lambda_{4q-3} Lambda_{4q-1}; its basis
states are |k>_L = |k> (x) |d-k> in the Fourier-convention eigenbases of
Lambda_{4q-3} and Lambda_{4q-1}.  On this subspace

    T(Lambda_{4q-3}) = Z_q,  T(Lambda_{4q-2}) = X_q,  T(Lambda_{4q-1}) = Zdag_q,

where T(A) = Edag A E is restriction by the encoding isometry E.

The fixed eigenvector phase convention makes the braid gate identities exact
matrix equalities, e.g. T(U_1 U_2 U_1) equals the inverse Fourier gate times
the square of the leading diagonal phase, rather than holding only up to
basis choice.

Clifford braids are restricted exactly too, by stabilizer bookkeeping on
their tableaux' integer rows: a word must map each S_q to stabilizers, and a
logical image omega**(phi/2) X_L**a Z_L**b (times stabilizers) restricts to
omega**(phi/2) X**a Z**b.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .braiding import BraidRepresentation, BraidWord, braid_tableau, canonical_word
from .clifford import CliffordTableau, PauliLabel, _times_power, gate_tableau, symplectic_product
from .constraints import FZCParams
from .parafermions import ParafermionSystem, build_parafermions, label_supports, parity_eigenbasis, \
    parity_label
from .phases import CyclotomicPhase, phase_from_complex
from .systems import DenseOperator, QuditSystem, monomial_support, size_bound

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


def build_encoding(d: int, n_logical: int, r: int = 0, sign: int = +1) -> Encoding:
    """Encode n_logical qudits, carrying the braid representation (r, sign).

    Qudit q uses parafermions 4q-3..4q, so the isometry has d**(2 n_logical)
    rows and d**n_logical columns, which the size bound counts before it is built.
    """
    rep = BraidRepresentation.from_fzc(d, 2 * n_logical, r, sign)
    # Column k of a qudit's block is |k> (x) |d-k> in the eigenbases of Lambda_(4q-3) and
    # Lambda_(4q-1), both the Fourier columns; qudit 1 is the most significant factor.
    f = parity_eigenbasis(rep.system, 1).vectors
    block = (f[:, None, :] * f[None, :, -np.arange(d) % d]).reshape(d * d, d)
    size_bound(d ** (2 * n_logical), d ** n_logical)
    isometry = reduce(np.kron, [block] * n_logical)
    isometry.setflags(write=False)
    enc = Encoding(d, n_logical, rep, isometry, QuditSystem(d, n_logical))
    _validate_encoding(enc)
    return enc


def _validate_encoding(enc: Encoding) -> None:
    """Raise unless E is an isometry, Z_L E = E Z_q, X_L E = E X_q and S_q E = E for every q;
    each parity acts on E's rows as the phased permutation of its label_supports row."""
    e, sys_, logical = enc.isometry, enc.rep.system, enc.logical_system
    gram_defect = float(np.max(np.abs(e.conj().T @ e - np.eye(logical.dim))))
    if gram_defect > ENCODING_TOL:
        raise AssertionError(f"encoding columns not orthonormal: {gram_defect:.3e}")
    rows, roots = label_supports(sys_.system, [label for labels in sys_.code_layout for label in labels])
    # the targets Z_q, X_q and 1 of every q, in the code parities' order, as phased permutations:
    # column k of E @ target is E's column target_rows[k] times target_roots[k]
    m = logical.n
    unit, zero = np.eye(m, dtype=int)[:, :, None], np.zeros((m, m, 1), dtype=int)
    x = np.concatenate([zero, unit, zero], axis=2).reshape(m, 3 * m, 1)
    z = np.concatenate([unit, zero, zero], axis=2).reshape(m, 3 * m, 1)
    target_rows, target_roots = monomial_support(logical, x, z)
    for c in range(3 * m):
        image = np.empty_like(e)
        image[rows[c]] = roots[c][:, None] * e
        defect = float(np.max(np.abs(image - e[:, target_rows[c]] * target_roots[c])))
        if defect > ENCODING_TOL:
            raise AssertionError(f"qudit {c // 3 + 1}: a code parity misses its target on E: {defect:.3e}")


def restrict_word(enc: Encoding, word: BraidWord) -> tuple[DenseOperator, float]:
    """Restriction T(U) = Edag U E of a braid word's unitary, plus the leakage norm of U on the
    code space; each letter acts on the d**n_logical columns of E, so U itself is never built."""
    e = image = enc.isometry
    for idx, exp in word.entries:
        image = enc.rep.apply(idx, exp, image)
    restricted = DenseOperator(e.conj().T @ image, enc.d, enc.n_logical)
    # (I - E Edag) U E = U E - E T(U): the part of U E outside the code space.
    leakage = float(np.max(np.abs(image - e @ restricted.mat)))
    return restricted, leakage


def logical_tableau(system: ParafermionSystem, physical: CliffordTableau) -> CliffordTableau:
    """Restriction of a physical conjugation tableau to the code, exactly.

    Raises ValueError, as the dense restriction does, when the word leaks:
    when an image of Z_L, X_L or S_q fails to commute with some S_q, or an
    S_q does not restrict to the identity.
    """
    d, m = system.d, len(system.code_layout)
    code_vecs, code_phases = system.code_rows
    vecs, phases = physical.apply_rows(code_vecs, code_phases)
    products = symplectic_product(vecs, code_vecs, d).reshape(3 * m, 3, m)
    if products[:, 2].any():
        raise ValueError("braid word leaks out of the computational subspace")
    # Z_L X_L = omega X_L Z_L reads off a, b in image = X_L**a Z_L**b * rest;
    # rest commutes with the whole code, so it is a phase times stabilizers,
    # each Xdag Xdag with phase exponent 0: its phase is that of T(image).
    a, b = -products[:, 1] % d, products[:, 0]
    for q in range(m):
        for c, k in ((m + q, -b[:, q]), (q, -a[:, q])):  # rest = image Z_L**-b X_L**-a
            vecs, phases = _times_power(vecs, phases, k % d, code_vecs[c], code_phases[c], d)
    logical = np.concatenate([a, b], axis=1)
    if logical[2 * m:].any() or phases[2 * m:].any():
        raise ValueError("braid word leaks out of the computational subspace")
    return CliffordTableau(d, m, logical[:2 * m], phases[:2 * m])


class LeakageError(ValueError):
    """A braid word moves code states out of the code space, by `leakage`: max|(I - E Edag) U E|."""

    def __init__(self, leakage: float):
        super().__init__(f"braid word leaks out of the computational subspace: {leakage:.3e}")
        self.leakage = leakage


@dataclass(frozen=True)
class LogicalGateID:
    """A braid word's logical gate and its measured global phase."""

    name: str
    phase_exact: CyclotomicPhase | None
    leakage: float

    def to_json(self, word_text: str) -> dict:
        phase = None if self.phase_exact is None else self.phase_exact.num
        return {"word": word_text, "gate": self.name, "phase_exponent_mod_8d": phase, "leakage": self.leakage}


def _candidate_tableaux(enc: Encoding) -> Iterator[tuple[str, CliffordTableau, complex]]:
    """The gates other than the Paulis, one at a time in identification order, with their column 0's
    entry at row 0: CX**a and CZ**a at two qudits; at one F, F_dagger and the quadratic phase gate
    diag(c_hat), U_1's restriction, with c_hat_0 = sum_m c_m / sqrt(d)."""
    d, rep, root = enc.d, enc.rep, 1 / math.sqrt(enc.d)
    for name in ("CX", "CZ") if enc.n_logical == 2 else ():
        gate = power = gate_tableau(name, d)
        for a in range(1, d):
            yield f"{name}^{a}", power, 1
            power = gate.compose(power)
    if enc.n_logical == 1:
        yield "F", gate_tableau("F", d), root
        yield "F_dagger", gate_tableau("F", d).inverse(), root
        u1 = logical_tableau(rep.system, braid_tableau(rep.system, rep.fzc, BraidWord(((1, 1),))))
        yield "quadratic_phase", u1, rep.coefficients.c.sum() * root


def identify_gate(enc: Encoding, word: BraidWord, tol: float = IDENTIFY_TOL) -> LogicalGateID:
    """Name a braid word's logical gate from its exact tableau, and measure its global phase.

    Equal tableaux are equal unitaries modulo phase, so the gate is the first of the identity,
    CX**a and CZ**a (two qudits), the Paulis, and F, F_dagger and the quadratic phase gate (one
    qudit) with the word's tableau.  The phase is the restriction's column 0 over the gate's,
    snapped to the 8d ring.  A leaking word raises LeakageError: its restriction means nothing.
    """
    restricted, leakage = restrict_word(enc, word)
    if leakage > LEAKAGE_TOL:
        raise LeakageError(leakage)
    d, n, rep = enc.d, enc.n_logical, enc.rep
    if n not in (1, 2):
        raise ValueError(f"gate identification covers 1 or 2 logical qudits, got {n}")
    tab = logical_tableau(rep.system, braid_tableau(rep.system, rep.fzc, word))
    if np.array_equal(tab.vecs, np.eye(2 * n)):
        # X**a Z**b sends X_j to omega**b_j X_j and Z_j to omega**(-a_j) Z_j; column 0 is 1 at row a
        b, a = tab.phases[:n] // 2, -tab.phases[n:] // 2 % d
        name = "@".join(f"X^{x}Z^{z}" for x, z in zip(a, b)) if tab.phases.any() else "identity"
        row, entry = enc.logical_system.index(a), 1
    else:
        row, (name, _, entry) = 0, next((c for c in _candidate_tableaux(enc) if c[1] == tab),
                                        ("unknown", None, None))
    phase = None if entry is None else phase_from_complex(restricted.mat[row, 0] / entry, d, tol)
    return LogicalGateID(name, phase, leakage)


EXPECTED_ENTANGLING_TABLE = {
    1: ((1, 1),),
    2: ((2, 1), (6, -2)),
    3: ((3, 1),),
    5: ((3, -2), (5, 1)),
    6: ((6, 1),),
    7: ((3, 2), (7, 1)),
}


@dataclass(frozen=True)
class ParityTable:
    """phases[i]: phase exponent (mod 2d) of the image of Lambda_i over its
    expected monomial, None when the image is another monomial."""

    phases: dict[int, int | None]
    neutral_parities_fixed: bool

    @property
    def all_matched(self) -> bool:
        return all(p is not None for p in self.phases.values())


def parity_conjugation_table(system: ParafermionSystem, params: FZCParams,
                             word: BraidWord) -> ParityTable:
    """Conjugation of the parity operators by an eight-parafermion FZC braid.

    Each image is compared, up to a recorded phase, against the expected
    parity monomial for the entangling braid; the two neutral-parity
    products must be fixed exactly, which is what preserving both logical
    subspaces means.
    """
    if system.n_modes != 8:
        raise ValueError("the parity table is defined on an 8-parafermion system")
    tab = braid_tableau(system, params, word)
    phases = {}
    for index, factors in EXPECTED_ENTANGLING_TABLE.items():
        target = PauliLabel.identity(system.d, system.n_pairs)
        for which, power in factors:
            target = target * parity_label(system, which) ** power
        image = tab.apply(parity_label(system, index))
        matched = image.vector() == target.vector()
        phases[index] = (image.phase - target.phase) % (2 * system.d) if matched else None
    fixed = all(tab.apply(s) == s for _, _, s in system.code_layout)
    return ParityTable(phases, fixed)


def controlled_shift_word(d: int) -> BraidWord:
    """The odd-d controlled-shift braid: the inverse S word repeated (d + 1) / 2 times."""
    if d % 2 == 0:
        raise ValueError("the CX braid word is defined for odd d")
    return canonical_word("S_dagger").power((d + 1) // 2)


def entangling_words(d: int) -> dict[str, BraidWord]:
    """The canonical two-qudit braid words, plus the odd-d controlled shift."""
    words = {name: canonical_word(name) for name in ("S", "S_dagger", "T")}
    if d % 2 == 1:
        words["CX"] = controlled_shift_word(d)
    return words


def certificate_r(d: int) -> int:
    """Representation parameter used for the group-generation certificates.

    At r = d // 2 the diagonal braid gate coincides (up to global phase)
    with the reference phase gate P.  With U3 among the generators, the
    three exchanges U1, U2, U3 of one quadruplet close to the reference group
    <P, F>.  That is the whole single-qudit Clifford group modulo phase only
    at odd d and d = 2; at even d >= 4 it is an index-(d/2)**2 subgroup,
    because P**d = Z**(d/2) up to phase leaves 4 of the d**2 Pauli
    translations.  U1 and U1 U2 U1 alone miss them for odd d (see
    braid_generator_tableaux).  The r = 0 diagonal is the symplectic-lift
    special point, where even all three exchanges miss them for odd d.
    """
    return d // 2


def braid_generator_tableaux(d: int, n_logical: int, r: int | None = None,
                             sign: int = +1) -> list[CliffordTableau]:
    """Conjugation tableaux of the braid-derived logical gate generators.

    On each encoded qudit q in turn, U_(4q-3) (the diagonal braid gate) and
    the Fourier word U_(4q-3) U_(4q-2) U_(4q-3); then, on each adjacent pair
    (q, q+1), the entangling braid (the repeated inverse-S word for odd d, a
    single inverse S for even d).  Every word is the qudit-1 or pair-(1, 2)
    word shifted by 4(q-1).  U_(4q-1), the exchange of parafermions 4q-1
    and 4q, is left out, so for odd d the n_logical = 1 image contains no
    Pauli translations: only a 24- or 120-element lift of SL(2, Z_d) at
    d = 3, 5, not the full single-qudit Clifford group.

    Computed with no matrix, for any n_logical: braid_tableau composes each
    word from the closed-form exchange law and logical_tableau restricts it
    to the code.
    """
    params = FZCParams(d, certificate_r(d) if r is None else r, sign)
    system = build_parafermions(d, 2 * n_logical)
    entangler = controlled_shift_word(d) if d % 2 == 1 else canonical_word("S_dagger")
    words = [word.shifted(4 * q) for q in range(n_logical)
             for word in (BraidWord.from_text("1"), canonical_word("F"))]
    words += [entangler.shifted(4 * q) for q in range(n_logical - 1)]
    return [logical_tableau(system, braid_tableau(system, params, word)) for word in words]
