import dataclasses

import numpy as np
import pytest

from parabraid import braiding, parafermions
from parabraid.braiding import (
    CANONICAL_WORD_ENTRIES,
    CANONICAL_WORD_TEXTS,
    BraidRepresentation,
    BraidWord,
    braid_tableau,
    canonical_word,
    check_representation,
    compose_braid,
    conjugation_action,
    diagonal_phases,
)
from parabraid.clifford import PauliLabel, clifford_membership
from parabraid.constraints import CoefficientVector, FZCParams, all_fzc_params, d4_family, \
    dft_prefactor, fzc_coefficients, trivial_vector
from parabraid.parafermions import (build_parafermions, check_defining_relations, check_parity_algebra,
                                    parity)
from parabraid.phases import CyclotomicPhase
from parabraid.systems import DenseOperator, monomial_product

from oracles import (braid_generator_dense_powers, commutator_with_monomial, dense_compose_braid,
                     dense_representation_residuals, eigenspace_scalars, is_unitary, kron_braid_generator)


def test_word_parsing_and_roundtrip():
    word = BraidWord.from_text("4 3 | 5 4 6 5 | -3 -4")
    assert word.entries[0] == (4, -1)       # rightmost token acts first
    assert word.entries[-1] == (4, 1)
    assert BraidWord.from_text(word.to_text()).entries == word.entries


def test_word_algebra():
    w = BraidWord.from_text("1 2")
    assert (w * w.inverse()).entries == ((2, 1), (1, 1), (1, -1), (2, -1))
    assert w.power(0).entries == ()
    assert w.power(-1).entries == w.inverse().entries
    assert w.max_index() == 2
    with pytest.raises(ValueError):
        BraidWord.from_text("0 1")


def test_canonical_word_fixtures_consistent():
    # both stored notations agree for every canonical word
    for name in CANONICAL_WORD_TEXTS:
        assert canonical_word(name).entries == CANONICAL_WORD_ENTRIES[name]


def test_majorana_braid_operator():
    rep = BraidRepresentation.from_fzc(2, 1, 0, +1)
    lam = parity(rep.system, 1)
    expected = (DenseOperator.identity(rep.system.system) - 1j * lam) * (1 / np.sqrt(2))
    assert rep.generator(1).max_diff(expected) < 1e-14


def test_generator_parity_commutation():
    rep = BraidRepresentation.from_fzc(3, 2, 0, +1)
    u1, u2 = rep.generator(1), rep.generator(2)
    (rows1, roots1), _, (rows3, roots3) = rep.system.parity_powers
    l1, l3 = (rows1[1], roots1[1]), (rows3[1], roots3[1])
    assert commutator_with_monomial(u1.mat, l1) < 1e-12
    assert commutator_with_monomial(u2.mat, monomial_product(l1, l3)) < 1e-12


def test_non_unitary_coefficients_rejected():
    with pytest.raises(ValueError):
        BraidRepresentation(build_parafermions(3, 2), CoefficientVector(3, [1, 1, 1]))
    with pytest.raises(ValueError, match="not unitary"):
        BraidRepresentation(build_parafermions(2, 2), CoefficientVector(2, [1, np.nan]))


def test_register_parity_algebra_checked_once(monkeypatch):
    # the 2d representations on one register share its parity symplectic matrix: the
    # products of the 5 parities with themselves are computed once, not once per vector
    d = 3
    system = build_parafermions(d, 3)
    calls = []
    original = parafermions.symplectic_product

    def counting(u, v, modulus):
        calls.append((len(u), len(v)))
        return original(u, v, modulus)

    for module in (parafermions, braiding):
        monkeypatch.setattr(module, "symplectic_product", counting)
    for params in all_fzc_params(d):
        check_representation(BraidRepresentation(system, fzc_coefficients(params), fzc=params))
    assert calls.count((5, 5)) == 1


def test_check_representation_reuses_the_construction_residuals(monkeypatch):
    # on a Jordan-Wigner register every adjacent s is 1, the exponent evaluated at construction
    rep = BraidRepresentation.from_fzc(4, 3, 1, +1)
    calls = []
    original = braiding._weyl_residuals
    monkeypatch.setattr(braiding, "_weyl_residuals", lambda c, s: calls.append(s) or original(c, s))
    report = check_representation(rep)
    assert calls == []
    assert (report.unitarity, report.yang_baxter) == rep.weyl_residuals


@pytest.mark.parametrize("d,n_pairs", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (5, 3),
                                       (6, 3)])
def test_representation_relations_fzc(d, n_pairs):
    for r in range(d):
        for sign in (+1, -1):
            rep = BraidRepresentation.from_fzc(d, n_pairs, r, sign)
            report = check_representation(rep)
            assert report.max_residual < 1e-10


def _random_unitary_vectors(d: int, count: int) -> list[CoefficientVector]:
    # |c_hat_k| = 1 at random phases: U_i is unitary, but in general no braid solution
    rng = np.random.default_rng(d)
    k = np.arange(d)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    return [CoefficientVector(d, dft @ np.exp(1j * rng.uniform(0, 2 * np.pi, d))) for _ in range(count)]


@pytest.mark.parametrize("n_pairs", [2, 3])
@pytest.mark.parametrize("d", range(2, 8))
def test_weyl_pair_residuals_match_dense_oracle(d, n_pairs):
    # the d x d residuals against the dense D x D relations, at every FZC point,
    # the trivial vector, a d = 4 family point and unitary non-solutions
    system = build_parafermions(d, n_pairs)
    fzc = [(fzc_coefficients(params), params) for params in all_fzc_params(d)]
    others = [(trivial_vector(d), None)] + ([(d4_family(0.7, -1), None)] if d == 4 else [])
    random = _random_unitary_vectors(d, 3)
    for vec, params in fzc + others + [(vec, None) for vec in random]:
        rep = BraidRepresentation(system, vec, fzc=params)
        report = check_representation(rep)
        dense = dense_representation_residuals(rep)
        assert abs(report.unitarity - dense["unitarity"]) <= 1e-12
        assert abs(report.yang_baxter - dense["yang_baxter"]) <= 1e-12
        assert report.overall_parity == 0.0
        assert max(dense["far_commutativity"], dense["locality"], dense["overall_parity"]) < 1e-12
        if any(vec is v for v in random):
            assert report.yang_baxter > 1e-10  # so the check can still fail


@pytest.mark.parametrize("d", (5, 7))
def test_weyl_pair_reads_the_exchange_exponent_from_the_labels(d):
    # Lambda_2 -> Lambda_2**2 keeps locality and makes s = 2 with both neighbours, where
    # the FZC vectors fail Yang-Baxter: the d x d residual at that s still equals the dense one
    system = build_parafermions(d, 2)
    lam = system.parities
    squared = dataclasses.replace(system, parities=(lam[0], lam[1] ** 2, lam[2]))
    for params in all_fzc_params(d):
        rep = BraidRepresentation(squared, fzc_coefficients(params))
        report = check_representation(rep)
        assert abs(report.yang_baxter - dense_representation_residuals(rep)["yang_baxter"]) <= 1e-12
        assert report.yang_baxter > 1e-10


@pytest.mark.parametrize("d,i,tamper,message", [
    (3, 2, lambda lam: PauliLabel.identity(3, 2), "not coprime"),    # s = 0 with both neighbours
    (4, 2, lambda lam: lam ** 2, "not coprime"),                     # s = 2, a zero divisor mod 4
    (3, 1, lambda lam: dataclasses.replace(lam, phase=lam.phase + 1), r"Lambda_1\*\*d"),  # -1 at d-th power
])
def test_tampered_parity_labels_rejected(d, i, tamper, message):
    # each tampered system keeps locality, so only the d x d reduction's precondition fails
    system = build_parafermions(d, 2)
    parities = list(system.parities)
    parities[i - 1] = tamper(parities[i - 1])
    tampered = dataclasses.replace(system, parities=tuple(parities))
    with pytest.raises(ValueError, match=message):
        BraidRepresentation(tampered, fzc_coefficients(FZCParams(d, 0, +1)))


@pytest.mark.parametrize("n_pairs", [2, 3])
@pytest.mark.parametrize("d", range(2, 8))
def test_generators_match_dense_powers_bitwise(d, n_pairs):
    # the generators scattered from the parity supports carry the same bits
    # as the sum of dense powers, at every FZC point
    system = build_parafermions(d, n_pairs)
    for r in range(d):
        for sign in (+1, -1):
            vec = fzc_coefficients(FZCParams(d, r, sign))
            rep = BraidRepresentation(system, vec)
            for i in range(1, system.n_modes):
                assert np.array_equal(rep.generator(i).mat, braid_generator_dense_powers(system, vec, i))


def test_parity_powers_built_once_per_system():
    system = build_parafermions(3, 2)
    assert "parity_powers" not in vars(system)
    BraidRepresentation(system, fzc_coefficients(FZCParams(3, 1, +1)))
    supports = system.parity_powers
    BraidRepresentation(system, fzc_coefficients(FZCParams(3, 2, -1)))
    assert system.parity_powers is supports
    assert system == build_parafermions(3, 2)


def test_representation_relations_trivial_and_family():
    rep = BraidRepresentation(build_parafermions(3, 2), trivial_vector(3))
    assert check_representation(rep).max_residual < 1e-12
    rep = BraidRepresentation(build_parafermions(4, 2), d4_family(np.pi / 3, +1))
    assert check_representation(rep).max_residual < 1e-10


def test_checks_build_no_dense_pauli_operators(monkeypatch):
    system = build_parafermions(4, 3)
    reps = [BraidRepresentation(system, fzc_coefficients(params), fzc=params)
            for params in all_fzc_params(4)]
    built = []
    original_to_matrix = PauliLabel.to_matrix

    def counting_to_matrix(self):
        built.append(self)
        return original_to_matrix(self)

    monkeypatch.setattr(PauliLabel, "to_matrix", counting_to_matrix)
    applied = []
    monkeypatch.setattr(BraidRepresentation, "apply", lambda self, *args: applied.append(args))
    for rep in reps:
        check_representation(rep)
    assert applied == []  # no U_i acts on anything either
    check_defining_relations(system)
    check_parity_algebra(system)
    # no dense gamma_j, Lambda_i, Lambda_i**m or overall parity: all stay
    # phased permutations
    assert len(reps) == 8
    assert built == []
    system.gamma(1)  # the counter does see a dense build
    assert len(built) == 1


def test_conjugation_action_builds_one_generator(monkeypatch):
    # conjugation_action builds U_1 alone, once, and diagonal_phases applies U_1 to the d
    # eigenvectors, one D x d block; no other U_i acts
    rep = BraidRepresentation.from_fzc(3, 3, 1, +1)
    applied = []
    original = BraidRepresentation.apply

    def counting(self, i, exp, block):
        applied.append((i, exp, block.shape))
        return original(self, i, exp, block)

    monkeypatch.setattr(BraidRepresentation, "apply", counting)
    conjugation_action(rep, 1)
    assert applied == [(1, +1, (27, 27))]
    diagonal_phases(rep, 1)
    assert applied[1:] == [(1, +1, (27, 3))]
    rep.generator(4)
    assert applied[2:] == [(4, +1, (27, 27))]


def test_conjugation_law_majorana_case():
    rep = BraidRepresentation.from_fzc(2, 1, 0, +1)
    res = conjugation_action(rep, 1)
    assert res.residual < 1e-12
    g1, g2 = rep.system.gamma(1), rep.system.gamma(2)
    u = rep.generator(1)
    assert (u @ g1 @ u.dag()).max_diff(g2) < 1e-12
    assert (u @ g2 @ u.dag()).max_diff(-1.0 * g1) < 1e-12


@pytest.mark.parametrize("d", range(2, 7))
def test_conjugation_law_exact_phases(d):
    for r in range(d):
        rep = BraidRepresentation.from_fzc(d, 2, r, +1)
        res = conjugation_action(rep, 1)
        assert res.residual < 1e-10
        assert res.phase_first == CyclotomicPhase.omega(d, -r)
        assert res.phase_second == CyclotomicPhase.omega(d, 1 - r)


def test_conjugation_minus_sign_is_inverse_braid():
    # the dagger of a minus-family generator is the plus family at -r
    for d in (2, 3, 5):
        for r in range(d):
            rep = BraidRepresentation.from_fzc(d, 2, r, -1)
            u = rep.generator(1)
            g1, g2 = rep.system.gamma(1), rep.system.gamma(2)
            image = u.dag() @ g1 @ u
            target = CyclotomicPhase.omega(d, r).as_complex() * g2
            assert image.max_diff(target) < 1e-12


def test_conjugation_non_fzc_returns_raw_images():
    rep = BraidRepresentation(build_parafermions(4, 2), d4_family(0.7, +1))
    res = conjugation_action(rep, 1)
    assert res.residual is None
    assert is_unitary(res.image_first, 1e-10)


def test_diagonal_phases_closed_form():
    rep = BraidRepresentation.from_fzc(2, 1, 0, +1)
    dp = diagonal_phases(rep, 1)
    assert abs(dp.phases[0] - np.exp(-1j * np.pi / 4)) < 1e-14
    assert abs(dp.phases[0] ** 2 - (-1j)) < 1e-14
    assert dp.prefactor == CyclotomicPhase(-4 * 0 - 2, 2)

    for d in range(2, 8):
        for r in range(d):
            rep = BraidRepresentation.from_fzc(d, 2, r, +1)
            dp = diagonal_phases(rep, 1)
            assert dp.relation_residual < 1e-12
            assert dp.prefactor_residual < 1e-12
            assert dp.eigenbasis_residual < 1e-12
            assert dp.prefactor.num == (-4 * r * (r + d) + d * (1 - d)) % (8 * d)
            # the DFT as a matmul, against the sum over m written out per k
            c, om = rep.coefficients.c, np.exp(2j * np.pi * np.arange(d) / d)
            loop = np.array([np.sum(c * om ** k) for k in range(d)]) / np.sqrt(d)
            assert np.max(np.abs(dp.phases - loop)) <= 1e-14


def test_diagonal_prefactor_is_measured():
    # the r = 1 vector labelled r = 0: the measured phases[0] is the r = 1 prefactor, not the label's
    params = FZCParams(3, 0)
    rep = BraidRepresentation(build_parafermions(3, 2), fzc_coefficients(FZCParams(3, 1)), fzc=params)
    dp = diagonal_phases(rep, 1)
    assert dp.prefactor.num == 2
    assert dft_prefactor(params).num == 18
    assert dp.prefactor_residual > 1e-12


def test_diagonal_phases_match_eigendecomposition_oracle():
    for d, r in ((2, 0), (3, 1), (4, 2), (5, 3)):
        rep = BraidRepresentation.from_fzc(d, 2, r, +1)
        dp = diagonal_phases(rep, 1)
        scalars = eigenspace_scalars(rep.generator(1).mat, parity(rep.system, 1).mat, d)
        assert np.max(np.abs(scalars - dp.phases)) < 1e-9


def test_diagonal_phases_requires_odd_index():
    rep = BraidRepresentation.from_fzc(3, 2, 0, +1)
    with pytest.raises(ValueError):
        diagonal_phases(rep, 2)


def test_compose_braid_basics():
    rep = BraidRepresentation.from_fzc(3, 2, 0, +1)
    eye = DenseOperator.identity(rep.system.system)
    assert compose_braid(rep, BraidWord.identity()).max_diff(eye) == 0.0
    assert compose_braid(rep, BraidWord.from_text("1 -1")).max_diff(eye) < 1e-12
    assert compose_braid(rep, BraidWord.from_text("2 -2")).max_diff(eye) < 1e-12
    with pytest.raises(IndexError):
        compose_braid(rep, BraidWord.from_text("7"))


def test_apply_range_check_never_wraps():
    rep = BraidRepresentation.from_fzc(3, 2, 0, +1)
    block = np.eye(9)
    for i in (0, -1, 4):
        for exp in (+1, -1):
            with pytest.raises(IndexError, match="out of range 1..3"):
                rep.apply(i, exp, block)


@pytest.mark.parametrize("d,n_pairs", [(d, 2) for d in range(2, 6)] + [(d, 3) for d in range(2, 5)])
def test_apply_matches_dense_generators(d, n_pairs):
    # U_i**(+-1) on a random block equals the dense Kronecker-product U_i (or its adjoint)
    # times the block, at every FZC point, and compose_braid equals the dense products
    rng = np.random.default_rng(10 * d + n_pairs)
    dim = d ** n_pairs
    block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    letters = [(i, e) for i in range(1, 2 * n_pairs) for e in (+1, -1)]
    for params in all_fzc_params(d):
        rep = BraidRepresentation.from_fzc(d, n_pairs, params.r, params.sign)
        for i, e in letters:
            u = kron_braid_generator(rep, i)
            assert np.max(np.abs(rep.apply(i, e, block) - (u if e > 0 else u.conj().T) @ block)) < 1e-12
        word = BraidWord(tuple(letters[k] for k in rng.integers(len(letters), size=6)))
        assert compose_braid(rep, word).max_diff(dense_compose_braid(rep, word)) < 1e-12


def test_compose_braid_order_convention():
    # operator-order text "1 2" must equal the matrix product U1 @ U2
    rep = BraidRepresentation.from_fzc(3, 2, 0, +1)
    u1, u2 = rep.generator(1), rep.generator(2)
    word = BraidWord.from_text("1 2")
    assert compose_braid(rep, word).max_diff(u1 @ u2) < 1e-13


@pytest.mark.parametrize("d,n_pairs", [(d, 2) for d in range(2, 8)] + [(d, 3) for d in range(2, 5)])
def test_exchange_tableaux_match_dense_oracle(d, n_pairs):
    # the closed-form law for one exchange, every generator, r and sign,
    # against the tableau read off the dense generator matrix
    system = build_parafermions(d, n_pairs)
    for r in range(d):
        for sign in (+1, -1):
            rep = BraidRepresentation(system, fzc_coefficients(FZCParams(d, r, sign)),
                                      fzc=FZCParams(d, r, sign))
            for i in range(1, system.n_modes):
                exact = braid_tableau(system, rep.fzc, BraidWord(((i, +1),)))
                assert exact.key() == clifford_membership(rep.generator(i)).key(), (i, r, sign)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_word_tableau_matches_dense_oracle(d):
    # a whole entangling word, inverse letters included, on eight parafermions
    word = canonical_word("S")
    for r in range(d):
        for sign in (+1, -1):
            rep = BraidRepresentation.from_fzc(d, 4, r, sign)
            exact = braid_tableau(rep.system, rep.fzc, word)
            assert exact.key() == clifford_membership(compose_braid(rep, word)).key(), (r, sign)
