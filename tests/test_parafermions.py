import dataclasses

import numpy as np
import pytest

from parabraid.clifford import PauliLabel
from parabraid.parafermions import (
    build_parafermions,
    check_defining_relations,
    check_parity_algebra,
    parity,
    parity_eigenbasis,
)
from parabraid.systems import DenseOperator, SizeBoundError, monomial_spectrum, monomial_support, pauli_x, \
    pauli_z

from oracles import (is_phased_permutation, jordan_wigner_gammas, overall_parity_support,
                     scatter_monomial)


def test_majorana_pair():
    sys_ = build_parafermions(2, 1)
    assert sys_.gamma(1).max_diff(pauli_z(sys_.system, 1)) < 1e-14
    expected = -1j * (pauli_x(sys_.system, 1) @ pauli_z(sys_.system, 1))
    assert sys_.gamma(2).max_diff(expected) < 1e-14
    assert sys_.gamma(2).power(2).max_diff(sys_.gamma(1).power(2)) < 1e-14


@pytest.mark.parametrize("d,n_pairs", [(d, n) for d in range(2, 8) for n in range(1, 13)
                                       if d ** n <= 4096])
def test_defining_relations_full_table(d, n_pairs):
    sys_ = build_parafermions(d, n_pairs)
    assert check_defining_relations(sys_) < 1e-12


def _dense_relations(gammas: list[np.ndarray], d: int) -> float:
    """check_defining_relations on dense matrices: Gram defects, d-th powers and exchanges."""
    omega, eye = np.exp(2j * np.pi / d), np.eye(len(gammas[0]))
    worst = [float(np.max(np.abs(g @ g.conj().T - eye))) for g in gammas]
    worst += [float(np.max(np.abs(np.linalg.matrix_power(g, d) - eye))) for g in gammas]
    worst += [float(np.max(np.abs(gj @ gk - omega * gk @ gj)))
              for j, gj in enumerate(gammas) for gk in gammas[j + 1:]]
    return max(worst)


def test_checks_read_tampered_systems():
    # the gather checks read what dense products of the tampered operators read
    sys_ = build_parafermions(3, 2)
    raised = (dataclasses.replace(sys_.labels[0], phase=sys_.labels[0].phase + 1),) + sys_.labels[1:]
    swapped = sys_.labels[:1] + sys_.labels[2:3] + sys_.labels[2:]  # gamma_2 replaced by gamma_3
    for labels, want in ((raised, 2.0), (swapped, np.sqrt(3))):
        dense = _dense_relations([label.to_matrix() for label in labels], 3)
        assert dense == pytest.approx(want, abs=1e-12)
        assert abs(check_defining_relations(dataclasses.replace(sys_, labels=labels)) - dense) < 1e-12
    # gamma_1 as a phased permutation outside the Pauli group (two columns' rows
    # exchanged), and as a monomial matrix with one row hit twice
    rows, roots = sys_.gamma_supports[0]
    for bad_rows in (rows[[1, 0, *range(2, 9)]], rows[[1, 1, *range(2, 9)]]):
        tampered = dataclasses.replace(sys_)
        tampered.__dict__["gamma_supports"] = ((bad_rows, roots),) + sys_.gamma_supports[1:]
        dense = _dense_relations([scatter_monomial(g) for g in tampered.gamma_supports], 3)
        assert dense >= 1 - 1e-12
        assert abs(check_defining_relations(tampered) - dense) < 1e-12
    lam = sys_.parities[1]
    for bad in (dataclasses.replace(lam, phase=lam.phase + 1), sys_.parities[0]):
        parities = sys_.parities[:1] + (bad,) + sys_.parities[2:]
        assert check_parity_algebra(dataclasses.replace(sys_, parities=parities)).max_residual > 1e-12


@pytest.mark.parametrize("d,n_pairs", [(d, n) for d in range(2, 7) for n in range(1, 9)
                                       if d ** n <= 256])
def test_labels_match_jordan_wigner_oracle(d, n_pairs):
    sys_ = build_parafermions(d, n_pairs)
    gammas = jordan_wigner_gammas(d, n_pairs)
    half = np.exp(1j * np.pi * (d + 1) / d)
    assert sys_.n_modes == len(gammas) == 2 * n_pairs
    for j, want in enumerate(gammas, start=1):
        assert np.max(np.abs(sys_.gamma(j).mat - want)) < 1e-14
        assert np.max(np.abs(scatter_monomial(sys_.gamma_supports[j - 1]) - want)) < 1e-14
    total = np.eye(d ** n_pairs)
    for i in range(1, 2 * n_pairs):
        want = half * (gammas[i - 1] @ gammas[i].conj().T)
        assert np.max(np.abs(parity(sys_, i).mat - want)) < 1e-14
        if i % 2 == 1:
            total = total @ want
    assert np.max(np.abs(scatter_monomial(overall_parity_support(sys_)) - total)) < 1e-14


def test_build_makes_no_dense_products(monkeypatch):
    calls = []
    matrices = []
    original = DenseOperator.__matmul__
    original_to_matrix = PauliLabel.to_matrix

    def counting(self, other):
        calls.append(self.dim)
        return original(self, other)

    def counting_to_matrix(self):
        matrices.append(self.n)
        return original_to_matrix(self)

    monkeypatch.setattr(DenseOperator, "__matmul__", counting)
    monkeypatch.setattr(PauliLabel, "to_matrix", counting_to_matrix)
    sys_ = build_parafermions(4, 4)
    assert calls == []
    assert matrices == []  # the dense gammas are built only when asked for
    sys_.gamma(1) @ sys_.gamma(2)  # the counters do see dense products and matrices
    assert calls == [256]
    assert matrices == [4, 4]


def test_exchange_example_d3():
    sys_ = build_parafermions(3, 2)
    omega = np.exp(2j * np.pi / 3)
    g1, g3 = sys_.gamma(1).mat, sys_.gamma(3).mat
    assert np.max(np.abs(g1 @ g3 - omega * (g3 @ g1))) < 1e-12


def test_gamma_monomial_structure():
    sys_ = build_parafermions(4, 2)
    for j, support in enumerate(sys_.gamma_supports, start=1):
        assert is_phased_permutation(support)
        assert np.array_equal(scatter_monomial(support), sys_.gamma(j).mat)
    for i, (rows, roots) in enumerate(sys_.parity_powers, start=1):
        assert is_phased_permutation((rows[1], roots[1]))
        assert np.array_equal(scatter_monomial((rows[1], roots[1])), parity(sys_, i).mat)


@pytest.mark.parametrize("n_pairs", (1, 2, 3))
@pytest.mark.parametrize("d", range(2, 8))
def test_parity_powers_are_the_label_powers(d, n_pairs):
    # the one stacked monomial_support gives, bit for bit, each label power's own support
    sys_ = build_parafermions(d, n_pairs)
    for lam, (rows, roots) in zip(sys_.parities, sys_.parity_powers):
        assert rows.shape == roots.shape == (d, d ** n_pairs)
        for m in range(d):
            power = lam ** m
            want_rows, want_roots = monomial_support(sys_.system, power.x, power.z, power.phase)
            assert rows[m].tobytes() == want_rows.tobytes() and roots[m].tobytes() == want_roots.tobytes()


@pytest.mark.parametrize("d", range(2, 7))
def test_parity_closed_forms(d):
    sys_ = build_parafermions(d, 2)
    assert parity(sys_, 1).max_diff(pauli_x(sys_.system, 1).dag()) < 1e-12
    zz = pauli_z(sys_.system, 1) @ pauli_z(sys_.system, 2).dag()
    assert parity(sys_, 2).max_diff(zz) < 1e-12
    assert parity(sys_, 3).max_diff(pauli_x(sys_.system, 2).dag()) < 1e-12


@pytest.mark.parametrize("d", range(2, 7))
def test_parity_powers_and_algebra(d):
    sys_ = build_parafermions(d, 2)
    eye = np.eye(sys_.system.dim)
    for i in range(1, sys_.n_modes):
        assert np.max(np.abs(parity(sys_, i).power(d).mat - eye)) < 1e-12
    report = check_parity_algebra(sys_)
    assert report.max_residual < 1e-12
    # distant parities on disjoint qudits commute exactly in the closed form
    x1 = pauli_x(sys_.system, 1).dag()
    x2 = pauli_x(sys_.system, 2).dag()
    assert np.array_equal(x1.mat @ x2.mat, x2.mat @ x1.mat)


def test_adjacent_exchange_d3():
    sys_ = build_parafermions(3, 2)
    omega = np.exp(2j * np.pi / 3)
    l1, l2 = parity(sys_, 1).mat, parity(sys_, 2).mat
    assert np.max(np.abs(l1 @ l2 - omega * (l2 @ l1))) < 1e-12


@pytest.mark.parametrize("d,n_pairs", [(2, 2), (3, 2), (4, 2), (5, 2), (3, 3)])
def test_parity_spectrum_multiplicity(d, n_pairs):
    sys_ = build_parafermions(d, n_pairs)
    for i in range(1, sys_.n_modes):
        eigs = np.linalg.eigvals(parity(sys_, i).mat)
        labels = np.round(np.angle(eigs) * d / (2 * np.pi)).astype(int) % d
        counts = np.bincount(labels, minlength=d)
        assert np.all(counts == d ** (n_pairs - 1))


def eigvals_counts(mat, d):
    labels = np.round(np.angle(np.linalg.eigvals(mat)) * d / (2 * np.pi)).astype(int) % d
    return np.bincount(labels, minlength=d)


@pytest.mark.parametrize("d,n_pairs", [(d, n) for d in range(2, 7) for n in (2, 3)]
                         + [(d, 2) for d in range(7, 10)])
def test_monomial_spectrum_matches_eigvals(d, n_pairs):
    sys_ = build_parafermions(d, n_pairs)
    for i, lam in enumerate(sys_.parities, start=1):
        counts = monomial_spectrum(monomial_support(sys_.system, lam.x, lam.z, lam.phase), d)
        assert counts.tolist() == eigvals_counts(parity(sys_, i).mat, d).tolist(), i


@pytest.mark.parametrize("n_pairs", (2, 3))
def test_monomial_spectrum_of_a_squared_parity(n_pairs):
    # Lambda_1**2 at d = 4 has the eigenvalues omega**(2k): only 1 and omega**2, twice as often
    sys_ = build_parafermions(4, n_pairs)
    lam = sys_.parities[0] ** 2
    counts = monomial_spectrum(monomial_support(sys_.system, lam.x, lam.z, lam.phase), 4)
    assert counts.tolist() == [2 * 4 ** (n_pairs - 1), 0, 2 * 4 ** (n_pairs - 1), 0]
    assert counts.tolist() == eigvals_counts(lam.to_matrix(), 4).tolist()


def test_eigenbasis_properties():
    sys_ = build_parafermions(2, 1)
    basis = parity_eigenbasis(sys_, 1)
    assert np.allclose(basis.vector(0), [1, 1] / np.sqrt(2))
    assert np.allclose(basis.vector(1), [1, -1] / np.sqrt(2))
    for d in range(2, 7):
        sys_ = build_parafermions(d, 2)
        for i in (1, 3):
            basis = parity_eigenbasis(sys_, i)
            gram = basis.vectors.conj().T @ basis.vectors
            assert np.max(np.abs(gram - np.eye(d))) < 1e-12
            assert basis.vectors[0, :].real == pytest.approx([1 / np.sqrt(d)] * d)
    with pytest.raises(ValueError):
        parity_eigenbasis(sys_, 2)


def test_eigenbasis_full_space_action():
    for d in (2, 3, 5):
        sys_ = build_parafermions(d, 2)
        basis = parity_eigenbasis(sys_, 3)
        lam = parity(sys_, 3)
        for m in range(d):
            vec = np.kron(np.eye(d)[:, 0], basis.vector(m))
            residual = lam.mat @ vec - np.exp(2j * np.pi * m / d) * vec
            assert np.max(np.abs(residual)) < 1e-12


def test_overall_parity_structure():
    sys_ = build_parafermions(3, 2)
    assert is_phased_permutation(overall_parity_support(sys_))
    total = scatter_monomial(overall_parity_support(sys_))
    assert np.max(np.abs(total - parity(sys_, 1).mat @ parity(sys_, 3).mat)) < 1e-14
    assert np.max(np.abs(np.linalg.matrix_power(total, 3) - np.eye(9))) < 1e-12


def test_index_and_bound_errors():
    sys_ = build_parafermions(3, 2)
    with pytest.raises(IndexError):
        sys_.gamma(5)
    with pytest.raises(IndexError):
        parity(sys_, 4)
    big = build_parafermions(5, 7)  # labels only: the bound applies where matrices are built
    with pytest.raises(SizeBoundError):
        big.gamma(1)
