import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parabraid.clifford import PauliLabel
from parabraid.encoding import build_encoding
from parabraid.systems import (
    DenseOperator,
    QuditSystem,
    SizeBoundError,
    controlled_phase,
    controlled_shift,
    embed,
    embed_vector,
    equal_up_to_phase,
    fourier_gate,
    monomial_diff,
    monomial_product,
    monomial_support,
    pauli_monomial,
    pauli_x,
    pauli_z,
    size_bound,
)

from oracles import (commutator_with_monomial, is_phased_permutation, is_unitary, pauli_monomial_kron,
                     scatter_monomial, unitarity_defect)


def test_qubit_matrices():
    s = QuditSystem(2, 1)
    assert np.allclose(pauli_x(s, 1).mat, [[0, 1], [1, 0]])
    assert np.allclose(pauli_z(s, 1).mat, [[1, 0], [0, -1]])
    assert np.allclose(fourier_gate(2).mat, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


@pytest.mark.parametrize("d", range(2, 8))
def test_weyl_commutation_and_powers(d):
    s = QuditSystem(d, 1)
    x, z = pauli_x(s, 1), pauli_z(s, 1)
    omega = np.exp(2j * np.pi / d)
    assert np.max(np.abs(z.mat @ x.mat - omega * (x.mat @ z.mat))) < 1e-14
    eye = np.eye(d)
    assert np.max(np.abs(x.power(d).mat - eye)) < 1e-13
    assert np.max(np.abs(z.power(d).mat - eye)) < 1e-13


def test_distinct_qudits_commute_exactly():
    s = QuditSystem(3, 2)
    a = pauli_x(s, 1)
    b = pauli_z(s, 2)
    assert np.array_equal(a.mat @ b.mat, b.mat @ a.mat)


@pytest.mark.parametrize("d", range(2, 8))
def test_fourier_conjugation(d):
    s = QuditSystem(d, 1)
    f = fourier_gate(d)
    x, z = pauli_x(s, 1), pauli_z(s, 1)
    assert (f @ x @ f.dag()).max_diff(z) < 1e-12
    assert (f @ z @ f.dag()).max_diff(x.dag()) < 1e-12
    assert f.power(4).max_diff(DenseOperator.identity(s)) < 1e-12


@pytest.mark.parametrize("d", range(2, 17))
def test_fourier_unitary(d):
    assert unitarity_defect(fourier_gate(d).mat) < 1e-13


def test_basis_index_convention():
    s = QuditSystem(3, 2)
    assert s.index((1, 2)) == 5
    assert s.digits(5) == (1, 2)
    z1 = pauli_z(s, 1)
    # qudit 1 is the most significant digit
    assert z1.mat[5, 5] == pytest.approx(np.exp(2j * np.pi / 3))


def test_size_bound(monkeypatch):
    # the register itself is a plain (d, n) value; a dense 8,192 x 8,192 build on it is over 4096**2.
    # The override lifts the bound on that shape; the build itself is not run lifted: with numpy's
    # huge pages its scatter touches every page of the 1 GB matrix.
    system = QuditSystem(2, 13)
    with pytest.raises(SizeBoundError, match="67108864 entries"):
        pauli_z(system, 13)
    monkeypatch.setenv("PARABRAID_SIZE_BOUND", "10000")
    assert size_bound(system.dim, system.dim) == (8192, 8192)


def test_size_bound_counts_the_entries_allocated(monkeypatch):
    # a budget of 50**2 = 2,500 entries: the d = 3 two-qudit encoding holds an 81 x 9 isometry and
    # [6, 81] code supports, so it builds, while a dense 81 x 81 Pauli on the same register does not
    monkeypatch.setenv("PARABRAID_SIZE_BOUND", "50")
    enc = build_encoding(3, 2)
    assert enc.isometry.shape == (81, 9)
    with pytest.raises(SizeBoundError, match="6561 entries exceed the bound 50"):
        pauli_x(QuditSystem(3, 4), 1)
    # embed_vector counts its columns: one 2,187-vector fits, a 2,187 x 3 block does not
    wide = QuditSystem(3, 7)
    assert embed_vector(wide, 1, np.eye(3)[:, 0]).shape == (2187,)
    with pytest.raises(SizeBoundError, match="6561 entries"):
        embed_vector(wide, 1, np.eye(3))


def test_embed_places_blocks_on_consecutive_qudits():
    d = 3
    s = QuditSystem(d, 4)
    cx = controlled_shift(d).mat
    for i in (1, 2, 3):
        want = np.kron(np.kron(np.eye(d ** (i - 1)), cx), np.eye(d ** (3 - i)))
        assert np.array_equal(embed(s, i, cx).mat, want)
    with pytest.raises(IndexError):
        embed(s, 4, cx)  # the pair (4, 5) runs past qudit 4
    for size in (2, 6, 10):
        with pytest.raises(ValueError, match="not a power of d"):
            embed(s, 1, np.eye(size))


def test_controlled_gates():
    d = 3
    cx = controlled_shift(d)
    cz = controlled_phase(d)
    assert is_unitary(cx, 1e-13)
    s = QuditSystem(d, 2)
    for i in range(d):
        for j in range(d):
            src = i * d + j
            assert cx.mat[i * d + (i + j) % d, src] == 1.0
            assert cz.mat[src, src] == pytest.approx(np.exp(2j * np.pi * i * j / d))
    assert cx.power(d).max_diff(DenseOperator.identity(s)) < 1e-12


def test_equal_up_to_phase_basics():
    s = QuditSystem(2, 1)
    eye = DenseOperator.identity(s)
    assert equal_up_to_phase(1j * eye, eye) == pytest.approx(1j)
    assert equal_up_to_phase(pauli_x(s, 1), pauli_z(s, 1)) is None
    with pytest.raises(ValueError):
        equal_up_to_phase(eye, DenseOperator.identity(QuditSystem(3, 1)))


def test_equal_up_to_phase_rejects_non_unit_scale():
    s = QuditSystem(2, 1)
    eye = DenseOperator.identity(s)
    assert equal_up_to_phase(0.5 * eye, eye) is None


@settings(max_examples=40)
@given(st.floats(0, 2 * np.pi, allow_nan=False), st.integers(2, 5))
def test_equal_up_to_phase_recovers_phase(theta, d):
    lam = np.exp(1j * theta)
    f = fourier_gate(d)
    found = equal_up_to_phase(lam * f, f, tol=1e-10)
    assert found is not None and abs(found - lam) < 1e-12


def test_monomial_detection():
    s = QuditSystem(3, 1)
    support = monomial_support(s, (1,), (0,))
    assert is_phased_permutation(support)
    assert np.array_equal(scatter_monomial(support), pauli_x(s, 1).mat)


@pytest.mark.parametrize("n", range(1, 4))
@pytest.mark.parametrize("d", range(2, 6))
def test_monomial_helpers_match_dense(d, n):
    # products, differences and commutators of (rows, roots) pairs against the
    # same arithmetic on the dense matrices pauli_monomial scatters them into
    s = QuditSystem(d, n)
    rng = np.random.default_rng(1000 * d + n)
    omega = np.exp(2j * np.pi / d)
    for _ in range(6):
        x = tuple(int(v) for v in rng.integers(0, d, n))
        shifted = ((x[0] + 1) % d,) + x[1:]
        la, lb_same, lb_apart = ((xs, tuple(int(v) for v in rng.integers(0, d, n)),
                                  int(rng.integers(0, 2 * d))) for xs in (x, x, shifted))
        a = monomial_support(s, *la)
        dense_a = pauli_monomial(s, *la)
        for lb, rows_agree in ((lb_same, True), (lb_apart, False)):
            b = monomial_support(s, *lb)
            dense_b = pauli_monomial(s, *lb)
            assert np.array_equal(a[0], b[0]) == rows_agree  # both branches of monomial_diff
            got = monomial_product(a, b)
            assert is_phased_permutation(got)
            assert np.max(np.abs(scatter_monomial(got) - dense_a.mat @ dense_b.mat)) < 1e-14
            for scale in (1, omega, -0.5j):
                assert abs(monomial_diff(a, b, scale) - dense_a.max_diff(dense_b * scale)) < 1e-14
        u = np.linalg.qr(rng.normal(size=(s.dim,) * 2) + 1j * rng.normal(size=(s.dim,) * 2))[0]
        want = float(np.max(np.abs(u @ dense_a.mat - dense_a.mat @ u)))
        assert abs(commutator_with_monomial(u, a) - want) < 1e-13


@pytest.mark.parametrize("n", range(1, 4))
@pytest.mark.parametrize("d", range(2, 8))
def test_pauli_monomials_match_kronecker_oracle(d, n):
    # the phased-permutation build against the product of local factors:
    # the same support and the same entries, for every phase exponent
    s = QuditSystem(d, n)
    rng = np.random.default_rng(100 * d + n)
    cases = [(tuple(int(v) for v in rng.integers(-d, 2 * d, n)),
              tuple(int(v) for v in rng.integers(-d, 2 * d, n))) for _ in range(3)]
    for x, z in cases:
        for phase in range(2 * d):
            want = pauli_monomial_kron(d, x, z, phase)
            label = PauliLabel(d, n, phase, x, z)
            for got in (pauli_monomial(s, x, z, phase).mat, label.to_matrix()):
                assert np.array_equal(got != 0, want != 0)
                assert np.max(np.abs(got - want)) < 1e-14
    zero = (0,) * n
    for i in range(1, n + 1):
        unit = tuple(int(q == i) for q in range(1, n + 1))
        for got, want in ((pauli_x(s, i), pauli_monomial_kron(d, unit, zero)),
                          (pauli_z(s, i), pauli_monomial_kron(d, zero, unit))):
            assert np.array_equal(got.mat != 0, want != 0)
            assert np.max(np.abs(got.mat - want)) < 1e-14


def test_pauli_monomial_rejects_wrong_lengths():
    s = QuditSystem(3, 2)
    for x, z in (((1, 0), (1,)), ((1,), (0, 1)), ((1, 0, 2), (0, 0, 0))):
        with pytest.raises(ValueError, match="need length n = 2"):
            pauli_monomial(s, x, z)
    for i in (0, 3):
        with pytest.raises(IndexError):
            pauli_x(s, i)
        with pytest.raises(IndexError):
            pauli_z(s, i)
