import hashlib

import numpy as np
import pytest

from parabraid.clifford import (
    CliffordTableau,
    ClosureLimitError,
    _gen_tables,
    PauliLabel,
    check_key_width,
    clifford_membership,
    closure,
    extract_pauli_monomial,
    reference_generators,
    reference_phase_gate,
    tableau_key,
)
from parabraid.encoding import braid_generator_tableaux
from parabraid.systems import DenseOperator, QuditSystem, controlled_shift, fourier_gate, pauli_x, \
    pauli_z

from oracles import closure_keys_reference, matrix_group_order, sl2_order


def random_label(rng, d, n):
    return PauliLabel(d, n, int(rng.integers(2 * d)),
                      tuple(int(v) for v in rng.integers(d, size=n)),
                      tuple(int(v) for v in rng.integers(d, size=n)))


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (5, 1), (3, 2), (4, 2)])
def test_label_algebra_matches_matrices(d, n):
    rng = np.random.default_rng(d * 10 + n)
    for _ in range(15):
        a, b = random_label(rng, d, n), random_label(rng, d, n)
        assert np.max(np.abs((a * b).to_matrix() - a.to_matrix() @ b.to_matrix())) < 1e-12
        k = int(rng.integers(-3, 6))
        assert np.max(np.abs((a ** k).to_matrix()
                             - np.linalg.matrix_power(a.to_matrix(), k))) < 1e-11
        eye = np.eye(d ** n)
        assert np.max(np.abs((a * a.inverse()).to_matrix() - eye)) < 1e-12
        # phase * prod_q X_q**x_q Z_q**z_q, built from the dense generators
        system = QuditSystem(d, n)
        product = DenseOperator.identity(system)
        for q, (xq, zq) in enumerate(zip(a.x, a.z), start=1):
            product = product @ pauli_x(system, q).power(xq) @ pauli_z(system, q).power(zq)
        assert np.max(np.abs(a.to_matrix() - a.phase_value() * product.mat)) < 1e-12


def test_extract_pauli_monomial_roundtrip():
    rng = np.random.default_rng(7)
    for d, n in ((2, 1), (3, 1), (3, 2), (5, 1)):
        for _ in range(10):
            label = random_label(rng, d, n)
            back = extract_pauli_monomial(label.to_matrix(), d, n)
            assert back == label


def test_extract_rejects_non_monomial():
    assert extract_pauli_monomial(fourier_gate(3).mat, 3, 1) is None


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_membership_fourier_and_phase_gate(d):
    tab = clifford_membership(fourier_gate(d))
    assert tab is not None
    x_img, z_img = tab.images
    assert (x_img.x, x_img.z, x_img.phase) == ((0,), (1,), 0)       # X -> Z
    assert (z_img.x, z_img.z, z_img.phase) == (((d - 1) % d,), (0,), 0)  # Z -> Xdag

    tab = clifford_membership(reference_phase_gate(d))
    assert tab is not None
    x_img, z_img = tab.images
    assert (x_img.x, x_img.z) == ((1,), (d - 1,))                    # X -> X Zdag
    assert x_img.phase == (0 if d % 2 == 1 else (2 * d - 1))
    assert (z_img.x, z_img.z, z_img.phase) == ((0,), (1,), 0)


def test_membership_controlled_shift():
    tab = clifford_membership(controlled_shift(3))
    xa, xb, za, zb = tab.images
    assert (xa.x, xa.z, xa.phase) == ((1, 1), (0, 0), 0)   # X_A -> X_A X_B
    assert (xb.x, xb.z, xb.phase) == ((0, 1), (0, 0), 0)   # X_B -> X_B
    assert (za.x, za.z, za.phase) == ((0, 0), (1, 0), 0)   # Z_A -> Z_A
    assert (zb.x, zb.z, zb.phase) == ((0, 0), (2, 1), 0)   # Z_B -> Z_Adag Z_B


def test_membership_rejects_non_clifford():
    d = 5
    cubic = DenseOperator(np.diag(np.exp(2j * np.pi * np.arange(d) ** 3 / d)), d, 1)
    assert clifford_membership(cubic) is None
    # for d = 3 the cubic exponent collapses to a Pauli, so use ninth roots
    qutrit_t = DenseOperator(np.diag(np.exp(2j * np.pi * np.arange(3) ** 3 / 9)), 3, 1)
    assert clifford_membership(qutrit_t) is None


def test_composition_faithful_on_braid_gates():
    rng = np.random.default_rng(0)
    d = 3
    gens = braid_generator_tableaux(d, 1) + reference_generators(d, 1)
    mats = [fourier_gate(d), reference_phase_gate(d)]
    pool = []
    mat_pool = []
    current = DenseOperator.identity(QuditSystem(d, 1))
    # random words in the reference gates give a pool of braid-derived Cliffords
    for _ in range(50):
        pick = int(rng.integers(2))
        current = current @ mats[pick]
        pool.append(clifford_membership(current))
        mat_pool.append(current)
    for _ in range(50):
        i, j = rng.integers(len(pool), size=2)
        product = clifford_membership(mat_pool[i] @ mat_pool[j])
        composed = pool[i].compose(pool[j])
        assert composed.key() == product.key()


def test_tableau_inverse_and_identity():
    for d, n in ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2)):
        eye = CliffordTableau.identity(d, n)
        for tab in reference_generators(d, n) + braid_generator_tableaux(d, n):
            assert tab.inverse().compose(tab).key() == eye.key()
            assert tab.compose(tab.inverse()).key() == eye.key()


def test_closure_keys_reject_int64_overflow():
    # two-qudit keys have four base-2d**5 digits: 7 is the largest d that fits
    check_key_width(7, 2)
    with pytest.raises(ValueError, match="largest supported d at n = 2 is 7"):
        closure(reference_generators(8, 2))
    with pytest.raises(ValueError, match="largest supported d at n = 2 is 7"):
        tableau_key(CliffordTableau.identity(9, 2))


def test_symplectic_condition_enforced():
    d, n = 3, 1
    x_img = PauliLabel(d, n, 0, (1,), (0,))
    bad_z = PauliLabel(d, n, 0, (2,), (0,))  # commutes with the X image
    with pytest.raises(ValueError):
        CliffordTableau(d, n, (x_img, bad_z))


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_reference_closure_orders(d):
    # the two-gate set reaches all |SL(2,Z_d)| * d**2 elements for d = 2, 3, 5;
    # at d = 4 only a quarter of the Pauli translations are generated
    expected = {2: 24, 3: 216, 4: 192, 5: 3000}
    result = closure(reference_generators(d, 1))
    assert result.order == expected[d]
    assert result.symplectic_order() == sl2_order(d)
    if d != 4:
        assert result.order == sl2_order(d) * d * d


@pytest.mark.parametrize("d", (2, 3))
def test_closure_order_matches_matrix_enumeration(d):
    # independent cross-check: enumerate the same group at matrix level
    tab_order = closure(braid_generator_tableaux(d, 1)).order
    from parabraid.encoding import build_encoding, restrict_word, certificate_r
    from parabraid.braiding import BraidWord, canonical_word

    enc = build_encoding(d, 1, r=certificate_r(d))
    g1, _ = restrict_word(enc, BraidWord.from_text("1"))
    g2, _ = restrict_word(enc, canonical_word("F"))
    assert matrix_group_order([g1.mat, g2.mat]) == tab_order


def test_braid_closure_orders_by_dimension():
    # measured image sizes of U1 and U1 U2 U1 alone, modulo phase; without
    # U3 the odd-d images lack the Pauli translations (see criterion 9)
    expected = {2: 24, 3: 24, 4: 192, 5: 120}
    for d, order in expected.items():
        result = closure(braid_generator_tableaux(d, 1))
        assert result.order == order
        assert result.symplectic_order() == sl2_order(d)


def test_closure_generator_order_invariance():
    import random

    gens = reference_generators(3, 1)
    base = closure(gens)
    rng = random.Random(5)
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        again = closure(shuffled)
        assert again.order == base.order
        assert np.array_equal(again.keys, base.keys)


def test_closure_membership_queries():
    gens = reference_generators(2, 1)
    result = closure(gens)
    for g in gens:
        assert result.contains(g)
        assert result.contains(g.inverse())
    # a Pauli conjugation is in the full closure
    x_conj = clifford_membership(pauli_x(QuditSystem(2, 1), 1))
    assert result.contains(x_conj)


def test_closure_limit():
    with pytest.raises(ClosureLimitError):
        closure(reference_generators(3, 1), limit=10)


def test_identified_gates_pass_membership():
    from parabraid.braiding import BraidWord, canonical_word
    from parabraid.encoding import build_encoding, restrict_word

    enc = build_encoding(3, 1, r=0)
    for text in ("1", "2", "3", "1 2 1", "1 -2 1"):
        restricted, leak = restrict_word(enc, BraidWord.from_text(text))
        assert leak < 1e-10
        assert clifford_membership(restricted) is not None


def test_two_qubit_braid_closure_recorded():
    """Exploratory even-d datum: at d = 2 the entangling braid restricts to
    the identity (the squared controlled shift is trivial), so the braid
    image is the product of the two single-qubit groups."""
    result = closure(braid_generator_tableaux(2, 2))
    assert result.order == 576


def test_tableau_key_stability():
    tab = reference_generators(3, 1)[0]
    assert tableau_key(tab) == tableau_key(clifford_membership(reference_phase_gate(3)))


@pytest.mark.parametrize("kind,d,n", [("reference", d, 1) for d in (2, 3, 4, 5)]
                         + [("braid", d, 1) for d in (2, 3, 4, 5)] + [("braid", 2, 2)])
def test_closure_keys_match_python_bfs(kind, d, n):
    # key for key against a set-based search through CliffordTableau.compose
    gens = reference_generators(d, n) if kind == "reference" else braid_generator_tableaux(d, n)
    result = closure(gens)
    assert result.keys.dtype == np.int64
    assert result.keys.tolist() == closure_keys_reference(gens)
    assert len(result.level_sizes) == result.levels
    assert 1 + sum(result.level_sizes) == result.order
    assert result.level_sizes[-1] == 0


@pytest.mark.parametrize("d,n", [(d, 1) for d in range(2, 8)] + [(2, 2), (3, 2), (4, 2)])
def test_gen_tables_match_apply(d, n):
    gens = reference_generators(d, n) + braid_generator_tableaux(d, n)
    for tab in gens + [g.inverse() for g in gens]:
        vec_map, phase_add = _gen_tables(tab)
        assert vec_map.size == phase_add.size == d ** (2 * n)
        for idx in range(d ** (2 * n)):
            vec = [(idx // d ** i) % d for i in range(2 * n)]
            image = tab.apply(PauliLabel(d, n, 0, tuple(vec[:n]), tuple(vec[n:])))
            assert vec_map[idx] == sum(v * d ** i for i, v in enumerate(image.vector()))
            assert phase_add[idx] == image.phase


def test_sp4_z3_closure_keys_pinned():
    # the closure_d3n2 benchmark group: both Fourier gates and the controlled
    # shift at d = 3, i.e. Sp(4, Z_3) without the Pauli translations
    gens = reference_generators(3, 2)
    result = closure([gens[i] for i in (1, 3, 4)])
    assert (result.order, result.levels, result.symplectic_order()) == (51840, 17, 51840)
    assert hashlib.sha256(result.keys.tobytes()).hexdigest() == (
        "7b0c855671b868934c01face3e462a28a97402cfbbbc1afb5e9f7281fef1b19d")
    assert 1 + sum(result.level_sizes) == result.order
