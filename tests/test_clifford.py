import hashlib

import numpy as np
import pytest

from parabraid.clifford import (
    CliffordTableau,
    ClosureLimitError,
    _gen_tables,
    _inverse_tables,
    PauliLabel,
    check_key_width,
    clifford_membership,
    closure,
    embed_tableau,
    extract_pauli_monomial,
    gate_tableau,
    reference_generators,
    symplectic_product,
    tableau_key,
)
from parabraid.encoding import braid_generator_tableaux
from parabraid.systems import DenseOperator, QuditSystem, controlled_phase, controlled_shift, embed, \
    fourier_gate, pauli_x, pauli_z

from oracles import closure_keys_reference, dense_reference_generators, matrix_group_order, \
    reference_phase_gate, sl2_order, symplectic_product_loop, tableau_apply_loop, \
    tableau_compose_loop, tableau_inverse_loop


def random_label(rng, d, n):
    return PauliLabel(d, n, int(rng.integers(2 * d)),
                      tuple(int(v) for v in rng.integers(d, size=n)),
                      tuple(int(v) for v in rng.integers(d, size=n)))


def sp4_z3_generators():
    # both Fourier gates and the controlled shift at d = 3: Sp(4, Z_3) without
    # the Pauli translations, the closure_d3n2 benchmark group
    gens = reference_generators(3, 2)
    return [gens[i] for i in (1, 3, 4)]


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
        assert np.max(np.abs(a.to_matrix() - np.exp(1j * np.pi * a.phase / d) * product.mat)) < 1e-12


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
        assert not eye == None and eye != CliffordTableau.identity(d + 1, n)  # noqa: E711
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
        CliffordTableau.from_images(d, n, (x_img, bad_z))


def test_unrealizable_images_rejected():
    # (U X U^dag)**3 = 1 for any unitary U, but (e^(i pi/3) X)**3 = -1
    x_img = PauliLabel(3, 1, 1, (1,), (0,))
    z_img = PauliLabel(3, 1, 0, (0,), (1,))
    assert (x_img ** 3).phase == 3
    with pytest.raises(ValueError, match="d-th power is not the identity"):
        CliffordTableau.from_images(3, 1, (x_img, z_img))


@pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 7) for n in (1, 2, 3)])
def test_array_tableau_arithmetic_matches_label_oracle(d, n):
    rng = np.random.default_rng(100 * d + n)
    gens = reference_generators(d, n)
    pool = []
    for _ in range(5):
        tab = CliffordTableau.identity(d, n)
        for pick in rng.integers(len(gens), size=6):
            tab = tableau_compose_loop(gens[pick], tab)
        pool.append(tab)
    for a, b in zip(pool, pool[1:] + pool[:1]):
        assert a.compose(b) == tableau_compose_loop(a, b)
        assert a.inverse() == tableau_inverse_loop(a)
        for _ in range(4):
            label = random_label(rng, d, n)
            assert a.apply(label) == tableau_apply_loop(a, label)
    u = rng.integers(-d, 2 * d, size=(6, 2 * n))
    v = rng.integers(-d, 2 * d, size=(5, 2 * n))
    pairs = symplectic_product(u, v, d)
    assert pairs.tolist() == [[symplectic_product_loop(a, b, d) for b in v.tolist()] for a in u.tolist()]
    assert symplectic_product(u[0], v, d).tolist() == pairs[0].tolist()
    assert symplectic_product(u, v[1], d).tolist() == pairs[:, 1].tolist()
    assert int(symplectic_product(u[2], v[3], d)) == pairs[2, 3]


@pytest.mark.parametrize("d", range(2, 13))
def test_reference_closure_orders(d):
    # <P, F> is the whole single-qudit Clifford group modulo phase, |SL(2, Z_d)| d**2
    # elements, at odd d and d = 2.  At even d >= 4, P**d = Z**(d/2) up to phase, and
    # the closure holds only 4 of the d**2 Pauli translations: an index-(d/2)**2
    # subgroup (192 of 768 elements at d = 4, 4,608 of 165,888 at d = 12)
    result = closure(reference_generators(d, 1))
    assert result.symplectic_order() == sl2_order(d)
    assert result.order == sl2_order(d) * (d * d if d % 2 == 1 or d == 2 else 4)
    pinned = {2: 24, 3: 216, 4: 192, 5: 3000, 12: 4608}
    if d in pinned:
        assert result.order == pinned[d]


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
    # reached counts every element up to the level that crosses the limit
    for gens, limit, reached in ((reference_generators(3, 1), 10, 14),
                                 (reference_generators(3, 1), 100, 122),
                                 (sp4_z3_generators(), 1000, 1416)):
        with pytest.raises(ClosureLimitError) as err:
            closure(gens, limit=limit)
        assert (err.value.limit, err.value.reached) == (limit, reached)


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


def test_reference_generators_match_dense_oracle():
    # the closed forms against the embedded dense unitaries, generator by generator; at
    # (3, 1) generator 0 is P, whose packed key thus equals its dense gate's
    for d, n in [(d, 1) for d in range(2, 10)] + [(d, 2) for d in range(2, 8)] \
            + [(d, 3) for d in range(2, 6)]:
        assert [t.key() for t in reference_generators(d, n)] == \
            [t.key() for t in dense_reference_generators(d, n)], (d, n)
    assert tableau_key(reference_generators(3, 1)[0]) == \
        tableau_key(clifford_membership(reference_phase_gate(3)))
    for d in range(2, 8):
        assert gate_tableau("CX", d) == clifford_membership(controlled_shift(d))
        assert gate_tableau("CZ", d) == clifford_membership(controlled_phase(d))


def test_embed_tableau_is_the_twin_of_embed():
    # placing a gate's tableau equals the tableau of the placed matrix, and misfits raise alike
    for d, n in ((2, 3), (3, 3), (4, 2)):
        system = QuditSystem(d, n)
        for gate in (reference_phase_gate(d), fourier_gate(d), controlled_shift(d),
                     controlled_phase(d)):
            local = clifford_membership(gate)
            for q in range(1, n - local.n + 2):
                assert embed_tableau(n, q, local) == clifford_membership(embed(system, q, gate.mat))
            for q in (0, n - local.n + 2):
                with pytest.raises(IndexError, match="does not fit"):
                    embed_tableau(n, q, local)


def test_reference_generators_need_no_dense_register():
    # 3**16 states are far past the dense size bound; the closed forms place each gate alone
    gens = reference_generators(3, 16)
    assert len(gens) == 2 * 16 + 15
    assert gens[-1] == embed_tableau(16, 15, gate_tableau("CX", 3))
    assert gens[2 * 7 + 1] == embed_tableau(16, 8, gate_tableau("F", 3))
    with pytest.raises(ValueError, match="n >= 1"):
        reference_generators(3, 0)


def closure_test_generators(kind, d, n):
    if kind == "reference":
        return reference_generators(d, n)
    if kind == "braid":
        return braid_generator_tableaux(d, n)
    ref = reference_generators(d, n)
    if kind == "single":
        return ref[1:2]
    # "repeated": a generator twice and the identity, which add no elements
    return [ref[0], ref[1], ref[0], CliffordTableau.identity(d, n)]


@pytest.mark.parametrize("kind,d,n", [("reference", d, 1) for d in (2, 3, 4, 5)]
                         + [("braid", d, 1) for d in (2, 3, 4, 5)] + [("braid", 2, 2)]
                         + [("single", 5, 1), ("repeated", 4, 1)])
def test_closure_keys_match_python_bfs(kind, d, n):
    # key for key and level for level against a set-based search in label arithmetic
    gens = closure_test_generators(kind, d, n)
    result = closure(gens)
    keys, level_sizes, candidate_sizes = closure_keys_reference(gens)
    assert result.keys.dtype == np.int64
    assert result.keys.tolist() == keys
    assert result.level_sizes == tuple(level_sizes)
    assert result.candidate_sizes == tuple(candidate_sizes)
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
            image = tableau_apply_loop(tab, PauliLabel(d, n, 0, tuple(vec[:n]), tuple(vec[n:])))
            assert vec_map[idx] == sum(v * d ** i for i, v in enumerate(image.vector()))
            assert phase_add[idx] == image.phase


@pytest.mark.parametrize("d,n", [(d, n) for n in (1, 2) for d in range(2, 8)])
def test_inverse_tables_match_inverse_tableau(d, n):
    # closure builds each inverse's tables from the generator's own tables
    for tab in reference_generators(d, n) + braid_generator_tableaux(d, n):
        vec_map, phase_add = _inverse_tables(*_gen_tables(tab), d)
        expected_map, expected_phase = _gen_tables(tab.inverse())
        assert np.array_equal(vec_map, expected_map)
        assert np.array_equal(phase_add, expected_phase)


def test_reference_generator_keys_pinned():
    # keys of the n = 1, 2 reference sets, in order: closure_d3n2 picks by index
    keys = [((d, n), [t.key() for t in reference_generators(d, n)])
            for d, n in [(d, 1) for d in range(2, 10)] + [(d, 2) for d in range(2, 8)]]
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
        "92ff69c78a85f50331b09368843bf5fa8fd3de4933171d3a658c316021316003")


def test_gen_tables_need_no_packed_keys():
    # three qutrits: tables of 3**6 entries build, while packed keys overflow int64
    gens = braid_generator_tableaux(3, 3)
    for tab in gens[:1] + gens[-1:]:
        vec_map, phase_add = _gen_tables(tab)
        assert vec_map.size == phase_add.size == 3 ** 6
        for idx in (1, 100, 728):
            vec = [(idx // 3 ** i) % 3 for i in range(6)]
            image = tableau_apply_loop(tab, PauliLabel(3, 3, 0, tuple(vec[:3]), tuple(vec[3:])))
            assert vec_map[idx] == sum(v * 3 ** i for i, v in enumerate(image.vector()))
            assert phase_add[idx] == image.phase
    with pytest.raises(ValueError, match="overflow int64 at d = 3, n = 3"):
        closure(gens)
    with pytest.raises(ValueError, match="overflow int64 at d = 3, n = 3"):
        tableau_key(gens[0])


def test_sp4_z3_closure_keys_pinned():
    result = closure(sp4_z3_generators())
    assert (result.order, result.levels, result.symplectic_order()) == (51840, 17, 51840)
    assert hashlib.sha256(result.keys.tobytes()).hexdigest() == (
        "7b0c855671b868934c01face3e462a28a97402cfbbbc1afb5e9f7281fef1b19d")
    assert 1 + sum(result.level_sizes) == result.order
