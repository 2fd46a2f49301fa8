import dataclasses
import hashlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parabraid import encoding, systems
from parabraid.braiding import BraidWord, braid_tableau, canonical_word, diagonal_phases
from parabraid.clifford import PauliLabel, clifford_membership
from parabraid.constraints import FZCParams, dft_prefactor
from parabraid.encoding import (
    LEAKAGE_TOL,
    braid_generator_tableaux,
    build_encoding,
    certificate_r,
    controlled_shift_word,
    entangling_words,
    identify_gate,
    logical_tableau,
    parity_conjugation_table,
    restrict_word,
)
from parabraid.parafermions import build_parafermions, parity
from parabraid.systems import controlled_phase, controlled_shift, equal_up_to_phase, fourier_gate, pauli_z

from oracles import dense_braid_tableaux, dense_compose_braid, dense_restrict_words, gate_dictionary_list, \
    identify_in_list, restrict


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_encoding_restriction_dictionary(d):
    enc = build_encoding(d, 1, r=0)
    assert enc.isometry.shape == (d * d, d)
    # parities restrict to the logical Paulis; validated at build, re-check one
    lam2, leak = restrict(enc, parity(enc.rep.system, 2))
    assert leak < 1e-12
    assert np.max(np.abs(lam2.mat - np.roll(np.eye(d), 1, axis=0))) < 1e-12


def test_two_qudit_encoding_dimensions():
    enc = build_encoding(3, 2, r=0)
    assert enc.isometry.shape == (81, 9)


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_encoding_validation_builds_no_dense_paulis(monkeypatch, d, n):
    # the logical targets Z_q and X_q are checked as phased permutations of E's columns
    calls = []
    for module in (systems, encoding):
        for name in ("pauli_x", "pauli_z"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args, _name=name: calls.append(_name))
    build_encoding(d, n)
    assert calls == []


@pytest.mark.parametrize("n", (1, 2))
def test_encoding_validation_rejects_permuted_columns(n):
    # swapping |0..0> and |10..0> keeps E an isometry, but Z_L no longer acts on it as Z_1
    enc = build_encoding(3, n)
    order = np.arange(3 ** n)
    order[[0, 3 ** (n - 1)]] = order[[3 ** (n - 1), 0]]
    swapped = enc.isometry[:, order]
    with pytest.raises(AssertionError, match="qudit 1: a code parity misses its target on E"):
        encoding._validate_encoding(dataclasses.replace(enc, isometry=swapped))
    # the same equalities, checked densely, agree that the unswapped E passes and the swapped one fails
    for e, holds in ((enc.isometry, True), (swapped, False)):
        images = [parity(enc.rep.system, 1).mat @ e, e @ pauli_z(enc.logical_system, 1).mat]
        assert (np.max(np.abs(images[0] - images[1])) <= encoding.ENCODING_TOL) == holds


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_generators_preserve_code_space(d):
    enc = build_encoding(d, 1, r=0)
    for i in (1, 2, 3):
        _, leak = restrict_word(enc, BraidWord.from_text(str(i)))
        assert leak < 1e-10


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_single_braid_restrictions(d):
    enc = build_encoding(d, 1, r=0)
    dp = diagonal_phases(enc.rep, 1)

    t1, _ = restrict_word(enc, BraidWord.from_text("1"))
    assert np.max(np.abs(t1.mat - np.diag(dp.phases))) < 1e-12

    t2, _ = restrict_word(enc, BraidWord.from_text("2"))
    expected = np.array([[enc.rep.coefficients.at(k - l) for l in range(d)]
                         for k in range(d)]) / np.sqrt(d)
    assert np.max(np.abs(t2.mat - expected)) < 1e-12

    t3, _ = restrict_word(enc, BraidWord.from_text("3"))
    hat = np.diag([dp.phases[(-k) % d] for k in range(d)])
    assert np.max(np.abs(t3.mat - hat)) < 1e-12


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_three_exchange_composite_is_inverse_fourier(d):
    """The composite braid realizes the inverse DFT gate exactly.

    The product of the verified diagonal and hopping restrictions forces
    diag(ph) * (c_{k-l}/sqrt(d)) * diag(ph) = pref**2 * conj(F), so the
    composite is the inverse Fourier gate, not the forward one.
    """
    enc = build_encoding(d, 1, r=0)
    composite, leak = restrict_word(enc, canonical_word("F"))
    assert leak < 1e-10
    pref2 = dft_prefactor(FZCParams(d, 0, +1)).as_complex() ** 2
    assert composite.max_diff(pref2 * fourier_gate(d).dag()) < 1e-12
    gate = identify_gate(enc, canonical_word("F"))
    assert gate.name == ("F" if d == 2 else "F_dagger")  # F is self-adjoint at d = 2
    assert gate.phase_exact is not None
    assert abs(gate.phase_exact.as_complex() - pref2) < 1e-9


def test_inverse_composite_gives_forward_fourier():
    for d in (2, 3, 4, 5):
        enc = build_encoding(d, 1, r=0)
        word = canonical_word("F").inverse()
        composite, _ = restrict_word(enc, word)
        pref2 = np.conj(dft_prefactor(FZCParams(d, 0, +1)).as_complex() ** 2)
        assert composite.max_diff(pref2 * fourier_gate(d)) < 1e-12


def test_identify_gate_dictionary_entries():
    enc = build_encoding(3, 1, r=0)
    assert identify_gate(enc, BraidWord.identity()).name == "identity"
    assert identify_gate(enc, BraidWord.from_text("1")).name == "quadratic_phase"
    # three identical exchanges yield a logical Pauli for d = 3
    gate = identify_gate(enc, BraidWord.from_text("1 1 1"))
    assert gate.name in {"identity"} | {f"X^{a}Z^{b}" for a in range(3) for b in range(3)}


def exact_logical_tableau(d, n_logical, word, r=0, sign=+1):
    """Logical tableau of an FZC braid word by the exact path alone."""
    system = build_parafermions(d, 2 * n_logical)
    return logical_tableau(system, braid_tableau(system, FZCParams(d, r, sign), word))


def test_pauli_conjugation_single_braid():
    for d in (2, 3, 4, 5):
        for r in range(d):
            x_img, z_img = exact_logical_tableau(d, 1, BraidWord.from_text("1"), r).images
            assert x_img.x == (1,) and x_img.z == (d - 1,)
            assert x_img.phase == (-(2 * r + d + 1)) % (2 * d)
            assert z_img.x == (0,) and z_img.z == (1,)
            assert z_img.phase == 0


def test_pauli_conjugation_composite_braid():
    # measured action of the three-exchange composite: X -> Zdag, Z -> X
    for d in (2, 3, 4, 5):
        x_img, z_img = exact_logical_tableau(d, 1, canonical_word("F")).images
        assert x_img.x == (0,)
        assert x_img.z == ((d - 1) % d,)
        assert x_img.phase == 0
        assert z_img.x == (1,)
        assert z_img.z == (0,)
        assert z_img.phase == 0


def test_pauli_conjugation_non_clifford_word_reports_none():
    # a continuous-family braid at generic angle is not a Clifford gate;
    # build the encoding by hand around the non-FZC representation
    from parabraid.braiding import BraidRepresentation
    from parabraid.constraints import d4_family
    from parabraid.encoding import Encoding
    from parabraid.parafermions import parity_eigenbasis
    from parabraid.systems import QuditSystem

    def family_encoding(phi):
        rep = BraidRepresentation(build_parafermions(4, 2), d4_family(phi, +1))
        bases = [parity_eigenbasis(rep.system, i) for i in (1, 3)]
        columns = [np.kron(bases[0].vector(k), bases[1].vector((4 - k) % 4)) for k in range(4)]
        return Encoding(4, 1, rep, np.column_stack(columns), QuditSystem(4, 1))

    restricted, leakage = restrict_word(family_encoding(0.9), BraidWord.from_text("1"))
    assert leakage < 1e-10
    assert clifford_membership(restricted) is None
    # the family's FZC point is Clifford on the same dense path
    restricted, _ = restrict_word(family_encoding(np.pi / 4), BraidWord.from_text("1"))
    assert clifford_membership(restricted) is not None


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_entangling_identities(d):
    enc = build_encoding(d, 2, r=0)
    cx = controlled_shift(d)
    cz = controlled_phase(d)
    ts, leak_s = restrict_word(enc, canonical_word("S"))
    tsd, leak_sd = restrict_word(enc, canonical_word("S_dagger"))
    tt, leak_t = restrict_word(enc, canonical_word("T"))
    assert max(leak_s, leak_sd, leak_t) < 1e-10
    assert equal_up_to_phase(ts, cx.power((d - 2) % d), 1e-9) is not None
    assert equal_up_to_phase(tsd, cx.power(2), 1e-9) is not None
    assert equal_up_to_phase(tt, cz.power(2), 1e-9) is not None


@pytest.mark.parametrize("d", (3, 5))
def test_odd_dimension_controlled_shift(d):
    enc = build_encoding(d, 2, r=0)
    word = entangling_words(d)["CX"]
    tcx, leak = restrict_word(enc, word)
    assert leak < 1e-10
    lam = equal_up_to_phase(tcx, controlled_shift(d), 1e-9)
    assert lam is not None and abs(lam - 1) < 1e-9


def test_identify_entangling_gate_names():
    enc = build_encoding(3, 2, r=0)
    assert identify_gate(enc, canonical_word("S_dagger")).name == "CX^2"
    assert identify_gate(enc, canonical_word("T")).name == "CZ^2"
    assert identify_gate(enc, entangling_words(3)["CX"]).name == "CX^1"


@pytest.mark.parametrize("d", (2, 3, 4))
def test_parity_conjugation_table(d):
    table = parity_conjugation_table(build_parafermions(d, 4), FZCParams(d, 0), canonical_word("S"))
    assert table.all_matched
    # every recorded phase is exactly 1 (phase exponent 0) at r = 0
    assert table.phases == {i: 0 for i in (1, 2, 3, 5, 6, 7)}
    assert table.neutral_parities_fixed


def test_parity_table_requires_eight_modes():
    with pytest.raises(ValueError):
        parity_conjugation_table(build_parafermions(3, 2), FZCParams(3, 0), canonical_word("S"))


def test_entangling_sweep_recorded_not_asserted():
    """Exploratory: the exact controlled-shift identity is special to r = 0
    (and r = d/2 for even d); other representations still satisfy the parity
    table up to phases.  Recorded for reference, nothing asserted beyond
    structure."""
    rows = []
    d = 3
    for sign in (+1, -1):
        for r in range(d):
            enc = build_encoding(d, 2, r=r, sign=sign)
            tsd, leak = restrict_word(enc, canonical_word("S_dagger"))
            match = equal_up_to_phase(tsd, controlled_shift(d).power(2), 1e-9) is not None
            table = parity_conjugation_table(enc.rep.system, enc.rep.fzc, canonical_word("S"))
            rows.append((d, r, sign, match, table.all_matched, leak))
    assert all(row[4] for row in rows)          # parity table holds for all r, signs
    assert all(row[5] < 1e-10 for row in rows)  # subspace always preserved
    assert [row[3] for row in rows if row[1] == 0] == [True, True]


def test_certificate_r_value():
    assert [certificate_r(d) for d in (2, 3, 4, 5)] == [1, 1, 2, 2]


def test_leakage_error_on_non_preserving_word():
    enc = build_encoding(3, 2, r=0)
    with pytest.raises(ValueError):
        identify_gate(enc, BraidWord.from_text("4"))


def test_leakage_matches_projector_oracle():
    # leakage is max|(I - E Edag) U E|; here the projector and U are built explicitly
    enc = build_encoding(3, 2, r=0)
    e = enc.isometry
    complement = np.eye(e.shape[0]) - e @ e.conj().T
    leaky = BraidWord.from_text("4")
    for word in [leaky, *entangling_words(3).values()]:
        op = dense_compose_braid(enc.rep, word)
        _, leakage = restrict_word(enc, word)
        assert abs(leakage - float(np.max(np.abs(complement @ op.mat @ e)))) < 1e-12
        assert abs(leakage - restrict(enc, op)[1]) < 1e-12
        assert (leakage > 1e-3) == (word == leaky)


@pytest.mark.parametrize("d,n", [(d, 1) for d in range(2, 8)] + [(d, 2) for d in range(2, 5)])
def test_braid_generator_tableaux_match_dense_oracle(d, n):
    for r in range(d):
        for sign in (+1, -1):
            exact = [t.key() for t in braid_generator_tableaux(d, n, r, sign)]
            assert exact == [t.key() for t in dense_braid_tableaux(d, n, r, sign)], (r, sign)


def test_braid_generator_tableaux_match_dense_oracle_d5_two_qudits():
    # the longest generator word of the suite: the cubed inverse-S braid at dim 625
    exact = [t.key() for t in braid_generator_tableaux(5, 2)]
    assert exact == [t.key() for t in dense_braid_tableaux(5, 2, certificate_r(5))]


def test_braid_generator_tableaux_match_dense_oracle_three_qudits():
    # twelve parafermions: dim 64 at d = 2, dim 729 at d = 3
    for r in range(2):
        for sign in (+1, -1):
            exact = [t.key() for t in braid_generator_tableaux(2, 3, r, sign)]
            assert exact == [t.key() for t in dense_braid_tableaux(2, 3, r, sign)], (r, sign)
    exact = [t.key() for t in braid_generator_tableaux(3, 3)]
    assert len(exact) == 8  # P and F words on three qudits, two entangling words
    assert exact == [t.key() for t in dense_braid_tableaux(3, 3, certificate_r(3))]


def test_braid_generator_keys_pinned():
    # keys of the n = 1, 2 generator sets, in order, as computed by the
    # hard-coded n = 1, 2 word lists the quadruplet loop replaced
    keys = [((d, n, r, sign), [t.key() for t in braid_generator_tableaux(d, n, r, sign)])
            for d, n in [(d, 1) for d in range(2, 8)] + [(d, 2) for d in range(2, 6)]
            for r in range(d) for sign in (+1, -1)]
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
        "fa62ea30ba8166895041d96b87b63ac6e8a3426e067050296f4d2e1513e9409b")


def test_large_n_generator_keys_pinned():
    # keys of generator sets on up to 16 encoded qudits, as computed by the
    # PauliLabel-loop tableau arithmetic the integer-array rows replaced
    keys = [((d, n), [t.key() for t in braid_generator_tableaux(d, n)])
            for d, n in [(2, 8), (3, 8), (4, 8), (5, 6), (3, 16)]]
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
        "5dfcf22f25998832c6246452ce55c86040a47485a1b5267d8fbf135feb0f12e0")


def test_exact_restriction_rejects_leaking_word():
    system = build_parafermions(3, 4)
    physical = braid_tableau(system, FZCParams(3, 0), BraidWord.from_text("4"))
    with pytest.raises(ValueError, match="leaks"):
        logical_tableau(system, physical)


def test_exact_restriction_rejects_pauli_leak():
    # at d = 2, U_4 U_4 is proportional to Lambda_4: every logical image is still
    # a logical Pauli, but the stabilizers change sign, so the code is not preserved
    system = build_parafermions(2, 4)
    physical = braid_tableau(system, FZCParams(2, 0), BraidWord.from_text("4 4"))
    with pytest.raises(ValueError, match="leaks"):
        logical_tableau(system, physical)
    _, leakage = restrict_word(build_encoding(2, 2, r=0), BraidWord.from_text("4 4"))
    assert leakage > 1e-3  # the dense restriction sees the leak too


def test_braid_generator_tableaux_build_no_dense_object(monkeypatch):
    from parabraid import braiding, clifford, encoding
    from parabraid.systems import DenseOperator

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(DenseOperator, "__matmul__", counted("matmul", DenseOperator.__matmul__))
    monkeypatch.setattr(PauliLabel, "to_matrix", counted("to_matrix", PauliLabel.to_matrix))
    monkeypatch.setattr(braiding.BraidRepresentation, "__init__",
                        counted("BraidRepresentation", braiding.BraidRepresentation.__init__))
    for module, name in ((clifford, "clifford_membership"), (encoding, "build_encoding")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    braid_generator_tableaux(3, 1)
    braid_generator_tableaux(4, 2, 1, -1)
    assert calls == []
    braiding.conjugation_action(encoding.build_encoding(2, 1).rep, 1)  # the counters see a dense path
    assert {"BraidRepresentation", "build_encoding", "to_matrix", "matmul"} <= set(calls)


def test_code_layout_needs_whole_quadruplets():
    system = build_parafermions(3, 4)
    assert len(system.code_layout) == 2
    # labels and code rows are built once per system, for every restriction on it
    assert system.code_layout is system.code_layout and system.code_rows is system.code_rows
    with pytest.raises(ValueError, match="quadruplets"):
        build_parafermions(3, 3).code_layout


def test_controlled_shift_word_needs_odd_d():
    assert controlled_shift_word(3) == canonical_word("S_dagger").power(2)
    with pytest.raises(ValueError, match="odd d"):
        controlled_shift_word(4)


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_entangling_words_exact_match_dense_oracle(d):
    enc = build_encoding(d, 2, r=0)
    words = entangling_words(d)
    assert sorted(words) == sorted(["S", "S_dagger", "T"] + (["CX"] if d % 2 else []))
    for name, word in words.items():
        restricted, leakage = restrict_word(enc, word)
        assert leakage < LEAKAGE_TOL, name
        assert exact_logical_tableau(d, 2, word) == clifford_membership(restricted), name


@lru_cache(maxsize=None)
def cached_encoding(d, n_logical, r, sign):
    return build_encoding(d, n_logical, r=r, sign=sign)


@st.composite
def fzc_braid_words(draw):
    d = draw(st.integers(2, 4))
    n_logical = draw(st.integers(1, 2))
    r = draw(st.integers(0, d - 1))
    sign = draw(st.sampled_from((+1, -1)))
    letter = st.tuples(st.integers(1, 4 * n_logical - 1), st.sampled_from((+1, -1)))
    word = BraidWord(tuple(draw(st.lists(letter, max_size=6))))
    return d, n_logical, r, sign, word


@settings(max_examples=300, deadline=None)
@given(fzc_braid_words())
def test_random_words_exact_restriction_matches_dense(case):
    # the exact path raises exactly on the words the dense restriction sees leak,
    # and otherwise gives the tableau of the dense restricted matrix
    d, n_logical, r, sign, word = case
    enc = cached_encoding(d, n_logical, r, sign)
    restricted, leakage = restrict_word(enc, word)
    try:
        exact = exact_logical_tableau(d, n_logical, word, r, sign)
    except ValueError:
        assert leakage > LEAKAGE_TOL
        return
    assert leakage <= LEAKAGE_TOL
    assert exact == clifford_membership(restricted)


def oracle_grid_words(d, n_logical):
    """The canonical words of the register (F on one qudit; S, S_dagger, T and at odd d the CX
    word on two), then 20 seeded random words of 1..8 letters with inverse letters; at two
    qudits most random words hold the leaking exchange U_4."""
    words = list(entangling_words(d).values()) if n_logical == 2 else [canonical_word("F")]
    rng = np.random.default_rng(1000 * d + n_logical)
    for length in rng.integers(1, 9, size=20):
        letters = zip(rng.integers(1, 4 * n_logical, size=length), rng.choice((-1, 1), size=length))
        words.append(BraidWord(tuple((int(i), int(e)) for i, e in letters)))
    return words


@pytest.mark.parametrize("n_logical", (1, 2))
@pytest.mark.parametrize("d", range(2, 7))
def test_restrict_word_and_identify_gate_match_dense_oracle(d, n_logical):
    # the column path against dense products at every FZC point: the restriction to 1e-12, and
    # the gate name and phase exponent against a scan of the whole dictionary; a leaking word
    # makes identify_gate raise.  The canonical words run at every (r, sign), each random word
    # at one seeded (r, sign).
    words = oracle_grid_words(d, n_logical)
    n_canonical = len(words) - 20
    points = [(r, sign) for r in range(d) for sign in (+1, -1)]
    chosen = np.random.default_rng(d + 10 * n_logical).integers(len(points), size=20)
    leaked = 0
    for k, (r, sign) in enumerate(points):
        enc = build_encoding(d, n_logical, r=r, sign=sign)
        batch = words[:n_canonical] + [w for w, c in zip(words[n_canonical:], chosen) if c == k]
        if k == 0 or n_logical == 1:  # only the one-qudit list holds an (r, sign)-dependent gate
            candidates = gate_dictionary_list(enc)
        for word, (dense, dense_leak) in zip(batch, dense_restrict_words(enc, batch)):
            restricted, leakage = restrict_word(enc, word)
            assert restricted.max_diff(dense) <= 1e-12 and abs(leakage - dense_leak) <= 1e-12
            if dense_leak > LEAKAGE_TOL:
                leaked += 1
                with pytest.raises(ValueError, match="leaks"):
                    identify_gate(enc, word)
                continue
            gate = identify_gate(enc, word)
            phase = None if gate.phase_exact is None else gate.phase_exact.num
            assert (gate.name, phase) == identify_in_list(dense, candidates, d), (word, r, sign)
    assert leaked > 0 if n_logical == 2 else leaked == 0


DENSE_GATE_BUILDERS = ("pauli_monomial", "fourier_gate", "controlled_shift", "controlled_phase",
                       "equal_up_to_phase")


def test_identify_gate_builds_no_dense_candidate(monkeypatch):
    # the gate is named from its exact tableau: no module of the package builds a dense
    # candidate or compares matrices while identify_gate runs
    import parabraid

    cases = [(build_encoding(d, n), word) for d in range(2, 6) for n in (1, 2)
             for word in (entangling_words(d).values() if n == 2 else [canonical_word("F")])]
    cases.append((build_encoding(5, 2), BraidWord.from_text("1")))
    called = []
    for module in vars(parabraid).values():
        for name in DENSE_GATE_BUILDERS:
            if getattr(module, "__name__", "").startswith("parabraid.") and hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args, _name=name: called.append(_name))
    names = [identify_gate(enc, word).name for enc, word in cases]
    assert names.index("unknown") == len(cases) - 1  # U_1 alone at two qudits is in no list
    assert called == []


def test_identify_gate_covers_one_or_two_logical_qudits():
    with pytest.raises(ValueError, match="1 or 2 logical qudits"):
        identify_gate(build_encoding(2, 3), BraidWord.identity())
