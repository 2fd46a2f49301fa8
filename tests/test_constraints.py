import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import d3_system_residuals, d4_system_residuals, is_trivial, unitarity_residual_loops, \
    yang_baxter_residual_loops
from parabraid.constraints import (
    CoefficientVector,
    FZCParams,
    all_fzc_params,
    apply_symmetry,
    d3_solution_table,
    d4_family,
    d4_family_distance,
    dft_prefactor,
    fzc_coefficients,
    gauge_fix,
    trivial_vector,
    unitarity_residual,
    unitarity_residuals,
    yang_baxter_residual,
    yang_baxter_residuals,
)

OMEGA3 = np.exp(2j * np.pi / 3)


def test_unitarity_examples():
    assert unitarity_residual(CoefficientVector(2, [1, 1j])) < 1e-14
    assert unitarity_residual(trivial_vector(3)) < 1e-14
    assert unitarity_residual(CoefficientVector(3, [1, 1, 1])) == pytest.approx(3.0)


def test_yang_baxter_examples():
    assert yang_baxter_residual(trivial_vector(4)) == 0.0
    assert yang_baxter_residual(CoefficientVector(3, [1, 1, OMEGA3])) < 1e-14


@pytest.mark.parametrize("d", range(2, 7))
def test_residuals_match_loop_definitions(d):
    # the array residuals against the definitions summed term by term, at
    # random vectors, every FZC point, the trivial vector, (d = 3) every
    # solution-table row and (d = 4) family points; a [rows, d] stack is
    # checked row by row, and a single vector gives the bits of its row
    rng = np.random.default_rng(100 + d)
    vectors = [CoefficientVector(d, rng.normal(size=d) + 1j * rng.normal(size=d))
               for _ in range(20)]
    vectors += [fzc_coefficients(params) for params in all_fzc_params(d)]
    vectors.append(trivial_vector(d))
    if d == 3:
        vectors += d3_solution_table()
    if d == 4:
        vectors += [d4_family(phi, sign) for phi in (0.0, 1.3, np.pi / 2) for sign in (+1, -1)]
    stack = np.array([vec.c for vec in vectors])
    for fast, stacked, loops in ((unitarity_residual, unitarity_residuals, unitarity_residual_loops),
                                 (yang_baxter_residual, yang_baxter_residuals,
                                  yang_baxter_residual_loops)):
        rows = stacked(stack)
        assert rows.shape == (len(vectors),)
        for vec, row in zip(vectors, rows):
            expected = loops(vec)
            assert abs(row - expected) <= 1e-12 * max(1.0, expected)
            assert np.shape(stacked(vec.c)) == () and stacked(vec.c) == row == fast(vec)
        assert np.array_equal(stacked(np.stack([stack, stack[::-1]])), [rows, rows[::-1]])


def test_fzc_small_cases():
    assert np.allclose(fzc_coefficients(FZCParams(2, 0, +1)).c, [1, -1j], atol=1e-15)
    assert np.allclose(fzc_coefficients(FZCParams(3, 0, +1)).c,
                       [1, np.conj(OMEGA3), np.conj(OMEGA3)], atol=1e-14)


@pytest.mark.parametrize("d", range(2, 8))
def test_fzc_family_satisfies_constraints(d):
    for params in all_fzc_params(d):
        vec = fzc_coefficients(params)
        assert unitarity_residual(vec) < 1e-12
        assert yang_baxter_residual(vec) < 1e-12
        assert vec.norm_squared == pytest.approx(d, abs=1e-12)
        assert vec.is_gauge_fixed


def test_fzc_periodicity_exact():
    from parabraid.constraints import fzc_phase
    for d in (2, 3, 4, 5, 6, 7):
        for params in all_fzc_params(d):
            for m in range(d):
                assert fzc_phase(params, m).num == fzc_phase(params, m + d).num


def test_fzc_vectors_distinct():
    # all 2d vectors distinct except at d = 2 where the two signs coincide
    for d in range(2, 8):
        vecs = [fzc_coefficients(p) for p in all_fzc_params(d)]
        distinct = set()
        for v in vecs:
            distinct.add(tuple(np.round(v.c, 9)))
        assert len(distinct) == (2 if d == 2 else 2 * d)


def test_d3_table_is_complete_fzc_set():
    table = d3_solution_table()
    fzc = {tuple(np.round(fzc_coefficients(p).c, 9)) for p in all_fzc_params(3)}
    rows = {tuple(np.round(v.c, 9)) for v in table}
    assert rows == fzc
    for vec in table:
        assert max(d3_system_residuals(vec)) < 1e-12
        assert unitarity_residual(vec) < 1e-12
        assert yang_baxter_residual(vec) < 1e-12


def test_trivial_vector_excluded_from_table_but_solves():
    triv = trivial_vector(3)
    assert unitarity_residual(triv) < 1e-12
    assert yang_baxter_residual(triv) < 1e-12
    assert is_trivial(triv)
    assert not any(is_trivial(v) for v in d3_solution_table())


def test_gauge_fix_pivot_rules():
    fixed, pivot = gauge_fix(CoefficientVector(2, [1j, 1]))
    assert pivot == 0
    assert fixed.c[0] == pytest.approx(1.0)
    fixed, pivot = gauge_fix(CoefficientVector(3, [0, 1j, 0]))
    assert pivot == 1
    assert fixed.c[1] == pytest.approx(1.0)


def test_symmetries_on_known_vectors():
    v = fzc_coefficients(FZCParams(3, 0, +1))
    twisted = apply_symmetry(v, "twist")
    assert twisted.distance(fzc_coefficients(FZCParams(3, 1, +1))) < 1e-12

    conj_rev = apply_symmetry(CoefficientVector(2, [1, 1j]), "conjugate_reverse")
    assert np.allclose(conj_rev.c, [1, -1j])

    # twist applied d times is the identity
    w = CoefficientVector(4, [1, 2j, 0.5, -1])
    out = w
    for _ in range(4):
        out = apply_symmetry(out, "twist")
    assert out.distance(apply_symmetry(w, "global_phase", 0.0)) < 1e-12


def test_conjugate_reverse_maps_between_signs():
    for d in (2, 3, 4, 5):
        for r in range(d):
            plus = fzc_coefficients(FZCParams(d, r, +1))
            minus = fzc_coefficients(FZCParams(d, (-r) % d, -1))
            assert apply_symmetry(plus, "conjugate_reverse").distance(minus) < 1e-12


@settings(max_examples=30)
@given(st.integers(2, 6), st.integers(0, 10**6), st.floats(0, 2 * np.pi, allow_nan=False))
def test_symmetries_preserve_residuals(d, seed, phi):
    rng = np.random.default_rng(seed)
    vec = CoefficientVector(d, rng.normal(size=d) + 1j * rng.normal(size=d))
    u0, y0 = unitarity_residual(vec), yang_baxter_residual(vec)
    for which in ("global_phase", "twist", "conjugate_reverse"):
        image = apply_symmetry(vec, which, phi)
        assert abs(unitarity_residual(image) - u0) < 1e-10 * max(1, u0)
        assert abs(yang_baxter_residual(image) - y0) < 1e-10 * max(1, y0)


def test_unknown_symmetry_rejected():
    with pytest.raises(ValueError):
        apply_symmetry(trivial_vector(2), "reverse")


def test_d4_family_members():
    for phi in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        for sign in (+1, -1):
            vec = d4_family(phi, sign)
            assert unitarity_residual(vec) < 1e-12
            assert yang_baxter_residual(vec) < 1e-12
            assert max(d4_system_residuals(vec)) < 1e-12
            # equal moduli along the family, and the squared-entry relation
            assert np.max(np.abs(np.abs(vec.c) - 1)) < 1e-12
            assert abs(vec.c[1] ** 2 - vec.c[3] ** 2) < 1e-12
            assert d4_family_distance(vec) < 1e-12


def test_d4_family_distance_detects_off_family():
    off = CoefficientVector(4, [1, 1, 1, 1])
    assert d4_family_distance(off) > 0.5


def test_dft_prefactor_closed_form():
    for d in range(2, 8):
        for r in range(d):
            params = FZCParams(d, r, +1)
            vec = fzc_coefficients(params)
            gauss = np.sum(vec.c) / np.sqrt(d)
            assert abs(gauss - dft_prefactor(params).as_complex()) < 1e-12
    with pytest.raises(ValueError):
        dft_prefactor(FZCParams(3, 0, -1))


def test_serialization_roundtrip():
    vec = fzc_coefficients(FZCParams(5, 2, -1))
    back = CoefficientVector.from_json(vec.to_json())
    assert back.d == 5 and vec.distance(back) < 1e-15
