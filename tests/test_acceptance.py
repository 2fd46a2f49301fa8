"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test collects every sub-failure before asserting so a red criterion
reports exactly which clause failed and by how much.  The conftest hook
prints a one-line PASS/FAIL verdict per criterion at the end of the run.
"""

import hashlib
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from parabraid.braiding import BraidRepresentation, BraidWord, canonical_word, \
    check_representation, conjugation_action, diagonal_phases
from parabraid.clifford import closure, clifford_membership, reference_generators
from parabraid.constraints import (
    CoefficientVector,
    FZCParams,
    all_fzc_params,
    d3_solution_table,
    d4_family,
    d4_family_distance,
    dft_prefactor,
    fzc_coefficients,
    fzc_phase,
    unitarity_residual,
    yang_baxter_residual,
)
from parabraid.encoding import braid_generator_tableaux, build_encoding, certificate_r, \
    parity_conjugation_table, pauli_conjugation, restrict_word
from parabraid.parafermions import build_parafermions, check_defining_relations, \
    check_parity_algebra, parity
from parabraid.phases import CyclotomicPhase, phase_from_complex
from parabraid.solver import SolverConfig, solve_all
from parabraid.systems import controlled_phase, controlled_shift, equal_up_to_phase, fourier_gate

from oracles import matrix_group_order, sl2_order, sp4_z3_order

SEED = 7


def _finish(failures, label):
    assert not failures, f"{label}: {len(failures)} sub-check(s) failed:\n" + "\n".join(failures)


def test_criterion_01_algebra_suite():
    t0 = time.perf_counter()
    failures = []
    for d in range(2, 7):
        for n_pairs in range(1, 4):
            sys_ = build_parafermions(d, n_pairs, validate=False)
            residual = check_defining_relations(sys_)
            algebra = check_parity_algebra(sys_) if n_pairs >= 1 else None
            worst = max(residual, algebra.max_residual)
            for i in range(1, sys_.n_modes):
                lam = parity(sys_, i)
                worst = max(worst, float(np.max(np.abs(lam.power(d).mat
                                                       - np.eye(sys_.system.dim)))))
            if worst > 1e-12:
                failures.append(f"d={d} n_pairs={n_pairs}: residual {worst:.3e} > 1e-12")
    elapsed = time.perf_counter() - t0
    if elapsed > 60:
        failures.append(f"algebra suite took {elapsed:.1f}s > 60s")
    _finish(failures, "criterion 1")


def test_criterion_02_fzc_representation_suite():
    failures = []
    for d in range(2, 8):
        for params in all_fzc_params(d):
            vec = fzc_coefficients(params)
            coeff = max(unitarity_residual(vec), yang_baxter_residual(vec))
            if coeff > 1e-12:
                failures.append(f"d={d} {params}: coefficient residual {coeff:.3e}")
            pair_counts = [2] + ([3] if d <= 4 else [])
            for n_pairs in pair_counts:
                rep = BraidRepresentation(build_parafermions(d, n_pairs), vec, fzc=params)
                report = check_representation(rep)
                matrix = max(report.far_commutativity, report.yang_baxter, report.unitarity)
                if matrix > 1e-10:
                    failures.append(f"d={d} {params} n={n_pairs}: matrix residual {matrix:.3e}")
                if report.overall_parity > 1e-12:
                    failures.append(f"d={d} {params} n={n_pairs}: parity drift "
                                    f"{report.overall_parity:.3e}")
    _finish(failures, "criterion 2")


def test_criterion_03_conjugation_law_exact():
    failures = []
    for d in range(2, 7):
        for r in range(d):
            rep = BraidRepresentation.from_fzc(d, 2, r, +1)
            res = conjugation_action(rep, 1)
            if res.residual > 1e-10:
                failures.append(f"d={d} r={r}: residual {res.residual:.3e}")
            if res.phase_first != CyclotomicPhase.omega(d, -r):
                failures.append(f"d={d} r={r}: first phase {res.phase_first}")
            if res.phase_second != CyclotomicPhase.omega(d, 1 - r):
                failures.append(f"d={d} r={r}: second phase {res.phase_second}")
    _finish(failures, "criterion 3")


def test_criterion_04_dft_relation_exact():
    failures = []
    for d in range(2, 8):
        for r in range(d):
            params = FZCParams(d, r, +1)
            rep = BraidRepresentation.from_fzc(d, 2, r, +1)
            dp = diagonal_phases(rep, 1)
            expected_prefactor = CyclotomicPhase(-4 * r * (r + d) + d * (1 - d), d)
            if dp.prefactor != expected_prefactor:
                failures.append(f"d={d} r={r}: prefactor {dp.prefactor}")
            for k in range(d):
                measured = phase_from_complex(dp.phases[k], d)
                exact = fzc_phase(params, k).conjugate() * dft_prefactor(params)
                if measured is None or measured != exact:
                    failures.append(f"d={d} r={r} k={k}: phase {measured} != {exact}")
    _finish(failures, "criterion 4")


def test_criterion_05_solver_d2():
    failures = []
    result = solve_all(SolverConfig(2, seed=SEED))
    nontrivial = result.nontrivial_clusters
    if len(nontrivial) != 2:
        failures.append(f"nontrivial clusters: {len(nontrivial)} != 2")
    targets = [CoefficientVector(2, [1, 1j]), CoefficientVector(2, [1, -1j])]
    for cluster in nontrivial:
        dist = min(cluster.representative.distance(t) for t in targets)
        if dist > 1e-6:
            failures.append(f"representative off the known pair by {dist:.3e}")
    if len(result.trivial_clusters) != 1:
        failures.append(f"trivial clusters flagged: {len(result.trivial_clusters)} != 1")
    _finish(failures, "criterion 5")


def test_criterion_06_solver_d3():
    failures = []
    result = solve_all(SolverConfig(3, seed=SEED))
    nontrivial = result.nontrivial_clusters
    if len(nontrivial) != 6:
        failures.append(f"nontrivial clusters: {len(nontrivial)} != 6")
    table = d3_solution_table()
    matched = set()
    for cluster in nontrivial:
        dists = [cluster.representative.distance(t) for t in table]
        best = int(np.argmin(dists))
        if dists[best] > 1e-6:
            failures.append(f"representative off the table by {dists[best]:.3e}")
        matched.add(best)
    if len(matched) != 6:
        failures.append(f"only {len(matched)} of 6 table rows were found")
    doubled = solve_all(SolverConfig(3, restarts=4000, seed=SEED))
    if len(doubled.nontrivial_clusters) != len(nontrivial):
        failures.append("cluster count changed when doubling restarts")
    _finish(failures, "criterion 6")


def test_criterion_07_d4_family():
    failures = []
    for phi in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        for sign in (+1, -1):
            vec = d4_family(phi, sign)
            residual = max(unitarity_residual(vec), yang_baxter_residual(vec))
            if residual > 1e-12:
                failures.append(f"family point phi={phi:.3f} sign={sign}: {residual:.3e}")
    result = solve_all(SolverConfig(4, seed=SEED))
    for cluster in result.nontrivial_clusters:
        if cluster.manifold_dim != 1:
            failures.append(f"cluster at {np.round(cluster.representative.c, 4)} "
                            f"reports dim {cluster.manifold_dim}")
        dist = d4_family_distance(cluster.representative)
        if dist > 1e-6:
            failures.append(f"cluster off the family by {dist:.3e}")
    _finish(failures, "criterion 7")


def test_criterion_08_single_qudit_gates():
    """T(U1 U2 U1) = pref**2 * Fdag; T(U2) entries; conjugation tables.

    The hop clause fixes C = T(U2) = (c_{k-l} / sqrt(d)) and criterion 4 the
    phases of D = T(U1) = diag(pref * conj(c_k)), with c_m = omega**(m(m+2r+d)/2).
    Multiplying out,

        (D C D)_{kl} = pref**2 * conj(c_k) c_{k-l} conj(c_l) / sqrt(d)
                     = pref**2 * omega**(-kl - (2r+d) l) / sqrt(d),

    and at r = 0 the exponent is -kl mod d, so T(U1 U2 U1) = pref**2 * Fdag
    and the inverse word gives the forward gate, conj(pref**2) * F.

    The conjugation tables agree.  T(U2) is a function of X, so it fixes X
    and can send Z only to Z X**s (up to phase).  Composed with the diagonal
    table X -> X Zdag, Z -> Z, the composite sends X to X**(1-s) Z**(-(2-s)),
    which is never Z unless 2 = 0 mod d; the measured table is X -> Zdag,
    Z -> X.  The forward gate F (X -> Z) is reached through the inverse word.
    """
    failures = []
    for d in (2, 3, 4, 5):
        enc = build_encoding(d, 1, r=0)
        pref2 = dft_prefactor(FZCParams(d, 0, +1)).as_complex() ** 2

        composite, leak = restrict_word(enc, canonical_word("F"))
        diff = composite.max_diff(pref2 * fourier_gate(d).dag())
        if leak > 1e-10 or diff > 1e-10:
            failures.append(f"d={d}: |T(U1U2U1) - pref^2 Fdag| = {diff:.3e} > 1e-10")

        forward, leak = restrict_word(enc, canonical_word("F").inverse())
        diff = forward.max_diff(np.conj(pref2) * fourier_gate(d))
        if leak > 1e-10 or diff > 1e-10:
            failures.append(f"d={d}: |T((U1U2U1)^-1) - conj(pref^2) F| = {diff:.3e} > 1e-10")

        hop, _ = restrict_word(enc, BraidWord.from_text("2"))
        expected = np.array([[enc.rep.coefficients.at(k - l) for l in range(d)]
                             for k in range(d)]) / np.sqrt(d)
        hop_diff = float(np.max(np.abs(hop.mat - expected)))
        if hop_diff > 1e-12:
            failures.append(f"d={d}: T(U2) entry mismatch {hop_diff:.3e} > 1e-12")

        images = {im.source: im for im in pauli_conjugation(enc, BraidWord.from_text("1"))}
        x_img, z_img = images["X"], images["Z"]
        ok_x = (x_img.label is not None and x_img.label.x == (1,)
                and x_img.label.z == (d - 1,)
                and x_img.label.phase == (-(d + 1)) % (2 * d))
        ok_z = (z_img.label is not None and z_img.label.x == (0,)
                and z_img.label.z == (1,) and z_img.label.phase == 0)
        if not (ok_x and ok_z):
            failures.append(f"d={d}: diagonal-braid conjugation table mismatch")

        images = {im.source: im for im in pauli_conjugation(enc, canonical_word("F"))}
        x_img, z_img = images["X"], images["Z"]
        ok_x = (x_img.label is not None and x_img.label.x == (0,)
                and x_img.label.z == (d - 1,) and x_img.label.phase == 0)
        ok_z = (z_img.label is not None and z_img.label.x == (1,)
                and z_img.label.z == (0,) and z_img.label.phase == 0)
        if not (ok_x and ok_z):
            got_x = (x_img.label.x, x_img.label.z, x_img.label.phase) if x_img.label else None
            got_z = (z_img.label.x, z_img.label.z, z_img.label.phase) if z_img.label else None
            failures.append(f"d={d}: composite conjugation is X->{got_x}, Z->{got_z}, "
                            f"not X->Zdag, Z->X")
    _finish(failures, "criterion 8")


def test_criterion_09_single_qudit_clifford_certificate():
    """Braiding all four parafermions generates the reference single-qudit group.

    The generators are the restrictions of the three exchanges U1, U2, U3 of
    one quadruplet at r = certificate_r(d).  Their closure must equal the
    reference closure key for key, and at d = 2, 3 reach the oracle order
    |SL(2, Z_d)| * d**2, both by tableau closure and by a matrix-level
    enumeration that does not use tableaux.

    U3 is needed: at odd d, T(U1) T(U3)**-1 is a logical Z (up to phase), the
    Pauli translation that U1 and U1 U2 U1 alone (the n = 1 set of
    braid_generator_tableaux) lack; without U3 the closure has only 24 and
    120 elements at d = 3, 5 instead of 216 and 3000.  The parameter matters
    as well: at r = 0 and odd d even all three exchanges reach only that
    24- or 120-element lift.
    """
    failures = []
    for d in (2, 3, 4, 5):
        t0 = time.perf_counter()
        enc = build_encoding(d, 1, r=certificate_r(d))
        exchanges = []
        for text in ("1", "2", "3"):
            restricted, leak = restrict_word(enc, BraidWord.from_text(text))
            if leak > 1e-10:
                failures.append(f"d={d}: exchange {text} leaks {leak:.3e}")
            exchanges.append(restricted)
        tableaux = [clifford_membership(u) for u in exchanges]
        if any(tab is None for tab in tableaux):
            failures.append(f"d={d}: an exchange is not a Clifford gate")
            continue
        braid = closure(tableaux)
        ref = closure(reference_generators(d, 1))
        elapsed = time.perf_counter() - t0
        if not np.array_equal(braid.keys, ref.keys):
            failures.append(f"d={d}: braid closure (order {braid.order}) != "
                            f"reference closure (order {ref.order})")
        if d in (2, 3):
            oracle = sl2_order(d) * d * d
            if braid.order != oracle:
                failures.append(f"d={d}: braid order {braid.order} != oracle {oracle}")
            if ref.order != oracle:
                failures.append(f"d={d}: reference order {ref.order} != oracle {oracle}")
            matrix_order = matrix_group_order([u.mat for u in exchanges])
            if matrix_order != oracle:
                failures.append(f"d={d}: matrix-level order {matrix_order} != oracle {oracle}")
        if elapsed > 30:
            failures.append(f"d={d}: closure pair took {elapsed:.1f}s > 30s")
    _finish(failures, "criterion 9")


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_criterion_10_entangling_suite(d):
    t0 = time.perf_counter()
    failures = []
    enc = build_encoding(d, 2, r=0)
    cx, cz = controlled_shift(d), controlled_phase(d)

    tsd, leak_sd = restrict_word(enc, canonical_word("S_dagger"))
    tt, leak_t = restrict_word(enc, canonical_word("T"))
    if max(leak_sd, leak_t) > 1e-10:
        failures.append(f"d={d}: leakage {max(leak_sd, leak_t):.3e} > 1e-10")
    if equal_up_to_phase(tsd, cx.power(2), 1e-9) is None:
        failures.append(f"d={d}: T(S dagger) does not match the squared controlled shift")
    if equal_up_to_phase(tt, cz.power(2), 1e-9) is None:
        failures.append(f"d={d}: T(T) does not match the squared controlled phase")

    if d <= 4:
        table = parity_conjugation_table(enc.rep, canonical_word("S"))
        if not table.all_matched:
            failures.append(f"d={d}: parity conjugation table mismatch")
        else:
            worst = max(e.residual for e in table.entries.values())
            if worst > 1e-9:
                failures.append(f"d={d}: parity table residual {worst:.3e} > 1e-9")
        if max(table.neutral_a_residual, table.neutral_b_residual) > 1e-9:
            failures.append(f"d={d}: neutral parity products not preserved")
    elapsed = time.perf_counter() - t0
    if elapsed > 120:
        failures.append(f"d={d}: entangling suite took {elapsed:.1f}s > 120s")
    _finish(failures, f"criterion 10 (d={d})")


@pytest.mark.parametrize("d", (3, 5))
def test_criterion_11_odd_d_controlled_shift(d):
    enc = build_encoding(d, 2, r=0)
    word = canonical_word("S_dagger").power((d + 1) // 2)
    tcx, leak = restrict_word(enc, word)
    assert leak <= 1e-10
    lam = equal_up_to_phase(tcx, controlled_shift(d), 1e-9)
    assert lam is not None, f"d={d}: repeated inverse S does not give the controlled shift"


def test_criterion_12_two_qudit_clifford_certificate():
    failures = []
    t0 = time.perf_counter()
    braid = closure(braid_generator_tableaux(3, 2))
    ref = closure(reference_generators(3, 2))
    elapsed = time.perf_counter() - t0
    oracle = sp4_z3_order() * 3**4
    if braid.order != oracle:
        failures.append(f"braid closure order {braid.order} != oracle {oracle}")
    if ref.order != oracle:
        failures.append(f"reference closure order {ref.order} != oracle {oracle}")
    if not np.array_equal(braid.keys, ref.keys):
        failures.append("braid and reference closures differ as sets")
    ref_sha = hashlib.sha256(ref.keys.tobytes()).hexdigest()
    if ref_sha != "506ae1f91af18ef0fcda4e20ddb505614e73dabd7929291cd7381bce5bcd9b6a":
        failures.append(f"reference closure keys changed (sha256 {ref_sha})")
    if elapsed > 600:
        failures.append(f"two-qudit closures took {elapsed:.1f}s > 600s")
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    if peak_gb > 2.0:
        failures.append(f"peak memory {peak_gb:.2f} GB > 2 GB")
    _finish(failures, "criterion 12")


def test_criterion_13_report_determinism(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "parabraid", "report-all", "--d-max", "4",
             "--seed", str(SEED), "--out", str(out)],
            env=env, cwd=root, capture_output=True, text=True, timeout=1800,
        )
        assert proc.returncode in (0, 1), proc.stderr[-2000:]
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "two report-all runs differ byte-wise"
