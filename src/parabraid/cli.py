"""Command-line driver for the verification suites.

Exit codes: 0 all asserted checks pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import report as rep
from .braiding import BraidRepresentation, BraidWord, canonical_word, check_representation, \
    conjugation_action, diagonal_phases
from .clifford import DEFAULT_CLOSURE_LIMIT, ClosureLimitError, check_key_width, closure, \
    reference_generators
from .constraints import (
    CoefficientVector,
    all_fzc_params,
    d3_solution_table,
    d4_family_distance,
    fzc_coefficients,
    unitarity_residual,
    yang_baxter_residual,
)
from .encoding import braid_generator_tableaux, build_encoding, identify_gate, \
    parity_conjugation_table, restrict_word
from .parafermions import build_parafermions, check_defining_relations, check_parity_algebra, \
    parity, parity_eigenbasis
from .report import Check, RunReport, count_check, flag_check
from .solver import SolverConfig, solve_all
from .systems import SizeBoundError, controlled_phase, controlled_shift, embed_vector, \
    equal_up_to_phase, pauli_x, pauli_z

DEFAULT_SEED = 12345
DEFAULT_RESTARTS_FOR_REPORT = 2000

NAMED_BRAIDS = {"F": "F", "S": "S", "T": "T", "Sdag": "S_dagger"}


def cmd_algebra(d: int, pairs: int) -> RunReport:
    out = RunReport("algebra", {"d": d, "pairs": pairs})
    t0 = time.perf_counter()
    sys_ = build_parafermions(d, pairs, validate=False)
    out.add(Check("defining_relations", check_defining_relations(sys_), 1e-12))

    closed_form = 0.0
    for i in range(1, pairs + 1):
        closed_form = max(closed_form, parity(sys_, 2 * i - 1).max_diff(pauli_x(sys_.system, i).dag()))
        if 2 * i <= sys_.n_modes - 1:
            zz = pauli_z(sys_.system, i) @ pauli_z(sys_.system, i + 1).dag()
            closed_form = max(closed_form, parity(sys_, 2 * i).max_diff(zz))
    out.add(Check("parity_closed_forms", closed_form, 1e-12))

    algebra = check_parity_algebra(sys_)
    out.add(Check("parity_exchange_algebra", algebra.max_residual, 1e-12))

    bad_multiplicity = 0
    expected = d ** (pairs - 1)
    for i in range(1, sys_.n_modes):
        eigs = np.linalg.eigvals(parity(sys_, i).mat)
        labels = np.round(np.angle(eigs) * d / (2 * np.pi)).astype(int) % d
        counts = np.bincount(labels, minlength=d)
        if not np.all(counts == expected):
            bad_multiplicity += 1
    out.add(count_check("parity_spectrum_multiplicity", bad_multiplicity, 0))

    basis_res = 0.0
    for i in range(1, sys_.n_modes, 2):
        basis = parity_eigenbasis(sys_, i)
        lam = parity(sys_, i)
        for m in range(d):
            vec = embed_vector(sys_.system, basis.qudit, basis.vector(m))
            basis_res = max(basis_res, float(np.max(np.abs(
                lam.mat @ vec - np.exp(2j * np.pi * m / d) * vec))))
    out.add(Check("parity_eigenbasis_action", basis_res, 1e-12))
    out.wall_time_ms = (time.perf_counter() - t0) * 1000
    return out


def cmd_fzc(d: int) -> RunReport:
    """Coefficient-family suite: constraints, braid relations, conjugation, DFT."""
    out = RunReport("fzc", {"d": d})
    t0 = time.perf_counter()
    coeff_res = 0.0
    for params in all_fzc_params(d):
        vec = fzc_coefficients(params)
        coeff_res = max(coeff_res, unitarity_residual(vec), yang_baxter_residual(vec))
    out.add(Check("coefficient_constraints", coeff_res, 1e-12))

    matrix_res = 0.0
    parity_res = 0.0
    n_pairs_list = [2] + ([3] if d <= 4 else [])
    for n_pairs in n_pairs_list:
        for params in all_fzc_params(d):
            r = BraidRepresentation(build_parafermions(d, n_pairs),
                                    fzc_coefficients(params), fzc=params)
            rpt = check_representation(r)
            matrix_res = max(matrix_res, rpt.unitarity, rpt.far_commutativity, rpt.yang_baxter)
            parity_res = max(parity_res, rpt.overall_parity)
    out.add(Check("braid_relations", matrix_res, 1e-10))
    out.add(Check("overall_parity_conserved", parity_res, 1e-12))

    conj_bad = 0
    conj_res = 0.0
    for r in range(d):
        b = BraidRepresentation.from_fzc(d, 2, r, +1)
        act = conjugation_action(b, 1)
        conj_res = max(conj_res, act.residual)
        if act.phase_first is None or act.phase_first.num != (-8 * r) % (8 * d):
            conj_bad += 1
        if act.phase_second is None or act.phase_second.num != (8 * (1 - r)) % (8 * d):
            conj_bad += 1
    out.add(Check("conjugation_law", conj_res, 1e-10))
    out.add(count_check("conjugation_phases_exact", conj_bad, 0))

    dft_bad = 0
    dft_res = 0.0
    for r in range(d):
        b = BraidRepresentation.from_fzc(d, 2, r, +1)
        dp = diagonal_phases(b, 1)
        dft_res = max(dft_res, dp.relation_residual, dp.prefactor_residual, dp.eigenbasis_residual)
        if dp.prefactor.num != (-4 * r * (r + d) + d * (1 - d)) % (8 * d):
            dft_bad += 1
    out.add(Check("dft_relation", dft_res, 1e-12))
    out.add(count_check("dft_prefactor_exact", dft_bad, 0))
    out.wall_time_ms = (time.perf_counter() - t0) * 1000
    return out


def cmd_solve(d: int, restarts: int, seed: int) -> tuple[RunReport, dict]:
    out = RunReport("solve", {"d": d, "restarts": restarts, "seed": seed})
    t0 = time.perf_counter()
    config = SolverConfig(d, restarts=restarts, seed=seed)
    result = solve_all(config)

    soundness = 0.0
    for cluster in result.clusters:
        vec = cluster.representative
        soundness = max(soundness, unitarity_residual(vec), yang_baxter_residual(vec))
    out.add(Check("representative_soundness", soundness, config.tol))

    nontrivial = result.nontrivial_clusters
    if d == 2:
        out.add(count_check("nontrivial_clusters", len(nontrivial), 2))
        targets = [CoefficientVector(2, [1, 1j]), CoefficientVector(2, [1, -1j])]
        bad = sum(1 for c in nontrivial
                  if min(c.representative.distance(t) for t in targets) > 1e-6)
        out.add(count_check("representatives_match_known_pair", bad, 0))
        out.add(count_check("isolated_solutions", sum(c.manifold_dim != 0 for c in nontrivial), 0))
    elif d == 3:
        out.add(count_check("nontrivial_clusters", len(nontrivial), 6))
        table = d3_solution_table()
        bad = sum(1 for c in nontrivial
                  if min(c.representative.distance(t) for t in table) > 1e-6)
        out.add(count_check("representatives_match_table", bad, 0))
        out.add(count_check("isolated_solutions", sum(c.manifold_dim != 0 for c in nontrivial), 0))
    elif d == 4:
        bad_dim = sum(1 for c in nontrivial if c.manifold_dim != 1)
        bad_family = sum(1 for c in nontrivial if d4_family_distance(c.representative) > 1e-6)
        out.add(count_check("clusters_with_dim_one", bad_dim, 0))
        out.add(count_check("clusters_on_family", bad_family, 0))
    out.add(count_check("trivial_clusters_flagged", len(result.trivial_clusters), 1))
    out.wall_time_ms = (time.perf_counter() - t0) * 1000
    return out, result.to_json()


def _resolve_word(braid: str, d: int) -> tuple[str, BraidWord]:
    if braid in NAMED_BRAIDS:
        return braid, canonical_word(NAMED_BRAIDS[braid])
    if braid == "CX":
        if d % 2 == 0:
            raise ValueError("the CX braid word is defined for odd d")
        return "CX", canonical_word("S_dagger").power((d + 1) // 2)
    return "word", BraidWord.from_text(braid)


def cmd_gates(d: int, r: int, braid: str) -> tuple[RunReport, dict]:
    name, word = _resolve_word(braid, d)
    out = RunReport("gates", {"d": d, "r": r, "braid": braid})
    t0 = time.perf_counter()
    n_logical = 2 if word.max_index() > 3 else 1
    enc = build_encoding(d, n_logical, r=r)
    restricted, leakage = restrict_word(enc, word)
    out.add(Check("leakage", leakage, 1e-10))
    gate = identify_gate(enc, word)
    out.add(flag_check("gate_identified", gate.name != "unknown"))

    if name in ("S", "Sdag", "T", "CX") and r == 0:
        cx = controlled_shift(d)
        cz = controlled_phase(d)
        expected = {
            "S": cx.power((d - 2) % d),
            "Sdag": cx.power(2),
            "T": cz.power(2),
            "CX": cx,
        }[name]
        lam = equal_up_to_phase(restricted, expected, 1e-9)
        out.add(flag_check("matches_expected_gate", lam is not None))
    out.wall_time_ms = (time.perf_counter() - t0) * 1000
    return out, gate.to_json(word.to_text())


def cmd_clifford(d: int, n: int, generators: str, limit: int) -> tuple[RunReport, dict]:
    check_key_width(d, n)
    out = RunReport("clifford", {"d": d, "n": n, "generators": generators})
    t0 = time.perf_counter()
    gens = braid_generator_tableaux(d, n) if generators == "braid" else reference_generators(d, n)
    ref = reference_generators(d, n)
    payload: dict = {"d": d, "n": n, "generator_set": generators}
    try:
        result = closure(gens, limit=limit)
    except ClosureLimitError as err:
        out.add(flag_check("closure_within_limit", False))
        payload.update({"order": None, "matched_reference": False,
                        "elapsed_ms": (time.perf_counter() - t0) * 1000,
                        "error": str(err)})
        return out, payload
    out.add(flag_check("closure_within_limit", True))
    ref_result = result if generators == "reference" else closure(ref, limit=limit)
    matched = bool(result.order == ref_result.order and np.array_equal(result.keys, ref_result.keys))
    out.add(flag_check("matched_reference", matched))
    sym_order = result.symplectic_order()
    ref_sym_order = sym_order if ref_result is result else ref_result.symplectic_order()
    out.add(count_check("symplectic_actions_match_reference", sym_order, ref_sym_order))
    payload.update({
        "order": result.order,
        "symplectic_order": sym_order,
        "matched_reference": matched,
        "elapsed_ms": result.elapsed_ms,
        "level_sizes": list(result.level_sizes),
    })
    out.extra = {"order": result.order, "symplectic_order": sym_order}
    out.wall_time_ms = (time.perf_counter() - t0) * 1000
    return out, payload


def cmd_entangling(d: int) -> RunReport:
    """Two-qudit gate suite at the canonical representation (r = 0, + sign)."""
    out = RunReport("entangling", {"d": d, "r": 0})
    t0 = time.perf_counter()
    enc = build_encoding(d, 2, r=0)
    cx = controlled_shift(d)
    cz = controlled_phase(d)

    ts, leak_s = restrict_word(enc, canonical_word("S"))
    tsd, leak_sd = restrict_word(enc, canonical_word("S_dagger"))
    tt, leak_t = restrict_word(enc, canonical_word("T"))
    out.add(Check("leakage", max(leak_s, leak_sd, leak_t), 1e-10))
    out.add(flag_check("inverse_s_is_squared_controlled_shift",
                       equal_up_to_phase(tsd, cx.power(2), 1e-9) is not None))
    out.add(flag_check("t_braid_is_squared_controlled_phase",
                       equal_up_to_phase(tt, cz.power(2), 1e-9) is not None))

    if d <= 4:
        table = parity_conjugation_table(enc.rep, canonical_word("S"))
        worst = max(e.residual for e in table.entries.values())
        out.add(Check("parity_table_residual", worst if table.all_matched else 1.0, 1e-9))
        out.add(Check("neutral_parities_fixed",
                      max(table.neutral_a_residual, table.neutral_b_residual), 1e-9))
    if d % 2 == 1:
        word = canonical_word("S_dagger").power((d + 1) // 2)
        tcx, leak = restrict_word(enc, word)
        out.add(Check("controlled_shift_leakage", leak, 1e-10))
        out.add(flag_check("odd_d_controlled_shift",
                           equal_up_to_phase(tcx, cx, 1e-9) is not None))
    out.wall_time_ms = (time.perf_counter() - t0) * 1000
    return out


def cmd_report_all(d_max: int, seed: int, out_path: str, md_path: str | None,
                   two_qudit_closure: bool) -> tuple[int, list[RunReport]]:
    suites = []
    for d in range(2, d_max + 1):
        suites.append(cmd_algebra(d, 2))
        suites.append(cmd_fzc(d))
    for d in range(2, min(d_max, 4) + 1):
        suites.append(cmd_solve(d, DEFAULT_RESTARTS_FOR_REPORT, seed)[0])
    for d in range(2, d_max + 1):
        suites.append(cmd_gates(d, 0, "F")[0])
        suites.append(cmd_entangling(d))
        suites.append(cmd_clifford(d, 1, "braid", DEFAULT_CLOSURE_LIMIT)[0])
    if two_qudit_closure:
        suites.append(cmd_clifford(3, 2, "braid", DEFAULT_CLOSURE_LIMIT)[0])

    aggregate = rep.aggregate_json(d_max, seed, suites)
    schema_errors = rep.validate_schema(aggregate, rep.load_schema())
    if schema_errors:
        raise AssertionError(f"aggregate violates the shipped schema: {schema_errors}")
    Path(out_path).write_text(rep.dump_json(aggregate), encoding="utf-8")
    md_file = Path(md_path) if md_path else Path(out_path).with_suffix(".md")
    md_file.write_text(rep.markdown_summary(aggregate), encoding="utf-8")
    code = 0 if aggregate["all_passed"] else 1
    return code, suites


def _positive_dimension(value: str) -> int:
    number = int(value)
    if number < 2:
        raise argparse.ArgumentTypeError(f"qudit dimension must be >= 2, got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parabraid",
        description="Verification suites for parafermion braid representations and "
                    "the qudit Clifford gates they generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="parafermion and parity operator relations")
    p.add_argument("--d", type=_positive_dimension, required=True)
    p.add_argument("--pairs", type=int, default=2)
    p.add_argument("--json", type=str, default=None)

    p = sub.add_parser("solve", help="numerical search for braid coefficient solutions")
    p.add_argument("--d", type=_positive_dimension, required=True)
    p.add_argument("--restarts", type=int, default=2000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", type=str, default=None)

    p = sub.add_parser("gates", help="identify the logical gate of a braid word")
    p.add_argument("--d", type=_positive_dimension, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--braid", type=str, required=True,
                   help="F, S, T, Sdag, CX, or a word like '1 2 1' (operator order)")
    p.add_argument("--json", type=str, default=None)

    p = sub.add_parser("clifford", help="group closure of braid or reference gates")
    p.add_argument("--d", type=_positive_dimension, required=True)
    p.add_argument("--n", type=int, choices=(1, 2), default=1)
    p.add_argument("--generators", choices=("braid", "reference"), default="braid")
    p.add_argument("--limit", type=int, default=DEFAULT_CLOSURE_LIMIT)
    p.add_argument("--json", type=str, default=None)

    p = sub.add_parser("report-all", help="run the verification matrix and write reports")
    p.add_argument("--d-max", type=_positive_dimension, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--md", type=str, default=None)
    p.add_argument("--two-qudit-closure", action="store_true",
                   help="include the d=3 two-qudit closure certificate (seconds)")
    return parser


def _emit(report: RunReport, json_path: str | None, payload: dict | None = None) -> int:
    for line in report.console_lines():
        print(line)
    print(f"[{'PASS' if report.passed else 'FAIL'}] {report.command}: "
          f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks "
          f"({report.wall_time_ms:.0f} ms)")
    if json_path:
        obj = payload if payload is not None else report.to_json()
        Path(json_path).write_text(rep.dump_json(obj), encoding="utf-8")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "algebra":
            return _emit(cmd_algebra(args.d, args.pairs), args.json)
        if args.command == "solve":
            report, payload = cmd_solve(args.d, args.restarts, args.seed)
            return _emit(report, args.json, payload)
        if args.command == "gates":
            report, payload = cmd_gates(args.d, args.r, args.braid)
            return _emit(report, args.json, payload)
        if args.command == "clifford":
            report, payload = cmd_clifford(args.d, args.n, args.generators, args.limit)
            return _emit(report, args.json, payload)
        if args.command == "report-all":
            code, suites = cmd_report_all(args.d_max, args.seed, args.out, args.md,
                                          args.two_qudit_closure)
            for suite in suites:
                print(f"[{'PASS' if suite.passed else 'FAIL'}] {suite.command} "
                      f"{suite.parameters} ({suite.wall_time_ms:.0f} ms)", file=sys.stderr)
            print(f"report written to {args.out}")
            return code
    except (SizeBoundError, ValueError) as err:
        parser.error(str(err))
    return 2


if __name__ == "__main__":
    sys.exit(main())
