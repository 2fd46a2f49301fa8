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
from .braiding import BraidRepresentation, BraidWord, braid_tableau, canonical_word, \
    check_representation, conjugation_action, diagonal_phases
from .clifford import DEFAULT_CLOSURE_LIMIT, CliffordTableau, ClosureLimitError, \
    check_key_width, closure, gate_tableau, reference_generators
from .constraints import (
    CoefficientVector,
    FZCParams,
    all_fzc_params,
    d3_solution_table,
    d4_family_distance,
    fzc_coefficients,
)
from .encoding import LeakageError, LogicalGateID, braid_generator_tableaux, build_encoding, \
    controlled_shift_word, entangling_words, identify_gate, logical_tableau, parity_conjugation_table
from .parafermions import build_parafermions, check_defining_relations, check_parity_algebra, parity, \
    parity_eigenbasis
from .report import Check, RunReport, count_check, flag_check
from .solver import SolverConfig, combined_residuals, solve_all
from .systems import QuditSystem, SizeBoundError, embed, embed_vector, monomial_spectrum

DEFAULT_SEED = 12345
DEFAULT_RESTARTS_FOR_REPORT = 2000

NAMED_BRAIDS = {"F": "F", "S": "S", "T": "T", "Sdag": "S_dagger"}


def cmd_algebra(d: int, pairs: int) -> RunReport:
    out = RunReport("algebra", {"d": d, "pairs": pairs})
    t0 = time.perf_counter()
    QuditSystem(d, pairs)  # a dense suite: apply the size bound before the build
    sys_ = build_parafermions(d, pairs)
    out.add(Check("defining_relations", check_defining_relations(sys_), 1e-12))

    # X_i^dag and Z_i Z_{i+1}^dag as Kronecker products, not from Pauli monomials
    idx = np.arange(d)
    shift = np.eye(d)[(idx - 1) % d]                  # X|k> = |k+1 mod d>
    clock = np.diag(np.exp(2j * np.pi * idx / d))     # Z|k> = omega**k |k>
    closed_form = 0.0
    for i in range(1, pairs + 1):
        x_dag = embed(sys_.system, i, shift.T)
        closed_form = max(closed_form, parity(sys_, 2 * i - 1).max_diff(x_dag))
        if 2 * i <= sys_.n_modes - 1:
            zz = embed(sys_.system, i, np.kron(clock, clock.conj()))
            closed_form = max(closed_form, parity(sys_, 2 * i).max_diff(zz))
    out.add(Check("parity_closed_forms", closed_form, 1e-12))

    algebra = check_parity_algebra(sys_)
    out.add(Check("parity_exchange_algebra", algebra.max_residual, 1e-12))

    # each parity as a phased permutation: spectrum from tr(Lambda**m), eigenvectors by a scatter
    supports = sys_.parity_supports
    bad_multiplicity = sum(np.any(monomial_spectrum(lam, d) != d ** (pairs - 1)) for lam in supports)
    out.add(count_check("parity_spectrum_multiplicity", bad_multiplicity, 0))

    basis_res = 0.0
    for i in range(1, sys_.n_modes, 2):
        basis, (rows, roots) = parity_eigenbasis(sys_, i), supports[i - 1]
        block = embed_vector(sys_.system, basis.qudit, basis.vectors)
        image = np.empty_like(block)
        image[rows] = roots[:, None] * block
        basis_res = max(basis_res, float(np.max(np.abs(image - block * np.exp(2j * np.pi * idx / d)))))
    out.add(Check("parity_eigenbasis_action", basis_res, 1e-12))
    out.wall_time_ms = (time.perf_counter() - t0) * 1000
    return out


def cmd_fzc(d: int) -> RunReport:
    """Coefficient-family suite: constraints, braid relations, conjugation, DFT."""
    out = RunReport("fzc", {"d": d})
    t0 = time.perf_counter()
    fzc = np.array([fzc_coefficients(params).c for params in all_fzc_params(d)])
    out.add(Check("coefficient_constraints", float(np.max(combined_residuals(fzc))), 1e-12))

    matrix_res = parity_res = conj_res = dft_res = 0.0
    conj_bad = dft_bad = 0
    for n_pairs in (2, 3):
        system = build_parafermions(d, n_pairs)
        for params in all_fzc_params(d):
            b = BraidRepresentation(system, fzc_coefficients(params), fzc=params)
            rpt = check_representation(b)
            matrix_res = max(matrix_res, rpt.unitarity, rpt.yang_baxter)
            parity_res = max(parity_res, rpt.overall_parity)
            if n_pairs != 2 or params.sign != +1:
                continue
            # the conjugation law and the DFT relation are stated for the + sign family
            r = params.r
            act = conjugation_action(b, 1)
            conj_res = max(conj_res, act.residual)
            if act.phase_first is None or act.phase_first.num != (-8 * r) % (8 * d):
                conj_bad += 1
            if act.phase_second is None or act.phase_second.num != (8 * (1 - r)) % (8 * d):
                conj_bad += 1
            dp = diagonal_phases(b, 1)
            dft_res = max(dft_res, dp.relation_residual, dp.prefactor_residual,
                          dp.eigenbasis_residual)
            if dp.prefactor is None or dp.prefactor.num != (-4 * r * (r + d) + d * (1 - d)) % (8 * d):
                dft_bad += 1
    out.add(Check("braid_relations", matrix_res, 1e-10))
    out.add(Check("overall_parity_conserved", parity_res, 1e-12))
    out.add(Check("conjugation_law", conj_res, 1e-10))
    out.add(count_check("conjugation_phases_exact", conj_bad, 0))
    out.add(Check("dft_relation", dft_res, 1e-12))
    out.add(count_check("dft_prefactor_exact", dft_bad, 0))
    out.wall_time_ms = (time.perf_counter() - t0) * 1000
    return out


def cmd_solve(d: int, restarts: int, seed: int) -> tuple[RunReport, dict]:
    out = RunReport("solve", {"d": d, "restarts": restarts, "seed": seed})
    t0 = time.perf_counter()
    config = SolverConfig(d, restarts=restarts, seed=seed)
    result = solve_all(config)

    reps = np.array([c.representative.c for c in result.clusters]).reshape(-1, d)
    soundness = float(np.max(combined_residuals(reps), initial=0.0))
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
        return "CX", controlled_shift_word(d)
    return "word", BraidWord.from_text(braid)


def cmd_gates(d: int, r: int, braid: str) -> tuple[RunReport, dict]:
    name, word = _resolve_word(braid, d)
    if word.max_index() > 7:
        raise ValueError(f"generator index {word.max_index()} is out of range 1..7 (8 parafermions)")
    out = RunReport("gates", {"d": d, "r": r, "braid": braid})
    t0 = time.perf_counter()
    n_logical = 2 if word.max_index() > 3 else 1
    enc = build_encoding(d, n_logical, r=r)
    try:
        gate = identify_gate(enc, word)
    except LeakageError as err:  # a failed check, not a usage error
        gate = LogicalGateID("unknown", None, err.leakage)
    out.add(Check("leakage", gate.leakage, 1e-10))
    out.add(flag_check("gate_identified", gate.name != "unknown"))

    if name in ("S", "Sdag", "T", "CX") and r == 0:
        # the gate is named by its exact tableau, and CX**a and CZ**a are distinct modulo phase
        # at a = 1..d-1, so the name is the expected power exactly when the restriction equals it
        gate_name, a = {"S": ("CX", d - 2), "Sdag": ("CX", 2), "T": ("CZ", 2), "CX": ("CX", 1)}[name]
        expected = f"{gate_name}^{a % d}" if a % d else "identity"
        out.add(flag_check("matches_expected_gate", gate.name == expected))
    out.wall_time_ms = (time.perf_counter() - t0) * 1000
    return out, gate.to_json(word.to_text())


def cmd_clifford(d: int, n: int, generators: str, limit: int) -> tuple[RunReport, dict]:
    check_key_width(d, n)
    out = RunReport("clifford", {"d": d, "n": n, "generators": generators})
    t0 = time.perf_counter()
    payload: dict = {"d": d, "n": n, "generator_set": generators}
    try:
        if generators == "reference":
            result = ref_result = closure(reference_generators(d, n), limit=limit)
        else:
            result = closure(braid_generator_tableaux(d, n), limit=limit)
            ref_result = closure(reference_generators(d, n), limit=limit)
    except ClosureLimitError as err:
        out.add(flag_check("closure_within_limit", False))
        payload.update({"order": None, "matched_reference": False,
                        "elapsed_ms": (time.perf_counter() - t0) * 1000,
                        "error": str(err)})
        out.wall_time_ms = payload["elapsed_ms"]
        return out, payload
    out.add(flag_check("closure_within_limit", True))
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
        "candidate_sizes": list(result.candidate_sizes),
    })
    out.extra = {"order": result.order, "symplectic_order": sym_order}
    out.wall_time_ms = (time.perf_counter() - t0) * 1000
    return out, payload


def cmd_entangling(d: int) -> RunReport:
    """Two-qudit gate suite at the canonical representation (r = 0, + sign).

    Runs on exact tableaux: each braid word is composed by braid_tableau,
    restricted to the code by logical_tableau and compared with the target
    gate's closed-form tableau (gate_tableau), which is equality of unitaries
    modulo global phase, so no matrix is built.  A word that leaks out of the
    code reads leakage 1.0.  The dense restriction (criteria 10 and 11) is
    the oracle for this suite.
    """
    out = RunReport("entangling", {"d": d, "r": 0})
    t0 = time.perf_counter()
    system = build_parafermions(d, 4)
    params = FZCParams(d, 0)
    words = entangling_words(d)
    cx, cz = gate_tableau("CX", d), gate_tableau("CZ", d)

    def logical(word: BraidWord) -> CliffordTableau | None:
        try:
            return logical_tableau(system, braid_tableau(system, params, word))
        except ValueError:  # the word leaks
            return None

    ts, tsd, tt = (logical(words[name]) for name in ("S", "S_dagger", "T"))
    leaked = ts is None or tsd is None or tt is None
    out.add(Check("leakage", 1.0 if leaked else 0.0, 1e-10))
    out.add(flag_check("inverse_s_is_squared_controlled_shift", tsd == cx.compose(cx)))
    out.add(flag_check("t_braid_is_squared_controlled_phase", tt == cz.compose(cz)))

    table = parity_conjugation_table(system, params, words["S"])
    # Exact flags, kept as residual checks with their tolerance so the report bytes hold.
    out.add(Check("parity_table_residual", 0.0 if table.all_matched else 1.0, 1e-9))
    out.add(Check("neutral_parities_fixed", 0.0 if table.neutral_parities_fixed else 1.0, 1e-9))
    if d % 2 == 1:
        tcx = logical(words["CX"])
        out.add(Check("controlled_shift_leakage", 0.0 if tcx is not None else 1.0, 1e-10))
        out.add(flag_check("odd_d_controlled_shift", tcx == cx))
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


def _positive_limit(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"closure limit must be >= 1, got {number}")
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
    p.add_argument("--n", type=int, choices=(1, 2), default=1,
                   help="encoded qudits; at n = 3 no closure fits: 92,897,280 elements "
                        "at d = 2 (over the 10M limit), int64 key overflow at d >= 3")
    p.add_argument("--generators", choices=("braid", "reference"), default="braid")
    p.add_argument("--limit", type=_positive_limit, default=DEFAULT_CLOSURE_LIMIT)
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
