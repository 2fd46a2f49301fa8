import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from parabraid import cli, encoding, parafermions
from parabraid.braiding import BraidRepresentation, BraidWord, canonical_word
from parabraid.cli import main
from parabraid.clifford import ClosureResult
from parabraid.constraints import FZCParams, fzc_coefficients
from parabraid.parafermions import build_parafermions
from parabraid.report import load_schema, markdown_summary, validate_schema
from parabraid.systems import DenseOperator, SizeBoundError


def run_cli(argv):
    return main(argv)


def test_algebra_pass_and_exit_code(capsys):
    assert run_cli(["algebra", "--d", "3", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] algebra" in out


def test_algebra_makes_no_eigvals_call(monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigvals", lambda *args: pytest.fail("eigvals called"))
    assert run_cli(["algebra", "--d", "6", "--pairs", "4"]) == 0
    assert "[PASS] algebra" in capsys.readouterr().out


def test_algebra_counts_a_squared_parity_as_bad(monkeypatch):
    # Lambda_1 replaced by Lambda_1**2 at d = 4: its spectrum is 1 and omega**2, eight times each
    def squared(d, pairs):
        sys_ = build_parafermions(d, pairs)
        return dataclasses.replace(sys_, parities=(sys_.parities[0] ** 2,) + sys_.parities[1:])

    monkeypatch.setattr(cli, "build_parafermions", squared)
    checks = {c.name: c.value for c in cli.cmd_algebra(4, 2).checks}
    assert checks["parity_spectrum_multiplicity"] == 1
    assert checks["parity_eigenbasis_action"] > 1e-12


def test_algebra_builds_each_support_stack_once(monkeypatch):
    # the parity supports are one cached property, read by cmd_algebra and check_parity_algebra
    calls = []
    original = parafermions.label_supports

    def counting(system, labels):
        calls.append(tuple(labels))
        return original(system, labels)

    for module in (parafermions, cli):
        if hasattr(module, "label_supports"):
            monkeypatch.setattr(module, "label_supports", counting)
    assert cli.cmd_algebra(3, 2).passed
    sys_ = build_parafermions(3, 2)
    assert calls == [sys_.labels, sys_.parities]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run_cli(["algebra", "--d", "1"])
    assert err.value.code == 2


def test_unknown_command_exit_code():
    with pytest.raises(SystemExit) as err:
        run_cli(["frobnicate"])
    assert err.value.code == 2


def test_size_bound_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli(["algebra", "--d", "5", "--pairs", "9"])
    assert err.value.code == 2


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "", "2.5"])
def test_malformed_size_bound_is_usage_error(monkeypatch, capsys, raw):
    monkeypatch.setenv("PARABRAID_SIZE_BOUND", raw)
    with pytest.raises(SystemExit) as err:
        run_cli(["algebra", "--d", "3", "--pairs", "2"])
    assert err.value.code == 2
    assert "PARABRAID_SIZE_BOUND must be a positive integer" in capsys.readouterr().err


def test_algebra_applies_the_size_bound_before_the_build(monkeypatch):
    # the label build is quadratic in the pair count, so the dense suite
    # rejects an oversized register before building anything
    monkeypatch.setattr(cli, "build_parafermions", lambda d, pairs: pytest.fail("built"))
    with pytest.raises(SystemExit) as err:
        run_cli(["algebra", "--d", "2", "--pairs", "100000"])
    assert err.value.code == 2


def test_clifford_key_overflow_is_usage_error(monkeypatch, capsys):
    # d = 8 at n = 2 would wrap the int64 closure keys; refuse before building
    # the 4096-dimensional encoding
    def no_build(*args, **kwargs):
        raise AssertionError("generators built before the key-width check")

    monkeypatch.setattr(cli, "braid_generator_tableaux", no_build)
    monkeypatch.setattr(cli, "reference_generators", no_build)
    with pytest.raises(SystemExit) as err:
        run_cli(["clifford", "--d", "8", "--n", "2"])
    assert err.value.code == 2
    assert "largest supported d at n = 2 is 7" in capsys.readouterr().err


def test_gates_generator_index_out_of_range_is_usage_error(monkeypatch, capsys):
    # the largest encoding has 8 parafermions, so generators 1..7; refuse 9
    # before building any encoding
    def no_build(*args, **kwargs):
        raise AssertionError("encoding built before the index check")

    monkeypatch.setattr(cli, "build_encoding", no_build)
    with pytest.raises(SystemExit) as err:
        run_cli(["gates", "--d", "3", "--braid", "9"])
    assert err.value.code == 2
    assert "generator index 9 is out of range 1..7" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="encoding built"):
        run_cli(["gates", "--d", "3", "--braid", "7"])


def test_gates_r_out_of_range_is_usage_error(monkeypatch, capsys):
    # FZCParams reduces r mod d, so r = 7 at d = 3 would run at r = 1 and report "r": 7
    def no_build(*args, **kwargs):
        raise AssertionError("encoding built before the r check")

    monkeypatch.setattr(cli, "build_encoding", no_build)
    for r in ("7", "3", "-1"):
        with pytest.raises(SystemExit) as err:
            run_cli(["gates", "--d", "3", "--r", r, "--braid", "F"])
        assert err.value.code == 2
        assert f"r = {r} is out of range 0..2" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="encoding built"):
        run_cli(["gates", "--d", "3", "--r", "2", "--braid", "F"])


def test_gates_d9_entangler_passes_under_the_default_bound(monkeypatch, capsys):
    # D = 9**4 = 6,561 states, but only 6,561 x 81 blocks and [63, 6,561] supports are built
    monkeypatch.delenv("PARABRAID_SIZE_BOUND", raising=False)
    assert run_cli(["gates", "--d", "9", "--braid", "S"]) == 0
    assert "[PASS] gates: 3/3 checks" in capsys.readouterr().out


def test_gates_over_budget_isometry_is_refused_before_any_allocation(monkeypatch, capsys):
    # at d = 20 the isometry is 160,000 x 400 = 64M entries, over 4096**2; a complex array that
    # size is 1 GB, so a tracemalloc peak of a few MB shows nothing over budget was built first
    monkeypatch.delenv("PARABRAID_SIZE_BOUND", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(SizeBoundError, match=r"64000000 entries exceed the bound 4096\*\*2 = 16777216"):
            cli.cmd_gates(20, 0, "S")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    with pytest.raises(SystemExit) as err:
        run_cli(["gates", "--d", "20", "--braid", "S"])
    assert err.value.code == 2
    assert "64000000 entries exceed the bound" in capsys.readouterr().err


def test_algebra_over_budget_register_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["algebra", "--d", "9", "--pairs", "4"])
    assert err.value.code == 2
    assert "43046721 entries exceed the bound 4096**2 = 16777216" in capsys.readouterr().err
    # 2**200000 entries have 60,206 digits, past Python's int-to-str limit
    with pytest.raises(SystemExit) as err:
        run_cli(["algebra", "--d", "2", "--pairs", "100000"])
    assert err.value.code == 2
    assert "about 10**60206 entries exceed the bound 4096**2" in capsys.readouterr().err


def test_report_all_rejects_jobs(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["report-all", "--d-max", "2", "--out", str(tmp_path / "r.json"),
                 "--jobs", "2"])
    assert err.value.code == 2
    assert not (tmp_path / "r.json").exists()


def test_solve_json_interface(tmp_path, capsys):
    out = tmp_path / "solve.json"
    assert run_cli(["solve", "--d", "2", "--restarts", "120", "--seed", "5",
                    "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["d"] == 2 and payload["seed"] == 5 and payload["restarts"] == 120
    nontrivial = [c for c in payload["clusters"] if not c["trivial"]]
    assert len(nontrivial) == 2


def test_gates_json_interface(tmp_path):
    out = tmp_path / "gate.json"
    assert run_cli(["gates", "--d", "3", "--braid", "Sdag", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"word", "gate", "phase_exponent_mod_8d", "leakage"}
    assert payload["gate"] == "CX^2"
    assert payload["leakage"] <= 1e-10


def test_gates_arbitrary_word():
    assert run_cli(["gates", "--d", "3", "--braid", "1 -1"]) == 0


def test_gates_cx_requires_odd_dimension():
    with pytest.raises(SystemExit) as err:
        run_cli(["gates", "--d", "4", "--braid", "CX"])
    assert err.value.code == 2


def test_gates_malformed_word_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli(["gates", "--d", "3", "--braid", "one two"])
    assert err.value.code == 2


def test_gates_composes_the_braid_once(monkeypatch):
    # identify_gate applies each letter once, to the 9 code columns of the 81-dim register, and
    # the leakage check and the expected-gate match reuse that restriction
    applied = []
    original = BraidRepresentation.apply

    def counting(self, i, exp, block):
        applied.append((i, exp, block.shape))
        return original(self, i, exp, block)

    monkeypatch.setattr(BraidRepresentation, "apply", counting)
    report, payload = cli.cmd_gates(3, 0, "S")
    assert applied == [(i, exp, (81, 9)) for i, exp in canonical_word("S").entries]
    assert [c.name for c in report.checks] == ["leakage", "gate_identified", "matches_expected_gate"]
    assert report.passed and payload["gate"] == "CX^1"


def test_gates_reports_a_leaking_word_as_failed_checks(tmp_path, capsys):
    # U_4 exchanges parafermions of two logical qudits: a failed check, not a usage error
    out = tmp_path / "gates.json"
    assert run_cli(["gates", "--d", "3", "--braid", "4", "--json", str(out)]) == 1
    console = capsys.readouterr().out
    assert "FAIL" in console and "leakage" in console and "gate_identified" in console
    payload = json.loads(out.read_text())
    assert payload["gate"] == "unknown" and payload["phase_exponent_mod_8d"] is None
    assert payload["leakage"] > encoding.LEAKAGE_TOL
    report, _ = cli.cmd_gates(3, 0, "4")
    assert {c.name: c.passed for c in report.checks} == {"leakage": False, "gate_identified": False}


def test_gates_build_no_register_sized_dense_operator(monkeypatch):
    # at d = 5 the two-qudit register has D = 625: the encoding's checks and the gates suite
    # act on its 25 code columns and build dense operators on the logical space alone
    dims = []
    original = DenseOperator.__init__

    def recording(self, mat, d, n):
        dims.append(np.shape(mat)[0])
        original(self, mat, d, n)

    monkeypatch.setattr(DenseOperator, "__init__", recording)
    encoding.build_encoding(5, 2)
    report, payload = cli.cmd_gates(5, 0, "S")
    assert report.passed and payload["gate"] == "CX^3"
    assert dims and max(dims) == 25
    encoding.build_encoding(5, 2).rep.generator(1)  # the recorder does see a D x D build
    assert dims[-1] == 625


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_entangling_suite_runs_on_tableaux(monkeypatch, d):
    from parabraid import braiding

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(braiding.BraidRepresentation, "__init__",
                        counted("BraidRepresentation", braiding.BraidRepresentation.__init__))
    for module in (cli, encoding, braiding):
        for name in ("build_encoding", "compose_braid", "restrict_word"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    report = cli.cmd_entangling(d)
    assert calls == []
    names = ["leakage", "inverse_s_is_squared_controlled_shift",
             "t_braid_is_squared_controlled_phase", "parity_table_residual",
             "neutral_parities_fixed"]
    if d % 2:
        names += ["controlled_shift_leakage", "odd_d_controlled_shift"]
    assert [c.name for c in report.checks] == names  # the parity table runs at every d
    assert report.passed
    cli.cmd_gates(2, 0, "F")  # the counters do see the restriction path
    assert {"build_encoding", "BraidRepresentation", "restrict_word"} <= set(calls)


def test_entangling_suite_flags_a_leaking_word(monkeypatch):
    # a leaking word reads leakage 1.0 and fails its gate; a wrong gate fails only the gate
    words = encoding.entangling_words(3)
    monkeypatch.setattr(cli, "entangling_words",
                        lambda d: {**words, "T": BraidWord.from_text("4"), "CX": words["T"]})
    checks = {c.name: c.value for c in cli.cmd_entangling(3).checks}
    assert checks["leakage"] == 1.0 and checks["t_braid_is_squared_controlled_phase"] == 1.0
    assert checks["controlled_shift_leakage"] == 0.0 and checks["odd_d_controlled_shift"] == 1.0
    assert checks["inverse_s_is_squared_controlled_shift"] == 0.0


def test_entangling_suite_past_the_dense_bound():
    # eight parafermions at d = 9 span 9**4 = 6561 > 4096 states, but the
    # suite builds no matrix
    assert cli.cmd_entangling(9).passed


def test_reference_gates_build_no_dense_matrix(monkeypatch):
    # the reference set and the entangling suite's CX and CZ**2 targets are
    # closed-form tableaux: no membership read-back, no embedding, no matrix
    import sys

    from parabraid import clifford, systems

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(systems.DenseOperator, "__init__", counted(systems.DenseOperator.__init__))
    for original in (clifford.clifford_membership, systems.embed):
        wrapper = counted(original)
        for name, module in list(sys.modules.items()):
            if name.startswith("parabraid"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)
    clifford.reference_generators(3, 2)
    assert all(cli.cmd_entangling(d).passed for d in range(2, 6))
    assert cli.cmd_clifford(3, 1, "reference", cli.DEFAULT_CLOSURE_LIMIT)[0].passed
    assert calls == []
    clifford.clifford_membership(systems.fourier_gate(2))  # the counters do see the dense path
    cli.cmd_algebra(2, 2)
    assert {"clifford_membership", "embed", "__init__"} <= set(calls)


def test_gates_nonzero_r(tmp_path):
    out = tmp_path / "gate.json"
    assert run_cli(["gates", "--d", "3", "--r", "1", "--braid", "1",
                    "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["gate"] == "quadratic_phase"


def test_report_all_md_path_override(tmp_path):
    out = tmp_path / "agg.json"
    md = tmp_path / "custom.md"
    run_cli(["report-all", "--d-max", "2", "--seed", "3", "--out", str(out),
             "--md", str(md)])
    assert md.exists() and md.read_text().startswith("# Verification report")


def test_clifford_json_interface(tmp_path):
    out = tmp_path / "clifford.json"
    code = run_cli(["clifford", "--d", "2", "--n", "1", "--generators", "braid",
                    "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    for key in ("d", "n", "generator_set", "order", "matched_reference", "elapsed_ms",
                "level_sizes", "candidate_sizes"):
        assert key in payload
    assert payload["order"] == 24 and payload["matched_reference"] is True
    assert 1 + sum(payload["level_sizes"]) == 24 and payload["level_sizes"][-1] == 0
    assert len(payload["candidate_sizes"]) == len(payload["level_sizes"])
    assert all(c >= s for c, s in zip(payload["candidate_sizes"], payload["level_sizes"]))


@pytest.mark.parametrize("generators,closures", [("braid", 2), ("reference", 1)])
def test_clifford_symplectic_order_once_per_closure(monkeypatch, generators, closures):
    calls = []
    original = ClosureResult.symplectic_order

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ClosureResult, "symplectic_order", counted)
    report, payload = cli.cmd_clifford(3, 1, generators, cli.DEFAULT_CLOSURE_LIMIT)
    assert len(calls) == len({id(r) for r in calls}) == closures
    assert [c.name for c in report.checks] == [
        "closure_within_limit", "matched_reference", "symplectic_actions_match_reference"]
    # per-level sizes go to the --json payload only: report bytes stay pinned
    assert set(report.extra) == {"order", "symplectic_order"}
    assert report.extra["symplectic_order"] == payload["symplectic_order"] == 24


def test_clifford_reference_closure_over_limit_is_check_failure(tmp_path, capsys):
    # the d = 3 braid closure has 24 elements, the reference closure 216: the
    # limit is hit by the second closure, which must fail the check, not raise
    out = tmp_path / "clifford.json"
    code = run_cli(["clifford", "--d", "3", "--n", "1", "--generators", "braid",
                    "--limit", "100", "--json", str(out)])
    assert code == 1
    assert "[FAIL] clifford: closure_within_limit" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["order"] is None and payload["matched_reference"] is False
    assert "limit 100" in payload["error"]


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_clifford_limit_below_one_is_usage_error(limit, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["clifford", "--d", "3", "--n", "1", "--limit", limit])
    assert err.value.code == 2
    assert f"closure limit must be >= 1, got {limit}" in capsys.readouterr().err


def test_clifford_braid_phase_gap_reported():
    # the d = 3 braid image is a proper subgroup: the phase-level match fails
    # honestly while the symplectic actions still agree
    code = run_cli(["clifford", "--d", "3", "--n", "1", "--generators", "braid"])
    assert code == 1


def test_report_all_deterministic_and_valid(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli(["report-all", "--d-max", "2", "--seed", "7", "--out", str(out1)])
    run_cli(["report-all", "--d-max", "2", "--seed", "7", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()

    aggregate = json.loads(out1.read_text())
    assert validate_schema(aggregate, load_schema()) == []
    md = (tmp_path / "r1.md").read_text()
    assert markdown_summary(aggregate) == md
    # one markdown row per check
    n_checks = sum(len(s["checks"]) for s in aggregate["suites"])
    assert sum(1 for line in md.splitlines() if line.startswith("| ")) == n_checks + 1


def test_report_all_d2_all_green(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["report-all", "--d-max", "2", "--seed", "11", "--out", str(out)])
    aggregate = json.loads(out.read_text())
    assert aggregate["all_passed"] is True
    assert code == 0


def test_schema_validator_flags_violations():
    schema = load_schema()
    assert validate_schema({"version": 1}, schema) != []
    bad = {"version": "0.1.0", "d_max": 2, "seed": 0, "suites": [], "all_passed": True,
           "bogus": 1}
    assert any("unexpected property" in e for e in validate_schema(bad, schema))


def test_fzc_counts_a_measured_prefactor_off_the_closed_form(monkeypatch):
    # each vector is the one at r + 1; at d = 3 the prefactors at r = 1 and 2 coincide, so
    # 2 of the 3 + sign vectors measure a prefactor off their label's closed form
    monkeypatch.setattr(cli, "fzc_coefficients",
                        lambda params: fzc_coefficients(FZCParams(params.d, params.r + 1, params.sign)))
    checks = {check.name: check for check in cli.cmd_fzc(3).checks}
    assert checks["dft_prefactor_exact"].value == 2
