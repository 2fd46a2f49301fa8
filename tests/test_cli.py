import json

import pytest

from parabraid import cli
from parabraid.cli import main
from parabraid.clifford import ClosureResult
from parabraid.report import load_schema, markdown_summary, validate_schema


def run_cli(argv):
    return main(argv)


def test_algebra_pass_and_exit_code(capsys):
    assert run_cli(["algebra", "--d", "3", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] algebra" in out


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
                "level_sizes"):
        assert key in payload
    assert payload["order"] == 24 and payload["matched_reference"] is True
    assert 1 + sum(payload["level_sizes"]) == 24 and payload["level_sizes"][-1] == 0


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
    # per-level sizes go to the --json payload only: report bytes stay pinned
    assert set(report.extra) == {"order", "symplectic_order"}
    assert report.extra["symplectic_order"] == payload["symplectic_order"] == 24


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
