"""Self-test of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

For every workload, at its tiny size: one verified pass must count no
failure, one traced pass must yield every per-layer metric, and a pass
checked against deliberately wrong pinned values must count as failed
without stopping the run.  It also checks that BENCHMARK.json names the
same workloads, reasons and metrics as the code, and that the benchmark
refuses to run, printing no result, where the engine's sources are missing.
Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run  # pins the BLAS threads before anything imports numpy

import tracing


def corrupt(value):
    """The same structure with every pinned leaf changed."""
    if isinstance(value, dict):
        return {key: corrupt(v) for key, v in value.items()}
    if isinstance(value, list):
        return [corrupt(v) for v in value]
    if isinstance(value, str):
        return "0" * len(value)
    return value + 1


def check_workload(name: str) -> list[str]:
    errors = []
    workload, inputs = run.setup(name, 0, size="tiny")

    runner = run.Runner(workload, inputs)
    runner.one_pass()
    if runner.failed or runner.attempted != 1:
        errors.append(f"{name}: clean pass counted {runner.failed} of {runner.attempted} "
                      f"failed: {runner.problems}")

    tracer = tracing.Tracer()
    remove = tracing.instrument(tracer)
    tracer.active = True
    try:
        workload.run(inputs)
    finally:
        tracer.active = False
        remove()
    metrics = tracing.per_layer_metrics(tracer.spans)
    missing = set(tracing.PER_LAYER_UNITS) - set(metrics) - {"trace.overhead_frac"}
    if missing or not tracer.spans:
        errors.append(f"{name}: traced pass gave {len(tracer.spans)} spans, missing {missing}")

    wrong = type(workload)("tiny", corrupt(copy.deepcopy(workload.pins)))
    runner = run.Runner(wrong, inputs)
    runner.one_pass()
    if runner.failed != 1 or runner.attempted != 1:
        errors.append(f"{name}: wrong pins counted {runner.failed} failed of {runner.attempted}")
    return errors


def check_benchmark_json() -> list[str]:
    import workloads
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    coded = {name: workloads.WORKLOADS[name].why for name in run.WORKLOAD_NAMES}
    if declared != coded:
        errors.append(f"BENCHMARK.json workloads {declared} != code {coded}")
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", tracing.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            errors.append(f"BENCHMARK.json {key} {listed} != code {units}")
    return errors


def check_refuses_without_sources() -> list[str]:
    """A directory with only BENCHMARK.json and perfbench/ must not produce a result."""
    bare = run.ROOT / ".perfbench_out" / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "closure_d3n2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"run without sources exited {proc.returncode} with output {proc.stdout!r}"]
    return []


def main() -> int:
    errors = []
    for name in run.WORKLOAD_NAMES:
        errors += check_workload(name)
    errors += check_benchmark_json() + check_refuses_without_sources()
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
