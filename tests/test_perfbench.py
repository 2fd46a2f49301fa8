"""The benchmark's own self-test, run as part of the test suite.

The traced benchmark run wraps engine functions at their module attributes
(for example `parabraid.solver.least_squares`), so a refactor that drops or
renames one breaks the benchmark while every engine test stays green.
`perfbench/selftest.py` catches that; it runs each workload at a tiny size.
The restart metrics also need every restart to go through that attribute,
which the selftest cannot tell from a solver that bypasses it.
"""

import subprocess
import sys
from pathlib import Path

import parabraid.cli  # noqa: F401  (the tracer wraps functions across the package)
from parabraid import solver

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _traced_solve(config):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    tracer = tracing.Tracer()
    remove = tracing.instrument(tracer)
    try:
        tracer.active = True
        # through the module attribute, where the wrapper is installed
        result = solver.solve_all(config)
    finally:
        tracer.active = False
        remove()
    return result, tracer.spans


def test_every_restart_is_a_traced_least_squares_span():
    result, spans = _traced_solve(solver.SolverConfig(2, restarts=20, seed=5))
    (outer,) = [s for s in spans if s.name == "solver.solve_all"]
    restarts = [s for s in spans if s.name == "solver.least_squares" and s.parent == outer.id]
    assert len(restarts) == 20
    assert sum(s.attrs["nfev"] for s in restarts) == result.nfev


def test_manifold_probes_run_no_least_squares_descent():
    # at d = 4 every cluster is probed: the restarts sit under solve_all,
    # and the probes are one stacked descent inside the one
    # manifold_dimension span, with no lmder descent beneath it
    result, spans = _traced_solve(solver.SolverConfig(4, restarts=40, seed=5))
    assert any(cluster.manifold_dim == 1 for cluster in result.clusters)
    (outer,) = [s for s in spans if s.name == "solver.solve_all"]
    (probes,) = [s for s in spans if s.name == "solver.manifold_dimension"]
    assert probes.parent == outer.id
    fits = [s for s in spans if s.name == "solver.least_squares"]
    assert len(fits) == 40 and all(s.parent == outer.id for s in fits)
