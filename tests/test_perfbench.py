"""The benchmark's own self-test, run as part of the test suite.

The traced benchmark run wraps engine functions at their module attributes
(for example `parabraid.solver.least_squares`), so a refactor that drops or
renames one breaks the benchmark while every engine test stays green.
`perfbench/selftest.py` catches that; it runs each workload at a tiny size.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
