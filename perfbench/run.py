"""parabraid benchmark: seeded workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload report_d4 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one summary table

One run repeats passes of a workload for ``--seconds`` seconds (at least
MIN_TIMED timed passes after one warm-up pass) and checks every pass
against pinned reference values.  With ``--trace 0`` it reports the
end-to-end metrics (medians over the timed passes); with ``--trace 1`` the
first half of the window runs untraced and the second half traced, and it
reports the per-layer metrics from the traced passes plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS threads are pinned to BLAS_THREADS in this process and its children
before numpy is imported.  The engine is imported from the ``src``
directory next to this one; without it the run fails with exit code 2.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("report_d4", "closure_d3n2")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5
MIN_TIMED = 3
CHILD_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup(name: str, seed: int, size: str = "full"):
    """Import the engine and generate the workload's inputs: what setup_s times."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import parabraid
    if not Path(parabraid.__file__).resolve().is_relative_to(SRC):
        fail(f"parabraid imported from {parabraid.__file__}, not from {SRC}")
    import workloads
    workload = workloads.WORKLOADS[name](size)
    return workload, workload.inputs(seed)


def probe_setup(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that only runs setup().

    A blocking wait, with a timer that kills a hung child: waiting with a
    timeout polls, which would round the time up to the polling interval.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "run.py"), "--workload", name,
                             "--seed", str(seed), "--setup-only"])
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        fail(f"set-up of {name} exited with {code}")
    return elapsed


class Runner:
    """Runs passes of one workload and keeps their timings and verdicts."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self) -> tuple[float, float]:
        """Run and verify one pass (one op); returns its (wall, cpu) seconds."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        # a pass that raises, or whose check raises, is a failed pass, not a crashed run
        try:
            out = self.workload.run(self.inputs)
        except Exception as err:
            problems = [f"{type(err).__name__}: {err}"]
        else:
            problems = None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if problems is None:
            try:
                problems = self.workload.check(self.inputs, out)
            except Exception as err:
                problems = [f"check raised {type(err).__name__}: {err}"]
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems[:max(0, 10 - len(self.problems))])
        return wall, cpu

    def passes(self, seconds: float, min_passes: int = MIN_TIMED) -> tuple[list[float], list[float]]:
        """Timed passes until `seconds` would be exceeded (at least `min_passes`)."""
        walls, cpus = [], []
        start = time.perf_counter()
        while True:
            wall, cpu = self.one_pass()
            walls.append(wall)
            cpus.append(cpu)
            used = time.perf_counter() - start
            if len(walls) >= min_passes and used + statistics.median(walls) > seconds:
                return walls, cpus


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_times = [] if trace else [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    workload, inputs = setup(name, seed)
    runner = Runner(workload, inputs)
    runner.one_pass()  # warm-up: lazy imports, first-call caches; verified, not timed

    if not trace:
        walls, cpus = runner.passes(seconds)
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        detail = {"timed_passes": len(walls), "setup_probes_s": setup_times,
                  "wall_s_quartiles": statistics.quantiles(walls, n=4)}
    else:
        import tracing
        plain, _ = runner.passes(seconds / 2, min_passes=2)
        tracer = tracing.Tracer()
        remove = tracing.instrument(tracer)
        run = workload.run
        pass_index = itertools.count()

        def traced_run(inp):
            tracer.run_id = f"{name}-seed{seed}-pass{next(pass_index)}"
            tracer.active = True
            try:
                return run(inp)
            finally:
                tracer.active = False

        workload.run = traced_run  # the checks stay outside the spans
        try:
            traced, _ = runner.passes(seconds / 2, min_passes=2)
        finally:
            remove()
            workload.run = run
        metrics = tracing.per_layer_metrics(tracer.spans)
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        units = tracing.PER_LAYER_UNITS
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_file)
        detail = {"untraced_passes": len(plain), "traced_passes": len(traced),
                  "spans": len(tracer.spans), "trace_file": str(trace_file.relative_to(ROOT))}

    return {"workload": name, "seed": seed, "correct": runner.failed == 0,
            "attempted": runner.attempted, "failed": runner.failed,
            "problems": runner.problems, "detail": detail,
            "metrics": {key: {"value": float(metrics[key]), "unit": units[key]} for key in units}}


def print_result(result: dict, env: dict) -> None:
    frac = result["failed"] / result["attempted"]
    print(f"# {result['workload']} seed {result['seed']}: "
          f"{result['attempted']} ops, {result['failed']} failed "
          f"(ops_failed_frac {frac:.6g})")
    for problem in result["problems"]:
        print(f"#   mismatch: {problem}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# detail " + json.dumps(result["detail"], sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"{key:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS is per workload."""
    rows = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + args.seconds)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with {proc.returncode}")
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {}
    print(f"{'workload':14s} {'metric':48s} {'value':>16s} unit")
    for name, row in rows.items():
        frac = row["failed"] / row["attempted"]
        for key, metric in row["metrics"].items():
            print(f"{name:14s} {key:48s} {metric['value']:>16.6g} {metric['unit']}")
            metrics[f"{name}.{key}"] = metric
        print(f"{name:14s} {'ops_failed_frac':48s} {frac:>16.6g} ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": metrics,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate inputs, then exit (times setup_s)")
    args = parser.parse_args()
    if not (SRC / "parabraid" / "__init__.py").is_file():
        fail(f"no parabraid sources under {SRC}")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result, environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())
