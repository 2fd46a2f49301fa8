"""The benchmark's workloads: seeded inputs, one pass of the engine, checks.

Each workload is an object with

- ``inputs(seed)``: everything the pass needs, generated from the seed
  alone; the engine receives nothing else,
- ``run(inputs)``: one pass through parabraid's public functions, returning
  what the engine produced,
- ``check(inputs, out)``: the list of mismatches against the pinned
  reference values (empty when the pass is correct).

``size`` is "full" for the benchmark proper and "tiny" for the self-test;
each size has its own pinned values.  The pins were recorded from the
engine as it stood when the benchmark was defined.

Importing this module imports parabraid, so run.py imports it only after
it has pinned the BLAS threads and put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# Passes call the engine through its module attributes, as tracing.instrument
# wraps them there.
from parabraid import cli, clifford

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """One size's parameters and pinned values (or replacement pins, for tests)."""

    SIZES: dict
    PINS: dict

    def __init__(self, size: str = "full", pins: dict | None = None):
        self.params = self.SIZES[size]
        self.pins = pins if pins is not None else self.PINS[size]


class ReportAll(Workload):
    """``parabraid report-all`` at a seeded solver, fewer solver restarts.

    The solver restart count of report-all is the module constant
    ``cli.DEFAULT_RESTARTS_FOR_REPORT`` (2000); the pass sets it to
    ``restarts`` for its duration, so one pass fits the run length.
    At d = 3 the rarest solution basin takes about 7 % of the restarts, so
    200 restarts miss one with probability below 1e-5.
    """

    name = "report_d4"
    why = ("report-all --d-max 4 at a seeded solver, 200 restarts per d: the user-facing "
           "command; mostly the solver, which only it runs, and every other layer at small size")
    SIZES = {"full": {"d_max": 4, "restarts": 200}, "tiny": {"d_max": 3, "restarts": 30}}
    PINS = {
        "full": {"sha256_seed0": "ab7a8ffc86eed62805a53b1966b5bdce7e91bb3ca08cfb00b0b3e39895481f0a"},
        "tiny": {"sha256_seed0": "ea6b8fc6e13cc09d9d5b7c77afeb7929db9683ff3ac46a7b8ba0f79878ba7173"},
    }
    # Criterion 9 fails by design: on one quadruplet the d = 3 braid image
    # has no Pauli translations, so its closure cannot match the reference.
    EXPECTED_FAILING = {("clifford", 3, "matched_reference")}

    def inputs(self, seed: int) -> dict:
        return {"seed": seed, "solver_seed": cli.DEFAULT_SEED + seed, **self.params}

    def run(self, inputs: dict) -> dict:
        OUT_DIR.mkdir(exist_ok=True)
        out_json = OUT_DIR / f"report-{self.name}.json"
        saved = cli.DEFAULT_RESTARTS_FOR_REPORT
        cli.DEFAULT_RESTARTS_FOR_REPORT = inputs["restarts"]
        try:
            code, suites = cli.cmd_report_all(inputs["d_max"], inputs["solver_seed"],
                                              str(out_json), None, False)
        finally:
            cli.DEFAULT_RESTARTS_FOR_REPORT = saved
        return {"code": code, "suites": suites, "bytes": out_json.read_bytes()}

    def check(self, inputs: dict, out: dict) -> list[str]:
        problems = []
        failing = {(s.command, s.parameters["d"], c.name)
                   for s in out["suites"] for c in s.checks if not c.passed}
        expected = {f for f in self.EXPECTED_FAILING if f[1] <= inputs["d_max"]}
        if failing != expected:
            problems.append(f"failing checks {sorted(failing)} != {sorted(expected)}")
        if out["code"] != (1 if expected else 0):
            problems.append(f"report-all exit code {out['code']}")
        if inputs["seed"] == 0:
            digest = sha256_hex(out["bytes"])
            if digest != self.pins["sha256_seed0"]:
                problems.append(f"report sha256 {digest} != pinned {self.pins['sha256_seed0']}")
        return problems


class SymplecticClosure(Workload):
    """Breadth-first closure of the d = 3 two-qudit symplectic group.

    The reference Fourier gates on both qudits and the controlled shift
    generate the 51,840 elements of Sp(4, Z_3): criterion 12's closure
    without its 81 Pauli translations, so one pass takes a fraction of a
    second instead of most of a minute.  The seed only orders the
    generators, which must not change the result.
    """

    name = "closure_d3n2"
    why = ("closure of the d=3 two-qudit Fourier gates and controlled shift (Sp(4,Z_3), "
           "51,840 elements): closure BFS and dedup, no solver, dim-81 dense work only")
    SIZES = {"full": {"d": 3, "n": 2, "generators": (1, 3, 4)},
             "tiny": {"d": 2, "n": 1, "generators": (0, 1)}}
    PINS = {
        "full": {"order": 51840, "levels": 17, "symplectic_order": 51840,
                 "keys_sha256": "7b0c855671b868934c01face3e462a28a97402cfbbbc1afb5e9f7281fef1b19d"},
        "tiny": {"order": 24, "levels": 7, "symplectic_order": 6,
                 "keys_sha256": "c01aa761c43d3cc21807a629be50baab91a91fd40636bf35879a2c4fac06e83d"},
    }

    def inputs(self, seed: int) -> dict:
        order = np.random.default_rng(seed).permutation(len(self.params["generators"]))
        return {"d": self.params["d"], "n": self.params["n"],
                "generators": tuple(self.params["generators"][i] for i in order)}

    def run(self, inputs: dict):
        gens = clifford.reference_generators(inputs["d"], inputs["n"])
        return clifford.closure([gens[i] for i in inputs["generators"]])

    def check(self, inputs: dict, out) -> list[str]:
        found = {"order": out.order, "levels": out.levels,
                 "symplectic_order": out.symplectic_order(),
                 "keys_sha256": sha256_hex(out.keys.tobytes())}
        return [f"{key} {found[key]} != pinned {want}"
                for key, want in self.pins.items() if found[key] != want]


WORKLOADS = {w.name: w for w in (ReportAll, SymplecticClosure)}
