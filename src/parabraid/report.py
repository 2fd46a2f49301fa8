"""Run reports: named checks with explicit tolerances, JSON and Markdown out.

Reports come in two precisions.  Console output carries full-precision
values.  Serialized reports quantize each check value (a passing residual
collapses to 0.0, anything else is rounded to three significant digits) so
that a fixed seed yields byte-identical files: last-ulp jitter from SIMD
and threaded BLAS reductions would otherwise leak into the bytes.  Wall
times are never serialized, for the same reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

REPORT_VERSION = "0.1.0"


@dataclass(frozen=True)
class Check:
    """One verified statement: passes iff value <= tol."""

    name: str
    value: float
    tol: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "tol", float(self.tol))

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tol)

    def quantized_value(self) -> float:
        if self.passed:
            return 0.0
        if self.value == 0 or not math.isfinite(self.value):
            return float(self.value)
        digits = 2 - int(math.floor(math.log10(abs(self.value))))
        return round(self.value, digits)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": self.quantized_value(),
            "tol": self.tol,
            "passed": self.passed,
        }


def count_check(name: str, found: int, expected: int) -> Check:
    """Equality of integer counts expressed as a residual check."""
    return Check(name, float(abs(found - expected)), 0.0)


def flag_check(name: str, ok: bool) -> Check:
    return Check(name, 0.0 if ok else 1.0, 0.0)


@dataclass
class RunReport:
    command: str
    parameters: dict
    checks: list[Check] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    wall_time_ms: float = 0.0

    def add(self, check: Check) -> None:
        self.checks.append(check)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        out = {
            "command": self.command,
            "parameters": self.parameters,
            "checks": [c.to_json() for c in self.checks],
            "passed": self.passed,
        }
        if self.extra:
            out["extra"] = self.extra
        return out

    def console_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {self.command}: {c.name} (value {c.value:.3e}, tol {c.tol:.1e})")
        return lines


def aggregate_json(d_max: int, seed: int, suites: list[RunReport]) -> dict:
    return {
        "version": REPORT_VERSION,
        "d_max": d_max,
        "seed": seed,
        "suites": [s.to_json() for s in suites],
        "all_passed": all(s.passed for s in suites),
    }


def dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def markdown_summary(aggregate: dict) -> str:
    """Markdown table derived from the aggregate JSON, one row per check."""
    lines = [
        "# Verification report",
        "",
        f"- version: {aggregate['version']}",
        f"- d_max: {aggregate['d_max']}",
        f"- seed: {aggregate['seed']}",
        f"- all passed: {aggregate['all_passed']}",
        "",
        "| suite | check | value | tol | status |",
        "|---|---|---|---|---|",
    ]
    for suite in aggregate["suites"]:
        params = ", ".join(f"{k}={v}" for k, v in sorted(suite["parameters"].items()))
        label = f"{suite['command']}({params})"
        for check in suite["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            lines.append(
                f"| {label} | {check['name']} | {check['value']:.3g} | {check['tol']:.1g} | {status} |"
            )
    return "\n".join(lines) + "\n"


def load_schema() -> dict:
    text = resources.files("parabraid").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


def validate_schema(instance, schema: dict, path: str = "$") -> list[str]:
    """Minimal JSON-Schema check covering the subset the shipped schema uses.

    Supports: type (incl. lists), properties, required, additionalProperties
    (boolean form), items, enum, minimum.  Returns a list of violations.
    """
    errors: list[str] = []
    types = schema.get("type")
    if types is not None:
        if isinstance(types, str):
            types = [types]
        if not any(_type_matches(instance, t) for t in types):
            errors.append(f"{path}: expected type {types}, got {type(instance).__name__}")
            return errors
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum {schema['enum']}")
    if "minimum" in schema and isinstance(instance, (int, float)) and instance < schema["minimum"]:
        errors.append(f"{path}: {instance} below minimum {schema['minimum']}")
    if isinstance(instance, dict):
        props = schema.get("properties", {})
        for name in schema.get("required", []):
            if name not in instance:
                errors.append(f"{path}: missing required property {name!r}")
        for key, value in instance.items():
            if key in props:
                errors.extend(validate_schema(value, props[key], f"{path}.{key}"))
            elif schema.get("additionalProperties", True) is False:
                errors.append(f"{path}: unexpected property {key!r}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(validate_schema(item, schema["items"], f"{path}[{i}]"))
    return errors


_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "number": (int, float),
               "boolean": bool, "null": type(None)}


def _type_matches(value, type_name: str) -> bool:
    if isinstance(value, bool) and type_name in ("integer", "number"):
        return False  # bool subclasses int, but JSON keeps them apart
    return isinstance(value, _JSON_TYPES.get(type_name, ()))
