"""Plain-text table and series rendering for the experiment harnesses,
plus the machine-readable schemas shared by ``repro lint --json`` and
the observability layer (``repro stats --snapshot``, ``repro profile
--json`` -- see :mod:`repro.obs.metrics` and :mod:`repro.obs.profile`)."""

from __future__ import annotations

from typing import Iterable, Sequence

# Canonical metrics-snapshot schema; defined next to the registry so the
# obs layer has no analysis dependency, re-exported here because report
# producers and consumers historically import schemas from this module.
from repro.obs.metrics import SNAPSHOT_SCHEMA, SNAPSHOT_VERSION

__all__ = [
    "LINT_SCHEMA",
    "LINT_SCHEMA_VERSION",
    "SANITIZE_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_VERSION",
    "format_series",
    "format_table",
    "validate_against_schema",
]

#: Version tag stamped into every ``repro lint --json`` payload (including
#: usage-error payloads) so consumers can dispatch on shape.
LINT_SCHEMA_VERSION = "repro.lint/1"

#: Structural schema (JSON-Schema subset) for ``repro lint --json`` output.
#: Kept here so report producers and consumers share one definition;
#: validate with :func:`validate_against_schema`.
LINT_SCHEMA = {
    "type": "object",
    "required": ["schema", "program", "geometry", "summary", "diagnostics"],
    "properties": {
        "schema": {"enum": [LINT_SCHEMA_VERSION]},
        "program": {"type": "string"},
        "geometry": {
            "type": "object",
            "required": ["cache_size", "block_size", "full_tag_add"],
            "properties": {
                "cache_size": {"type": "integer"},
                "block_size": {"type": "integer"},
                "full_tag_add": {"type": "boolean"},
            },
        },
        "summary": {
            "type": "object",
            "required": [
                "sites", "always", "never", "data_dependent",
                "unreachable", "warnings", "notes",
            ],
            "properties": {
                "sites": {"type": "integer"},
                "always": {"type": "integer"},
                "never": {"type": "integer"},
                "data_dependent": {"type": "integer"},
                "unreachable": {"type": "integer"},
                "warnings": {"type": "integer"},
                "notes": {"type": "integer"},
            },
        },
        "diagnostics": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["code", "severity", "address", "message"],
                "properties": {
                    "code": {"type": "string"},
                    "severity": {"enum": ["warning", "note"]},
                    "address": {"type": "integer"},
                    "function": {"type": ["string", "null"]},
                    "message": {"type": "string"},
                    "hint": {"type": ["string", "null"]},
                },
            },
        },
    },
}

#: Structural schema for ``repro sanitize --json`` output (the version
#: tag itself lives in :mod:`repro.analysis.sanitize.report` next to the
#: producer; checkers and codes are documented there).
SANITIZE_SCHEMA = {
    "type": "object",
    "required": ["schema", "program", "summary", "findings"],
    "properties": {
        "schema": {"enum": ["repro.sanitize/1"]},
        "program": {"type": "string"},
        "summary": {
            "type": "object",
            "required": [
                "functions", "sites", "findings", "errors", "warnings",
                "by_checker",
            ],
            "properties": {
                "functions": {"type": "integer"},
                "sites": {"type": "integer"},
                "findings": {"type": "integer"},
                "errors": {"type": "integer"},
                "warnings": {"type": "integer"},
                "by_checker": {"type": "object"},
            },
        },
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["code", "checker", "severity", "address",
                             "message"],
                "properties": {
                    "code": {"type": "string"},
                    "checker": {"type": "string"},
                    "severity": {"enum": ["error", "warning"]},
                    "address": {"type": "integer"},
                    "function": {"type": ["string", "null"]},
                    "message": {"type": "string"},
                    "hint": {"type": ["string", "null"]},
                },
            },
        },
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_against_schema(value, schema: dict, path: str = "$") -> list[str]:
    """Check ``value`` against the JSON-Schema subset used by
    :data:`LINT_SCHEMA` (type/required/properties/items/enum). Returns a
    list of human-readable problems; empty means valid."""
    problems: list[str] = []
    if "enum" in schema:
        if value not in schema["enum"]:
            problems.append(f"{path}: {value!r} not in {schema['enum']}")
        return problems
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            problems.append(f"{path}: expected {expected}, got "
                            f"{type(value).__name__}")
            return problems
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                problems.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in value:
                problems.extend(
                    validate_against_schema(value[key], subschema,
                                            f"{path}.{key}")
                )
    elif isinstance(value, list) and "items" in schema:
        for position, item in enumerate(value):
            problems.extend(
                validate_against_schema(item, schema["items"],
                                        f"{path}[{position}]")
            )
    return problems


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for position, cell in enumerate(row):
            widths[position] = max(widths[position], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(
            cell.rjust(widths[i]) if _is_numeric(cell) else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence, ys: Sequence[float],
                  y_format: str = "{:.3f}") -> str:
    """Render one figure series as ``name: x=y x=y ...``."""
    pairs = " ".join(f"{x}={y_format.format(y)}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell.rstrip("%"))
        return True
    except ValueError:
        return False
