#!/usr/bin/env python3
"""Validate a `nimage bench --json` report against ci/report_schema.json.

Stdlib only — implements the subset of JSON Schema the checked-in schema
uses: type (including union types and null), const, required, properties,
additionalProperties: false, items, minimum. The report_version gate is
the schema's `const` on `report_version`: a report from an incompatible
writer fails loudly here instead of being misparsed downstream.

Usage: validate_report.py BENCH_eval.json [more.json ...]

Each file may be either a bare report (`Report::to_json` output) or a
bench document with the report nested under its "report" key; the bench
document is checked against the schema's `$defs.bench` (which admits no
top-level key duplicating the report) and its report against the schema.
"""

import json
import sys
from pathlib import Path

SCHEMA = json.loads((Path(__file__).parent / "report_schema.json").read_text())

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def check(value, schema, path, errors):
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
        return
    if "type" in schema:
        allowed = schema["type"]
        if isinstance(allowed, str):
            allowed = [allowed]
        # bool is an int subclass in Python; keep integer strict.
        ok = any(
            isinstance(value, TYPES[t]) and not (t in ("integer", "number") and isinstance(value, bool))
            for t in allowed
        )
        if not ok:
            errors.append(f"{path}: expected {'/'.join(allowed)}, got {type(value).__name__}")
            return
    if value is None:
        return  # a union with null: nothing further to check
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                check(value[key], sub, f"{path}.{key}", errors)
        if schema.get("additionalProperties") is False:
            for key in value.keys() - schema.get("properties", {}).keys():
                errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            check(item, schema["items"], f"{path}[{i}]", errors)
    if "minimum" in schema and isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")


def validate_file(name):
    doc = json.loads(Path(name).read_text())
    report = doc.get("report", doc) if isinstance(doc, dict) else doc
    errors = []
    if report is not doc:
        check(doc, SCHEMA["$defs"]["bench"], "bench", errors)
    check(report, SCHEMA, "report", errors)
    for e in errors:
        print(f"{name}: {e}", file=sys.stderr)
    if not errors:
        print(f"{name}: valid (report_version {report.get('report_version')})")
    return not errors


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    return 0 if all([validate_file(f) for f in sys.argv[1:]]) else 1


if __name__ == "__main__":
    sys.exit(main())
