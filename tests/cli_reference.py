"""The per-cell CSV writer and the per-entry config validators that the table-at-once writer and
the one-pass validators of ruellebf.cli replaced, kept as the references those are compared with.

reference_payload writes a table row by row, each cell through _format_cell and csv.writer; its
meta lines escape a carriage return or newline in a value, as cli does, so that every key stays
one line. The validators check one entry at a time with _finite and raise the same ConfigError.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from ruellebf.cli import ConfigError, _finite, _format_cell, _require


def reference_payload(rows, columns, fmt, meta=None) -> str:
    """What cli._emit writes for these rows, one cell at a time."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])
        for key, value in (meta or {}).items():
            text = f"{_format_cell(value)}".replace("\r", "\\r").replace("\n", "\\n")
            buf.write(f"# {key}: {text}\n")
        return buf.getvalue()

    def cell(value):
        return _format_cell(value) if isinstance(value, float) and not math.isfinite(value) else value
    doc = {"rows": [{c: cell(v) for c, v in row.items()} for row in rows]}
    if meta:
        doc["meta"] = {key: cell(value) for key, value in meta.items()}
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def reference_parse_complex(entry, path) -> complex:
    if _finite(entry):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2 and all(_finite(x) for x in entry):
        return complex(entry[0], entry[1])
    raise ConfigError(path, "must be a finite number or an [re, im] pair of them")


def reference_parse_grid(cfg):
    grid = cfg.get("grid", [])
    _require(isinstance(grid, list), "grid", "must be a list")
    return [reference_parse_complex(entry, f"grid[{i}]") for i, entry in enumerate(grid)]


def reference_parse_matrix(value, path) -> np.ndarray:
    _require(isinstance(value, list) and value and all(
        isinstance(row, list) and len(row) == len(value) and all(_finite(x) for x in row) for row in value
    ), path, "must be a square matrix (list of rows) of finite numbers")
    return np.array(value, dtype=complex)


def reference_parse_external(cfg, n):
    ext = cfg.get("external", {})
    _require(isinstance(ext, dict), "external", "must be an object")
    vecs = {name: ext.get(name, [1.0] * n) for name in ("A", "B")}
    for name, vec in vecs.items():
        _require(isinstance(vec, list) and len(vec) == n, f"external.{name}", f"must be a list of {n} numbers")
    return [np.array([reference_parse_complex(x, f"external.{name}[{i}]") for i, x in enumerate(vec)])
            for name, vec in vecs.items()]
