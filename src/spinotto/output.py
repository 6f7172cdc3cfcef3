"""Deterministic CSV and JSON serialization for engine results.

A cycle record is its trace CSV row: the fields of engine.CycleRecord after
cycle_index are the trace columns, under their column names and in their
order, so TRACE_COLUMNS is read off the record type and a row is written
straight from the record.

Every number is written with 17 significant digits so repeated runs of the
same configuration produce byte-identical artifacts suitable for golden-file
regression.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from typing import Iterable, Sequence

from .engine import CycleRecord

TRACE_COLUMNS = CycleRecord._fields[1:]

ADVANTAGE_COLUMNS = (
    "cycle_index",
    "work_coherent",
    "work_incoherent",
    "advantage_ratio",
    "advantage_defined",
)


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits (exact round trip)."""
    return format(float(x), ".17g")


def _cell(value) -> str:
    """One CSV cell: None -> nan, bool -> 1/0, int -> str, float -> fmt_float."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return fmt_float(value)


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def write_trace_csv(
    path,
    axis_name: str,
    axis_values: Sequence,
    records: Sequence[CycleRecord],
) -> None:
    """One CSV row per record, keyed by the given axis column. The axis cell
    goes through _cell; the record fields are floats, all rendered by one %
    format with fmt_float's 17 significant digits."""
    if len(axis_values) != len(records):
        raise ValueError("axis values and records must have equal length")
    fields = ",%.17g" * len(TRACE_COLUMNS)
    lines = [",".join((axis_name,) + TRACE_COLUMNS)]
    lines += [_cell(axis) + fields % record[1:] for axis, record in zip(axis_values, records)]
    _write_text(path, "\n".join(lines) + "\n")


def write_advantage_csv(path, rows: Iterable[tuple[int, float, float, float | None]]) -> None:
    """Rows of (cycle_index, coherent work, incoherent work, ratio or None)."""
    _write_csv(path, ADVANTAGE_COLUMNS, ((i, wc, wi, r, r is not None) for i, wc, wi, r in rows))


def write_grid_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Generic numeric grid CSV with the package float format."""
    _write_csv(path, header, rows)


def dumps_stable(obj, indent: int = 0) -> str:
    """JSON text with 17-significant-digit floats and stable layout."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj} cannot be serialized to JSON")
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + dumps_stable(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + dumps_stable(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def write_json(path, obj) -> None:
    _write_text(path, dumps_stable(obj) + "\n")


def _write_text(path, text: str) -> None:
    """Write text to path atomically: into a temporary file in the same
    directory, then os.replace. A failed write leaves any old file intact and
    removes the temporary file."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
