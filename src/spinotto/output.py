"""CSV and JSON serialization for engine results, one writer per format.

A cycle record is its trace CSV row: the fields of engine.CycleRecord after
cycle_index are the trace columns, under their column names and in their
order, so TRACE_COLUMNS is read off the record type and a row is written
straight from the record.

A CSV row is one % format of %.17g fields: a float gets 17 significant
digits, an int or a bool is printed as an integer (a bool as 1 or 0) and a
NaN as nan. A JSON file is json.dumps text with a two-space indent, whose
floats are Python's shortest repr. Either reads back to the exact doubles,
and repeated runs of the same configuration write byte-identical files.
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


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    fmt = ",".join(["%.17g"] * len(header))
    _write_text(path, "\n".join([",".join(header)] + [fmt % tuple(row) for row in rows]) + "\n")


def write_trace_csv(path, axis_name: str, axis_values: Sequence, records: Sequence[CycleRecord]) -> None:
    """One CSV row per record, keyed by the given axis column."""
    if len(axis_values) != len(records):
        raise ValueError("axis values and records must have equal length")
    _write_csv(path, (axis_name,) + TRACE_COLUMNS, ((a,) + r[1:] for a, r in zip(axis_values, records)))


def write_advantage_csv(path, rows: Iterable[tuple[int, float, float, float]]) -> None:
    """Rows of (cycle_index, coherent work, incoherent work, ratio), the
    ratio NaN where it is undefined; advantage_defined is 1 where it is not."""
    _write_csv(path, ADVANTAGE_COLUMNS, ((i, wc, wi, r, not math.isnan(r)) for i, wc, wi, r in rows))


def write_grid_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV of numbers, one row per grid point, each cell in the %.17g
    format; a NaN (an undefined value) is written as nan."""
    _write_csv(path, header, rows)


def write_json(path, obj) -> None:
    """obj as json.dumps text with a two-space indent; a NaN or an infinity
    raises ValueError before any file is written."""
    _write_text(path, json.dumps(obj, indent=2, allow_nan=False) + "\n")


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
