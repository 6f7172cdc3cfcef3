"""Scenario files: a strict nested key-value text format plus built-in presets.

A scenario file has optional top-level keys followed by bracketed sections::

    schema_version = 1
    scenario = compare

    [engine]
    theta = 0.39
    p_mx = 0.45
    cycles = 20

    [noise]
    battery_t2_per_cycle = 0.9

    [output]
    prefix = fig3
    formats = csv, json

Blank lines and full-line comments (starting with '#' or ';') are ignored.
Parsing is strict: unknown sections, unknown keys, duplicate keys and
malformed values are rejected with the offending line number, and a section
that the scenario does not accept, or that lacks what it needs, with the line
of its header. Each value is read by Python's int() (cycles) or float(), and a
battery_init or population value is the tuple of as many numbers as the
field's row in engine's ConfigBatch holds.

A parsed file is a base config plus named axes, each a config field and its
values. The runs are the product of the axes, the last axis fastest, each
point set on the base config. [sweep] gives one line per axis, in product
order::

    [sweep]
    p_mx = 0.0, 0.5
    battery_init = 0.0, 0.0, -0.5; 0.0, 0.5, 0.0
    theta = 0.0, 0.4, 0.8

Values are separated by ',', but battery_init's values are 3-vectors
separated by ';', and no axis, of [sweep] or [search], repeats a value. A
[sweep] axis is any of SWEEPABLE_FIELDS. [search] states its axes the same
way and gives the four SEARCH_AXES, each sorted, where an axis the section
omits holds the base config's value. Scenario single-cycle-sweep
requires [sweep] and search-advantage requires [search]; compare, and
multicycle without [sweep], run the base config alone.

A single-cycle sweep and a multicycle run write one trace CSV per point of
their file axes: {prefix}.csv when there are none, {prefix}_s00.csv,
{prefix}_s01.csv, ... in product order otherwise, and the summary's
sweep_map gives each file's point. The rows of a single-cycle sweep's files
are its last axis, which is not battery_init, and its other axes are file
axes; the rows of a multicycle run's files are its cycles, and all its axes
are file axes.

A file states each field once, and its base config is the first point of its
axes: the [engine] and [noise] values, the first value of every axis, and a
search's max_cycles as cycles; every other field keeps the experimental
default carried by EngineConfig. A key of [engine] or [noise] that an axis or
max_cycles also sets is rejected. Every later value of every axis is checked
on the base config as the file is parsed, so a bad value fails before
anything runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

from .engine import _ROW_SHAPES, MAX_COUNT, NOISE_FIELDS, SWEEPABLE_FIELDS, EngineConfig

FORMATS = ("csv", "json")

SCHEMA_VERSION = "1"


class ScenarioError(ValueError):
    """A scenario file could not be parsed or validated."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# The grid axes of a search, in grid order.
SEARCH_AXES = ("theta", "p_mx") + NOISE_FIELDS


@dataclass(frozen=True)
class ScenarioFile:
    kind: str
    engine: EngineConfig
    # every output file name starts with prefix; formats are of FORMATS
    prefix: str
    formats: tuple[str, ...]
    # (field, values) of every axis, in product order; engine is the first point
    axes: tuple[tuple[str, tuple], ...] = ()


_TOP_KEYS = ("schema_version", "scenario")
# The keys of each section. [engine] and [noise] split EngineConfig's fields:
# [noise] takes the two noise factors (NOISE_FIELDS) and [engine] every other
# field. [sweep] takes one line per axis; [search] takes the four search axes
# and the run length of every grid point.
_SECTION_KEYS = {
    "engine": tuple(f.name for f in fields(EngineConfig) if f.name not in NOISE_FIELDS),
    "noise": NOISE_FIELDS,
    "sweep": SWEEPABLE_FIELDS,
    "output": ("prefix", "formats"),
    "search": SEARCH_AXES + ("max_cycles",),
}
_SECTIONS_BY_KIND = {
    "single-cycle-sweep": ("engine", "noise", "sweep", "output"),
    "multicycle": ("engine", "noise", "sweep", "output"),
    "compare": ("engine", "noise", "output"),
    "search-advantage": ("engine", "noise", "search", "output"),
}
SCENARIO_KINDS = tuple(_SECTIONS_BY_KIND)


def _parse_lines(text: str) -> tuple[dict[str, dict[str, tuple[str, int]]], dict[str, int]]:
    """Split the raw text into {section: {key: (value, line_no)}}, the
    top-level keys under "", and {section: line_no of its header}, both in
    file order."""
    table: dict[str, dict[str, tuple[str, int]]] = {"": {}}
    headers: dict[str, int] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"malformed section header {line!r}", lineno)
            section = line[1:-1].strip()
            if section not in _SECTION_KEYS:
                known = ", ".join(sorted(_SECTION_KEYS))
                raise ScenarioError(f"unknown section [{section}]; expected one of {known}", lineno)
            if section in table:
                raise ScenarioError(f"duplicate section [{section}]", lineno)
            table[section] = {}
            headers[section] = lineno
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        allowed = _TOP_KEYS if section == "" else _SECTION_KEYS[section]
        if key not in allowed:
            where = "top level" if section == "" else f"section [{section}]"
            raise ScenarioError(
                f"unknown key {key!r} in {where}; expected one of {', '.join(allowed)}",
                lineno,
            )
        if key in table[section]:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        table[section][key] = (value, lineno)
    return table, headers


def _split(key: str, value: str, lineno: int, sep: str = ",") -> list[str]:
    """The sep-separated entries of one key; an empty entry is an error."""
    parts = [p.strip() for p in value.split(sep)]
    if "" in parts:
        raise ScenarioError(f"{key}: empty entry in {value!r}", lineno)
    return parts


def _distinct(key: str, values: tuple, lineno: int) -> tuple:
    """values, once none of them repeats an earlier one."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ScenarioError(f"{key}: duplicate value {repeated[0]!r}", lineno)
    return values


def _to_value(key: str, value: str, lineno: int):
    """One value of the EngineConfig field key, as the field takes it: for a
    field of engine._ROW_SHAPES, the tuple of its n comma-separated numbers;
    for cycles, Python's int() of the text; for any other field, its float(),
    which must be finite."""
    shape = _ROW_SHAPES.get(key, ())
    parts = _split(key, value, lineno) if shape else [value]
    if shape and len(parts) != shape[0]:
        raise ScenarioError(f"{key}: expected {shape[0]} comma-separated numbers, got {value!r}", lineno)
    read, expected = (int, "an integer") if key == "cycles" else (float, "a number")
    numbers = []
    for part in parts:
        try:
            x = read(part)
        except ValueError:
            raise ScenarioError(f"expected {expected}, got {part!r}", lineno) from None
        if not -math.inf < x < math.inf:  # a NaN or an infinity; exact for an int of any size
            raise ScenarioError(f"expected a finite number, got {part!r}", lineno)
        numbers.append(x)
    return tuple(numbers) if shape else numbers[0]


def parse_scenario(text: str) -> ScenarioFile:
    """Parse and validate scenario text. Raises ScenarioError or ConfigError."""
    table, headers = _parse_lines(text)
    top = table[""]

    version = top.get("schema_version", (SCHEMA_VERSION, 0))[0]
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION!r}",
            top.get("schema_version", (None, None))[1],
        )
    if "scenario" not in top:
        raise ScenarioError("missing required top-level key 'scenario'")
    kind, kind_line = top["scenario"]
    if kind not in SCENARIO_KINDS:
        raise ScenarioError(
            f"unknown scenario {kind!r}; expected one of {', '.join(SCENARIO_KINDS)}",
            kind_line,
        )

    for section, header in headers.items():
        if section not in _SECTIONS_BY_KIND[kind]:
            raise ScenarioError(f"section [{section}] is not accepted by scenario {kind!r}", header)
    if kind == "search-advantage" and "search" not in headers:
        raise ScenarioError("scenario 'search-advantage' requires a [search] section")
    # The axes the file states, {field: values}, in the order it states them,
    # and the run length a search sets with them.
    section = "search" if kind == "search-advantage" else "sweep"
    entries, run_length = dict(table.get(section, {})), {}
    if section == "search":
        if "theta" not in entries or "p_mx" not in entries:
            raise ScenarioError("section [search] requires 'theta' and 'p_mx' value lists", headers["search"])
        value, line = entries.pop("max_cycles", ("10", None))
        run_length = {"cycles": _to_value("cycles", value, line)}
        if not 1 <= run_length["cycles"] <= MAX_COUNT:
            message = f"max_cycles must be a positive integer up to {MAX_COUNT}, got {run_length['cycles']}"
            raise ScenarioError(message, line)
    axes = {}
    for name, (value, line) in entries.items():
        if kind == "single-cycle-sweep" and name == "cycles":
            message = "field 'cycles' is not sweepable in scenario 'single-cycle-sweep', which runs one cycle"
            raise ScenarioError(message, line)
        parts = _split(name, value, line, ";" if name == "battery_init" else ",")
        values = tuple(_to_value(name, v, line) for v in parts)  # each value as [engine] converts it
        axes[name] = _distinct(name, tuple(sorted(values)) if section == "search" else values, line)
    if kind == "single-cycle-sweep" and list(axes)[-1:] == ["battery_init"]:
        message = "battery_init cannot be the last [sweep] axis, which gives a single-cycle sweep's rows"
        raise ScenarioError(message, entries["battery_init"][1])
    if kind == "single-cycle-sweep" and not axes:
        message = "scenario 'single-cycle-sweep' requires a [sweep] section that names an axis"
        raise ScenarioError(message, headers.get("sweep"))
    first_run = {name: values[0] for name, values in axes.items()} | run_length

    stated = {}
    for key, (value, lineno) in (table.get("engine", {}) | table.get("noise", {})).items():
        if key in first_run:
            raise ScenarioError(f"{key} is set by [{section}]; a file states each field once", lineno)
        stated[key] = _to_value(key, value, lineno)
    engine = EngineConfig(**stated, **first_run)

    if kind == "single-cycle-sweep" and engine.cycles != 1:  # cycles is no axis here, so [engine] states it
        message = f"scenario 'single-cycle-sweep' requires cycles = 1, got {engine.cycles}"
        raise ScenarioError(message, table["engine"]["cycles"][1])
    if kind == "search-advantage":  # a noise axis that [search] omits holds the base config's value
        axes = {key: axes.get(key, (getattr(engine, key),)) for key in SEARCH_AXES}
    # No two sweepable fields share a rule, so every later value is checked
    # on its own on the base config, before anything runs.
    for name, values in axes.items():
        for value in values[1:]:
            replace(engine, **{name: value})

    # [output] defaults to the scenario's name as the prefix and every format
    output = table.get("output", {})
    prefix, lineno = output.get("prefix", (kind, None))
    if not prefix or prefix.startswith(".") or "/" in prefix or "\\" in prefix or not prefix.isprintable():
        message = f"prefix must be a file name with no leading '.' and no path separator, got {prefix!r}"
        raise ScenarioError(message, lineno)
    value, lineno = output.get("formats", (", ".join(FORMATS), None))
    formats = tuple(_split("formats", value, lineno))
    bad = [f for f in formats if f not in FORMATS]
    if bad:
        raise ScenarioError(f"unknown output format {bad[0]!r}; expected csv and/or json", lineno)

    return ScenarioFile(kind=kind, engine=engine, prefix=prefix, formats=formats, axes=tuple(axes.items()))


def load_scenario(path) -> ScenarioFile:
    """Read and parse a scenario file from disk. A file that is not UTF-8
    text raises ScenarioError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_scenario(text)


def config_to_dict(config: EngineConfig) -> dict:
    """JSON-ready echo of an engine config, the "config" block of a summary
    JSON: EngineConfig's fields in order, but the two noise factors grouped
    under "noise", just before "cycles", as a scenario file's [noise] section
    groups them."""
    data = asdict(config)
    noise = {name: data.pop(name) for name in NOISE_FIELDS}
    cycles = data.pop("cycles")
    return data | {"noise": noise, "cycles": cycles}


# Every preset is a packaged .scn file, named by its stem.
PRESETS = {
    path.stem: partial(load_scenario, path)
    for path in sorted((Path(__file__).parent / "presets").glob("*.scn"))
}


def resolve_scenario(name_or_path: str) -> ScenarioFile:
    """Look up a built-in preset by name, otherwise load a scenario file."""
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]()
    return load_scenario(name_or_path)
