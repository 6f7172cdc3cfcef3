"""Command-line front end: run scenarios and presets, search the advantage
grid, and exercise the self-check suite.

Exit codes: 0 on success, 1 on validation or numerical failure, 2 on usage or
parse errors.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time
from dataclasses import replace

from . import __version__
from .engine import EngineConfig
from .linalg import LinalgError
from .multicycle import compare_coherent_incoherent, peak_advantage, run_engines
from .output import write_advantage_csv, write_grid_csv, write_json, write_trace_csv
from .scenario import (PRESETS, SCHEMA_VERSION, SEARCH_AXES, ScenarioError, ScenarioFile, config_to_dict,
                       resolve_scenario)
from .validate import run_all_checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinotto",
        description="Simulate a coherently fueled two-spin Otto engine "
        "charging a qubit battery.",
    )
    parser.add_argument("--version", action="version", version=f"spinotto {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output-dir", default=".", help="directory for result files")

    run_p = sub.add_parser(
        "run",
        parents=[common],
        help="run a scenario file or a built-in preset "
        f"({', '.join(sorted(PRESETS))})",
    )
    run_p.add_argument("scenario", help="scenario file path or preset name")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", parents=[common], help="run the self-check suite")
    val_p.set_defaults(func=cmd_validate)

    search_p = sub.add_parser(
        "search", parents=[common], help="grid-search the coherent work advantage"
    )
    search_p.add_argument("scenario", help="search-advantage scenario file or preset name")
    search_p.set_defaults(func=cmd_search)

    return parser


def _finish(args, prefix: str, summary: dict, t0: float, summary_file: bool = True) -> None:
    """Write the summary, whose "outputs" lists the files already written, as
    <prefix>_summary.json unless summary_file is false; then print every file
    written and the elapsed time."""
    outputs = summary["outputs"]
    if summary_file:
        path = os.path.join(args.output_dir, f"{prefix}_summary.json")
        write_json(path, {"schema_version": SCHEMA_VERSION, "package_version": __version__} | summary)
        outputs = outputs + [os.path.basename(path)]
    for name in outputs:
        print(f"wrote {os.path.join(args.output_dir, name)}")
    print(f"elapsed {time.perf_counter() - t0:.3f} s")


def _points(axes) -> list[dict]:
    """Every point of the product of axes, a tuple of (field, values), as
    {field: value}, the last axis fastest; one empty point when there are no
    axes."""
    names = [name for name, _ in axes]
    return [dict(zip(names, point)) for point in itertools.product(*(values for _, values in axes))]


def _configs(s: ScenarioFile) -> list[EngineConfig]:
    """Every run of s: s.engine set to every point of s.axes, in order. The
    first is s.engine."""
    return [replace(s.engine, **point) for point in _points(s.axes)]


def _lay_out_traces(s: ScenarioFile, args, traces) -> tuple[list[str], dict]:
    """One trace CSV per point of the file axes, named {prefix}.csv when
    there are none and {prefix}_s{i:02d}.csv otherwise; sweep_map gives each
    file's point. A single-cycle sweep's last axis gives the rows of each
    file, one run each, and its other axes are the file axes; a multicycle
    run's file axes are all its axes, and the rows of each file are the
    cycles of its one run."""
    if s.kind == "single-cycle-sweep":
        *file_axes, (rows, values) = s.axes  # parse_scenario makes the last axis scalar
    else:
        file_axes, rows, values = s.axes, "cycle_index", None
    points = _points(file_axes)
    n = len(traces) // len(points)  # runs per file
    csv = "csv" in s.formats
    outputs, sweep_map = [], []
    for i, point in enumerate(points):
        records = [r for t in traces[i * n:(i + 1) * n] for r in t.records]
        name = f"{s.prefix}_s{i:02d}.csv" if file_axes else f"{s.prefix}.csv"
        if csv:
            row_values = [r.cycle_index for r in records] if values is None else values
            write_trace_csv(os.path.join(args.output_dir, name), rows, row_values, records)
            outputs.append(name)
        sweep_map.append({"index": i, "point": point, "file": name if csv else None})
    return outputs, {"rows": rows, "sweep_map": sweep_map}


def _lay_out_compare(s: ScenarioFile, args, traces) -> tuple[list[str], dict]:
    result = compare_coherent_incoherent(*traces)  # the config and its p_mx = 0 twin
    outputs = []
    if "csv" in s.formats:
        for tag, trace in (("coherent", result.coherent), ("incoherent", result.incoherent)):
            name = f"{s.prefix}_{tag}.csv"
            cycles = [r.cycle_index for r in trace.records]
            write_trace_csv(os.path.join(args.output_dir, name), "cycle_index", cycles, trace.records)
            outputs.append(name)
        name = f"{s.prefix}_advantage.csv"
        rows = [
            (rc.cycle_index, rc.cycle_work, ri.cycle_work, math.nan if ratio is None else ratio)
            for rc, ri, ratio in zip(
                result.coherent.records, result.incoherent.records, result.advantage
            )
        ]
        write_advantage_csv(os.path.join(args.output_dir, name), rows)
        outputs.append(name)
    peak = peak_advantage(result)
    results = {
        "peak_advantage_ratio": None if peak is None else peak[0],
        "peak_advantage_cycle": None if peak is None else peak[1],
        "cumulative_work_coherent": result.coherent.records[-1].cumulative_work,
        "cumulative_work_incoherent": result.incoherent.records[-1].cumulative_work,
    }
    if peak is not None:
        print(f"peak advantage {peak[0]:.4g} at cycle {peak[1]}")
    return outputs, results


def _lay_out_search(s: ScenarioFile, args, traces) -> tuple[list[str], dict]:
    points = [tuple(point.values()) for point in _points(s.axes)]  # s.axes are the SEARCH_AXES, in order
    n = len(points)  # traces holds every grid point, then every twin
    comparisons = [compare_coherent_incoherent(c, i) for c, i in zip(traces[:n], traces[n:])]

    peaks = [peak_advantage(comparison) for comparison in comparisons]
    rows = [point + ((*peak, True) if peak else (math.nan, 0, False)) for point, peak in zip(points, peaks)]
    # the point of the largest ratio; max keeps the first of equal ratios, the lex-smallest point
    best = max((i for i, peak in enumerate(peaks) if peak is not None), key=lambda i: peaks[i][0], default=None)

    outputs = []
    if "csv" in s.formats:
        name = f"{s.prefix}_grid.csv"
        header = SEARCH_AXES + ("peak_ratio", "peak_cycle", "defined")
        write_grid_csv(os.path.join(args.output_dir, name), header, rows)
        outputs.append(name)

    if best is None:
        results = {"grid_points": len(points), "best": None}
        print("no grid point had a defined advantage ratio")
    else:
        ratio, cycle = peaks[best]
        t, p, rd, t2 = points[best]
        best_point = dict(zip(SEARCH_AXES, points[best])) | {"peak_ratio": ratio, "peak_cycle": cycle}
        results = {"grid_points": len(points), "best": best_point}
        print(
            f"best grid point theta={t:.6g} p_mx={p:.6g} reset={rd:.6g} t2={t2:.6g}: "
            f"advantage {ratio:.4g} at cycle {cycle}"
        )
    return outputs, results


_LAYOUTS = {
    "single-cycle-sweep": _lay_out_traces,
    "multicycle": _lay_out_traces,
    "compare": _lay_out_compare,
    "search-advantage": _lay_out_search,
}


def _execute(s: ScenarioFile, args) -> int:
    """Run every config of s, and for compare and search-advantage its
    p_mx = 0 twin after them, in one run_engines call; then write the files
    of the scenario's layout and the summary."""
    t0 = time.perf_counter()
    configs = _configs(s)
    if s.kind in ("compare", "search-advantage"):
        configs += [replace(c, p_mx=0.0) for c in configs]
    traces = run_engines(configs)
    os.makedirs(args.output_dir, exist_ok=True)
    outputs, results = _LAYOUTS[s.kind](s, args, traces)  # parse_scenario accepts only these kinds
    summary = {"scenario": s.kind, "config": config_to_dict(s.engine), "outputs": outputs, "results": results}
    _finish(args, s.prefix, summary, t0, "json" in s.formats)
    return 0


def cmd_run(args) -> int:
    return _execute(resolve_scenario(args.scenario), args)


def cmd_validate(args) -> int:
    """Run the self-check suite, print one row per check and exit 1 if any
    check failed."""
    t0 = time.perf_counter()
    os.makedirs(args.output_dir, exist_ok=True)
    checks = run_all_checks()
    width = max(len(c.name) for c in checks)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}}  {c.detail}")
    all_passed = all(c.passed for c in checks)
    results = {
        "all_passed": all_passed,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
    }
    summary = {"scenario": "validate", "outputs": [], "results": results}
    _finish(args, "validate", summary, t0)
    return 0 if all_passed else 1


def cmd_search(args) -> int:
    s = resolve_scenario(args.scenario)
    if s.kind != "search-advantage":
        raise ScenarioError(
            f"'search' requires a search-advantage scenario, got {s.kind!r}"
        )
    return _execute(s, args)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LinalgError, OSError, MemoryError) as exc:  # a ConfigError is a LinalgError
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
