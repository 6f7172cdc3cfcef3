"""One repetition of a benchmark workload, in a fresh process.

Started by run.py as

    python3 worker.py <launch-monotonic-time> <job.json>

It imports spinotto, parses the workload's scenarios (the end of set-up),
runs the workload through the public entry points `spinotto.cli.main` and
`spinotto.validate.run_all_checks`, and prints one JSON object with its
timings, its resource use and what each operation returned. With
`"trace": true` in the job it first wraps every public spinotto function
(see tracing.py) and adds the per-function counters.

Checking the outputs is left to run.py, so none of it is timed here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _resources() -> tuple[float, float]:
    """CPU seconds and peak RSS (MB) of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0  # ru_maxrss is in KiB


def _run_op(fn, *args) -> dict:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            value = fn(*args)
        error = None
    except Exception:  # a raising op is a failed op, not a failed benchmark
        value, error = None, traceback.format_exc(limit=4)
    return {"value": value, "error": error, "stdout": out.getvalue()}


def main() -> int:
    t_launch = float(sys.argv[1])
    with open(sys.argv[2], encoding="utf-8") as fh:
        job = json.load(fh)

    import spinotto
    from spinotto import cli, scenario, validate

    src = os.path.realpath(job["src"])
    if not os.path.realpath(spinotto.__file__).startswith(src + os.sep):
        print(f"spinotto imported from {spinotto.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    for path in job["scenarios"]:
        with open(path, encoding="utf-8") as fh:
            scenario.parse_scenario(fh.read())
    setup_s = time.monotonic() - t_launch

    setup_trace = tracer.snapshot() if tracer is not None else None
    ops = []
    t0 = time.perf_counter()
    if job["workload"] == "selfcheck":
        op = _run_op(validate.run_all_checks, job["seed"])
        if op["value"] is not None:
            op["value"] = [{"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in op["value"]]
        ops.append(op)
    else:
        verb = "search" if job["workload"] == "grid" else "run"
        for path, outdir in zip(job["scenarios"], job["outdirs"]):
            ops.append(_run_op(cli.main, [verb, path, "--output-dir", outdir]))
    solve_s = time.perf_counter() - t0

    cpu_s, peak_rss_mb = _resources()
    result = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["trace_setup"] = setup_trace
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
