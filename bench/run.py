"""The spinotto benchmark: seeded workloads, checked outputs, one JSON result.

    python3 bench/run.py --workload {trajectory,grid,selfcheck} --seed N \
        --seconds S --trace {0,1}

Each repetition runs the workload in a fresh `worker.py` process against the
package in `src/`, then checks every output against the plain-numpy
reference in reference.py. Repetitions continue until S seconds have been
measured; every metric is the median over the repetitions whose operations
all passed. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (set-up, time to
solution, throughput, CPU, memory, pass ratio). With --trace 1 untraced and
traced repetitions alternate, and the metrics are the per-layer
ones from tracing.py plus the tracing overhead and coverage. The line before
the result records the run environment.

Workloads (why each exists is in BENCHMARK.json):
  trajectory  a few long non-ideal `compare` runs with CSV and JSON output
  grid        one `search-advantage` grid of hundreds of short configs
  selfcheck   `spinotto.validate.run_all_checks(seed)`
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
import reference

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DEADLINE_S = 165.0  # a run must end within 180 s, checks and clean-up included
MIN_COVERAGE = 0.9

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "records_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "1",
}

# (function, metrics): the per-layer metrics of the traced run.
LAYER_METRICS = (
    ("linalg.hermitian_eig", ("calls", "self_s")),
    ("linalg.validate_density", ("calls", "self_s")),
    ("linalg.kron", ("calls", "self_s")),
    ("linalg.partial_trace", ("calls", "self_s")),
    ("linalg.sqrtm_psd", ("incl_s",)),
    ("diagnostics.concurrence", ("incl_s",)),
    ("diagnostics.ergotropy", ("incl_s",)),
    ("diagnostics.relative_entropy_of_coherence", ("incl_s",)),
    ("diagnostics.pauli_correlators", ("incl_s",)),
    ("diagnostics.polarization_vector", ("incl_s",)),
    ("diagnostics.mean_energy", ("incl_s",)),
    ("engine.make_cycle_record", ("calls", "incl_s", "us_per_record")),
    ("multicycle.run_engine", ("calls", "self_s", "us_per_record")),
    ("multicycle.dephase_battery", ("calls", "incl_s")),
    ("multicycle.compare_coherent_incoherent", ("calls", "incl_s")),
    ("multicycle.peak_advantage", ("incl_s",)),
    ("cli.main", ("self_s",)),
    ("engine.run_single_cycle", ("incl_s",)),
    ("engine.power_stroke", ("incl_s",)),
    ("engine.reset_medium", ("incl_s",)),
    ("engine.closed_form_work", ("incl_s",)),
    ("validate.run_all_checks", ("incl_s",)),
    ("validate.max_oracle_gap", ("incl_s",)),
    ("validate.fuzz_stage_validity", ("incl_s",)),
    ("output.write_trace_csv", ("incl_s",)),
    ("output.write_advantage_csv", ("incl_s",)),
    ("output.write_grid_csv", ("incl_s",)),
    ("output.write_json", ("incl_s",)),
    ("scenario.parse_scenario", ("incl_s",)),
)
PREPARE = ("engine.prepare_battery", "engine.prepare_hot_medium", "engine.prepare_cold_medium")
UNITS = {"calls": "count", "self_s": "s", "incl_s": "s", "us_per_record": "us"}


def per_layer_names() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in output order."""
    names = {f"{fn}.{kind}": UNITS[kind] for fn, kinds in LAYER_METRICS for kind in kinds}
    names["engine.prepare.incl_s"] = "s"
    names["output.bytes"] = "B"
    names["trace.overhead_s"] = "s"
    names["trace.coverage"] = "1"
    return names


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a valid result."""


# --------------------------------------------------------------------------
# environment


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": _git_commit(),
        "loadavg_before": list(os.getloadavg()),
    }


# --------------------------------------------------------------------------
# one repetition


class Rep:
    """Outcome of one worker process: timings, ops attempted and failed."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = attempted
        self.errors: list[str] = []
        self.result: dict | None = None
        self.records = 0
        self.output_bytes = 0

    @property
    def ok(self) -> bool:
        return self.result is not None and self.failed == 0


def _run_worker(job_path: str, timeout: float) -> tuple[int, str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")]
    t_launch = time.monotonic()
    proc = subprocess.Popen(
        cmd + [repr(t_launch), job_path],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # one process group, so a pool left behind can be killed too
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -signal.SIGKILL, out, err + f"\nworker timed out after {timeout:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # nothing of the group may outlive the rep
        except ProcessLookupError:
            pass
    return proc.returncode, out, err


def run_rep(w: gen.Workload, work: str, tag: str, trace: bool, timeout: float) -> Rep:
    outdirs = [os.path.join(work, tag, name[:-4]) for name in w.scenarios]
    job = {
        "workload": w.name,
        "seed": w.seed,
        "src": SRC,
        "scenarios": [os.path.join(work, name) for name in w.scenarios],
        "outdirs": outdirs,
        "trace": trace,
    }
    job_path = os.path.join(work, f"{tag}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    code, out, err = _run_worker(job_path, timeout)

    rep = Rep(attempted=max(w.ops, 1))
    try:
        if code != 0:
            rep.errors.append(f"worker exited {code}: {err.strip()[-2000:]}")
            return rep
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            rep.errors.append(f"worker printed no result: {out[-500:]!r} {err[-1500:]}")
            return rep
        rep.result = result
        ops = result["ops"]
        for op in ops:
            if op["error"] is not None:
                rep.errors.append(op["error"])
            elif w.name != "selfcheck" and op["value"] != 0:
                rep.errors.append(f"CLI exited {op['value']}: {op['stdout'][-500:]}")
        if w.name == "selfcheck":
            checks = ops[0]["value"] or []
            errors = reference.check_selfcheck(checks) if checks else ["run_all_checks returned nothing"]
            rep.records = len(checks)
        elif w.name == "trajectory":
            errors = reference.check_trajectory(w, outdirs)
            rep.records = w.records
        else:
            errors = reference.check_grid(w, outdirs[0], ops[0]["stdout"])
            rep.records = w.records
        rep.attempted = len(errors)
        rep.failed = sum(e is not None for e in errors)
        rep.errors += [e for e in errors if e is not None]
        if rep.errors and rep.failed == 0:  # an op raised or exited nonzero yet its outputs passed
            rep.failed = 1
        rep.output_bytes = sum(
            os.path.getsize(os.path.join(d, f)) for d in outdirs if os.path.isdir(d) for f in os.listdir(d)
        )
        return rep
    finally:
        shutil.rmtree(os.path.join(work, tag), ignore_errors=True)


# --------------------------------------------------------------------------
# metrics


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    good = [r for r in reps if r.ok]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    med = lambda key: statistics.median(r.result[key] for r in good)  # noqa: E731
    return {
        "setup_s": med("setup_s"),
        "solve_s": med("solve_s"),
        "records_per_s": statistics.median(r.records / r.result["solve_s"] for r in good),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "pass_ratio": 1.0 - failed / attempted,
    }


def expected_counts(w: gen.Workload) -> dict[str, int]:
    """Call counts the traced run must reproduce exactly; a missed patch reads
    as a mismatch here rather than as a silent zero."""
    if w.name == "trajectory":
        n = len(w.configs)
        return {
            "engine.make_cycle_record": w.records,
            "diagnostics.concurrence": w.records,
            "multicycle.compare_coherent_incoherent": n,
            "multicycle.run_engine": 2 * n,
            "multicycle.peak_advantage": n,
            "output.write_trace_csv": 2 * n,
            "output.write_advantage_csv": n,
            "output.write_json": n,
            "scenario.parse_scenario": 2 * n,
            "cli.main": n,
        }
    if w.name == "grid":
        n = w.ops
        return {
            "engine.make_cycle_record": w.records,
            "diagnostics.concurrence": w.records,
            "multicycle.compare_coherent_incoherent": n,
            "multicycle.run_engine": 2 * n,
            "multicycle.peak_advantage": n,
            "output.write_grid_csv": 1,
            "scenario.parse_scenario": 2,
            "cli.main": 1,
        }
    return {"validate.run_all_checks": 1, "validate.max_oracle_gap": 1, "validate.fuzz_stage_validity": 1}


def check_trace(w: gen.Workload, stats: dict[str, list[float]]) -> None:
    for key, want in expected_counts(w).items():
        if key in stats and stats[key][0] != want:
            raise BenchError(f"traced {key} was called {stats[key][0]} times, expected {want}")
    # every cycle record gets one concurrence; the self-check's unit truths add more
    records, conc = stats.get("engine.make_cycle_record"), stats.get("diagnostics.concurrence")
    if records is not None and conc is not None and conc[0] < records[0]:
        raise BenchError(f"traced concurrence calls {conc[0]} < cycle records {records[0]}")


def _coverage(result: dict) -> float:
    """Share of the traced solve time covered by spans (set-up spans excluded)."""
    self_s = sum(v[2] for v in result["trace"].values()) - sum(v[2] for v in result["trace_setup"].values())
    return self_s / result["solve_s"]


def per_layer(w: gen.Workload, traced: list[Rep], untraced: list[Rep]) -> dict[str, float]:
    snaps = [r.result["trace"] for r in traced]
    calls = {k: v[0] for k, v in snaps[0].items()}
    for s in snaps[1:]:
        if {k: v[0] for k, v in s.items()} != calls:
            raise BenchError("call counts differ between traced repetitions")
    absent = sorted({fn for fn, _ in LAYER_METRICS} - set(calls))
    if absent:
        print(f"functions absent from the program, reported as 0: {', '.join(absent)}", file=sys.stderr)

    def med(key: str, i: int) -> float:
        return statistics.median(s[key][i] for s in snaps) if key in calls else 0.0

    records = calls.get("engine.make_cycle_record") or w.records
    out: dict[str, float] = {}
    for fn, kinds in LAYER_METRICS:
        for kind in kinds:
            if kind == "calls":
                value = calls.get(fn, 0)
            elif kind == "incl_s":
                value = med(fn, 1)
            elif kind == "self_s":
                value = med(fn, 2)
            else:  # us_per_record: inclusive time per cycle record
                value = 1e6 * med(fn, 1) / records if records else 0.0
            out[f"{fn}.{kind}"] = value
    out["engine.prepare.incl_s"] = sum(med(fn, 1) for fn in PREPARE)
    out["output.bytes"] = statistics.median(r.output_bytes for r in traced)
    traced_solve = statistics.median(r.result["solve_s"] for r in traced)
    out["trace.overhead_s"] = traced_solve - statistics.median(r.result["solve_s"] for r in untraced)
    out["trace.coverage"] = statistics.median(_coverage(r.result) for r in traced)
    return out


# --------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "spinotto", "__init__.py")):
        print(f"error: no spinotto package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env_record = environment(args)
    w = gen.make_workload(args.workload, args.seed)
    work = os.path.join(BENCH_DIR, "_work", f"{w.name}-{w.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for name, text in w.scenarios.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        # Untimed: compile the package's bytecode and warm the file cache.
        subprocess.run(
            [sys.executable, "-c", "import spinotto.cli"],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=SRC),
            check=True,
            timeout=60,
        )

        reps: list[Rep] = []
        traced: list[Rep] = []
        t0 = time.monotonic()
        last = 0.0
        while not reps or time.monotonic() - t0 < args.seconds:
            remaining = started + RUN_DEADLINE_S - time.monotonic()
            if reps and remaining < 2 * last:
                break
            trace_this = bool(args.trace) and len(traced) < len(reps)
            t_rep = time.monotonic()
            rep = run_rep(w, work, f"rep{len(reps) + len(traced)}", trace_this, remaining)
            last = time.monotonic() - t_rep
            (traced if trace_this else reps).append(rep)
            n = len(reps) + len(traced)
            if rep.result is not None:
                r = rep.result
                print(
                    f"rep {n}{' traced' if trace_this else ''}: setup {r['setup_s']:.3f} s, "
                    f"solve {r['solve_s']:.3f} s, cpu {r['cpu_s']:.3f} s, {rep.failed}/{rep.attempted} failed",
                    file=sys.stderr,
                )
            for e in rep.errors[:3]:
                print(f"rep {n}: {e}", file=sys.stderr)
        if args.trace and not traced:
            traced.append(run_rep(w, work, "traced", True, started + RUN_DEADLINE_S - time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    everything = reps + traced
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    env_record["reps"] = len(reps)
    env_record["traced_reps"] = len(traced)
    env_record["loadavg_after"] = list(os.getloadavg())
    print("environment " + json.dumps(env_record))

    good = [r for r in reps if r.ok]
    if not good or (args.trace and not all(r.ok for r in traced)):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        try:
            for r in traced:
                check_trace(w, r.result["trace"])
            values = per_layer(w, traced, good)
            if values["trace.coverage"] < MIN_COVERAGE:
                raise BenchError(f"spans cover {values['trace.coverage']:.3f} of the traced solve time")
        except BenchError as exc:
            print(f"error: traced run is not trustworthy: {exc}", file=sys.stderr)
            return 3
        units = per_layer_names()
    else:
        values = end_to_end(everything)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
