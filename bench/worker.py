"""Run one workload in this process and print its metrics; started by run.py.

Set-up is timed first: the import (here and in two fresh interpreters) and
input generation with preparation (three times); set-up time is the sum of
the two medians.  Then whole rounds of the workload's operations run for
about ``--seconds``.  The rate reported is the operations completed
over the whole run's wall time; the operation time reported is the median,
over the operations of a round, of each one's mean time over the run.  Both
average over the whole run, which the machine's speed drifts through.
With ``--trace 1`` an uncounted round goes first, then untraced and traced
rounds alternate in whole pairs, which gives the per-layer table and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3


# The import, with numpy's first BLAS product: that product starts numpy's
# threads, and without it the first timed operation can take most of a
# second longer.
IMPORT = """
import numpy as np
import kemod.cli
from kemod import linalg
linalg.matmul_fp(np.ones((256, 256), dtype=np.int64), np.ones((256, 256), dtype=np.int64), 2)
"""


def import_probe() -> float:
    """Seconds that IMPORT takes in a fresh interpreter."""
    code = f"import time\nt0 = time.perf_counter()\n{IMPORT}\nprint(time.perf_counter() - t0)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return float(out.stdout)


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args()


class Run:
    """Whole rounds: (op, seconds, passed, error) per operation, and the
    operations completed per second in each round."""

    def __init__(self):
        self.samples: list[tuple] = []
        self.rates: list[float] = []
        self.wall = 0.0

    @property
    def rounds(self) -> int:
        return len(self.rates)


def run_round(ops, run: Run, tracer=None):
    start = time.perf_counter()
    for op in ops:
        arg = op.fresh()
        t0 = time.perf_counter()
        try:
            result = tracer.run(op.call, arg) if tracer else op.call(arg)
            error = None
        except Exception as e:  # an operation that raises counts as failed
            result, error = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        passed = error is None and bool(op.check(result))
        run.samples.append((op, dt, passed, error))
    wall = time.perf_counter() - start
    run.rates.append(sum(s[3] is None for s in run.samples[-len(ops):]) / wall)
    run.wall += wall


def another_round(wall: float, rounds: int, seconds: float) -> bool:
    """Whether one more round ends nearer to ``seconds`` than stopping now,
    judged by the mean round so far; so a run measures ``seconds`` give or
    take half a round."""
    return rounds == 0 or wall + wall / rounds / 2 < seconds


def measure(ops, seconds: float) -> Run:
    run = Run()
    while another_round(run.wall, run.rounds, seconds):
        run_round(ops, run)
    return run


def measure_traced(ops, seconds: float, tracer) -> tuple[Run, Run]:
    """Alternate untraced and traced rounds; returns (untraced, traced).

    A process's first round runs slower than the next ones, so a round that
    is not counted goes first; otherwise the overhead would read negative.
    At least two pairs run, so that the overhead is not read off one pair."""
    run_round(ops, Run())
    plain, traced = Run(), Run()
    while plain.rounds < 2 or another_round(plain.wall + traced.wall, plain.rounds, seconds):
        run_round(ops, plain)
        tracer.install()
        try:
            run_round(ops, traced, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked through its own API."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "kemod"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }


def op_table(samples) -> list[dict]:
    rows = {}
    for op, dt, passed, error in samples:
        row = rows.setdefault(id(op), {"op": op.label, "times": [], "failed": 0, "error": None})
        row["times"].append(dt)
        row["failed"] += not passed
        row["error"] = row["error"] or error
    return [{"op": r["op"], "runs": len(r["times"]), "median_s": statistics.median(r["times"]),
             "mean_s": statistics.fmean(r["times"]), "times_s": r["times"], "failed": r["failed"],
             "error": r["error"]}
            for r in rows.values()]


def main() -> int:
    args = parse_args()
    repeats = 1 if args.trace else SETUP_REPEATS
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    exec(IMPORT, {})
    imports = [time.perf_counter() - t0] + [import_probe() for _ in range(repeats - 1)]
    import_s = statistics.median(imports)
    import tracer as tr
    import workloads

    build = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(repeats):
            t = time.perf_counter()
            ops = build(args.seed, workdir)
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)
        if args.trace:
            tracer = tr.Tracer()
            plain, run = measure_traced(ops, args.seconds, tracer)
            samples = plain.samples + run.samples
        else:
            run = measure(ops, args.seconds)
            samples = run.samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [s for s in samples if not s[2]]
    attempted = len(samples)
    correct = all(s[0].known_fault for s in failed)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "ops_per_round": len(ops),
              "setup_runs_s": setups, "import_runs_s": imports, "ops": op_table(samples)}
    print(f"kemod bench  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env  " + "  ".join(f"{k}={v}" for k, v in report["env"].items()))
    for row in report["ops"]:
        flag = "" if not row["failed"] else f"  FAILED x{row['failed']}" + (f" ({row['error']})" if row["error"] else "")
        print(f"  {row['op']:44s} {row['runs']:3d} runs  median {row['median_s']:8.4f} s  mean {row['mean_s']:8.4f} s{flag}")
    print(f"attempted={attempted}  failed={len(failed)}  correct={correct}")

    if args.trace:
        values = tracer.metrics(run.rounds)
        plain_round = plain.wall / plain.rounds
        traced_round = run.wall / run.rounds
        overhead = traced_round / plain_round - 1
        report.update(untraced_round_s=plain_round, traced_round_s=traced_round,
                      trace_overhead=overhead, edges=tracer.edge_table(run.rounds))
        specs = tr.metric_specs()
        print(f"per-layer table, per traced round ({run.rounds} traced, {plain.rounds} untraced rounds)")
        print(f"  {'metric':48s} {'value':>12s}  {'unit':6s} should move")
        for spec in specs:
            print(f"  {spec['name']:48s} {values[spec['name']]:12.6g}  {spec['unit']:6s} {spec['moves']}")
        print(f"tracing overhead: {traced_round:.3f} s per traced round against "
              f"{plain_round:.3f} s untraced ({overhead:+.1%})")
        metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    else:
        metrics = {
            "ops_per_s": {"value": sum(s[3] is None for s in samples) / run.wall, "unit": "ops/s"},
            "op_p50_s": {"value": statistics.median(row["mean_s"] for row in report["ops"]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
        report.update(rounds=run.rounds, wall_s=run.wall, round_rates=run.rates)
        for name, m in metrics.items():
            print(f"  {name:12s} {m['value']:12.6g} {m['unit']}")
    report["metrics"] = metrics
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
