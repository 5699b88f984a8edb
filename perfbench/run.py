"""Benchmark of qcombs: certified solves, a budgeted solve and random networks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-qubit --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

One workload runs in this process against the library under ``src/``.  It
sets up, measures whole passes until the next one would end after
``--seconds``, checks every operation and prints two JSON lines: a detailed
record (environment, workload figures, failures) and, last, the summary
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the run
measures half its time untraced and half traced and reports the per-layer
metrics.  ``--workload all`` runs every workload in a fresh process and
prints a table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 5

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Units of the workload figures in the detailed record.
UNITS = {
    "solver_iters": "count",
    "max_gap": "1",
    "budget_gap": "1",
    "fail_frac": "1",
}


def import_library():
    """Import qcombs from this checkout's ``src/``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qcombs

    if src not in Path(qcombs.__file__).resolve().parents:
        raise ImportError(f"qcombs was imported from {qcombs.__file__}, not from {src}")
    return qcombs


# ---------------------------------------------------------------------------
# Measuring


@dataclass
class Phase:
    """Operations measured in one stretch of a run, traced or not."""

    passes: list = field(default_factory=list)
    latencies: dict = field(default_factory=dict)  # op label -> latencies
    figures: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0


def measure(ops, seconds: float, tracer=None) -> Phase:
    """Run whole passes over ``ops`` until the next would end after
    ``seconds``; at least one pass runs."""
    from workloads import Clock

    phase = Phase()
    t_start = perf_counter()
    while True:
        index = len(phase.passes)
        pass_time = 0.0
        pass_figures = []
        for op in ops:
            clock = Clock()
            if tracer is not None:
                tracer.op_id = f"{index}/{op.label}"
            phase.attempted += 1
            try:
                reasons, figures = op.run(clock)
            except Exception as exc:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                reasons, figures = [f"{type(exc).__name__}: {exc}"], {}
            phase.latencies.setdefault(op.label, []).append(clock.total)
            pass_time += clock.total
            pass_figures.append(figures)
            if reasons:
                phase.failures.append({"pass": index, "op": op.label, "reasons": reasons})
        phase.passes.append(pass_time)
        phase.figures.append(pass_figures)
        elapsed = perf_counter() - t_start
        if elapsed * (len(phase.passes) + 1) / len(phase.passes) > seconds:
            return phase


def tail(latencies) -> tuple[float, int]:
    """The 90th percentile by nearest rank, and how many samples lie beyond it.

    A run of whole multi-second operations holds fewer than the hundred
    samples that would leave ten beyond it; the count says how many did.
    """
    xs = sorted(latencies)
    rank = math.ceil(0.9 * len(xs))
    return xs[rank - 1], len(xs) - rank


def summarize_figures(phase: Phase) -> dict:
    """Workload figures: iterations per pass, worst certified gap and the
    gap left by the budget."""
    out = {}
    flat = [f for pass_figures in phase.figures for f in pass_figures]
    if any("solver_iters" in f for f in flat):
        out["solver_iters"] = statistics.median(
            sum(f.get("solver_iters", 0) for f in pass_figures)
            for pass_figures in phase.figures
        )
    for key, agg in (("max_gap", max), ("budget_gap", statistics.median)):
        vals = [f[key] for f in flat if key in f]
        if vals:
            out[key] = agg(vals)
    return out


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Time fresh processes from start until set-up is done."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up process for {workload} exited {code}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# Environment


def environment() -> dict:
    """Versions, BLAS thread settings and commit, recorded as found."""
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# Entry points


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (detail, summary)."""
    import workloads
    from tracer import Tracer

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
        if not trace:
            setups = setup_seconds(name, seed)
            ops = workloads.setup(name, seed, workdir)
            phases = [measure(ops, seconds)]
            main = phases[0]
            pooled = [t for v in main.latencies.values() for t in v]
            t_value, t_beyond = tail(pooled)
            metrics = {
                "setup_s": metric(statistics.median(setups), "s"),
                "pass_s": metric(statistics.median(main.passes), "s"),
                "op_tail_s": metric(t_value, "s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
                ),
            }
            detail["setup_samples_s"] = setups
            detail["op_tail"] = {"percentile": 90, "samples": len(pooled),
                                 "beyond": t_beyond}
            detail["op_median_s"] = {k: statistics.median(v)
                                     for k, v in main.latencies.items()}
        else:
            tracer = Tracer()
            tracer.install()
            ops = workloads.setup(name, seed, workdir)
            tracer.uninstall()
            plain = measure(ops, seconds / 2.0)
            tracer.install()
            try:
                main = measure(ops, seconds / 2.0, tracer)
            finally:
                tracer.uninstall()
            phases = [plain, main]
            n = len(main.passes)
            values = tracer.metrics(n)
            iters = summarize_figures(main).get("solver_iters", 0)
            values["solver.iters"] = iters
            values["solver.iter_ms"] = (
                1000.0 * tracer.inclusive("solver.self") / n / iters if iters else 0.0
            )
            values["trace.overhead_s"] = (
                statistics.median(main.passes) - statistics.median(plain.passes)
            )
            metrics = {k: metric(v, per_layer_unit(k)) for k, v in values.items()}
            detail["absent"] = tracer.absent
            detail["traced_passes"] = n
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans_path)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    figures = summarize_figures(main)
    figures["fail_frac"] = len(failures) / attempted
    detail["pass_times_s"] = main.passes
    detail["figures"] = {k: metric(v, UNITS[k]) for k, v in figures.items()}
    detail["failures"] = failures[:20]
    detail["env"] = environment()
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return detail, summary


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name == "io.bytes":
        return "bytes"
    return "count"


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own fresh process, then a table of results."""
    import workloads

    results = {}
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        detail, summary = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = {"detail": detail, "summary": summary}
        print(f"{name}  (correct {summary['correct']}, "
              f"{summary['failed']}/{summary['attempted']} failed)")
        rows = dict(summary["metrics"])
        rows.update(detail["figures"])
        for key, m in rows.items():
            print(f"  {key:<30} {m['value']:<22.6g} {m['unit']}")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS + ("all",):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_only:
        workdir = OUT_DIR / f"work-{os.getpid()}"
        workloads.setup(args.workload, args.seed, workdir)
        print("ready", flush=True)
        return 0
    detail, summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
