#!/usr/bin/env python3
"""tsglab benchmark: certify, verify and oracle cross-check through the CLI.

    python3 perfbench/run.py --workload large-orbits --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; tsglab is imported from its `src/`.
The process is pinned to one BLAS/OpenMP thread and drives `tsglab.cli.main`
in a closed loop with one caller (see session.py).

--trace 0  measures the end-to-end metrics, untraced.  `setup_s` is the
           median over several fresh processes that import tsglab and fill
           the workload's first-call caches.  Passes (certify, verify,
           oracle) then repeat, caches warm, until --seconds have passed;
           each stage metric is the median over passes.  Timings are in
           reference seconds (calibration.py); wall seconds are printed and
           kept in the detail line.
--trace 1  measures the per-layer metrics (tracing.py): rounds of one
           untraced and one traced pass until --seconds have passed, plus
           one memory pass for the tracemalloc peaks in the first round.
           Each timing is the median over the traced passes, in wall
           seconds; `trace.overhead_s` is traced minus untraced wall time,
           probe calls excluded.

Human-readable lines (medians, tail percentiles, digests) and one JSON
detail line (digests, per-call wall latencies, failures) come first; the last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROCESSES = 5
CHILD_TIMEOUT_S = 60


def pin_threads() -> dict[str, str]:
    """One BLAS/OpenMP thread, for this process and the set-up children.
    Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_source() -> None:
    """Put the checkout's tsglab first on the path and refuse any other copy."""
    if not (SRC / "tsglab" / "__init__.py").is_file():
        sys.exit(f"error: no tsglab source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import tsglab

    if SRC.resolve() not in Path(tsglab.__file__).resolve().parents:
        sys.exit(f"error: tsglab imported from {tsglab.__file__}, not from {SRC}")


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it;
    None when that would not lie above the median."""
    n = len(samples)
    if n <= 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[max(0, math.ceil(p * n / 100) - 1)]


def describe(name: str, values: list[float], unit: str, what: str) -> str:
    line = f"{name}: median {statistics.median(values):.6g} {unit} (n={len(values)} {what})"
    tail = tail_percentile(values)
    if tail:
        line += f", p{tail[0]} {tail[1]:.6g} {unit}"
    return line


def measure_setup(session) -> tuple[list[float], list[float]]:
    """Wall and reference seconds of fresh processes that import tsglab and
    warm the workload's caches.  Each process times the calibration kernel
    itself after the caches and prints the times."""
    from calibration import reference_seconds

    probe = HERE / "setup_probe.py"
    wall, reference = [], []
    for _ in range(SETUP_PROCESSES):
        t0 = perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(probe), session.workload.name], cwd=ROOT,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            kernels = [float(x) for x in proc.stdout.split()]
            problem = (None if proc.returncode == 0 and kernels
                       else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        except subprocess.TimeoutExpired:
            problem = f"no exit within {CHILD_TIMEOUT_S} s"
        seconds = perf_counter() - t0
        session.record("setup", "fresh process", seconds, problem)
        if problem is None:
            wall.append(seconds - sum(kernels))
            reference.append(reference_seconds(wall[-1], kernels))
    return wall, reference


def run_untraced(session, args) -> tuple[dict, dict]:
    from session import STAGES, warm_caches

    setup_wall, setup_reference = measure_setup(session)
    warm_caches(session.workload)

    passes = []
    t_start = perf_counter()
    while not passes or perf_counter() - t_start < args.seconds:
        passes.append(session.run_pass())
    wall = {s: [p.wall_seconds[s] for p in passes] for s in STAGES}
    reference = {s: [p.reference_seconds[s] for p in passes] for s in STAGES}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("reference seconds (calibration.py), then wall seconds:")
    print(describe("setup_s", setup_reference, "s", "fresh processes"))
    print(describe("  wall", setup_wall, "s", "fresh processes"))
    for s in STAGES:
        print(describe(f"{s}_s", reference[s], "s", "passes"))
        print(describe("  wall", wall[s], "s", "passes"))
        print(describe("  wall per call", session.latencies[s], "s", "calls"))
    metrics = {"setup_s": (statistics.median(setup_reference), "s")}
    metrics.update((f"{s}_s", (statistics.median(reference[s]), "s")) for s in STAGES)
    metrics["peak_rss_mb"] = (rss_mb, "MiB")
    metrics["cert_bytes"] = (passes[0].cert_bytes, "bytes")
    wall_s = {"setup_s": statistics.median(setup_wall)}
    wall_s.update((f"{s}_s", statistics.median(wall[s])) for s in STAGES)
    return metrics, {"wall_s": wall_s}


def traced_pass(session, tracer):
    tracer.install()
    try:
        return session.run_pass(tracer)
    finally:
        tracer.uninstall()


def run_traced(session, args) -> tuple[dict, dict]:
    from session import warm_caches
    from tracing import Tracer, layer_metrics, memory_metrics, summarize, unit_of

    session.calibrate = False
    warm_caches(session.workload)
    t_start = perf_counter()
    memory = Tracer(memory=True)
    rounds = []
    while not rounds or perf_counter() - t_start < args.seconds:
        untraced = session.run_pass()
        if not rounds:  # caches are as warm as in every later pass
            traced_pass(session, memory)
        tracer = Tracer()
        traced = traced_pass(session, tracer)
        values = layer_metrics(tracer.spans)
        probe = tracer.probe_seconds()
        values["trace.probe_s"] = probe
        values["trace.overhead_s"] = traced.wall - probe - untraced.wall
        rounds.append(values)
        print(f"round {len(rounds)}: untraced {untraced.wall:.4f} s, traced {traced.wall:.4f} s "
              f"(probes {probe:.4f} s, spans {len(tracer.spans)})")
    print("self time of the last traced pass (calls, inclusive s, self s):")
    for name, (calls, inclusive, own) in sorted(summarize(tracer.spans).items(),
                                                 key=lambda item: -item[1][2]):
        print(f"  {name:34s} {calls:6d} {inclusive:10.4f} {own:10.4f}")
    spans_file = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps([asdict(s) for s in tracer.spans]))
    print(f"spans of the last traced pass: {spans_file}")
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values.update(memory_metrics(memory.spans))
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    realize_s = metrics["cli.realize_s"][0]
    for layer in ("geometry.free_orbit_coords_s", "geometry.validate_realization_s"):
        print(f"{layer}: {metrics[layer][0] / realize_s:.3f} of traced realize")
    return metrics, {"spans_file": str(spans_file)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    threads = pin_threads()
    import_source()
    from session import WORKLOADS, Session

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    session = Session(WORKLOADS[args.workload], args.seed, workdir)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"threads={threads}")
    try:
        metrics, extra = (run_traced if args.trace else run_untraced)(session, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_ratio = session.failed / max(session.attempted, 1)
    print(f"fail_ratio: {fail_ratio:.6g} ({session.failed} of {session.attempted} operations)")
    for problem in session.failures:
        print(f"FAILED {problem}")
    for case, digest in session.digests.items():
        print(f"certificate {case}: {session.cert_sizes[case]} bytes sha256={digest}")
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "threads": threads, "fail_ratio": fail_ratio, "failures": session.failures,
        "digests": session.digests, "cert_sizes": session.cert_sizes,
        "latencies": session.latencies, **extra,
    }}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
