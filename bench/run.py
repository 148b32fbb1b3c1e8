#!/usr/bin/env python3
"""Benchmark of wslrr: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload harness|exact-sweep|simulate-train \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  With ``--trace 0`` the run times set-up in fresh
processes, then repeats whole rounds of the workload for about ``--seconds``
and reports setup_s, wall_s, cpu_s and peak_rss_mb; wall_s and cpu_s are
scaled to a nominal host speed by calibration units run between the calls
(calib.py), and the unscaled figures go to stderr.  With ``--trace 1`` it
runs one untraced and one traced pass of every workload and reports the
per-layer metrics.  Either way the last line of stdout is one JSON object;
the exit code is 0 when every check held, 1 when one failed and 2 when the
run could not start.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 9       # fresh-process set-ups per run; setup_s is from their median
NOMINAL_START_S = 0.15  # the reference process's time on a fast phase of a 2-core x86 host
WORKLOAD_NAMES = ("harness", "exact-sweep", "simulate-train")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the workload's inputs, then exit (one set-up sample)")
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time scaled to the nominal host speed.

    SETUP_SAMPLES times, a reference process (the interpreter importing
    numpy and json, nothing of wslrr) runs, then a set-up process that
    starts the interpreter, imports wslrr and numpy, builds the inputs and
    exits.  Each set-up time is divided by the reference time just before
    it; the result is NOMINAL_START_S times the median of these ratios.
    One more pair runs first, untimed, so that byte-code caches exist."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    reference = [sys.executable, "-c", "import json, numpy"]

    def timed(argv):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
        return time.perf_counter() - t0

    raw, ratios = [], []
    for i in range(SETUP_SAMPLES + 1):
        ref_s = timed(reference)
        setup_s = timed(cmd)
        if i:
            raw.append(setup_s)
            ratios.append(setup_s / ref_s)
    print("setup raw " + " ".join(f"{t:.3f}" for t in raw) + " s; over reference "
          + " ".join(f"{q:.3f}" for q in ratios), file=sys.stderr)
    return NOMINAL_START_S * statistics.median(ratios)


def report_failures(meter) -> None:
    """Failed calls are counted, not checked: name them on stderr."""
    for e in meter.errors:
        print(f"call failed: {e}", file=sys.stderr)


def measure(wl, seconds: float, errs: list) -> tuple:
    """Whole rounds until the next one would end past ``seconds``; returns
    (per-round wall times, per-round CPU times, attempted, failed).  The
    first round warms caches and lazy set-up: it is checked and counted,
    but its times are left out."""
    from calib import Calibrator
    from tracing import Api, Tracer
    from workloads import Meter

    api = Api(Tracer(False))
    cal = Calibrator()
    walls, cpus, raw, attempted, failed = [], [], [], 0, 0
    t0 = time.perf_counter()
    while True:
        meter = Meter(cal)
        outputs = wl.round(api, meter)
        meter.settle()
        errs += wl.check(outputs)
        report_failures(meter)
        walls.append(meter.norm_wall)
        cpus.append(meter.norm_cpu)
        raw.append(meter.wall)
        attempted += meter.attempted
        failed += meter.failed
        elapsed = time.perf_counter() - t0
        if len(walls) > 2 and elapsed * (len(walls) + 1) / len(walls) > seconds:
            walls, cpus = walls[1:], cpus[1:]
            print(f"rounds {len(raw)} (first untimed): raw wall " + " ".join(f"{w:.3f}" for w in raw)
                  + " s; scaled wall " + " ".join(f"{w:.3f}" for w in walls)
                  + " s; scaled cpu " + " ".join(f"{c:.3f}" for c in cpus)
                  + f" s; {len(cal.walls)} calibration units", file=sys.stderr)
            return walls, cpus, attempted, failed


def traced(workdir: Path, seed: int, errs: list) -> tuple:
    """One untraced and one traced pass of every workload; the per-layer
    metrics each come from the workload in which their layer works."""
    from tracing import Api, Tracer
    from workloads import WORKLOADS, Meter

    metrics, spans, attempted, failed = {}, {}, 0, 0
    for name in WORKLOAD_NAMES:
        sub = workdir / name
        sub.mkdir()
        wl = WORKLOADS[name](seed, sub)
        plain, traced_meter, tracer = Meter(), Meter(), Tracer(True)
        errs += wl.check(wl.round(Api(Tracer(False)), plain))
        errs += wl.check_traced(wl.traced_round(Api(tracer), traced_meter))
        metrics.update(wl.layer_metrics(tracer, plain, traced_meter))
        for m in (plain, traced_meter):
            report_failures(m)
            attempted += m.attempted
            failed += m.failed
        spans[name] = tracer
    return metrics, spans, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wslrr" / "__init__.py").is_file():
        print(f"bench: no wslrr package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wslrr
    if Path(wslrr.__file__).resolve().parent != SRC / "wslrr":
        print(f"bench: imported wslrr from {wslrr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    # verify-all sizes its thread pool by WSLRR_THREADS.  The timed rounds run
    # it serially: two GIL-bound threads on a shared 2-core host time the
    # host's scheduler more than the program.  The traced run keeps the pool
    # at the CPUs this process may use, so that cli.verify_all_s (pool) can
    # be set beside verify.registry_serial_s (serial).
    os.environ["WSLRR_THREADS"] = str(len(os.sched_getaffinity(0))) if args.trace else "1"
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir)
            return 0
        errs = []
        if args.trace:
            metrics, tracers, attempted, failed = traced(workdir, args.seed, errs)
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            for name, tracer in tracers.items():
                tracer.dump(path.with_name(f"{path.stem}-{name}.json"))
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            wl = WORKLOADS[args.workload](args.seed, workdir)
            walls, cpus, attempted, failed = measure(wl, args.seconds, errs)
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(walls), "s"),
                "cpu_s": (statistics.median(cpus), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errs[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    if len(errs) > 20:
        print(f"... and {len(errs) - 20} more", file=sys.stderr)
    print(json.dumps({
        "correct": not errs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errs else 1


if __name__ == "__main__":
    sys.exit(main())
