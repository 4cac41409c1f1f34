"""oscavg benchmark: one workload, timed for a fixed number of seconds.

Usage (from the repository root):

    python3 bench/run.py --workload satellite-ladder --seed 0 --seconds 25 --trace 0

The run repeats passes of the workload (see workloads.py) until starting
another would overrun --seconds, then prints one JSON object as its last
line: {"correct", "attempted", "failed", "metrics"}.  An operation is a ladder
rung or a precession comparison; it fails if the program raises or exits
non-zero, leaves its trusted region, or misses the accuracy fingerprint.

--trace 0 reports the end-to-end metrics, medians over passes: wall_s and
cpu_s of one pass, peak_rss_mb of the process, setup_s (median over fresh
processes run between passes, see setup_probe.py) and ok_frac, the share of
operations that passed.  The three times are scaled to a reference host speed:
between passes the run times a fixed loop that does not use oscavg
(_reference_loop), and each pass's times are multiplied by REF_LOOP_S over the
loop's median time just before and just after that pass.  The unscaled medians,
the median scale and the number of passes are printed on the line starting
"raw".

--trace 1 alternates traced and untraced passes and reports the per-layer
metrics of tracer.py, medians over the traced passes, plus the tracing
overhead; these are not scaled.  The line before the result is the accuracy
fingerprint of the last pass.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
MIN_SETUPS = 5  # set-up probes per untraced run; one follows each pass
# The shared host's speed drifts by up to 1.5x over minutes, which moves the
# median of a whole run; a fixed loop timed between passes tracks that drift.
REF_LOOP_S = 0.060  # median _reference_loop() time, 2-core Xeon VM at 2.1 GHz
LOOP_BLOCK_S = 0.3  # reference loops timed before the first pass and after each
# one load process: BLAS and OpenMP pools stay at one thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    """Import oscavg from this checkout's src/ and nowhere else."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    try:
        import oscavg
    except ImportError as exc:
        sys.exit(f"bench: cannot import oscavg from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(oscavg.__file__))) != SRC:
        sys.exit(f"bench: oscavg was imported from {oscavg.__file__}, not from {SRC}")


def _cpu_seconds():
    """User plus system seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _setup_seconds(workload, seed):
    """Set-up time of one fresh process (see setup_probe.py)."""
    probe = [sys.executable, os.path.join(BENCH, "setup_probe.py"),
             workload.scenario, repr(workload.setup_eps), str(seed)]
    out = subprocess.run(probe, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _reference_loop(steps=2000):
    """Seconds for fixed work of the program's kind, without the program:
    RK4 steps of a 2-D anharmonic oscillator on small numpy arrays."""
    import numpy as np  # here, once _import_program has limited the BLAS threads

    h = 1e-3
    x, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])

    def acc(x):
        return -x - 0.1 * x * float(x @ x)

    t0 = time.perf_counter()
    for _ in range(steps):
        k1x, k1v = v, acc(x)
        k2x, k2v = v + 0.5 * h * k1v, acc(x + 0.5 * h * k1x)
        k3x, k3v = v + 0.5 * h * k2v, acc(x + 0.5 * h * k2x)
        k4x, k4v = v + h * k3v, acc(x + h * k3x)
        x = x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return time.perf_counter() - t0


def _loop_median(seconds):
    """Median time of the reference loops run in about `seconds`."""
    loops = []
    while sum(loops) < seconds:
        loops.append(_reference_loop())
    return statistics.median(loops)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    sys.path.insert(0, BENCH)
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    # outputs stay inside the checkout, in a directory .gitignore names
    parent = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(parent, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=parent)
    walls = {False: [], True: []}
    cpus, layers, setups, rounds = [], [], [], []
    loops = []  # reference-loop medians: one before the first pass, one after each
    attempted = failed = 0
    fingerprint = {}
    start = time.perf_counter()
    try:
        if not args.trace:
            loops.append(_loop_median(LOOP_BLOCK_S))
        while True:
            r0 = time.perf_counter()
            traced = bool(args.trace) and len(walls[True]) <= len(walls[False])
            out_dir = tempfile.mkdtemp(dir=scratch)
            tracer = tracing.Tracer()
            with tracing.installed(tracer) if traced else contextlib.nullcontext():
                c0, t0 = _cpu_seconds(), time.perf_counter()
                outcome = workload.execute(args.seed, out_dir)
                t1, c1 = time.perf_counter(), _cpu_seconds()
            walls[traced].append(t1 - t0)
            if traced:
                layers.append(tracing.layer_metrics(tracer))
            else:
                cpus.append(c1 - c0)
            if not args.trace:
                # probes and loops sit between passes, so they sample the
                # same host conditions as the passes they are reported with
                setups.append(_setup_seconds(workload, args.seed))
                loops.append(_loop_median(LOOP_BLOCK_S))
            ok, misses, fingerprint = workload.judge(outcome, out_dir)
            shutil.rmtree(out_dir)
            attempted += len(ok)
            failed += ok.count(False)
            for miss in misses:
                print(f"bench: {workload.name}: {miss}", file=sys.stderr)

            rounds.append(time.perf_counter() - r0)
            enough = len(rounds) >= 2 or not args.trace
            if enough and time.perf_counter() - start + statistics.median(rounds) > args.seconds:
                break
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(_setup_seconds(workload, args.seed))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(parent)  # only once no other run is using it

    if args.trace:
        metrics = {name: {"value": statistics.median(m[name] for m in layers),
                          "unit": tracing.unit_of(name)}
                   for name in layers[0]}
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        misses = tracing.identity_misses(layers[-1], dim=2) if workload.analytic else []
        for miss in misses:
            print(f"bench: {workload.name}: count identity broken: {miss}", file=sys.stderr)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.identity_misses"] = {"value": len(misses), "unit": "count"}
    else:
        # pass k lies between loop medians k and k+1; probes past the last
        # pass take the last pass's scale
        scales = [2.0 * REF_LOOP_S / (a + b) for a, b in zip(loops, loops[1:])]
        scales += scales[-1:] * (len(setups) - len(scales))
        raw = {"wall_s": statistics.median(walls[False]), "cpu_s": statistics.median(cpus),
               "setup_s": statistics.median(setups), "scale": statistics.median(scales),
               "passes": len(cpus)}
        print("raw " + json.dumps(raw))

        def scaled(values):
            return statistics.median(v * k for v, k in zip(values, scales))

        metrics = {
            "wall_s": {"value": scaled(walls[False]), "unit": "s"},
            "cpu_s": {"value": scaled(cpus), "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            "setup_s": {"value": scaled(setups), "unit": "s"},
            "ok_frac": {"value": 1.0 - failed / attempted if attempted else 0.0,
                        "unit": "fraction"},
        }
    for traced, label in ((False, "untraced"), (True, "traced")):
        if walls[traced]:
            print(f"bench: {workload.name}: {label} pass walls "
                  + " ".join(f"{w:.3f}" for w in walls[traced]), file=sys.stderr)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
