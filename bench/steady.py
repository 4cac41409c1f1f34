"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 bench/steady.py --seeds 10 [--first-seed 1] [--workloads a,b] [--trace 1] [--out FILE]

Workloads are interleaved seed by seed, so a slow stretch of the host lands on
all of them rather than on one.  For every end-to-end metric (with --trace 1,
every per-layer metric) the table gives the median over seeds and the spread:
the distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the bound in BENCHMARK.json.  Rows
named raw.* are the same for the unscaled times (see run.py).  --out keeps the
results as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    names = args.workloads.split(",")
    results = {name: [] for name in names}
    raws = {name: [] for name in names}  # unscaled medians, untraced runs only
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in names:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            results[name].append(result)
            raw = [json.loads(line[4:]) for line in lines if line.startswith("raw ")]
            raws[name].extend(raw)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed} {name}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"results": results, "raw": raws}, fh, indent=1)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"\n{'workload':<18} {'metric':<28} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, runs in results.items():
        rows = {metric: [r["metrics"][metric]["value"] for r in runs]
                for metric in runs[0]["metrics"]}
        if raws[name]:
            rows.update({f"raw.{key}": [r[key] for r in raws[name]] for key in raws[name][0]})
        for metric, values in rows.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            print(f"{name:<18} {metric:<28} {med:>12.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}")
        print(f"{name:<18} all correct: {all(r['correct'] for r in runs)}")


if __name__ == "__main__":
    main()
