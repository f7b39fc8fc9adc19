"""Run every workload and print one table of metrics with their units.

    python3 perfbench/suite.py --seeds 1,2,3 --seconds 20 [--traced] [--blas1]

For each workload it runs ``run.py --trace 0`` once per seed and prints
the median of each end-to-end metric with its spread (the distance
between the first and third quartiles over the seeds, as a share of the
median).  ``--traced`` adds one traced run per workload and prints the
layer busy fractions and the tracing overhead; ``--blas1`` adds one run
of each library workload with a single BLAS thread as a baseline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("characterize", "cancel", "dilate", "cli")


def run(workload: str, seed: int, seconds: int, trace: int = 0, blas: int = 0) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if blas:
        argv += ["--blas-threads", str(blas)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="1")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--blas1", action="store_true")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    for w in args.workloads.split(","):
        results = [run(w, s, args.seconds) for s in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{w}: seeds {seeds}, failed_frac = {failed / attempted:.6g} ratio "
              f"({failed}/{attempted})")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            print(f"  {name:<14} {median(values):12.6g} {m['unit']:<5} "
                  f"spread {spread(values):.4f}  runs {['%.5g' % v for v in values]}")
        if args.traced:
            t = run(w, seeds[0], args.seconds, trace=1)["metrics"]
            busy = {k: v["value"] for k, v in t.items() if k.endswith("busy_frac") and v["value"]}
            for k, v in sorted(busy.items(), key=lambda kv: -kv[1]):
                print(f"  traced {k:<36} {v:.4f}")
            print(f"  traced trace.overhead_ms = {t['trace.overhead_ms']['value']:.4g} ms")
        if args.blas1 and w != "cli":
            b = run(w, seeds[0], args.seconds, blas=1)["metrics"]["ref_task_ms_p50"]["value"]
            base = results[0]["metrics"]["ref_task_ms_p50"]["value"]
            print(f"  BLAS threads = 1: ref_task_ms_p50 = {b:.6g} ms ({b / base:.3f}x the default)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
