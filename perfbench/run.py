"""Run one qcombs benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cancel --seed 1 --seconds 20 --trace 0

One client in one process runs tasks back to back (a closed loop) for
``--seconds`` seconds, cycling through inputs generated from ``--seed``,
and checks every task's outputs.  With ``--trace 0`` it reports the
end-to-end metrics, with times scaled to a fixed host speed by a
reference timed between tasks (``hostspeed.py``); the unscaled figures
are printed too.  With ``--trace 1`` it interleaves traced and
plain tasks and reports per-layer metrics from the traced ones, plus the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record with the run
environment goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("characterize", "cancel", "dilate", "cli")
SETUP_REPEATS = 5        # fresh processes timed for setup_s
IMPORT_REPEATS = 5       # fresh processes timed for cli.import.ms
MIN_TASKS = 20           # enough for a tail percentile with ten samples beyond
TAIL_LADDER_PER_MILLE = (500, 750, 900, 950, 990, 999)  # p50 ... p99.9
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 120
# Per-layer counts read off task outputs, as medians over the inputs:
# metric name -> (output key, unit).
COUNTS = {"pec.gamma": ("gamma", "ratio"), "pec.nonzero_terms": ("nonzero_terms", "count")}


def tail_percentile(values, beyond: int = TAIL_BEYOND):
    """The highest ladder percentile with at least ``beyond`` samples above it.

    Uses the nearest-rank definition.  Returns ``(percentile, value,
    samples_beyond, n)``; with fewer than ``2 * beyond`` samples no
    percentile qualifies and the median is returned.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")

    def rank(per_mille: int) -> int:
        return max(-(-per_mille * n // 1000), 1)

    ok = [pm for pm in TAIL_LADDER_PER_MILLE if n - rank(pm) >= beyond]
    pm = max(ok, default=TAIL_LADDER_PER_MILLE[0])
    return pm / 10, xs[rank(pm) - 1], n - rank(pm), n


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=0,
                   help="BLAS threads (default: the usable CPUs)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, run the warm-up task, print a timestamp and exit")
    return p.parse_args(argv)


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup(args):
    """Imports, input generation and one checked warm-up task."""
    import workloads

    w = workloads.WORKLOADS[args.workload]
    inputs = w.make_inputs(args.seed)
    try:
        out = w.run(workloads.Layers(), inputs[0])
        problems = w.check(inputs[0], out, w.make_state())
    except Exception:
        problems = [traceback.format_exc()]
    return workloads, w, inputs, problems


def time_setup(args) -> tuple[float, float]:
    """Spawn a fresh process; return the ``time.perf_counter`` interval from
    spawning it to the end of its warm-up task."""
    argv = [sys.executable, str(Path(__file__)), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--blas-threads", str(args.blas_threads), "--setup-only"]
    start, start_pc = now(), time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.decode()[-2000:]}")
    return start_pc, start_pc + float(proc.stdout.split()[-1]) - start


def time_imports(workloads) -> list[float]:
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        res = workloads.run_cli("import", ("-c", "import qcombs.cli"))
        if res.returncode != 0:
            raise RuntimeError(f"import qcombs.cli failed: {res.stderr.decode()[-2000:]}")
        times.append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "qcombs" / "__init__.py").is_file():
        print(f"error: no qcombs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported.
    args.blas_threads = args.blas_threads or len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(args.blas_threads)

    if args.setup_only:
        # A failed warm-up is reported by the main process, which runs it too.
        setup(args)
        print(now())
        return 0

    workloads, w, inputs, warm_problems = setup(args)
    if not Path(workloads.qcombs.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported qcombs from {workloads.qcombs.__file__}", file=sys.stderr)
        return 2
    import hostspeed
    import spans

    # Task times are scaled by a reference like the task; set-up times by a
    # fresh process, which is what set-up starts with.
    speed = hostspeed.HostSpeed(hostspeed.FOR_TASKS[args.workload])
    setup_speed = (speed if speed.ref is hostspeed.SPAWN or args.trace
                   else hostspeed.HostSpeed(hostspeed.SPAWN))
    recorder = spans.Recorder()
    plain, traced = workloads.Layers(), recorder.layers()
    state = w.make_state()
    n_in = len(inputs)
    # Plain runs need samples for a tail percentile; traced runs need
    # every input traced once, and tasks alternate.
    min_tasks = 2 * n_in if args.trace else max(MIN_TASKS, n_in)

    durations = {True: [], False: []}
    intervals = []  # (start, end) of each plain task, for scaling
    failed = 0  # timed tasks that failed
    counts = {}  # per input: the decomposition counts a cancel task reports
    problems_shown = 0
    for problem in warm_problems:
        print(f"FAILED warm-up: {problem}", file=sys.stderr)
    # Set-up is timed in fresh processes spread evenly over a plain run, so
    # that a burst of host load skews at most one sample.  The loop clock
    # stops while they run.
    setup_times = []
    setup_due = [] if args.trace else [
        args.seconds * (j + 0.5) / SETUP_REPEATS for j in range(SETUP_REPEATS)]
    paused = 0.0
    t_start = time.perf_counter()
    i = 0
    while True:
        inp = inputs[i % n_in]
        # Alternate traced and plain tasks so both see every input.
        use_trace = bool(args.trace) and (i % n_in + i // n_in) % 2 == 0
        if speed.due(time.perf_counter()):
            speed.sample()
        t0 = time.perf_counter()
        try:
            if use_trace:
                with recorder.task(i):
                    out = w.run(traced, inp)
            else:
                out = w.run(plain, inp)
            problems = w.check(inp, out, state)
            if isinstance(out, dict):
                counts[i % n_in] = {k: out[key] for k, (key, _) in COUNTS.items() if key in out}
        except Exception:
            problems = [traceback.format_exc()]
        t1 = time.perf_counter()
        durations[use_trace].append(t1 - t0)
        if not use_trace:
            intervals.append((t0, t1))
        if problems:
            failed += 1
            if problems_shown < 5:
                problems_shown += 1
                print(f"FAILED task {i} ({getattr(inp, 'name', '')}): " + "; ".join(problems),
                      file=sys.stderr)
        i += 1
        while setup_due and t1 - t_start - paused >= setup_due[0]:
            setup_due.pop(0)
            setup_speed.sample()
            setup_times.append(time_setup(args))
            setup_speed.sample()
            paused += time.perf_counter() - t1
            t1 = time.perf_counter()
        if t1 - t_start - paused >= args.seconds and i >= min_tasks:
            break
    speed.sample()  # every task has a reference sample after it
    wall = t1 - t_start - paused
    completed = i - failed
    # The warm-up task counts as attempted, and as failed if it failed.
    attempted = i + 1
    failed += int(bool(warm_problems))

    env = environment(args)
    details = {"size": w.size, "inputs": n_in}
    metrics = {}
    if args.workload == "cli":
        details["hash_seeds"] = list(workloads.HASH_SEEDS)
        details["hash_order_mismatches"] = sorted(map(list, state.mismatches))
        peak_rss_kb = state.peak_rss_kb
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        traced_durs = durations[True]
        metrics.update(spans.layer_metrics(recorder.spans, sum(traced_durs), workloads.CLI_NAMES))
        metrics["cli.import.ms"] = (median(time_imports(workloads)) * 1e3, "ms")
        metrics["cli.hash_order_mismatches"] = (len(getattr(state, "mismatches", ())), "count")
        for k, (key, unit) in COUNTS.items():
            seen = [c[k] for c in counts.values() if k in c]
            metrics[k] = (median_low(seen) if seen else 0, unit)
        metrics["trace.overhead_ms"] = (
            (median(traced_durs) - median(durations[False])) * 1e3, "ms")
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", t_start)
    else:
        durs = durations[False]
        scaled = [speed.scaled(a, b) for a, b in intervals]
        setups = [b - a for a, b in setup_times]
        pct, tail_s, beyond, n = tail_percentile(durs)
        _, ref_tail_s, _, _ = tail_percentile(scaled)
        details.update(tail_percentile=pct, tail_beyond=beyond, samples=n,
                       failed_frac=failed / attempted, setup_samples_s=setups,
                       ref_samples=len(speed.durations))
        metrics = {
            "setup_s": (median(setup_speed.scaled(a, b) for a, b in setup_times), "s"),
            "ref_task_ms_p50": (median(scaled) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        }
        # Printed and recorded but not gated.  The scaled tail and throughput
        # follow bursts of host load shorter than the reference can see; the
        # unscaled figures, as this host ran them, follow the host's speed.
        not_gated = {
            "ref_task_ms_tail": (ref_tail_s * 1e3, "ms"),
            "ref_tasks_per_s": (completed / sum(scaled), "1/s"),
            "setup_wall_s": (median(setups), "s"),
            "task_ms_p50": (median(durs) * 1e3, "ms"),
            "task_ms_tail": (tail_s * 1e3, "ms"),
            "tasks_per_s": (completed / sum(durs), "1/s"),
            f"ref_{speed.ref.name}_ms": (speed.median_ms(), "ms"),
            "ref_spawn_ms": (setup_speed.median_ms(), "ms"),
        }
        details["not_gated"] = {k: v for k, (v, _) in not_gated.items()}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    suffix = f"-blas{args.blas_threads}" if args.blas_threads != env["cpus_usable"] else ""
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json", "w") as fh:
        json.dump({"environment": env, "details": details, **result}, fh, indent=2, sort_keys=True)

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {w.size}; closed loop, 1 client; wall {wall:.2f} s")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    if not args.trace:
        print(f"  not gated (ref_ times assume a {speed.ref.nominal_s * 1e3:g} ms "
              f"{speed.ref.name} reference; the rest are unscaled):")
        for k, (v, u) in not_gated.items():
            print(f"  {k} = {v:.6g} {u}")
        print(f"  task percentiles over {details['samples']} tasks; the tail is "
              f"p{details['tail_percentile']:g} with {details['tail_beyond']} samples beyond")
        print(f"  failed_frac = {details['failed_frac']:.6g} ratio ({failed}/{attempted})")
    if args.workload == "cli":
        print(f"  hash-order mismatches (known defect, see perfbench/NOTES.md): "
              f"{len(state.mismatches)} of {n_in} invocations")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
