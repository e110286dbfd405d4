#!/usr/bin/env python3
"""The braidorbit benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (the package is imported from its
`src`, nothing is built or installed).  With --trace 0 it starts the
workload's set-up in SETUP_SAMPLES fresh processes one after another,
half of them before and half after the one that runs the timed passes
for --seconds, so the set-up samples span the whole run.  It reports
wall_s (median timed pass), setup_s (median time from process start to
the first timed operation), peak_rss_mb and error_rate.  wall_s and
setup_s are in reference seconds: raw seconds scaled by the machine's
speed during the run, from the reference loop of calibrate.py timed all
through the passes and after every set-up sample; the raw figures are
printed too.  With --trace 1
a single process runs with every layer wrapped and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is
0 only if every operation matched the paper's number.

See perfbench/README.md for the metrics and the workloads.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("n4-tables", "n6-orbit", "reflection-groups", "monodromy")
SETUP_SAMPLES = 10
LOOPS_PER_SETUP = 15  # reference loops timed after each set-up sample
RUN_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def worker_env():
    """A user's warm G32 cache must not pass for a cold build; BLAS gets one thread."""
    env = dict(os.environ)
    env.pop("BRAIDORBIT_CACHE", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline, setup_only):
    """Start one worker; return (seconds from start to READY, its last output line)."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return ready, last


def setup_samples(args, deadline, count, loops):
    """Set-up times of `count` set-up-only workers, timing reference loops after each."""
    times = []
    for _ in range(count):
        times.append(run_worker(args, deadline, setup_only=True)[0])
        loops += [calibrate.loop_seconds() for _ in range(LOOPS_PER_SETUP)]
    return times


def measure(args):
    """(attempted, failed, failures, metrics as name -> (value, unit), calibration, provenance)."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    if args.trace:
        _, line = run_worker(args, deadline, setup_only=False)
        res = json.loads(line)
        metrics = {name: tuple(v) for name, v in res["layers"].items()}
        return res["attempted"], res["failed"], res["failures"], metrics, None, res["provenance"]

    setup_loops = []
    setups = setup_samples(args, deadline, SETUP_SAMPLES // 2, setup_loops)
    _, line = run_worker(args, deadline, setup_only=False)
    setups += setup_samples(args, deadline, SETUP_SAMPLES - SETUP_SAMPLES // 2, setup_loops)
    res = json.loads(line)
    # each pass is scaled by the speed sampled during it, the set-ups by
    # the speed over the whole run
    pass_loops = [t for loops in res["loop_times"] for t in loops]
    raw_wall = statistics.median(res["pass_times"])
    wall = statistics.median(
        raw * calibrate.scale(loops or pass_loops)
        for raw, loops in zip(res["pass_times"], res["loop_times"])
    )
    raw_setup = statistics.median(setups)
    setup_scale = calibrate.scale(setup_loops + pass_loops)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (raw_setup * setup_scale, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    calib = {
        "raw_wall_s": raw_wall,
        "raw_setup_s": raw_setup,
        "wall_scale": wall / raw_wall,
        "setup_scale": setup_scale,
        "passes": len(res["pass_times"]),
        "pass_loops": len(pass_loops),
        "setup_loops": len(setup_loops),
    }
    return res["attempted"], res["failed"], res["failures"], metrics, calib, res["provenance"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "braidorbit", "__init__.py")):
        print(f"error: no braidorbit sources under {ROOT}/src", file=sys.stderr)
        return 2
    # a terminated run still stops its worker (through the finally in run_worker)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        attempted, failed, failures, metrics, calib, prov = measure(args)
    except (WorkerFailed, ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
    if calib is not None:
        print(f"  raw_wall_s {calib['raw_wall_s']:.6g} s, raw_setup_s {calib['raw_setup_s']:.6g} s"
              f" (scaled by {calib['wall_scale']:.4g} and {calib['setup_scale']:.4g})")
    for failure in failures:
        print(f"  FAILED {failure}")
    if calib is not None:
        print("calibration " + json.dumps(calib, sort_keys=True))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
