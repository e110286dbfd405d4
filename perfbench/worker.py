#!/usr/bin/env python3
"""One workload of the benchmark, in a fresh Python process.

run.py starts this script.  It imports braidorbit from the checkout's
`src`, draws the seeded inputs, runs the set-up and prints `READY`; with
--setup-only it stops there.  Otherwise it repeats the timed pass while
another one fits in --seconds (at least once), checks every operation
and prints one JSON line with the pass times, the reference-loop times
sampled during each pass (calibrate.py; with --trace 1 before and
after the passes), the
failures, the peak resident memory, the provenance block and, with
--trace 1, the per-layer totals.
"""

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402

MAX_REPORTED_FAILURES = 20
PROBE_PERIOD_S = 0.2  # one reference loop (about 7 ms) this often during the passes
TRACE_LOOPS = 15  # reference loops before and after the traced passes


def git_commit(root):
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    import numpy

    import braidorbit
    from run import THREAD_VARS

    return {
        "kernel_backend": braidorbit.kernel_backend,
        "version": braidorbit.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
        "seed": seed,
        "env": {
            k: os.environ[k]
            for k in sorted(os.environ)
            if k.startswith("BRAIDORBIT_") or k in THREAD_VARS
        },
    }


def run_op(op):
    """(ok, detail): an operation fails if it raises or differs from the paper."""
    try:
        observed = op.run()
    except Exception as exc:  # every failure is counted, none stops the run
        return False, f"{type(exc).__name__}: {exc}"
    if observed != op.expected:
        return False, f"got {observed!r}, expected {op.expected!r}"
    return True, None


class SpeedProbe:
    """Times the reference loop every `period` seconds, from a timer signal.

    The loop runs in the signal handler, in between the bytecodes of
    whatever operation is under way, so the samples cover long
    operations evenly; `spent` is the time taken by the handler, which
    run_passes takes out of the pass times.  `per_pass` holds the
    samples taken during each pass.
    """

    def __init__(self, period=PROBE_PERIOD_S):
        self.period = period
        self.samples = []
        self.spent = 0.0
        self.per_pass = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate.loop_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_passes(ops, seconds, tracer=None, probe=None):
    """Repeat the timed pass while another one fits in `seconds`; at least once."""
    pass_times, failures = [], []
    attempted = verified = 0
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        spent0 = probe.spent if probe is not None else 0.0
        for op in ops:
            if tracer is not None:
                tracer.mark(f"pass{len(pass_times)}:{op.label}")
            ok, detail = run_op(op)
            attempted += 1
            if ok:
                verified += op.rows
            else:
                failures.append(f"{op.label}: {detail}")
        spent = 0.0
        if probe is not None:
            spent = probe.spent - spent0
            probe.per_pass.append(probe.samples[sum(map(len, probe.per_pass)):])
        pass_times.append(time.perf_counter() - t0 - spent)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(pass_times) > seconds:
            return pass_times, attempted, failures, verified


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.mark("setup")
    workload = workloads.make(args.workload)
    inputs = workload.draw(random.Random(args.seed))
    checks = workload.setup(inputs)
    ops = workload.ops()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    first_pass_span = len(tracer) if tracer is not None else 0
    if tracer is None:
        with SpeedProbe() as probe:
            pass_times, attempted, failures, verified = run_passes(ops, args.seconds, None, probe)
        loop_times = probe.per_pass
    else:
        # a probe tick inside a span would count as that layer's time, so the
        # traced run times the reference loop only before and after its passes
        loop_times = [calibrate.loop_seconds() for _ in range(TRACE_LOOPS)]
        pass_times, attempted, failures, verified = run_passes(ops, args.seconds, tracer)
        loop_times = [loop_times + [calibrate.loop_seconds() for _ in range(TRACE_LOOPS)]]
    for label, observed, expected in checks:
        attempted += 1
        if observed != expected:
            failures.append(f"{label}: got {observed!r}, expected {expected!r}")

    result = {
        "pass_times": pass_times,
        "loop_times": loop_times,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "provenance": provenance(args.seed),
    }
    if tracer is not None:
        tracer.uninstall()
        passes = len(pass_times)
        totals = spans.layer_totals(tracer, first_pass_span, passes)
        traced_wall = statistics.median(pass_times) * calibrate.scale(loop_times[0])
        layers = spans.layer_metrics(totals, verified / passes, traced_wall)
        result["layers"] = {name: [value, unit] for name, (value, unit) in layers.items()}
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.save(os.path.join(out_dir, f"spans-{args.workload}.npz"), args.workload)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
