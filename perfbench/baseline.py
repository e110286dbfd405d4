#!/usr/bin/env python3
"""Every workload, end to end and traced, in one table.

    python3 perfbench/baseline.py [--seed N] [--seconds S] [--out FILE]

Runs run.py on each workload with --trace 0 and then --trace 1 and
prints wall_s, setup_s, peak_rss_mb and error_rate with their units,
the raw (unscaled) wall and set-up times, the tracing overhead (traced
wall_s minus untraced wall_s, both scaled) and the
three layers with the most self time.  With --out it also writes all of
it, with each run's provenance block, as JSON (perfbench/baseline.json
is this file for the commit it names).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) failed with code {proc.returncode}")
    blocks = {
        key: json.loads(ln[len(key) + 1:])
        for ln in lines
        for key in ("provenance", "calibration")
        if ln.startswith(key + " ")
    }
    return json.loads(lines[-1]), blocks["provenance"], blocks.get("calibration")


def self_time_layers(per_layer):
    ranked = sorted(
        ((name, m["value"]) for name, m in per_layer.items()
         if name.endswith(".self_s") or name == "reflgrp.promote_s"),
        key=lambda kv: -kv[1],
    )
    return [[name, value] for name, value in ranked[:3]]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        plain, prov, calib = run_once(workload, args.seed, args.seconds, 0)
        traced, traced_prov, _ = run_once(workload, args.seed, args.seconds, 1)
        e2e = plain["metrics"]
        overhead = traced["metrics"]["trace.wall_s"]["value"] - e2e["wall_s"]["value"]
        report["workloads"][workload] = {
            "end_to_end": e2e,
            "error_rate": plain["failed"] / plain["attempted"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "traced_failed": traced["failed"],
            "calibration": calib,
            "trace_overhead_s": overhead,
            "top_self_time": self_time_layers(traced["metrics"]),
            "per_layer": traced["metrics"],
            "provenance": prov,
            "traced_provenance": traced_prov,
        }
        row = report["workloads"][workload]
        print(workload)
        for name, m in e2e.items():
            print(f"  {name:<12} {m['value']:10.4f} {m['unit']}")
        print(f"  {'error_rate':<12} {row['error_rate']:10.4f} ratio"
              f" ({plain['failed']} of {plain['attempted']} operations)")
        print(f"  {'raw wall':<12} {calib['raw_wall_s']:10.4f} s (scaled by {calib['wall_scale']:.4f})")
        print(f"  {'raw setup':<12} {calib['raw_setup_s']:10.4f} s"
              f" (scaled by {calib['setup_scale']:.4f})")
        print(f"  {'trace cost':<12} {overhead:+10.4f} s (traced wall_s minus wall_s)")
        for name, value in row["top_self_time"]:
            print(f"  self time    {value:10.4f} s  {name}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ok = all(w["failed"] == w["traced_failed"] == 0 for w in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
