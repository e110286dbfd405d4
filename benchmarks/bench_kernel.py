#!/usr/bin/env python3
"""Time the kernel's hot loops.

Runs group closure, reflection scan, stabilizer scan and projective line
orbit on G25, and optionally the full G32 closure and scans with --g32.

Usage: python benchmarks/bench_kernel.py [--g32]
"""

import argparse
import time

from braidorbit import kernel
from braidorbit.cyclo import cyc
from braidorbit.reflgrp import g25_generators, g32_generators


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def bench(include_g32):
    phi, red = kernel.ring_params(3)
    gens = [kernel.to_blob_matrix(g, 3) for g in g25_generators()]
    rows = {}

    els, rows["g25 closure (648)"] = timed(kernel.closure, gens, 3, phi, red, 1000)
    _, rows["g25 reflection scan"] = timed(kernel.reflection_indices, els, 3, phi, red)
    v = kernel.to_blob_vector((cyc(1), cyc(-1), cyc(0)), 3)
    _, rows["g25 stabilizer scan"] = timed(kernel.stab_count_line, els, v, 3, phi, red)
    tgens = [kernel.to_blob_matrix(g.inverse().transpose(), 3) for g in g25_generators()]
    n = kernel.to_blob_vector((cyc(0), cyc(0), cyc(1)), 3)
    _, rows["g25 hyperplane orbit"] = timed(kernel.line_orbit, tgens, n, 3, phi, red, 50)

    if include_g32:
        gens4 = [kernel.to_blob_matrix(g, 3) for g in g32_generators()]
        els4, rows["g32 closure (155520)"] = timed(
            kernel.closure, gens4, 4, phi, red, 160_000
        )
        _, rows["g32 reflection scan"] = timed(kernel.reflection_indices, els4, 4, phi, red)
        v4 = kernel.to_blob_vector((cyc(0), cyc(1), cyc(0), cyc(0)), 3)
        _, rows["g32 stabilizer scan"] = timed(kernel.stab_count_line, els4, v4, 4, phi, red)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g32", action="store_true", help="include the order-155520 closure")
    args = parser.parse_args()

    rows = bench(args.g32)
    width = max(len(name) for name in rows)
    print(f"{'benchmark':<{width}}  {'seconds':>10}")
    for name, seconds in rows.items():
        print(f"{name:<{width}}  {seconds:>9.3f}s")


if __name__ == "__main__":
    main()
