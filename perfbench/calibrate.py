"""The machine's current speed, measured by a fixed reference loop.

The benchmark runs on a shared VM whose speed drifts by a third and more
over minutes, on both CPUs alike and in process time as much as in wall
time, so a raw wall time measures the host as much as the program.
`loop_seconds()` times a fixed loop that uses no braidorbit code: Python
integer arithmetic on coefficient lists, tuple hashing into a set and
small complex numpy products, the kinds of work the workloads do.  Loop
times taken all through a measured interval give, by `scale`, the
factor that brings the interval's raw seconds to reference seconds:
what it would have taken with the loop at REFERENCE_S.  A change to the
program moves its times and not the loop's, so it shows in full in the
scaled times.
"""

from time import perf_counter

import numpy as np

# seconds per reference loop at the reference speed: a typical mean on a
# 2-core x86_64 VM (Python 3.11.7, numpy 2.4); it only sets the unit of the
# scaled times, which stay comparable as long as it is not changed
REFERENCE_S = 0.0075

_MAT = np.array([[1 + 1j, 0.5, 0], [0, 1j, 0.25], [0.5, 0, 1]]) / 1.7


def _loop():
    """A fixed amount of mixed work, REFERENCE_S at the reference speed."""
    a = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8]
    b = [2, 7, -1, 8, 2, -8, 1, 8, -2, 8, 1, -8]
    seen = set()
    for k in range(200):
        # product of two degree-11 polynomials, folded mod x^12 + 1
        prod = [0] * 12
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if i + j < 12:
                        prod[i + j] += x * y
                    else:
                        prod[i + j - 12] -= x * y
        a = [(p + k) % 1009 - 504 for p in prod]
        seen.add(tuple(a))
    m = _MAT
    for _ in range(300):
        m = m @ _MAT
        m = m / np.abs(m).max()
    return len(seen), m


def loop_seconds():
    """Seconds for one reference loop, as the machine runs now."""
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


def scale(samples):
    """Factor from raw seconds to reference seconds, from loop times taken over an interval."""
    return REFERENCE_S / (sum(samples) / len(samples))
