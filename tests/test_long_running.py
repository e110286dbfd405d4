"""The rank-4 monodromy corollary: the full 155520-element closure."""

import tracemalloc


def test_rank4_monodromy_closure_155520():
    from braidorbit.connect import corollary_connection, monodromy_numeric, numeric_closure

    poles, mats = corollary_connection(4, [-0.7 + 0.3j, 2.1 + 0.4j], sign=+1)
    monos = monodromy_numeric(poles, mats, local_tol=1e-12)
    tracemalloc.start()
    try:
        size = numeric_closure(monos, tol=1e-6, bound=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 155520
    # the closure's memory is bounded by twice that of the elements it
    # stores, 155520 complex 4 x 4 matrices (40 MB); a level's products
    # are matched a chunk at a time
    assert peak <= 2 * 155520 * 16 * 16
