"""Session-wide fixtures: each reflection group is built once per test run,
and the G32 Table-5 strata and lattice census are computed once, as are
G25's elements for the reference scans."""

import time
from dataclasses import dataclass

import pytest

from braidorbit import reflgrp
from braidorbit.linalg import Mat


@pytest.fixture(scope="session")
def g25():
    return reflgrp.build_g25()


@pytest.fixture(scope="session")
def g25_elements():
    """G25's 648 elements as matrices, in BFS order from the identity.

    A plain search over the generators on `Mat` products: the reference
    for the stabilizer functions and the chain, with which it shares no
    code, nor with the basic invariants or the blob kernel.
    """

    def key(m):  # the entries' coefficients at conductor 3, cheaper than their hashes
        return tuple((y.num, y.den) for y in (x.promote(3) for x in m.entries))

    gens = reflgrp.g25_generators()
    found = [Mat.identity(3)]
    seen = {key(found[0])}
    for m in found:
        for g in gens:
            x = g @ m
            k = key(x)
            if k not in seen:
                seen.add(k)
                found.append(x)
    return found


@pytest.fixture(scope="session")
def g32():
    return reflgrp.build_g32()


@pytest.fixture(scope="session")
def g32_census(g32):
    """The hyperplane lattice census of G32, computed once per run."""
    return reflgrp.lattice_census(g32)


@dataclass
class Table5:
    points: list  # one representative per row of reflgrp.G32_STRATA, in that order
    strata: list  # reflgrp.stratify of each point
    elapsed: float  # seconds taken to find and stratify the points


@pytest.fixture(scope="session")
def g32_table5(g32):
    """The twelve Table-5 representatives of G32, stratified once per run."""
    t0 = time.monotonic()
    points = [point for _, point, _ in reflgrp.table5_cases(g32)]
    strata = [reflgrp.stratify(g32, p) for p in points]
    return Table5(points, strata, time.monotonic() - t0)

