"""Session-wide fixtures: each reflection group is built once per test run,
and the G32 Table-5 strata and lattice census are computed once."""

import time
from dataclasses import dataclass

import pytest

from braidorbit import reflgrp


@pytest.fixture(scope="session")
def g25():
    return reflgrp.build_g25()


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

