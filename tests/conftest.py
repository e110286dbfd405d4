"""Session-wide fixtures: each reflection group is built once per test run,
and the G32 Table-5 strata are computed once."""

import os
import time
from dataclasses import dataclass

import pytest

from braidorbit import reflgrp
from braidorbit.cyclo import cyc, zeta


@pytest.fixture(scope="session")
def g25():
    return reflgrp.build_g25()


@pytest.fixture(scope="session")
def g32(tmp_path_factory):
    # BRAIDORBIT_CACHE lets repeated runs share a built G32
    cache = os.environ.get("BRAIDORBIT_CACHE") or str(tmp_path_factory.mktemp("g32"))
    return reflgrp.build_g32(cache_dir=cache)


@dataclass
class Table5:
    points: list  # one representative per row of reflgrp.G32_STRATA, in that order
    strata: list  # reflgrp.stratify of each point
    elapsed: float  # seconds taken to find and stratify the points


@pytest.fixture(scope="session")
def g32_table5(g32):
    """The twelve Table-5 representatives of G32, stratified once per run."""
    t0 = time.monotonic()
    one, zero = cyc(1), cyc(0)
    eta, nu9 = zeta(12, 1), zeta(9, 1)
    v30 = reflgrp.g32_order30_representative()[0]
    v24 = reflgrp.g32_order24_representative()[0]
    basis, _ = reflgrp._g32_seed_plane()
    on_e = tuple(a + 2 * b for a, b in zip(basis[0], basis[1]))
    points = [
        (one, cyc(2), cyc(3), cyc(5)),
        v30,
        on_e,
        v24,
        (one, cyc(2), cyc(5), zero),
        (nu9, nu9**2, one, zero),
        (one, cyc(2), zero, zero),
        (one, eta, zero, zero),
        (cyc(2), one, one, zero),
        _line_in_plane_and_4flat(g32, basis),
        (one, one, zero, zero),
        (zero, one, zero, zero),
    ]
    strata = [reflgrp.stratify(g32, p) for p in points]
    return Table5(points, strata, time.monotonic() - t0)


def _line_in_plane_and_4flat(g32, e_basis):
    # row (540, 4, 6): a direction of the seed plane lying on 4 hyperplanes
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a == 0 and b == 0:
                continue
            v = tuple(cyc(a) * x + cyc(b) * y for x, y in zip(e_basis[0], e_basis[1]))
            if reflgrp.hyperplanes_through(g32, v) == 4:
                return v
    raise AssertionError("no 4-hyperplane line found in the seed plane")
