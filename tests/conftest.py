"""Session-wide fixtures: each reflection group is built once per test run."""

import os

import pytest

from braidorbit import reflgrp


@pytest.fixture(scope="session")
def g25():
    return reflgrp.build_g25()


@pytest.fixture(scope="session")
def g32(tmp_path_factory):
    # BRAIDORBIT_CACHE lets repeated runs share a built G32
    cache = os.environ.get("BRAIDORBIT_CACHE") or str(tmp_path_factory.mktemp("g32"))
    return reflgrp.build_g32(cache_dir=cache)
