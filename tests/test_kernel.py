import cmath
import random

import numpy as np
import pytest

from braidorbit import connect, kernel, reflgrp
from braidorbit.charvar import LinearPart, ProjClass, orbit
from braidorbit.classify import NotFiniteCase, _projective_closure
from braidorbit.cyclo import cyc, zeta
from braidorbit.linalg import Mat, eigenspace


def test_mat_mul_matches_linalg():
    rng = random.Random(3)
    for conductor in (3, 6):
        phi, red = kernel.ring_params(conductor)
        for _ in range(10):
            d = rng.randrange(2, 4)
            rows_a = [
                [cyc(rng.randrange(-2, 3)) + zeta(conductor, rng.randrange(conductor)) for _ in range(d)]
                for _ in range(d)
            ]
            rows_b = [
                [cyc(rng.randrange(-2, 3)) + zeta(conductor, rng.randrange(conductor)) for _ in range(d)]
                for _ in range(d)
            ]
            ma, mb = Mat.from_rows(rows_a), Mat.from_rows(rows_b)
            blob = kernel.mat_mul(
                kernel.to_blob_matrix(ma, conductor),
                kernel.to_blob_matrix(mb, conductor),
                d,
                phi,
                red,
            )
            assert kernel.from_blob_matrix(blob, d, conductor) == ma @ mb


def test_blob_roundtrip():
    m = Mat.from_rows([[zeta(3, 1), 1], [cyc(0), zeta(3, 2) / 3]])
    blob = kernel.to_blob_matrix(m, 3)
    assert kernel.from_blob_matrix(blob, 2, 3) == m
    v = (zeta(12, 5), cyc(2), zeta(12, 1) / 2)
    blob_v = kernel.to_blob_vector(v, 12)
    assert kernel.from_blob_vector(blob_v, 12) == tuple(cyc(x) for x in v)


# the ids keep the test names the suite has always reported
@pytest.mark.parametrize("impl", [kernel], ids=lambda m: m.BACKEND)
def test_closure_small_group(impl):
    # <zeta6 rotation> in GL_1 has order 6
    phi, red = kernel.ring_params(6)
    g = kernel.to_blob_matrix(Mat.from_rows([[zeta(6, 1)]]), 6)
    els = impl.closure([g], 1, phi, red, 10)
    assert len(els) == 6
    with pytest.raises(impl.BoundExceeded):
        impl.closure([g], 1, phi, red, 5)


@pytest.mark.parametrize("impl", [kernel], ids=lambda m: m.BACKEND)
def test_g25_closure_per_backend(impl):
    from braidorbit.reflgrp import g25_generators

    phi, red = kernel.ring_params(3)
    gens = [kernel.to_blob_matrix(g, 3) for g in g25_generators()]
    els = impl.closure(gens, 3, phi, red, 1000)
    assert len(els) == 648
    refl = impl.reflection_indices(els, 3, phi, red)
    assert len(refl) == 24


@pytest.mark.parametrize("impl", [kernel], ids=lambda m: m.BACKEND)
def test_stab_counts(impl):
    from braidorbit.reflgrp import g25_generators

    phi, red = kernel.ring_params(3)
    gens = [kernel.to_blob_matrix(g, 3) for g in g25_generators()]
    els = impl.closure(gens, 3, phi, red, 1000)
    v = kernel.to_blob_vector((cyc(1), cyc(-1), cyc(0)), 3)
    assert impl.stab_count_line(els, v, 3, phi, red) == 72  # orbit 9
    # the point stabilizer is a subgroup of the line stabilizer
    assert impl.stab_count_point(els, v, 3, phi, red) <= 72


@pytest.mark.parametrize("impl", [kernel], ids=lambda m: m.BACKEND)
def test_line_orbit_hyperplanes(impl):
    from braidorbit.reflgrp import g25_generators

    phi, red = kernel.ring_params(3)
    gens = []
    for g in g25_generators():
        gens.append(kernel.to_blob_matrix(g.inverse().transpose(), 3))
    v = kernel.to_blob_vector((cyc(0), cyc(0), cyc(1)), 3)
    orbit = impl.line_orbit(gens, v, 3, phi, red, 50)
    assert len(orbit) == 12  # one transitive orbit of reflection planes


def test_overflow_guard():
    phi, red = kernel.ring_params(3)
    big = kernel.pack_values(1, [1 << 62, 0, 0, 0, 0, 0, 0, 1 << 62])
    with pytest.raises(OverflowError, match=str(1 << 124)):
        kernel.mat_mul(big, big, 2, phi, red)


# ---- one bound meaning ----------------------------------------------------------
#
# Every search succeeds at bound = size and, at bound = size - 1, reports
# that it passed the bound together with the size = bound + 1 items it
# found by then.  Each case maps a bound to (items found, exceeded).


def _raising(search):
    """A case for a search that returns its items and raises past its bound."""

    def case(bound):
        try:
            return len(search(bound)), False
        except kernel.BoundExceeded as exc:
            return len(exc.found), True
        except NotFiniteCase as exc:
            return len(exc.__cause__.found), True

    return case


def _closure(bound):
    phi, red = kernel.ring_params(6)
    g = kernel.to_blob_matrix(Mat.from_rows([[zeta(6, 1)]]), 6)
    return kernel.closure([g], 1, phi, red, bound)


def _g25_line_orbit(bound):
    phi, red = kernel.ring_params(3)
    gens = [kernel.to_blob_matrix(g.inverse().transpose(), 3) for g in reflgrp.g25_generators()]
    v = kernel.to_blob_vector((cyc(0), cyc(0), cyc(1)), 3)
    return kernel.line_orbit(gens, v, 3, phi, red, bound)


def _charvar_orbit(bound):
    # the README example: tetrahedral family, size-4 row
    lp = LinearPart((zeta(12, 1), zeta(12, 5), zeta(12, 3), zeta(12, 3)))
    res = orbit(ProjClass(4, (cyc(1), cyc(0))), lp, bound=bound)
    return res.size, res.exceeded_bound


def _projective(bound):
    return _projective_closure([Mat.from_rows([[1, 0], [0, zeta(6, 1)]])], bound)


def _g25_plane_orbit(bound):
    # the order-6 regular eigenplanes of G25, one orbit of 9
    w = zeta(3, 1)
    seed = Mat.from_rows([[0, -1, 0], [-w, 0, 0], [0, 0, -(w * w)]])
    basis = eigenspace(seed, -(w * w))
    return reflgrp._plane_orbit_py(reflgrp.g25_generators(), basis, 3, bound)


def _numeric(bound):
    rot = np.array([[cmath.exp(2j * cmath.pi / 5)]], dtype=complex)
    try:
        return connect.numeric_closure([rot], bound=bound), False
    except kernel.BoundExceeded as exc:
        return len(exc.found), True


@pytest.mark.parametrize(
    "case, size",
    [
        (_raising(_closure), 6),
        (_raising(_g25_line_orbit), 12),
        (_charvar_orbit, 4),
        (_raising(_projective), 6),
        (_raising(_g25_plane_orbit), 9),
        (_numeric, 5),
    ],
    ids=["closure", "line_orbit", "charvar.orbit", "projective_closure", "plane_orbit", "numeric_closure"],
)
def test_bound_meaning(case, size):
    assert case(size) == (size, False)
    assert case(size - 1) == (size, True)


def test_one_bound_exceeded_class():
    assert reflgrp.BoundExceeded is connect.BoundExceeded is kernel.BoundExceeded
