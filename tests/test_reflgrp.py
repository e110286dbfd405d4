import math
import random

from braidorbit import reflgrp
from braidorbit.cyclo import cyc, order_of_root, zeta
from braidorbit.linalg import Mat, is_complex_reflection, mat_parallel, matrix_order

W = zeta(3, 1)
ONE = cyc(1)
ZERO = cyc(0)


def test_g25_generators_are_order3_reflections():
    for g in reflgrp.g25_generators():
        assert matrix_order(g, 4) == 3
        ok, _ = is_complex_reflection(g)
        assert ok


def test_g32_generator_entry_arithmetic():
    # bottom-right entry of R2 is (w^2-w)/3 * (w-w^2) = 1
    r2 = reflgrp.g32_generators()[1]
    assert r2[3, 3] == ONE
    for g in reflgrp.g32_generators():
        assert matrix_order(g, 4) == 3


def test_g25_order_and_counts(g25):
    assert g25.order == 648 == math.prod(g25.degrees)
    assert len(g25.reflections) == 24
    assert len(g25.hyperplanes) == 12
    assert len(g25.proper_planes) == 9


def test_g25_reflections_all_order_3(g25):
    from braidorbit import kernel

    for blob in g25.reflections:
        m = kernel.from_blob_matrix(blob, 3, 3)
        assert matrix_order(m, 4) == 3
        ok, ev = is_complex_reflection(m)
        assert ok and order_of_root(ev) == 3


def test_g25_hyperplanes_match_display(g25):
    disp = {reflgrp._line_key(n, 12) for n in reflgrp.g25_hyperplane_normals()}
    got = {reflgrp._line_key(n, 12) for n in g25.hyperplanes}
    assert disp == got


def test_g25_proper_planes_match_display(g25):
    disp = {reflgrp._line_key(n, 12) for n in reflgrp.g25_proper_plane_normals()}
    got = {reflgrp._line_key(n, 12) for n in g25.proper_planes}
    assert disp == got


def test_g25_hyperplane_orbit_transitive(g25):
    from braidorbit import kernel

    phi, red = kernel.ring_params(3)
    gens = [kernel.to_blob_matrix(g.inverse().transpose(), 3) for g in g25.generators]
    v = kernel.to_blob_vector((ZERO, ZERO, ONE), 3)
    orbit = kernel.line_orbit(gens, v, 3, phi, red, 50)
    assert len(orbit) == 12


def test_g25_strata_representatives(g25):
    nu = zeta(9, 1)
    cases = [
        ((nu, nu**2, ONE), 72, 0, 0),
        ((ONE, ZERO, ZERO), 12, 2, 3),
        ((ONE, -ONE, ZERO), 9, 4, 0),
        ((ONE, ONE, ZERO), 36, 1, 1),
        ((ONE, cyc(2), ZERO), 72, 1, 0),
        ((ONE, ONE, cyc(3)), 108, 0, 1),
        ((ONE, cyc(2), cyc(5)), 216, 0, 0),
    ]
    for point, size, nh, np_ in cases:
        s = reflgrp.stratify(g25, point)
        assert (s.orbit_size, s.num_hyperplanes, s.num_proper_planes) == (size, nh, np_)
        assert s.in_table


def test_g25_order12_representative_is_the_54_orbit(g25):
    rep, element = reflgrp.g25_order12_representative(g25)
    s = reflgrp.stratify(g25, rep)
    assert s.orbit_size == 54
    assert (s.num_hyperplanes, s.num_proper_planes) == (0, 1)
    assert s.special_tag == "regular-order-12-line"
    # exhibited generator: the element acts on the line by an order-12 scalar
    img = element.apply(rep)
    assert mat_parallel(img, rep)
    pivot = next(i for i, e in enumerate(rep) if not e.is_zero())
    assert order_of_root(img[pivot] / rep[pivot]) == 12


def test_printed_0_w_1_lands_in_the_36_orbit(g25):
    # the printed size-54 representative actually sits in the 36-orbit;
    # see "Claims of the paper that fail by design" in README.md
    s = reflgrp.stratify(g25, (ZERO, W, ONE))
    assert s.orbit_size == 36


def test_g25_order9_representative(g25):
    rep, m = reflgrp.g25_order9_representative()
    assert g25.contains(m)
    s = reflgrp.stratify(g25, rep)
    assert s.orbit_size == 72 and s.special_tag == "regular-order-9-line"


def test_g25_census(g25):
    c = reflgrp.lattice_census(g25)
    assert c["hyperplanes"] == 12
    assert c["codim2_incidences"] == {2: 12, 4: 9}


def test_census_single_hyperplane():
    c = reflgrp.lattice_census([(ONE, ZERO, ZERO)], dim=3)
    assert c["hyperplanes"] == 1
    assert c["codim2_incidences"] == {}
    assert c["codim3_incidences"] == {}


def test_hessian_polytope(g25):
    verts = reflgrp.polytope_vertices("hessian")
    assert len(verts) == 27
    assert len({tuple(e.key_at(12) for e in v) for v in verts}) == 27
    assert reflgrp.symmetry_check(g25.generators, verts)


def test_steinberg_on_samples(g25):
    nu = zeta(9, 1)
    points = [
        (ONE, ZERO, ZERO),
        (ONE, -ONE, ZERO),
        (ONE, ONE, ZERO),
        (ONE, cyc(2), cyc(5)),
        (nu, nu**2, ONE),
    ]
    for p in points:
        assert reflgrp.steinberg_check(g25, p)


def test_line_stabilizers_cyclic(g25):
    nu = zeta(9, 1)
    for p in [(nu, nu**2, ONE), (ONE, cyc(2), cyc(5))]:
        assert reflgrp.line_stabilizer_is_cyclic(g25, p)


def test_orbit_stabilizer_consistency(g25):
    rng = random.Random(17)
    for _ in range(5):
        p = (ONE, cyc(rng.randrange(-4, 5)), cyc(rng.randrange(-4, 5)))
        stab = reflgrp.line_stabilizer_order(g25, p)
        assert 648 % stab == 0
        s = reflgrp.stratify(g25, p)
        assert s.orbit_size * stab == 648
        assert s.in_table


def test_reflection_agreement_with_pointwise_fix(g25):
    # every reflection fixes its hyperplane pointwise and has order > 1
    from braidorbit import kernel

    for blob in g25.reflections[:8]:
        m = kernel.from_blob_matrix(blob, 3, 3)
        normal = reflgrp._reflection_normal(m)
        basis = Mat.from_rows([list(normal)]).kernel()
        for v in basis:
            assert m.apply(v) == tuple(v)


def test_conjugacy_both_roots_n5_n6():
    for z in (-W, -W * W):
        assert reflgrp.conjugacy_to_braid_action(5, z)
        assert reflgrp.conjugacy_to_braid_action(6, z)


def test_braid_action_group_is_g25_sized():
    from braidorbit import kernel

    mats = reflgrp.braid_action_matrices(5, -W)
    phi, red = kernel.ring_params(6)
    blobs = [kernel.to_blob_matrix(m, 6) for m in mats]
    els = kernel.closure(blobs, 3, phi, red, 1000)
    assert len(els) == 648


# ---- G32 ----------------------------------------------------------------------


def test_g32_order_and_counts(g32):
    assert g32.order == 155520 == math.prod(g32.degrees)
    assert len(g32.reflections) == 80
    assert len(g32.hyperplanes) == 40
    assert len(g32.proper_planes) == 540


def test_g32_hyperplanes_match_display(g32):
    disp = {reflgrp._line_key(n, 12) for n in reflgrp.g32_hyperplane_normals()}
    got = {reflgrp._line_key(n, 12) for n in g32.hyperplanes}
    assert disp == got


def test_g32_t_element(g32):
    t = reflgrp.g32_t_element()
    assert matrix_order(t, 30) == 24
    assert g32.contains(t)
    # eigenvalues: four distinct primitive 24th roots of unity
    from braidorbit.linalg import eigenspace

    prim = [k for k in range(24) if math.gcd(k, 24) == 1]
    found = [k for k in prim if eigenspace(t, zeta(24, k))]
    assert len(found) == 4


def test_g32_seed_plane_matches_displayed_equations():
    basis, z = reflgrp._g32_seed_plane()
    assert z * z == -(W * W)
    c1 = (ONE, ZERO, z * z, z**3 - 2 * z + 1)
    c2 = (ZERO, ONE, -(z**3 - 2 * z + 1), -(2 * z**3 - 2 * z * z - z + 2))
    ker = Mat.from_rows([list(c1), list(c2)]).kernel()
    assert Mat.from_rows(basis).rref()[0] == Mat.from_rows(ker).rref()[0]


def test_g32_strata_table5(g32):
    eta = zeta(12, 1)
    v30, _, s30, nu30 = reflgrp.g32_order30_representative()
    v24, _, _, _ = reflgrp.g32_order24_representative()
    nu9 = zeta(9, 1)
    e_basis, _ = reflgrp._g32_seed_plane()
    generic_on_e = tuple(
        a + 2 * b for a, b in zip(e_basis[0], e_basis[1])
    )
    cases = [
        ((ONE, cyc(2), cyc(3), cyc(5)), 25920, 0, 0),
        (v30, 5184, 0, 0),
        (generic_on_e, 12960, 0, 1),
        (v24, 6480, 0, 1),
        ((ONE, cyc(2), cyc(5), ZERO), 8640, 1, 0),
        ((nu9, nu9**2, ONE, ZERO), 2880, 1, 0),
        ((ONE, cyc(2), ZERO, ZERO), 2880, 2, 0),
        ((ONE, eta, ZERO, ZERO), 1440, 2, 3),
        ((cyc(2), ONE, ONE, ZERO), 1080, 4, 0),
        ((ONE, ONE, ZERO, ZERO), 360, 5, 0),
        ((ZERO, ONE, ZERO, ZERO), 40, 12, 0),
    ]
    for point, size, nh, np_ in cases:
        s = reflgrp.stratify(g32, point)
        assert (s.orbit_size, s.num_hyperplanes, s.num_proper_planes) == (
            size,
            nh,
            np_,
        ), point
        assert s.in_table
    # row (540, 4, 6): intersection of the seed plane with a 4-hyperplane flat
    line540 = _line_in_plane_and_4flat(g32, e_basis)
    s = reflgrp.stratify(g32, line540)
    assert (s.orbit_size, s.num_hyperplanes, s.num_proper_planes) == (540, 4, 6)


def _line_in_plane_and_4flat(g32, e_basis):
    # scan the proper plane for a direction lying on 4 hyperplanes
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a == 0 and b == 0:
                continue
            v = tuple(cyc(a) * x + cyc(b) * y for x, y in zip(e_basis[0], e_basis[1]))
            if reflgrp.hyperplanes_through(g32, v) == 4:
                return v
    raise AssertionError("no 4-hyperplane line found in the seed plane")


def test_g32_census(g32):
    c = reflgrp.lattice_census(g32)
    assert c["hyperplanes"] == 40
    assert c["codim2_incidences"] == {2: 240, 4: 90}
    assert c["codim3_incidences"] == {5: 360, 12: 40}
    assert c["orthogonality_consistent"]


def test_witting_polytope(g32):
    verts = reflgrp.polytope_vertices("witting")
    assert len(verts) == 240
    assert len({tuple(e.key_at(12) for e in v) for v in verts}) == 240
    assert reflgrp.symmetry_check(g32.generators, verts)


def test_g32_special_line_stabilizer_generators(g32):
    # the constructing elements generate the full (cyclic) line stabilizers
    v30, _, s30, _ = reflgrp.g32_order30_representative()
    img = s30.apply(v30)
    pivot = next(i for i, e in enumerate(v30) if not e.is_zero())
    assert order_of_root(img[pivot] / v30[pivot]) == 30
    assert reflgrp.line_stabilizer_order(g32, v30) == 30
    v24, _, t24, _ = reflgrp.g32_order24_representative()
    img = t24.apply(v24)
    pivot = next(i for i, e in enumerate(v24) if not e.is_zero())
    assert order_of_root(img[pivot] / v24[pivot]) == 24
    assert reflgrp.line_stabilizer_order(g32, v24) == 24


def test_in_plane_orbit_pattern(g25):
    # inside one reflection plane the stabilizer quotient acts with
    # line-orbit pattern 2 / 3 / 3 / 6; equivalently the ambient orbits
    # meet the plane {z=0} in that many lines
    from braidorbit import kernel

    phi, red = kernel.ring_params(3)
    gens = [kernel.to_blob_matrix(g, 3) for g in g25.generators]
    expected = {
        (ONE, ZERO, ZERO): 2,  # orbit 12
        (ONE, -ONE, ZERO): 3,  # orbit 9
        (ONE, ONE, ZERO): 3,  # orbit 36
        (ONE, cyc(2), ZERO): 6,  # orbit 72, generic in the plane
    }
    for rep, count in expected.items():
        v = kernel.to_blob_vector(rep, 3)
        orbit = kernel.line_orbit(gens, v, 3, phi, red, 300)
        in_plane = 0
        for blob in orbit:
            coords = kernel.from_blob_vector(blob, 3)
            if coords[2].is_zero():
                in_plane += 1
        assert in_plane == count, rep


def test_backend_env_override():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import braidorbit

    # The child registers a stand-in compiled extension before braidorbit is
    # imported, so the switch is tested whether or not `_kernel` is built.
    # The stand-in copies the public names of the pure twin, which imports
    # nothing from the package and so loads from its file alone.
    child = (
        "import importlib.util, sys, types\n"
        "spec = importlib.util.spec_from_file_location('twin', sys.argv[1])\n"
        "twin = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(twin)\n"
        "stub = types.ModuleType('braidorbit._kernel')\n"
        "stub.__dict__.update({k: v for k, v in vars(twin).items() if not k.startswith('_')})\n"
        "stub.BACKEND = 'compiled'\n"
        "sys.modules['braidorbit._kernel'] = stub\n"
        "from braidorbit import kernel\n"
        "print(kernel.BACKEND)\n"
    )
    twin_path = str(Path(braidorbit.__file__).resolve().parent / "_kernel_py.py")
    # the child imports the same package as this process, from a checkout
    # or from an installed copy
    pkg_root = str(Path(braidorbit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k != "BRAIDORBIT_KERNEL"}
    env["PYTHONPATH"] = pkg_root + (os.pathsep + path if path else "")

    def backend(**extra):
        out = subprocess.run(
            [sys.executable, "-c", child, twin_path],
            env=dict(env, **extra),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    assert backend(BRAIDORBIT_KERNEL="py") == "python"
    assert backend() == "compiled"
