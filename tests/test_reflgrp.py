import hashlib
import math
import random

import pytest

from braidorbit import kernel, reflgrp
from braidorbit.cyclo import cyc, euler_phi, order_of_root, zeta
from braidorbit.linalg import Mat, eigenspace, is_complex_reflection, mat_parallel, matrix_order

W = zeta(3, 1)
ONE = cyc(1)
ZERO = cyc(0)


def key_at(x, n):
    """The value's coefficients at conductor n: equal values give equal keys."""
    p = x.promote(n)
    return p.den, p.num


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
    for m in g25.reflections:
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
    # normals move under the inverse transposes
    gens = [g.inverse().transpose() for g in g25.generators]
    _, _, orbit, exceeded = kernel.int_line_orbit(gens, (ZERO, ZERO, ONE), 50, 3)
    assert not exceeded and len(orbit) == 12


# (point, orbit size, hyperplanes, proper planes) for seven rows of Table 4;
# the order-54 row needs the group (g25_order12_representative)
NU9 = zeta(9, 1)
G25_TABLE4 = [
    ((NU9, NU9**2, ONE), 72, 0, 0),
    ((ONE, ZERO, ZERO), 12, 2, 3),
    ((ONE, -ONE, ZERO), 9, 4, 0),
    ((ONE, ONE, ZERO), 36, 1, 1),
    ((ONE, cyc(2), ZERO), 72, 1, 0),
    ((ONE, ONE, cyc(3)), 108, 0, 1),
    ((ONE, cyc(2), cyc(5)), 216, 0, 0),
]


def test_g25_strata_representatives(g25):
    for point, size, nh, np_ in G25_TABLE4:
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
    assert len({tuple(key_at(e, 12) for e in v) for v in verts}) == 27
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


def test_steinberg_check_compares_two_orders(g25, monkeypatch):
    # with a wrong |G_v| the vector orbit refutes it, except off the
    # hyperplanes, where G_v = 1 and the orbit has 648 vectors
    monkeypatch.setattr(reflgrp, "parabolic_order", lambda group, through: 1)
    assert not reflgrp.steinberg_check(g25, (ONE, -ONE, ZERO))
    assert reflgrp.steinberg_check(g25, (ONE, cyc(2), cyc(5)))


def test_line_stabilizers_cyclic(g25):
    nu = zeta(9, 1)
    for p in [(nu, nu**2, ONE), (ONE, cyc(2), cyc(5))]:
        assert reflgrp.line_stabilizer_is_cyclic(g25, p)


def _scanned_stabilizers(elements, point):
    """(line stabilizer, point stabilizer, whether the line stabilizer is
    cyclic) of `point`, by a scan of the group's `elements`."""
    line = [m for m in elements if mat_parallel(m.apply(point), point)]
    fixing = [m for m in line if m.apply(point) == point]
    cyclic = any(matrix_order(m, len(line)) == len(line) for m in line)
    return len(line), len(fixing), cyclic


def test_orbit_stabilizer_consistency(g25, g25_elements):
    # stratify's size and the three stabilizer functions against a scan of
    # the elements found by a plain BFS, which shares no code with them, on
    # all eight Table-4 rows (the order-9 and order-12 lines at conductors 9
    # and 12) and on random lines
    rng = random.Random(17)
    points = [row[0] for row in G25_TABLE4]
    points.append(reflgrp.g25_order12_representative(g25)[0])
    for _ in range(5):
        points.append((ONE, cyc(rng.randrange(-4, 5)), cyc(rng.randrange(-4, 5))))
    cyclic_rows = 0
    for p in points:
        line, fixing, cyclic = _scanned_stabilizers(g25_elements, p)
        assert reflgrp.line_stabilizer_order(g25, p) == line
        assert reflgrp.point_stabilizer_order(g25, p) == fixing
        assert reflgrp.line_stabilizer_is_cyclic(g25, p) == cyclic
        s = reflgrp.stratify(g25, p)
        assert s.orbit_size * line == 648
        assert s.in_table
        cyclic_rows += cyclic
    assert 0 < cyclic_rows < len(points)
    assert {math.lcm(3, *(x.n for x in p)) for p in points} == {3, 9, 12}


def _plane_orbit_by_rref(gens, basis, conductor, bound):
    """The plane orbit as a BFS keyed on exact RREF rows (the reference)."""

    def canon(rows):
        red, _ = Mat.from_rows(rows).rref()
        return [list(red.row(i)) for i in range(len(rows))]

    def key(rows):
        return tuple(key_at(e, conductor) for row in rows for e in row)

    found = [canon(basis)]
    seen = {key(found[0])}
    for rows in found:
        for g in gens:
            image = canon([g.apply(r) for r in rows])
            if key(image) not in seen:
                seen.add(key(image))
                found.append(image)
                assert len(found) <= bound
    return found


def _plucker_rref(p, dim):
    """The RREF basis of the plane with Pluecker vector p (p_kl, k < l).

    Row k of the skew matrix (p_kl) is r1_k r2 - r2_k r1 for p = r1 ^ r2,
    so its rows span the plane.
    """
    coord = dict(zip(((k, l) for k in range(dim) for l in range(k + 1, dim)), p))
    skew = [
        [coord[k, l] if k < l else -coord[l, k] if k > l else ZERO for l in range(dim)]
        for k in range(dim)
    ]
    red, _ = Mat.from_rows(skew).rref()
    return [list(red.row(i)) for i in range(2)]


def test_plane_orbit_matches_rref_bfs():
    seed = Mat.from_rows([[0, -1, 0], [-W, 0, 0], [0, 0, -(W * W)]])
    basis = eigenspace(seed, -(W * W))
    gens = reflgrp.g25_generators()
    planes = reflgrp._plane_orbit_py(gens, basis, 3, 100)
    assert len(planes) == 9
    rref = [_plucker_rref(p, 3) for p in planes]
    assert rref == _plane_orbit_by_rref(gens, basis, 3, 100)


def test_g32_plane_orbit_is_closed_rref():
    basis, _ = reflgrp._g32_seed_plane()
    gens = reflgrp.g32_generators()
    planes = [_plucker_rref(p, 4) for p in reflgrp._plane_orbit_py(gens, basis, 12, 600)]
    assert len(planes) == 540

    def key(rows):
        return tuple(key_at(e, 12) for row in rows for e in row)

    keys = set()
    for rows in planes:
        red, _ = Mat.from_rows(rows).rref()
        assert [list(red.row(i)) for i in range(2)] == rows
        keys.add(key(rows))
    assert len(keys) == 540
    for rows in planes:
        for g in gens:
            red, _ = Mat.from_rows([g.apply(r) for r in rows]).rref()
            assert key([red.row(0), red.row(1)]) in keys


def test_reflection_agreement_with_pointwise_fix(g25):
    # every reflection fixes its hyperplane pointwise and has order > 1
    for m in g25.reflections[:8]:
        w = kernel.line_vector((ONE, *m.entries), 3)
        normal = kernel.line_coords(reflgrp._reflection_normal(w, 3, 3), 3)
        basis = Mat.from_rows([list(normal)]).kernel()
        for v in basis:
            assert m.apply(v) == tuple(v)


def test_conjugacy_both_roots_n5_n6():
    for z in (-W, -W * W):
        assert reflgrp.conjugacy_to_braid_action(5, z)
        assert reflgrp.conjugacy_to_braid_action(6, z)


def test_braid_action_group_is_g25_sized():
    mats = reflgrp.braid_action_matrices(5, -W)
    blobs = [kernel.to_blob_matrix(m, 6) for m in mats]
    els = kernel.closure(blobs, 3, 6, 1000)
    assert len(els) == 648


def test_closure_of_zeta12_at_conductor_12_and_its_truncation():
    # one generator of order 12 at conductor 12 (phi 4): 12 elements, and
    # BoundExceeded holds all of them at bound 11
    powers = [kernel.to_blob_matrix(Mat.from_rows([[zeta(12, k)]]), 12) for k in range(12)]
    assert kernel.closure(powers[1:2], 1, 12, 12) == powers
    with pytest.raises(kernel.BoundExceeded) as exc:
        kernel.closure(powers[1:2], 1, 12, 11)
    assert exc.value.found == powers


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


def test_g32_membership(g32):
    t = reflgrp.g32_t_element()
    base = (ONE, cyc(2), cyc(3), cyc(5))
    assert g32.contains(t)
    assert g32.contains(Mat.identity(4).scale(-1))
    assert not g32.contains(Mat.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]))
    # a transvection fixing the base vector: t @ p maps the base into the
    # orbit, to the image under t, but p has infinite order
    p = Mat.identity(4) + Mat.from_rows([[2, -1, 0, 0], [4, -2, 0, 0], [0] * 4, [0] * 4])
    assert p.apply(base) == base and p != Mat.identity(4)
    assert not g32.contains(t @ p)
    assert not g32.contains(_transvection_e23(4))


def _transvection_e23(d):
    """I + E_23, of infinite order: it fixes e_1 and e_2, so the chain passes
    it through its first two levels and rejects it at the third."""
    e = Mat.identity(d)
    p = e + Mat.from_rows([[1 if (i, j) == (1, 2) else 0 for j in range(d)] for i in range(d)])
    assert p.apply(e.row(0)) == e.row(0) and p.apply(e.row(1)) == e.row(1)
    return p


def test_chain_level_sizes(g25, g32):
    # [G_(i-1) : G_i] for the stabilizers G_i of e_1 .. e_i
    assert g25.chain.sizes == (72, 3, 3)
    assert g32.chain.sizes == (240, 72, 3, 3)
    # a level past the bound raises, like every search
    gens = reflgrp.g25_generators()
    with pytest.raises(reflgrp.BoundExceeded):
        reflgrp.StabilizerChain(gens, g25.reflections, 3, 71)
    # <R3> = <diag(1, w^2, 1)> fixes e_1 and no reflection of it fixes e_2,
    # so its chain stops after two levels; only the final identity test
    # rejects diag(1, 1, w), which fixes e_1 and e_2
    r3 = gens[2]
    sub = reflgrp.StabilizerChain([r3], [r3, r3 @ r3], 3, 10)
    assert sub.sizes == (1, 3) and sub.order == 3 and sub.contains(r3 @ r3)
    assert not sub.contains(Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, W]]))


def test_g25_chain_contains_every_element(g25, g25_elements):
    # the elements come from a plain BFS, which shares no code with the chain
    assert len(g25_elements) == 648
    assert all(g25.contains(m) for m in g25_elements)


def test_g32_chain_order_matches_a_regular_orbit(g32):
    # (1, 2, 3, 5) lies on no reflection hyperplane, so its stabilizer is
    # trivial and its orbit, searched on the lines through (1, v), is as
    # large as the group
    base = (ONE, cyc(2), cyc(3), cyc(5))
    assert reflgrp.hyperplanes_through(g32, base) == 0
    one = Mat.identity(1)
    lifts = [kernel.kron_lift(g, one, affine=True) for g in g32.generators]
    _, _, points, exceeded = kernel.int_line_orbit(lifts, (ONE, *base), 200_000, 3)
    assert not exceeded
    assert len(points) == g32.order == 155520


def test_g25_membership_of_matrices_off_the_orbit(g25):
    assert g25.contains(Mat.identity(3).scale(W))  # the centre
    # the image (1/2, 1, 3/2) of the base is not integral: no orbit point
    assert not g25.contains(Mat.identity(3).scale(cyc(1) / 2))
    # the image (zeta12, 2, 3) lies outside Q(omega)
    assert not g25.contains(Mat.from_rows([[zeta(12, 1), 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert not g25.contains(_transvection_e23(3))


def test_element_and_reflection_bytes_are_pinned(g25, g32):
    # the elements' order, which the benchmark indexes into, and the
    # reflections' values and order, each matrix as its blob at conductor 3
    def digest(blobs):
        return hashlib.sha256(b"".join(blobs)).hexdigest()

    def blobs(mats):
        return [kernel.to_blob_matrix(m, 3) for m in mats]

    assert digest(g25.elements) == "49a84cc2f3156da405505bc4a238d2504425ee3c95c7155e5acbcdabb54d7e82"
    assert digest(blobs(g25.reflections)) == "ea02784e501b2d6a258bc496ae15f6074a50406950eb2c402ef8e1d070a8e642"
    assert digest(blobs(g32.reflections)) == "52b332a0a665e30fab1ef8e6243e7cd8cc4f13420537bb202cf80ff393a95476"
    # the hyperplanes' values, conductors included, and their order
    for group, pinned in (
        (g25, "ed6485ef1ef0ab72b671907f6753d73892df0896214bef68d6d18b4b8fbcc09c"),
        (g32, "e21ec6775ecb32b1255dcc8ad50f014352f170ec9f8b3e92ebc4689b466c335c"),
    ):
        values = [[(x.n, x.num, x.den) for x in h] for h in group.hyperplanes]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == pinned


def test_reflections_by_conjugation(g25, g32, g25_elements):
    # the conjugation orbits against a rank scan of all 648 elements
    identity = Mat.identity(3)
    scanned = {m.entries for m in g25_elements if (m - identity).rank() == 1}
    assert {m.entries for m in g25.reflections} == scanned
    assert len(g25.reflections) == 24
    assert len({m.entries for m in g32.reflections}) == 80
    for m in g32.reflections:
        assert matrix_order(m, 4) == 3
        assert is_complex_reflection(m)[0]


def test_g32_stabilizers(g32, g32_table5):
    # on all twelve Table-5 rows: the line stabilizer times the orbit size
    # is |G|, and it is cyclic exactly on the four rows on no hyperplane
    centre = Mat.identity(4).scale(W)
    assert g32.contains(centre)
    for point, s in zip(g32_table5.points, g32_table5.strata, strict=True):
        assert reflgrp.line_stabilizer_order(g32, point) * s.orbit_size == 155520
        cyclic = reflgrp.line_stabilizer_is_cyclic(g32, point)
        assert cyclic == (s.num_hyperplanes == 0), point
        if not cyclic:
            # the reference: the centre's omega I and a reflection r of
            # order 3 that fixes the point generate C_3 x C_3 in it
            r = next(r for r in g32.reflections if r.apply(point) == tuple(point))
            assert (r @ r @ r).is_identity() and not r.is_scalar()
    assert sum(s.num_hyperplanes == 0 for s in g32_table5.strata) == 4


def test_g32_steinberg_on_the_rows_on_two_or_more_hyperplanes(g32, g32_table5):
    # |G_v| against |G| over the searched orbit of the vector v; a vector on
    # fewer hyperplanes has 51840 or 155520 images
    rows = [p for p, s in zip(g32_table5.points, g32_table5.strata) if s.num_hyperplanes >= 2]
    assert len(rows) == 6
    assert all(reflgrp.steinberg_check(g32, p) for p in rows)


def test_g32_seed_plane_matches_displayed_equations():
    basis, z = reflgrp._g32_seed_plane()
    assert z * z == -(W * W)
    c1 = (ONE, ZERO, z * z, z**3 - 2 * z + 1)
    c2 = (ZERO, ONE, -(z**3 - 2 * z + 1), -(2 * z**3 - 2 * z * z - z + 2))
    ker = Mat.from_rows([list(c1), list(c2)]).kernel()
    assert Mat.from_rows(basis).rref()[0] == Mat.from_rows(ker).rref()[0]


def test_g32_strata_table5(g32_table5):
    # (orbit size, hyperplanes, proper planes) of each Table-5 representative
    cases = [
        (25920, 0, 0),
        (5184, 0, 0),
        (12960, 0, 1),
        (6480, 0, 1),
        (8640, 1, 0),
        (2880, 1, 0),
        (2880, 2, 0),
        (1440, 2, 3),
        (1080, 4, 0),
        (540, 4, 6),
        (360, 5, 0),
        (40, 12, 0),
    ]
    for point, s, expected in zip(g32_table5.points, g32_table5.strata, cases, strict=True):
        assert (s.orbit_size, s.num_hyperplanes, s.num_proper_planes) == expected, point
        assert s.in_table


def test_g32_incidence_past_int64_is_exact(g32, g32_table5):
    # every product here fails the int64 guard and runs on Python ints; the
    # counts are those of the earlier test on Cyclotomic values
    points = g32_table5.points
    big = 10**30
    cases = [
        (tuple(big * x for x in points[9]), (4, 6)),  # the 540-line
        (tuple(big * x for x in points[2]), (0, 1)),  # on the seed plane
        (tuple(big * x for x in points[7]), (2, 3)),
        ((cyc(big), cyc(2 * big + 1), cyc(3), cyc(5)), (0, 0)),
        # coprime, in [2^61, 2^63): x0 + x1 + x2 = 2^64, which int64 wraps to
        # 0 on the hyperplane (1, 1, 1, 0)
        ((6148914691236517205, 6148914691236517205, 6148914691236517206, 2**62 + 1), (0, 0)),
        # coprime, x0 = x1 + x3: on the hyperplane (1, -1, 0, -1)
        ((2**62 + 12, 2**61 + 5, 2**61 + 11, 2**61 + 7), (1, 0)),
    ]
    for point, counts in cases:
        point = tuple(map(cyc, point))
        got = (reflgrp.hyperplanes_through(g32, point), reflgrp.proper_planes_through(g32, point))
        assert got == counts, point


def test_g32_census(g32_census):
    c = g32_census
    assert c["hyperplanes"] == 40
    assert c["codim2_incidences"] == {2: 240, 4: 90}
    assert c["codim3_incidences"] == {5: 360, 12: 40}
    assert c["orthogonality_consistent"]


def test_witting_polytope(g32):
    verts = reflgrp.polytope_vertices("witting")
    assert len(verts) == 240
    assert len({tuple(key_at(e, 12) for e in v) for v in verts}) == 240
    assert reflgrp.symmetry_check(g32.generators, verts)


def test_g32_special_line_stabilizer_generators(g32):
    # the constructing elements generate the full (cyclic) line stabilizers
    v30, _, s30, _ = reflgrp.g32_order30_representative()
    img = s30.apply(v30)
    pivot = next(i for i, e in enumerate(v30) if not e.is_zero())
    assert order_of_root(img[pivot] / v30[pivot]) == 30
    assert g32.contains(s30)
    assert g32.order // reflgrp.stratify(g32, v30).orbit_size == 30
    v24, _, t24, _ = reflgrp.g32_order24_representative()
    img = t24.apply(v24)
    pivot = next(i for i, e in enumerate(v24) if not e.is_zero())
    assert order_of_root(img[pivot] / v24[pivot]) == 24
    assert g32.contains(t24)
    assert g32.order // reflgrp.stratify(g32, v24).orbit_size == 24


def test_in_plane_orbit_pattern(g25):
    # inside one reflection plane the stabilizer quotient acts with
    # line-orbit pattern 2 / 3 / 3 / 6; equivalently the ambient orbits
    # meet the plane {z=0} in that many lines
    expected = {
        (ONE, ZERO, ZERO): 2,  # orbit 12
        (ONE, -ONE, ZERO): 3,  # orbit 9
        (ONE, ONE, ZERO): 3,  # orbit 36
        (ONE, cyc(2), ZERO): 6,  # orbit 72, generic in the plane
    }
    for rep, count in expected.items():
        n, _, orbit, exceeded = kernel.int_line_orbit(g25.generators, rep, 300, 3)
        assert not exceeded
        in_plane = sum(kernel.line_coords(w, n)[2].is_zero() for w in orbit)
        assert in_plane == count, rep


# ---- strata by orbit-stabilizer, against the line orbit ------------------------


def _line_orbit_size(group, point):
    """The oracle: the size of the line's orbit, searched."""
    _, _, orbit, exceeded = kernel.int_line_orbit(
        group.generators, point, group.order, group.conductor
    )
    assert not exceeded
    return len(orbit)


def _random_value(rng, conductor):
    """A random element of Z[zeta_conductor] with small coefficients."""
    return sum(
        (rng.randrange(-2, 3) * zeta(conductor, j) for j in range(euler_phi(conductor))),
        cyc(rng.randrange(1, 4)),
    )


def _random_point(rng, conductor, normals=None, dim=None):
    """A random point at `conductor`, on the subspace cut out by `normals`."""
    basis = Mat.from_rows([list(n) for n in normals]).kernel() if normals else None
    if basis is None:
        return tuple(_random_value(rng, conductor) for _ in range(dim))
    coeffs = [_random_value(rng, conductor) for _ in basis]
    return tuple(sum((c * b[k] for c, b in zip(coeffs, basis)), ZERO) for k in range(len(basis[0])))


def _random_points(rng, group, conductors):
    """Per conductor: a generic point, one on a random hyperplane and one
    on that hyperplane's intersection with another."""
    points = []
    for k in conductors:
        h = rng.sample(group.hyperplanes, 2)
        points.append(_random_point(rng, k, dim=group.dim))
        points.append(_random_point(rng, k, h[:1]))
        points.append(_random_point(rng, k, h))
    return points


def _assert_size_and_chain(group, point):
    point = tuple(map(cyc, point))
    s = reflgrp.stratify(group, point)
    assert s.orbit_size == _line_orbit_size(group, point), point
    assert reflgrp.line_stabilizer_order(group, point) * s.orbit_size == group.order
    # the memoized |G_v| against a fresh chain over the reflections found by
    # applying each one to the point
    through = reflgrp.containing(group.hyperplane_forms, [point])
    assert through.tobytes() in group.parabolic_orders
    fixing = [r for r in group.reflections if r.apply(point) == point]
    assert len(fixing) == 2 * s.num_hyperplanes  # r and r^2 on each hyperplane
    fresh = reflgrp.StabilizerChain(fixing, fixing, group.conductor, group.order).order
    assert reflgrp.parabolic_order(group, through) == fresh
    assert reflgrp.point_stabilizer_order(group, point) == fresh
    return s


def test_strata_sizes_match_line_orbits_g25(g25):
    rows = [point for _, point, _ in reflgrp.table4_cases(g25)]
    rng = random.Random(26)
    rows += _random_points(rng, g25, (1, 4, 5, 9, 12))
    rows += [_random_point(rng, k, [n]) for k, n in zip((4, 5, 9, 12), g25.proper_planes)]
    sizes = {_assert_size_and_chain(g25, p).orbit_size for p in rows}
    assert sizes == {216, 108, 72, 54, 36, 12, 9}  # every Table-4 size
    assert {x.n for p in rows for x in p} >= {1, 4, 5, 9, 12}


def test_strata_sizes_match_line_orbits_g32(g32, g32_table5):
    # the twelve Table-5 rows, and three random lines: 25920-line searches
    # take about 0.15 s each
    for point in g32_table5.points:
        _assert_size_and_chain(g32, point)
    rng = random.Random(32)
    h = rng.sample(g32.hyperplanes, 2)
    points = [
        _random_point(rng, 4, dim=4),
        _random_point(rng, 5, h[:1]),
        _random_point(rng, 9, h),
    ]
    sizes = [_assert_size_and_chain(g32, p).orbit_size for p in points]
    assert sizes[0] == 25920 and sizes[2] < sizes[1] < sizes[0]


def test_basic_invariants_premise(g25, g32):
    # exactly gcd(degrees) = |Z(G)| forms on each line of the seed's orbit,
    # and a nonzero Jacobian at one integer point off the hyperplanes
    for group, forms, lines in ((g25, 27, 9), (g32, 240, 40)):
        inv = group.invariants
        assert (inv.orbit_size, len(inv.forms)) == (forms, lines)
        assert inv.degrees == group.degrees and math.prod(inv.degrees) == group.order
        generic = tuple(map(cyc, (1, 2, 5, 11)[: group.dim]))
        assert reflgrp.hyperplanes_through(group, generic) == 0
        assert not inv.jacobian(generic).is_zero()
        # Steinberg: the Jacobian vanishes on every reflection hyperplane
        on_plane = tuple(map(cyc, (1, 2, 0, 0)[: group.dim]))
        assert reflgrp.hyperplanes_through(group, on_plane) > 0
        assert inv.jacobian(on_plane).is_zero()


def test_basic_invariants_refuse_a_seed_with_too_many_forms_per_line(g25):
    # a hyperplane normal's orbit has 72 forms on 12 lines: 6 per line, and F_9 = 0
    with pytest.raises(AssertionError, match="72 forms on 12 lines"):
        reflgrp.basic_invariants(g25, g25.hyperplanes[0])


def test_basic_invariants_are_invariant(g25, g32):
    rng = random.Random(6)
    for group, conductors in ((g25, (1, 4, 9, 12)), (g32, (1, 12))):
        inv = group.invariants
        for k in conductors:
            p = _random_point(rng, k, dim=group.dim)
            values = inv.values(p)
            assert not any(v.is_zero() for v in values)
            for g in group.generators:
                assert inv.values(g.apply(p)) == values


def test_one_canonical_normal_per_line_is_not_invariant(g25):
    # the displayed normals are other multiples of the orbit's forms: F_6 and
    # F_12 stay invariant but F_9 does not, and the 54 and 108 rows, on no
    # hyperplane (G_v = 1), come out as 216
    bad = reflgrp.BasicInvariants(reflgrp.g25_proper_plane_normals(), reflgrp.G25_DEGREES)
    p = (ONE, cyc(2), cyc(5))
    moved = [bad.values(g.apply(p)) for g in g25.generators]
    assert all(v[0] == bad.values(p)[0] and v[2] == bad.values(p)[2] for v in moved)
    assert any(v[1] != bad.values(p)[1] for v in moved)
    cases = {case: point for case, point, _ in reflgrp.table4_cases(g25)}
    for case, size in (("order-12-line", 54), ("generic-on-proper", 108)):
        point = cases[case]
        assert reflgrp.hyperplanes_through(g25, point) == 0
        assert g25.order // g25.invariants.scalar_order(point) == size
        assert g25.order // bad.scalar_order(point) == 216
