"""Acceptance suite: one test per criterion, with a PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the status lines.
Two sub-checks are expected to fail on paper-internal contradictions
that exact arithmetic exposes; see "Claims of the paper that fail by
design" in README.md:

* criterion 7's printed order-54 representative actually lies in the
  36-orbit (the honestly derived order-12 eigenline does give 54);
* criterion 12's "identity iff lambda_i lambda_j = 1" fails in the
  forward direction: the bracketed action is a transvection when the
  product is 1 but other linear-part entries are nontrivial.
"""

import random
import time
from fractions import Fraction

import numpy as np

from braidorbit import reflgrp
from braidorbit.braid import FreeTuple, PureLetter, hurwitz_act, pure_sigma_ij
from braidorbit.charvar import (
    AffineRep,
    LinearPart,
    action_matrix_full,
    normalize,
    orbit,
    rep_from_hurwitz,
)
from braidorbit.classify import gate, table_rows
from braidorbit.coalesce import CoalesceSpec, equivariance_check
from braidorbit.cyclo import cyc, order_of_root, zeta
from braidorbit.linalg import Mat, is_complex_reflection
from braidorbit.connect import (
    ConnectionSpec,
    DegenerateParameters,
    completed_E_family,
    corollary_connection,
    exp_residue_reflection,
    flatness_check,
    g_matrix,
    lauricella_E,
    local_eigenvalues,
    monodromy_numeric,
    numeric_closure,
    residues_B,
    residues_C,
)

ONE = cyc(1)
ZERO = cyc(0)
W = zeta(3, 1)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def bfs_size(rep, bound=500):
    cls, rot = normalize(rep)
    linear = rep.linear.rotated(rot) if rot else rep.linear
    res = orbit(cls, linear, bound=bound)
    return res.size, res.exceeded_bound


def run_family(lp, expected_sizes, generic, per_row_budget):
    fam = table_rows(lp)
    sizes = []
    for row in fam.rows:
        t0 = time.monotonic()
        size, exceeded = bfs_size(row.rep)
        elapsed = time.monotonic() - t0
        assert not exceeded
        assert elapsed < per_row_budget, f"row took {elapsed:.2f}s"
        sizes.append(size)
    assert sizes == expected_sizes, (lp.lambdas, sizes)
    assert fam.generic_size == generic
    for c in range(2, 30):
        rep = AffineRep(lp, (ZERO, ONE, cyc(c)))
        t0 = time.monotonic()
        size, _ = bfs_size(rep, bound=generic + 1)
        assert time.monotonic() - t0 < 2 * per_row_budget
        if size == generic:
            return
    raise AssertionError("no generic representative found")


def test_criterion_01_table2():
    e = zeta(12, 1)
    run_family(LinearPart((e, e**5, e**3, e**3)), [4, 4, 6], 12, 1.0)
    z = zeta(6, 1)
    run_family(LinearPart((-ONE, z, z, z)), [4, 4, 6], 12, 1.0)
    h = zeta(24, 1)
    run_family(LinearPart((h, h**5, h**7, h**11)), [6, 8, 12], 24, 1.0)
    run_family(LinearPart((e, -e, e**2, e**2)), [6, 8, 12], 24, 1.0)
    report(1, True, "tetrahedral and octahedral rows: {4,4,6}+12 and {6,8,12}+24")


def test_criterion_02_table3():
    a60, a20, a30 = zeta(60, 1), zeta(20, 1), zeta(30, 1)
    a15, a5 = zeta(15, 1), zeta(5, 1)
    families = [
        LinearPart((a60, a60**29, a60**11, a60**19)),
        LinearPart((a20, a20**9, a20**7, a20**3)),
        LinearPart((a30**9, a30**9, a30, a30**11)),
        LinearPart((a30**5, a30**5, a30, a30**19)),
        LinearPart((a15, a15**4, a15**2, a15**8)),
        LinearPart((-a5, -a5, -a5, -(a5 * a5))),
    ]
    for lp in families:
        run_family(lp, [12, 20, 30], 60, 2.0)
    report(2, True, "all six icosahedral families: {12,20,30}+60")


def test_criterion_03_table1():
    a10 = zeta(10, 1)
    run_family(LinearPart((a10, -a10.inverse(), -a10.inverse(), a10)), [2, 5, 5], 10, 1.0)
    a8 = zeta(8, 1)
    run_family(LinearPart((a8, -a8.inverse(), -a8.inverse(), a8)), [2, 4, 4], 8, 1.0)
    report(3, True, "imprimitive rows: {2,5,5}+10 and {2,4,4}+8")


def test_criterion_04_power_law():
    rng = random.Random(24)
    checked = 0
    while checked < 50:
        n = rng.randrange(4, 8)
        omega = rng.randrange(2, 13)
        kmax = n - 2
        supports = [k for k in range(1, kmax + 1) if omega ** (k - 1) <= 2000]
        k = rng.choice(supports)
        a = zeta(omega, 1)
        lp = LinearPart((a,) + (ONE,) * (n - 2) + (a.inverse(),))
        positions = rng.sample(range(1, n - 1), k)
        tau = [ZERO] * (n - 1)
        for pos in positions:
            tau[pos] = cyc(rng.randrange(1, 5))
        rep = AffineRep(lp, tuple(tau))
        verdict = gate(rep)
        expected = omega ** (k - 1)
        assert verdict.kind == "finite" and verdict.size == expected
        size, exceeded = bfs_size(rep, bound=expected + 10)
        assert not exceeded and size == expected, (n, omega, k)
        checked += 1
    report(4, True, "50 randomized index-2 instances: BFS size = omega^(k-1)")


def test_criterion_05_g25(g25):
    t0 = time.monotonic()
    group = reflgrp.build_g25()
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"G25 build took {elapsed:.1f}s"
    assert group.order == 648
    assert len(group.reflections) == 24
    disp = {reflgrp._line_key(n, 12) for n in reflgrp.g25_hyperplane_normals()}
    assert {reflgrp._line_key(n, 12) for n in group.hyperplanes} == disp
    propd = {reflgrp._line_key(n, 12) for n in reflgrp.g25_proper_plane_normals()}
    assert {reflgrp._line_key(n, 12) for n in group.proper_planes} == propd
    import math

    assert math.prod(group.degrees) == group.order
    report(5, True, f"G25: 648/24/12/9, displayed equations match ({elapsed:.1f}s)")


def test_criterion_06_g32(g32, g32_census):
    t0 = time.monotonic()
    assert g32.order == 155520
    assert len(g32.reflections) == 80
    assert len(g32.hyperplanes) == 40
    assert len(g32.proper_planes) == 540
    census = g32_census
    assert census["codim2_incidences"] == {2: 240, 4: 90}
    assert census["codim3_incidences"] == {5: 360, 12: 40}
    assert census["orthogonality_consistent"]
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    report(6, True, f"G32: 155520/80/40/540 and census (240,90,360,40) ({elapsed:.1f}s)")


def test_criterion_07_table4_rows(g25):
    nu = zeta(9, 1)
    rep54, _ = reflgrp.g25_order12_representative(g25)
    cases = [
        ((nu, nu**2, ONE), 72, None, None),
        (rep54, 54, 0, 1),
        ((ONE, ZERO, ZERO), 12, 2, 3),
        ((ONE, -ONE, ZERO), 9, 4, None),
        ((ONE, ONE, ZERO), 36, 1, 1),
        ((ONE, cyc(2), ZERO), 72, 1, 0),
        ((ONE, ONE, cyc(3)), 108, 0, 1),
        ((ONE, cyc(2), cyc(5)), 216, 0, 0),
    ]
    for point, size, nh, np_ in cases:
        s = reflgrp.stratify(g25, point)
        assert s.orbit_size == size, (point, s)
        if nh is not None:
            assert s.num_hyperplanes == nh
        if np_ is not None:
            assert s.num_proper_planes == np_
        assert s.in_table
    report(7, True, "Table-4 strata on explicit representatives (8 rows)")


def test_criterion_07_printed_54_representative(g25):
    # The printed representative of the order-54 orbit; exact arithmetic
    # places it in the 36-orbit (it lies on the reflection plane x = 0),
    # so this check documents a paper-internal contradiction.
    s = reflgrp.stratify(g25, (ZERO, W, ONE))
    report(
        "7-printed-rep",
        s.orbit_size == 54,
        f"[0:w:1] stratifies as {(s.orbit_size, s.num_hyperplanes, s.num_proper_planes)}; "
        "the regular order-12 eigenline does give 54 (see README.md)",
    )


def test_criterion_08_table5(g32_table5):
    _, disp30, _, _ = reflgrp.g32_order30_representative()
    _, disp24, _, _ = reflgrp.g32_order24_representative()
    from braidorbit.linalg import mat_parallel

    v30, v24 = g32_table5.points[1], g32_table5.points[3]
    assert mat_parallel(v30, disp30) and mat_parallel(v24, disp24)
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
    for s, (size, nh, np_) in zip(g32_table5.strata, cases, strict=True):
        assert (s.orbit_size, s.num_hyperplanes, s.num_proper_planes) == (size, nh, np_)
        assert s.in_table
    elapsed = g32_table5.elapsed
    assert elapsed < 300, f"Table-5 strata took {elapsed:.1f}s"
    report(8, True, f"all twelve Table-5 strata rows ({elapsed:.1f}s)")


def test_criterion_09_conjugacy():
    for n in (5, 6):
        for z in (-W, -W * W):
            assert reflgrp.conjugacy_to_braid_action(n, z), (n, z)
    report(9, True, "P-conjugation exact for both sixth roots, n = 5 and 6")


def random_rep(rng, n):
    while True:
        lams = []
        prod = ONE
        for _ in range(n - 1):
            m = rng.choice([2, 3, 4, 6])
            x = zeta(m, rng.randrange(m))
            lams.append(x)
            prod = prod * x
        lams.append(prod.inverse())
        lp = LinearPart(tuple(lams))
        if lp.iota() >= 1:
            break
    tau = tuple(cyc(rng.randrange(-2, 3)) + zeta(6, rng.randrange(6)) for _ in range(n - 1))
    return AffineRep(lp, tau)


def test_criterion_10_coalescence():
    rng = random.Random(42)
    checked = 0
    while checked < 200:
        n = rng.choice([5, 6])
        k = rng.randrange(4, n)
        ell = rng.randrange(1, k + 1)
        rep = random_rep(rng, n)
        letters = [
            PureLetter(i, j, rng.choice([1, -1]))
            for i, j in (
                sorted(rng.sample(range(1, k + 1), 2))
                for _ in range(rng.randrange(1, 4))
            )
        ]
        assert equivariance_check(rep, CoalesceSpec(n, k, ell), letters), (n, k, ell)
        checked += 1
    report(10, True, "200 randomized merge-equivariance instances, exact")


def test_criterion_11_cross_oracle():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        n = rng.randrange(4, 7)
        rep = random_rep(rng, n)
        i = rng.randrange(1, n - 1)
        j = rng.randrange(i + 1, n)
        word = pure_sigma_ij(n, i, j)
        via_free = rep_from_hurwitz(rep, hurwitz_act(word, FreeTuple.generators(n)))
        m = action_matrix_full(rep.linear, i, j)
        via_matrix = AffineRep(rep.linear, m.apply(rep.tau))
        assert via_free.linear.lambdas == rep.linear.lambdas
        assert via_free.tau == via_matrix.tau
        checked += 1
    report(11, True, "200 randomized Hurwitz-evaluation vs matrix-action checks")


def _random_linear(rng, n):
    while True:
        lams = []
        prod = ONE
        for _ in range(n - 1):
            m = rng.choice([2, 3, 4, 6])
            x = zeta(m, rng.randrange(m))
            lams.append(x)
            prod = prod * x
        lams.append(prod.inverse())
        try:
            return LinearPart(tuple(lams))
        except ValueError:
            continue


def test_criterion_12_reflection_facts():
    rng = random.Random(12)
    product_one_draws = 0
    for _ in range(500):
        n = rng.randrange(4, 8)
        lp = _random_linear(rng, n)
        i = rng.randrange(1, n - 1)
        j = rng.randrange(i + 1, n)
        m = action_matrix_full(lp, i, j)
        li, lj = lp.lambdas[i - 1], lp.lambdas[j - 1]
        assert m.trace() == li * lj + (n - 2)
        assert (m - Mat.identity(n - 1)).rank() <= 1
        delta = tuple(ONE - x for x in lp.lambdas[: n - 1])
        assert m.apply(delta) == delta
        if m.is_identity():
            assert li * lj == ONE
        if li * lj == ONE:
            product_one_draws += 1
    assert product_one_draws > 0
    report(
        12,
        True,
        f"500 draws: trace, rank <= 1, Delta fixed, identity => product 1 "
        f"({product_one_draws} product-1 draws)",
    )


def test_criterion_12_identity_when_product_is_one():
    # Forward direction of "identity iff lambda_i lambda_j = 1" as stated.
    # A transvection counterexample exists whenever other entries are
    # nontrivial; this documents the discrepancy (see README.md).
    z6 = zeta(6, 1)
    lp = LinearPart((z6, z6.inverse(), W, W * W))
    m = action_matrix_full(lp, 1, 2)
    report(
        "12-identity-if",
        m.is_identity(),
        "lambda_1 lambda_2 = 1 yet the action is a transvection, not the identity",
    )


def test_criterion_13_connection_layer():
    rng = random.Random(13)
    done = 0
    while done < 10:
        count = rng.choice([4, 5])  # N = 2, 3
        theta = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 7)) for _ in range(count)]
        if theta[0] == 0:
            continue
        spec = ConnectionSpec(tuple(theta))
        try:
            g = g_matrix(spec)  # asserts E^{ij} G = G C^{ij} and det(G) exactly
        except DegenerateParameters:
            continue
        assert not g.det().is_zero()
        done += 1
    for n in (5, 6):
        while True:
            theta = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 6)) for _ in range(n - 1)]
            if theta[0] == 0:
                continue
            spec = ConnectionSpec(tuple(theta))
            assert flatness_check(residues_B(spec))
            assert flatness_check(residues_C(spec))
            try:
                assert flatness_check(completed_E_family(spec))
            except DegenerateParameters:
                continue
            break
    checked_exp = 0
    while checked_exp < 20:
        theta = [Fraction(rng.randrange(-5, 6), rng.randrange(2, 9)) for _ in range(4)]
        if theta[0] == 0:
            continue
        spec = ConnectionSpec(tuple(theta))
        lam = spec.lambdas()
        for (i, j), c in residues_C(spec).items():
            t = spec.theta[i - 1] + spec.theta[j - 1]
            if t == 0:
                continue
            _, mu = exp_residue_reflection(c, t)
            assert mu == lam[i - 1] * lam[j - 1]
            checked_exp += 1
    report(13, True, "G-conjugation, det(G), flatness (B/C/E), residue exponentials")


def test_criterion_14_numeric_monodromy():
    t0 = time.monotonic()
    poles, mats = corollary_connection(3, [-0.7 + 0.3j], sign=+1)
    monos = monodromy_numeric(poles, mats, local_tol=1e-12)
    import cmath

    target = sorted(
        [cmath.exp(-2j * cmath.pi / 3), 1.0, 1.0],
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )
    for m in monos:
        got = local_eigenvalues(m)
        assert max(abs(a - b) for a, b in zip(got, target)) < 1e-10
    size = numeric_closure(monos, tol=1e-6, bound=5000)
    elapsed = time.monotonic() - t0
    assert size == 648
    assert elapsed < 120, f"monodromy check took {elapsed:.1f}s"
    report(14, True, f"order-648 numeric closure, eigenvalues at 1e-10 ({elapsed:.1f}s)")


def test_criterion_15_negative_controls():
    rng = random.Random(15)
    bound = 400
    # seven punctures, fully nontrivial linear part
    checked = 0
    while checked < 20:
        lams = []
        prod = ONE
        for _ in range(6):
            m = rng.choice([2, 3, 6])
            k = rng.randrange(1, m)
            x = zeta(m, k)
            lams.append(x)
            prod = prod * x
        last = prod.inverse()
        if last == ONE:
            continue
        lp = LinearPart(tuple(lams) + (last,))
        if lp.iota() != 7:
            continue
        rep = AffineRep(lp, tuple(cyc(rng.randrange(1, 4)) for _ in range(6)))
        assert gate(rep).kind == "infinite"
        _, exceeded = bfs_size(rep, bound=bound)
        assert exceeded
        checked += 1
    # index 3 with a class that is not the fixed point
    checked = 0
    while checked < 20:
        n = rng.choice([4, 5])
        a1 = zeta(6, rng.choice([1, 5]))
        a2 = zeta(6, rng.choice([1, 2, 4, 5]))
        a3 = (a1 * a2).inverse()
        if a3 == ONE:
            continue
        lp = LinearPart((ONE,) * (n - 3) + (a1, a2, a3))
        tau = [cyc(rng.randrange(1, 4)) for _ in range(n - 1)]
        rep = AffineRep(lp, tuple(tau))
        verdict = gate(rep)
        if verdict.kind != "infinite":
            continue  # by chance the class was the fixed point or abelian
        _, exceeded = bfs_size(rep, bound=bound)
        assert exceeded
        checked += 1
    report(15, True, f"20+20 infinite-verdict samples exceed the bound {bound}")
