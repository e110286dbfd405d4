import random

import pytest

from braidorbit.braid import FreeTuple, PureLetter, check_braid_relations, hurwitz_act, pure_sigma_ij
from braidorbit.charvar import (
    AffineRep,
    LinearPart,
    LinearPartFirstTrivial,
    ProjClass,
    ZeroScale,
    action_matrix_full,
    action_matrix_reduced,
    apply_braid,
    apply_word_to_rep,
    braid_action,
    conjugate,
    matrix_of_sigma,
    normalize,
    orbit,
    reduced_generators,
    rep_from_hurwitz,
)
from braidorbit.cyclo import cyc, zeta
from braidorbit.linalg import Mat, is_complex_reflection, matrix_order

ONE = cyc(1)
ZERO = cyc(0)


def tetra_linear():
    e = zeta(12, 1)
    return LinearPart((e, e**5, e**3, e**3)), e


def random_linear(rng, n, max_order=6):
    while True:
        lams = []
        prod = ONE
        for _ in range(n - 1):
            m = rng.choice([2, 3, 4, 6, max_order])
            x = zeta(m, rng.randrange(m))
            lams.append(x)
            prod = prod * x
        lams.append(prod.inverse())
        lp = LinearPart(tuple(lams))
        if lp.lambdas[0] != ONE:
            return lp


def random_tau(rng, n):
    return tuple(cyc(rng.randrange(-3, 4)) + zeta(6, rng.randrange(6)) for _ in range(n - 1))


def test_linear_part_invariants():
    lp, e = tetra_linear()
    assert lp.n == 4
    assert lp.iota() == 4
    assert lp.orders() == (12, 12, 4, 4)
    with pytest.raises(ValueError):
        LinearPart((e, e, e, e))  # product is not 1


def test_tau_n_derived():
    lp, e = tetra_linear()
    rep = AffineRep(lp, (e**3, ZERO, ZERO))
    assert rep.tau_n() == ONE  # table row (eta^3, 0, 0, 1)
    rep2 = AffineRep.from_full_tau(lp, (e**3, ZERO, ZERO, ONE))
    assert rep2.tau == (e**3, ZERO, ZERO)
    with pytest.raises(ValueError):
        AffineRep.from_full_tau(lp, (e**3, ZERO, ZERO, cyc(5)))


def test_conjugate_examples():
    lp, e = tetra_linear()
    rep = AffineRep(lp, (e**3, ZERO, ZERO))
    assert conjugate(rep, 1, 0).tau == rep.tau
    b = -(e**3) / (ONE - e)
    assert conjugate(rep, 1, b).tau[0].is_zero()
    delta = tuple(ONE - x for x in lp.lambdas[:3])
    rep3 = AffineRep(lp, delta)
    assert all(t.is_zero() for t in conjugate(rep3, 1, -1).tau)
    with pytest.raises(ZeroScale):
        conjugate(rep, 0, 1)


def test_normalize():
    lp, e = tetra_linear()
    delta = tuple(ONE - x for x in lp.lambdas[:3])
    cls, rot = normalize(AffineRep(lp, delta))
    assert cls.is_zero_class and rot == 0
    cls2, _ = normalize(AffineRep(lp, (ZERO, ONE, ZERO)))
    assert cls2.coords == (ONE, ZERO)
    # rotation when lambda_1 = 1
    lp2 = LinearPart((ONE, zeta(3, 1), zeta(3, 2), ONE))
    rep = AffineRep(lp2, (ZERO, ONE, cyc(2)))
    with pytest.raises(LinearPartFirstTrivial):
        normalize(rep, allow_rotation=False)
    cls3, rot3 = normalize(rep)
    assert rot3 == 1


def test_reduced_matrices_match_display():
    # eq-(3) style 2x2 matrices for n = 4
    lp, e = tetra_linear()
    l1, l2, l3 = lp.lambdas[0], lp.lambdas[1], lp.lambdas[2]
    a3 = action_matrix_reduced(lp, 1, 2)
    assert a3 == Mat.from_rows([[l1 * l2, ZERO], [l1 * (l3 - 1), ONE]])
    a1 = action_matrix_reduced(lp, 2, 3)
    assert a1 == Mat.from_rows([[l2 * (l3 - 1) + 1, l2 * (ONE - l2)], [ONE - l3, l2]])


def test_full_matrix_reflection_facts():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(4, 8)
        lp = random_linear(rng, n)
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
        elif li * lj != ONE:
            ok, ev = is_complex_reflection(m)
            assert ok and ev == li * lj
        else:
            # lambda_i lambda_j = 1 with other entries nontrivial gives a
            # transvection: rank one with trace n-1, not the identity
            assert m.trace() == cyc(n - 1)
        if li * lj == ONE and not m.is_identity():
            # the transvection direction; trivial on classes iff inside Delta
            diff = m - Mat.identity(n - 1)
            col = next(
                [diff[r, c] for r in range(n - 1)]
                for c in range(n - 1)
                if any(not diff[r, c].is_zero() for r in range(n - 1))
            )
            others_trivial = all(
                lp.lambdas[v] == ONE for v in range(n) if v not in (i - 1, j - 1)
            )
            from braidorbit.linalg import mat_parallel

            assert mat_parallel(col, delta) == others_trivial


def test_cross_oracle_hurwitz_vs_matrix():
    # free-group route and matrix route produce the same representation
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randrange(4, 7)
        lp = random_linear(rng, n)
        tau = random_tau(rng, n)
        rep = AffineRep(lp, tau)
        i = rng.randrange(1, n - 1)
        j = rng.randrange(i + 1, n)
        word = pure_sigma_ij(n, i, j)
        via_free = rep_from_hurwitz(rep, hurwitz_act(word, FreeTuple.generators(n)))
        via_rep = apply_word_to_rep(rep, word)
        m = action_matrix_full(lp, i, j)
        via_matrix = AffineRep(lp, m.apply(tau))
        assert via_free.linear.lambdas == lp.lambdas
        assert via_free.tau == via_matrix.tau
        assert via_rep.tau == via_matrix.tau


def test_reduced_consistent_with_full():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randrange(4, 7)
        lp = random_linear(rng, n)
        i = rng.randrange(1, n - 1)
        j = rng.randrange(i + 1, n)
        tau = (ZERO,) + random_tau(rng, n)[1:]
        rep = AffineRep(lp, tau)
        full = action_matrix_full(lp, i, j)
        cls_direct, _ = normalize(AffineRep(lp, full.apply(tau)))
        red = action_matrix_reduced(lp, i, j)
        cls_red = ProjClass(n, red.apply(tau[1:]))
        assert cls_direct == cls_red


def test_sigma_matrices_n5_display():
    z = zeta(6, 1)
    lp = LinearPart((z, z, z, z, z * z))
    a1 = matrix_of_sigma(lp, 1)
    a2 = matrix_of_sigma(lp, 2)
    a3 = matrix_of_sigma(lp, 3)
    assert a1 == Mat.from_rows([[-z, 0, 0], [-z, 1, 0], [-z, 0, 1]])
    assert a2 == Mat.from_rows([[-z * z, z, 0], [1, 0, 0], [0, 0, 1]])
    assert a3 == Mat.from_rows([[1, 0, 0], [0, -z * z, z], [0, 1, 0]])
    assert check_braid_relations([a1, a2, a3])
    for a in (a1, a2, a3):
        assert matrix_order(a, 5) == 3
    # squares are the pure-generator matrices
    assert a1 @ a1 == action_matrix_reduced(lp, 1, 2)


def test_sigma_matrices_n6_display():
    z = zeta(6, 1)
    lp = LinearPart((z,) * 6)
    mats = [matrix_of_sigma(lp, i) for i in range(1, 5)]
    a4 = Mat.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -z * z, z], [0, 0, 1, 0]]
    )
    assert mats[3] == a4
    assert check_braid_relations(mats)
    for a in mats:
        assert matrix_order(a, 5) == 3


def test_orbit_tetrahedral_row():
    lp, e = tetra_linear()
    cls, _ = normalize(AffineRep(lp, (e**3, ZERO, ZERO)))
    res = orbit(cls, lp, bound=100)
    assert not res.exceeded_bound
    assert res.size == 4


def test_orbit_zero_class():
    lp, _ = tetra_linear()
    res = orbit(ProjClass(4, (ZERO, ZERO)), lp, bound=10)
    assert res.size == 1 and not res.exceeded_bound


def test_orbit_points_are_built_on_first_read(monkeypatch):
    from braidorbit import charvar

    built = []
    proj_class = charvar._proj_class

    def counting(*args):
        built.append(1)
        return proj_class(*args)

    monkeypatch.setattr(charvar, "_proj_class", counting)
    lp, e = tetra_linear()
    cls, _ = normalize(AffineRep(lp, (ZERO, ZERO, e**3)))
    res = orbit(cls, lp, bound=100)
    assert (res.size, res.exceeded_bound, built) == (6, False, [])
    points = res.points
    assert len(points) == 6 and points[0] is cls and len(built) == 5
    assert res.points is points and len(built) == 5


def test_orbit_generator_order_independent():
    lp, e = tetra_linear()
    cls, _ = normalize(AffineRep(lp, (ZERO, ZERO, e**3)))
    gens = reduced_generators(lp)
    rng = random.Random(0)
    sizes = set()
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        sizes.add(orbit(cls, lp, bound=100, gens=shuffled).size)
    assert sizes == {6}


def test_orbit_prop24_power_law():
    # lambda = (a, 1, ..., 1, a^-1): orbit size is omega^(k-1)
    a = zeta(4, 1)
    lp = LinearPart((a, ONE, ONE, ONE, ONE, a.inverse()))
    tau = (ZERO, ONE, ONE, ONE, ZERO)
    cls, _ = normalize(AffineRep(lp, tau))
    assert orbit(cls, lp, bound=1000).size == 16  # 4^(3-1)


def object_orbit(cls, linear, bound, gens=None):
    """Reference BFS on Cyclotomic objects: ProjClass, Mat.apply and ==.

    By default it searches under `orbit`'s own search set, so the two
    find the same points in the same order."""
    gens = braid_action(linear).gens if gens is None else gens
    points, frontier = [cls], [cls]
    while frontier:
        new_frontier = []
        for p in frontier:
            for m in gens:
                q = ProjClass(p.n, m.apply(p.coords))
                if not any(q == r for r in points):
                    points.append(q)
                    if len(points) > bound:
                        return points, True
                    new_frontier.append(q)
        frontier = new_frontier
    return points, False


def assert_orbit_matches_object_bfs(cls, linear, bound, gens=None):
    res = orbit(cls, linear, bound=bound, gens=gens)
    ref, exceeded = object_orbit(cls, linear, bound, gens)
    assert (res.size, res.exceeded_bound) == (len(ref), exceeded)
    assert all(p == q for p, q in zip(res.points, ref))
    return res


def _z(n, k):
    return zeta(n, k) if n > 0 else -zeta(-n, k)


# (label, lambdas as (N, k) meaning zeta_N^k, or -zeta_|N|^k for N < 0,
#  tau, bound); conductors 2, 6, 8 and 12, 24, 60 give phi = 1, 2, 4, 8, 16
ORACLE_CASES = [
    ("phi1-bound", ((-2, 0), (-2, 0), (-2, 0), (-2, 0)), (0, 1, 3), 40),
    ("phi2-tetrahedral-6", ((-1, 0), (6, 1), (6, 1), (6, 1)), (0, 1, 2), 100),
    ("phi2-n5-bound", ((6, 1), (6, 1), (6, 1), (6, 1), (6, 2)), (0, 1, 2, 5), 50),
    ("phi4-tetrahedral-12", ((12, 1), (12, 5), (12, 3), (12, 3)), (0, 1, 3), 100),
    ("phi4-imprimitive-8", ((8, 1), (-8, 7), (-8, 7), (8, 1)), (0, 1, 2), 100),
    ("phi8-octahedral-24", ((24, 1), (24, 5), (24, 7), (24, 11)), (0, 1, 2), 100),
    ("phi16-icosahedral-60", ((60, 1), (60, 29), (60, 11), (60, 19)), (0, 1, 2), 100),
]


@pytest.mark.parametrize("label, lams, tau, bound", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_orbit_matches_object_bfs(label, lams, tau, bound):
    lp = LinearPart(tuple(_z(*x) for x in lams))
    cls, _ = normalize(AffineRep(lp, tuple(cyc(t) for t in tau)))
    assert_orbit_matches_object_bfs(cls, lp, bound)


def test_orbit_matches_object_bfs_on_edge_cases():
    lp, e = tetra_linear()
    z6 = zeta(6)
    lp6 = LinearPart((-ONE, z6, z6, z6))
    gens = reduced_generators(lp)[::-1]
    cases = [
        # start coordinates of a larger conductor than the linear part
        (ProjClass(4, (ONE, zeta(4))), lp6, 100, None),
        (ProjClass(4, (ONE, zeta(5))), lp, 100, None),
        # an explicit generator list, in another order
        (ProjClass(4, (ONE, cyc(3))), lp, 100, gens),
        (ProjClass(4, (ONE, cyc(3))), lp, 100, gens[:2]),
        # generator entries of a larger conductor than `linear`
        (ProjClass(4, (ONE, cyc(3))), lp6, 100, gens),
    ]
    for cls, linear, bound, g in cases:
        assert_orbit_matches_object_bfs(cls, linear, bound, g)
    # a run that passes its bound
    res = assert_orbit_matches_object_bfs(ProjClass(4, (ONE, cyc(3))), lp, 5)
    assert res.exceeded_bound and res.size == 6


def test_apply_braid_identity_and_zero():
    lp, e = tetra_linear()
    cls, _ = normalize(AffineRep(lp, (ZERO, ONE, cyc(2))))
    assert apply_braid(cls, [], lp) == cls
    zero = ProjClass(4, (ZERO, ZERO))
    assert apply_braid(zero, [PureLetter(1, 2)], lp) == zero
    # applying a generator twice its projective order returns the class
    m = action_matrix_reduced(lp, 1, 2)
    from braidorbit.linalg import projective_order

    k = projective_order(m, 50)
    assert k is not None
    out = apply_braid(cls, [PureLetter(1, 2)] * (2 * k), lp)
    assert out == cls


def _apply_braid_by_inverse(cls, letters, linear):
    """apply_braid as a negative letter was once applied: by Mat.inverse."""
    coords = cls.coords
    for let in reversed(letters):
        m = action_matrix_reduced(linear, let.i, let.j)
        coords = (m.inverse() if let.sign < 0 else m).apply(coords)
    return ProjClass(cls.n, coords)


@pytest.mark.parametrize(
    "lams, tau",
    [
        (((12, 1), (12, 5), (12, 3), (12, 3)), (0, 1, 2)),
        (((60, 1), (60, 29), (60, 11), (60, 19)), (0, 1, 2)),
        (((6, 1), (6, 1), (6, 1), (6, 1), (6, 2)), (0, 1, 2, 5)),
    ],
)
def test_apply_braid_negative_letters_match_mat_inverse(lams, tau):
    lp = LinearPart(tuple(_z(*x) for x in lams))
    cls, _ = normalize(AffineRep(lp, tuple(cyc(t) for t in tau)))
    pairs = [(i, j) for i in range(1, lp.n - 1) for j in range(i + 1, lp.n)]
    rng = random.Random(len(lams))
    for _ in range(6):
        letters = [PureLetter(*rng.choice(pairs), rng.choice((1, -1))) for _ in range(5)]
        assert apply_braid(cls, letters, lp) == _apply_braid_by_inverse(cls, letters, lp)
    for i, j in pairs:
        there_and_back = [PureLetter(i, j, -1), PureLetter(i, j, 1)]
        assert apply_braid(cls, there_and_back, lp) == cls


def test_apply_braid_rejects_a_letter_outside_the_linear_part():
    lp, _ = tetra_linear()
    cls, _ = normalize(AffineRep(lp, (ZERO, ONE, cyc(2))))
    with pytest.raises(IndexError, match=r"got \(2,4\), n=4"):
        apply_braid(cls, [PureLetter(2, 4)], lp)
