import math
import random

import pytest

from braidorbit.charvar import (
    AffineRep,
    LinearPart,
    ProjClass,
    action_matrix_reduced,
    normalize,
    orbit,
)
from braidorbit.classify import (
    GateVerdict,
    NotFiniteCase,
    _projective_closure,
    classify_n4,
    gate,
    match_table_family,
    p_value,
    table_rows,
    trace_squares,
)
from braidorbit.cyclo import cyc, order_of_root, zeta

ONE = cyc(1)
ZERO = cyc(0)


def lp(*xs):
    return LinearPart(tuple(xs))


def test_p_value_examples():
    assert p_value(lp(1, 1, 1, 1)) == 4
    e = zeta(12, 1)
    assert p_value(lp(e, e**5, e**3, e**3)) == 2
    h = zeta(24, 1)
    assert p_value(lp(h, h**5, h**7, h**11)) == 3


def test_p_value_identity_random():
    rng = random.Random(13)
    for _ in range(30):
        while True:
            xs = [zeta(rng.choice([2, 3, 4, 5, 6, 12]), rng.randrange(1, 12)) for _ in range(3)]
            prod = xs[0] * xs[1] * xs[2]
            xs.append(prod.inverse())
            try:
                l4 = lp(*xs)
                break
            except ValueError:
                continue
        p = p_value(l4)
        check = cyc(4)
        acc = ONE
        for x in l4.lambdas:
            acc = acc * (ONE - x)
        assert p == check + acc


def test_classify_reducible():
    z = zeta(5, 1)
    assert classify_n4(lp(1, 1, z, z.inverse())).tag == "reducible"


def test_classify_imprimitive():
    a = zeta(5, 1)
    c = classify_n4(lp(a, -a.inverse(), -a.inverse(), a))
    assert c.tag == "imprimitive-finite"
    assert c.dihedral_order == 5
    # all-traces-zero dihedral case: a of order 4
    b = zeta(4, 1)
    c2 = classify_n4(lp(b, -b.inverse(), -b.inverse(), b))
    assert c2.tag == "imprimitive-finite" and c2.dihedral_order == 2


def test_classify_imprimitive_infinite():
    # 3+4i/5 is unit-norm but not a root of unity
    a = (cyc(3) + cyc(4) * zeta(4, 1)) / 5
    assert order_of_root(a) is None
    c = classify_n4(lp(a, -a.inverse(), -a.inverse(), a))
    assert c.tag == "imprimitive-infinite"


def test_classify_platonic():
    e = zeta(12, 1)
    assert classify_n4(lp(e, e**5, e**3, e**3)).tag == "tetrahedral"
    z = zeta(6, 1)
    assert classify_n4(lp(-ONE, z, z, z)).tag == "tetrahedral"
    h = zeta(24, 1)
    assert classify_n4(lp(h, h**5, h**7, h**11)).tag == "octahedral"
    assert classify_n4(lp(e, -e, e**2, e**2)).tag == "octahedral"
    a = zeta(60, 1)
    assert classify_n4(lp(a, a**29, a**11, a**19)).tag == "icosahedral"
    g = zeta(30, 1)
    assert classify_n4(lp(g**9, g**9, g, g**11)).tag == "icosahedral"


def test_classify_zariski_dense():
    w = zeta(3, 1)
    z6 = zeta(6, 1)
    c = classify_n4(lp(z6, z6.inverse(), w, w * w))
    assert c.tag == "zariski-dense"


def test_classify_invariances():
    # permutation invariance and Galois stability inside the finite cases
    import itertools

    e = zeta(12, 1)
    base = (e, e**5, e**3, e**3)
    tags = {classify_n4(lp(*perm)).tag for perm in itertools.permutations(base)}
    assert tags == {"tetrahedral"}
    for k in (5, 7, 11):
        gal = tuple(x.galois(k) for x in base)
        assert classify_n4(lp(*gal)).tag == "tetrahedral"
    a = zeta(60, 1)
    ico = (a, a**29, a**11, a**19)
    for k in (7, 13, 49):
        gal = tuple(x.galois(k) for x in ico)
        assert classify_n4(lp(*gal)).tag == "icosahedral"


# ---- gate -------------------------------------------------------------------


def test_gate_zero_class():
    e = zeta(12, 1)
    l4 = lp(e, e**5, e**3, e**3)
    v = gate(l4, ProjClass(4, (ZERO, ZERO)))
    assert v.kind == "zero-class" and v.size == 1


def test_gate_index2_power_law():
    a = zeta(4, 1)
    l6 = lp(a, 1, 1, 1, 1, a.inverse())
    rep = AffineRep(l6, (ZERO, ONE, ONE, ONE, ZERO))
    v = gate(rep)
    assert v.kind == "finite" and v.size == 16
    # matches BFS
    cls, _ = normalize(rep)
    assert orbit(cls, l6, bound=100).size == 16


def test_gate_index2_fixed_point():
    a = zeta(4, 1)
    l5 = lp(a, 1, 1, 1, a.inverse())
    rep = AffineRep(l5, (ZERO, ONE, ZERO, ZERO))
    v = gate(rep)
    assert v.kind == "finite" and v.size == 1


def test_gate_index2_irrational():
    a = (cyc(3) + cyc(4) * zeta(4, 1)) / 5
    l4 = lp(a, 1, 1, a.inverse())
    rep = AffineRep(l4, (ZERO, ONE, ONE))
    assert gate(rep).kind == "infinite"


def test_gate_index3():
    w = zeta(3, 1)
    l5 = lp(1, 1, w, w, w)
    # Lemma-style fixed point: tau = (0,...,0,-a2,1) with a2 the middle one
    rep = AffineRep.from_full_tau(l5, (ZERO, ZERO, ZERO, -w, ONE))
    v = gate(rep)
    assert v.kind == "finite" and v.size == 1
    # nonzero translation on a trivial puncture: infinite
    rep2 = AffineRep.from_full_tau(l5, (ONE, -ONE, ZERO, -w, ONE))
    assert gate(rep2).kind == "infinite"
    # the zero conditions leave a single non-abelian class: the fixed point
    rep3 = AffineRep(l5, (ZERO, ZERO, ONE, cyc(2)))
    assert gate(rep3).kind == "finite" and gate(rep3).size == 1
    assert normalize(rep3)[0] == normalize(rep)[0]


def test_gate_degenerate_recursion():
    # iota = 4 inside n = 6: recurse onto the 4-puncture table
    e = zeta(12, 1)
    l6 = lp(1, e, 1, e**5, e**3, e**3)
    tau = (ZERO, ONE, ZERO, ONE, ONE)
    rep = AffineRep(l6, tau)
    v = gate(rep)
    assert v.kind == "finite-bounded" and v.size == 12
    # with a nonzero tau on a trivial puncture: infinite
    rep2 = AffineRep(l6, (ONE, ONE, ZERO, ONE, ONE))
    assert gate(rep2).kind == "infinite"


def test_gate_n4_infinite_imprimitive_two_orbit():
    a = (cyc(3) + cyc(4) * zeta(4, 1)) / 5
    l4 = lp(a, -a.inverse(), -a.inverse(), a)
    fam_rep = AffineRep.from_full_tau(l4, (ZERO, ONE, a, ZERO))
    cls, _ = normalize(fam_rep)
    v = gate(l4, cls)
    assert v.kind == "finite" and v.size == 2
    other = AffineRep(l4, (ZERO, ONE, cyc(7)))
    assert gate(other).kind == "infinite"


def test_gate_n5_n6_families():
    z = zeta(6, 1)
    good5 = lp(z, z, z, z, z * z)
    rep = AffineRep(good5, (ZERO, ONE, cyc(2), cyc(3)))
    v = gate(rep)
    assert v.kind == "finite-bounded" and v.size == 216
    w = zeta(3, 1)
    bad5 = lp(w, w, w, w, w * w)
    assert gate(AffineRep(bad5, (ZERO, ONE, ONE, ONE))).kind == "infinite"
    good6 = lp(z, z, z, z, z, z)
    v6 = gate(AffineRep(good6, (ZERO, ONE, ONE, ONE, ONE)))
    assert v6.kind == "finite-bounded" and v6.size == 25920
    bad6 = lp(w, w, w, w, w, w)
    assert gate(AffineRep(bad6, (ZERO, ONE, ONE, ONE, ONE))).kind == "infinite"


def test_gate_n7_infinite():
    z = zeta(6, 1)
    w = zeta(3, 1)
    l7 = lp(z, z, z, z, z, w, z**5)
    assert l7.iota() == 7
    assert gate(AffineRep(l7, (ZERO,) + (ONE,) * 5)).kind == "infinite"


# ---- tables ------------------------------------------------------------------


def test_table_rows_tetrahedral():
    e = zeta(12, 1)
    fam = table_rows(lp(e, e**5, e**3, e**3))
    assert fam.name == "tetrahedral-12"
    assert [r.size for r in fam.rows] == [4, 4, 6]
    assert fam.generic_size == 12
    for row in fam.rows:
        cls, _ = normalize(row.rep)
        assert orbit(cls, row.rep.linear, bound=50).size == row.size


def test_table_rows_imprimitive():
    a = zeta(10, 1)
    fam = table_rows(lp(a, -a.inverse(), -a.inverse(), a))
    assert [r.size for r in fam.rows] == [2, 5, 5]
    assert fam.generic_size == 10
    for row in fam.rows:
        cls, _ = normalize(row.rep)
        assert orbit(cls, row.rep.linear, bound=50).size == row.size


def test_table_rows_rejects_infinite():
    w = zeta(3, 1)
    z6 = zeta(6, 1)
    with pytest.raises(NotFiniteCase):
        table_rows(lp(z6, z6.inverse(), w, w * w))


def test_derived_rows_for_permuted_family():
    # permuted tetrahedral tuple: no literal table match, derived path
    e = zeta(12, 1)
    l4 = lp(e**3, e, e**5, e**3)
    assert match_table_family(l4) is None
    fam = table_rows(l4)
    sizes = sorted({r.size for r in fam.rows})
    assert sizes == [4, 6]
    for row in fam.rows:
        cls, _ = normalize(row.rep)
        assert orbit(cls, row.rep.linear, bound=50).size == row.size


# ---- the projective closure against an object search -------------------------

# the linear parts of Tables 1-3 as (sign, N, k), meaning sign * zeta_N^k,
# and the permuted tetrahedral one, which takes the derived path
CLOSURE_CASES = {
    "imprimitive-10": ((1, 10, 1), (-1, 10, 9), (-1, 10, 9), (1, 10, 1)),
    "imprimitive-8": ((1, 8, 1), (-1, 8, 7), (-1, 8, 7), (1, 8, 1)),
    "tetrahedral-12": ((1, 12, 1), (1, 12, 5), (1, 12, 3), (1, 12, 3)),
    "tetrahedral-6": ((-1, 1, 0), (1, 6, 1), (1, 6, 1), (1, 6, 1)),
    "octahedral-24": ((1, 24, 1), (1, 24, 5), (1, 24, 7), (1, 24, 11)),
    "octahedral-12": ((1, 12, 1), (-1, 12, 1), (1, 12, 2), (1, 12, 2)),
    "icosahedral-60": ((1, 60, 1), (1, 60, 29), (1, 60, 11), (1, 60, 19)),
    "icosahedral-20": ((1, 20, 1), (1, 20, 9), (1, 20, 7), (1, 20, 3)),
    "icosahedral-30a": ((1, 30, 9), (1, 30, 9), (1, 30, 1), (1, 30, 11)),
    "icosahedral-30b": ((1, 30, 5), (1, 30, 5), (1, 30, 1), (1, 30, 19)),
    "icosahedral-15": ((1, 15, 1), (1, 15, 4), (1, 15, 2), (1, 15, 8)),
    "icosahedral-5": ((-1, 5, 1), (-1, 5, 1), (-1, 5, 1), (-1, 5, 2)),
    "tetrahedral-permuted": ((1, 12, 3), (1, 12, 1), (1, 12, 5), (1, 12, 3)),
}


def _closure_by_object_bfs(gens, bound):
    """The projective closure as a BFS over Mat objects (the reference).

    Each matrix is scaled to first nonzero entry 1 and keyed by its
    entries' coefficients at the lcm of the generators' conductors.
    """
    conductor = 1
    for g in gens:
        for e in g.entries:
            conductor = math.lcm(conductor, e.n)

    def canon(m):
        pivot = next(e for e in m.entries if not e.is_zero())
        return m.scale(pivot.inverse())

    def key(m):
        return tuple((p.den, p.num) for p in (e.promote(conductor) for e in m.entries))

    gens = [canon(g) for g in gens] + [canon(g.inverse()) for g in gens]
    found = [canon(gens[0] @ gens[0].inverse())]
    seen = {key(found[0])}
    for m in found:
        for g in gens:
            image = canon(g @ m)
            if key(image) not in seen:
                seen.add(key(image))
                found.append(image)
                assert len(found) <= bound
    return found


@pytest.mark.parametrize("name", list(CLOSURE_CASES))
def test_projective_closure_matches_object_bfs(name):
    linear = lp(*((sign * zeta(n, k)) for sign, n, k in CLOSURE_CASES[name]))
    gens = [action_matrix_reduced(linear, 2, 3), action_matrix_reduced(linear, 1, 2)]
    got = _projective_closure(gens, 200)
    want = _closure_by_object_bfs(gens, 200)
    # a free action on the generic orbit: the group's order is its size
    assert len(got) == classify_n4(linear).generic_orbit_size()
    # the same matrices in the same order, with the same stored conductors
    assert [[(e.n, e.num, e.den) for e in m.entries] for m in got] == [
        [(e.n, e.num, e.den) for e in m.entries] for m in want
    ]
