"""Finiteness classification of braid orbits from the linear part.

For four punctures the projective action group is generated by two
elements of PGL_2, and the trace calculus of SL_2 triples decides the
group type (reducible / dihedral / tetrahedral / octahedral /
icosahedral / Zariski dense).  For more punctures, merging punctures
reduces everything to the four-puncture case plus two exceptional
families with six-th-root linear parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .charvar import (
    AffineRep,
    LinearPart,
    ProjClass,
    action_matrix_reduced,
    normalize,
)
from .cyclo import Cyclotomic, cyc, order_of_root, sqrt_of_root, zeta
from .kernel import BoundExceeded, bfs
from .linalg import mat_parallel

ONE = cyc(1)
ZERO = cyc(0)


class NotFiniteCase(ValueError):
    pass


# squares of the golden-ratio trace values, as exact cyclotomics
MU1 = ONE + zeta(5, 1) + zeta(5, 4)  # (1+sqrt5)/2
MU2 = zeta(5, 1) + zeta(5, 4)  # (sqrt5-1)/2
MU1_SQ = MU1 + 1
MU2_SQ = 2 - MU1


def pair_products(lp):
    """u_i = lambda_j * lambda_k for {i,j,k} = {1,2,3}."""
    l1, l2, l3 = lp.lambdas[0], lp.lambdas[1], lp.lambdas[2]
    return (l2 * l3, l1 * l3, l1 * l2)


def trace_squares(lp):
    """t_i^2 = u_i + 2 + u_i^-1, avoiding any square-root choice."""
    return tuple(u + 2 + u.inverse() for u in pair_products(lp))


def trace_triple(lp):
    """Traces t_i = s_j s_k + 1/(s_j s_k), s_i the square root of lambda_i.

    The square roots of equal inputs coincide, which is the only
    constraint the sign convention has to satisfy.
    """
    r = [sqrt_of_root(x) for x in lp.lambdas[:3]]
    out = []
    for j, k in ((1, 2), (0, 2), (0, 1)):
        s = r[j] * r[k]
        out.append(s + s.inverse())
    return tuple(out)


def p_value(lp):
    """P(lambda) = t1^2+t2^2+t3^2 - t1 t2 t3 = 4 + prod(1 - lambda_i)."""
    if lp.n != 4:
        raise ValueError("p_value is defined for four punctures")
    prod = ONE
    for x in lp.lambdas:
        prod = prod * (ONE - x)
    p = cyc(4) + prod
    if lp.is_root_of_unity_part():
        t1, t2, t3 = trace_triple(lp)
        # sign self-check: the product t1 t2 t3 is pinned by the sqrt rule
        assert t1 * t1 + t2 * t2 + t3 * t3 - t1 * t2 * t3 == p
    return p


@dataclass(frozen=True)
class N4Class:
    tag: str  # reducible | imprimitive-finite | imprimitive-infinite |
    #           tetrahedral | octahedral | icosahedral | zariski-dense
    p: Cyclotomic
    trace_squares: tuple[Cyclotomic, ...]
    dihedral_order: int | None = None  # ord(a^2) in the imprimitive-finite case

    def generic_orbit_size(self):
        if self.tag == "tetrahedral":
            return 12
        if self.tag == "octahedral":
            return 24
        if self.tag == "icosahedral":
            return 60
        if self.tag == "imprimitive-finite":
            return 2 * self.dihedral_order
        raise NotFiniteCase(self.tag)


def classify_n4(lp):
    if lp.n != 4:
        raise ValueError("classify_n4 needs four punctures")
    p = p_value(lp)
    tsq = trace_squares(lp)
    if p == 4:
        return N4Class("reducible", p, tsq)
    zero = [i for i, t in enumerate(tsq) if t.is_zero()]
    if len(zero) >= 2:
        if len(zero) == 3:
            return N4Class("imprimitive-finite", p, tsq, dihedral_order=2)
        k = next(i for i in range(3) if i not in zero)
        u = pair_products(lp)[k]
        m = order_of_root(u)
        if m is None:
            return N4Class("imprimitive-infinite", p, tsq)
        return N4Class("imprimitive-finite", p, tsq, dihedral_order=m)
    in01 = all(t == 0 or t == 1 for t in tsq)
    if p == 2 and in01:
        return N4Class("tetrahedral", p, tsq)
    in012 = all(t == 0 or t == 1 or t == 2 for t in tsq)
    if p == 3 and in012:
        return N4Class("octahedral", p, tsq)
    in_ico = all(t == 0 or t == 1 or t == MU1_SQ or t == MU2_SQ for t in tsq)
    if (p == 2 - MU2 or p == 3 or p == 2 + MU1) and in_ico:
        return N4Class("icosahedral", p, tsq)
    return N4Class("zariski-dense", p, tsq)


# ---- gate: the full finiteness decision tree -------------------------------


@dataclass(frozen=True)
class GateVerdict:
    kind: str  # finite | finite-bounded | infinite | zero-class | undetermined
    size: int | None
    reason: str
    rotation: int = 0

    @staticmethod
    def finite(size, reason, rotation=0):
        return GateVerdict("finite", size, reason, rotation)

    @staticmethod
    def bounded(size, reason, rotation=0):
        return GateVerdict("finite-bounded", size, reason, rotation)

    @staticmethod
    def infinite(reason, rotation=0):
        return GateVerdict("infinite", None, reason, rotation)


def _is_primitive_6th(x):
    return order_of_root(x) == 6


def _matches_n5_family(lams):
    # (z, z, z, z, z^2) up to permutation, z a primitive 6th root
    import itertools

    for perm in set(itertools.permutations(range(5))):
        p = [lams[i] for i in perm]
        z = p[0]
        if not _is_primitive_6th(z):
            continue
        if all(p[i] == z for i in range(4)) and p[4] == z * z:
            return True
    return False


def _matches_n6_family(lams):
    z = lams[0]
    return _is_primitive_6th(z) and all(x == z for x in lams)


def _imprimitive_two_orbit_class(lp):
    """The size-2 orbit in the irreducible imprimitive case, as eigenlines."""
    tsq = trace_squares(lp)
    k = next((i for i in range(3) if not tsq[i].is_zero()), None)
    m3 = action_matrix_reduced(lp, 1, 2)
    m1 = action_matrix_reduced(lp, 2, 3)
    mats = {0: m1, 1: m1 @ m3, 2: m3}
    if k is None:
        # all traces vanish: the order-2 orbit is fixed by the order-4 element
        from .linalg import projective_order

        for m in mats.values():
            if projective_order(m, 8) == 4:
                return m
        raise AssertionError("no order-4 element in the dihedral n=2 case")
    return mats[k]


def gate(rep_or_linear, cls=None, _rotation=0):
    """Finiteness verdict for a conjugacy class, from the theorem tree only.

    Accepts an AffineRep, or a LinearPart together with a ProjClass whose
    coordinates refer to the canonically rotated frame.
    """
    if isinstance(rep_or_linear, AffineRep):
        rep = rep_or_linear
    else:
        lp = rep_or_linear
        if cls is None:
            raise ValueError("gate needs a class when given a linear part")
        rot = 0
        lam = lp.lambdas
        if lam[0] == ONE and lp.iota() > 0:
            from .charvar import rotation_for_nontrivial_first

            rot = rotation_for_nontrivial_first(lp)
            lp = lp.rotated(rot)
        if cls.is_zero_class:
            return GateVerdict(
                "zero-class", 1, "class of homotheties: fixed by abelianity", rot
            )
        rep = AffineRep(lp, (ZERO,) + cls.coords)
        return gate(rep, _rotation=rot)

    lp = rep.linear
    n = lp.n
    iota = lp.iota()
    rot = _rotation

    if iota == 0:
        return GateVerdict.finite(1, "trivial linear part: translations commute", rot)

    cls0, extra_rot = normalize(rep)
    rot += extra_rot
    if cls0.is_zero_class:
        return GateVerdict("zero-class", 1, "class of homotheties: fixed point", rot)

    tau_full = rep.tau_full()
    trivial_positions = [i for i in range(n) if lp.lambdas[i] == ONE]

    if iota == 2:
        a = next(x for x in lp.lambdas if x != ONE)
        k = sum(1 for i in trivial_positions if not tau_full[i].is_zero())
        if k <= 1:
            return GateVerdict.finite(
                1, "index-2 linear part with at most one marked coordinate: fixed point", rot
            )
        w = order_of_root(a)
        if w is None:
            return GateVerdict.infinite(
                "index-2 linear part, scaling by a non-root of unity", rot
            )
        return GateVerdict.finite(
            w ** (k - 1),
            f"index-2 linear part: orbit rescales {k} coordinates by powers of an "
            f"order-{w} root",
            rot,
        )

    if any(not tau_full[i].is_zero() for i in trivial_positions):
        return GateVerdict.infinite(
            "a puncture with trivial linear part carries a nonzero translation; "
            "finite orbits require it to vanish",
            rot,
        )

    if iota == 3:
        return GateVerdict.finite(
            1, "index-3 linear part: the unique surviving class is a fixed point", rot
        )

    if iota < n:
        reduced_lam = tuple(lp.lambdas[i] for i in range(n) if i not in trivial_positions)
        reduced_tau = tuple(tau_full[i] for i in range(n) if i not in trivial_positions)
        sub = gate(AffineRep.from_full_tau(LinearPart(reduced_lam), reduced_tau), _rotation=rot)
        return GateVerdict(
            sub.kind, sub.size, "after deleting trivial punctures: " + sub.reason, rot
        )

    # iota == n from here on
    if n == 3:
        return GateVerdict.finite(1, "three punctures: a single class, fixed", rot)
    if n == 4:
        c = classify_n4(lp)
        if c.tag == "zariski-dense":
            return GateVerdict.infinite("Zariski-dense projective action", rot)
        if c.tag == "imprimitive-infinite":
            m = _imprimitive_two_orbit_class(lp)
            if mat_parallel(m.apply(cls0.coords), cls0.coords):
                return GateVerdict.finite(
                    2, "imprimitive action: the two poles form the unique finite orbit", rot
                )
            return GateVerdict.infinite(
                "imprimitive action with infinite rotation group", rot
            )
        if c.tag == "reducible":
            raise AssertionError("unreachable: reducible implies iota < 4")
        return GateVerdict.bounded(
            c.generic_orbit_size(),
            f"finite projective action of type {c.tag}: every orbit is bounded by "
            f"the generic size",
            rot,
        )
    if n == 5:
        if _matches_n5_family(lp.lambdas):
            return GateVerdict.bounded(
                216, "five punctures, sixth-root family: order-648 reflection action", rot
            )
        return GateVerdict.infinite("five punctures outside the sixth-root family", rot)
    if n == 6:
        if _matches_n6_family(lp.lambdas):
            return GateVerdict.bounded(
                25920, "six punctures, equal sixth-root family: order-155520 action", rot
            )
        return GateVerdict.infinite("six punctures outside the equal sixth-root family", rot)
    return GateVerdict.infinite("seven or more punctures admit no finite orbit", rot)


# ---- the four-puncture orbit tables -----------------------------------------


def _root_with_power(target, e, order):
    """Deterministic beta with beta^e = target and ord(beta) = order."""
    for m in range(1, order + 1):
        if gcd(m, order) != 1:
            continue
        b = zeta(order, m)
        if b**e == target:
            return b
    raise ValueError("no root of the requested order and power")


@dataclass(frozen=True)
class TableRow:
    rep: AffineRep
    size: int
    label: str


@dataclass(frozen=True)
class TableFamily:
    name: str
    rows: tuple[TableRow, ...]
    generic_size: int


def _family(lp, name, taus_sizes, generic):
    rows = []
    for idx, (tau4, size) in enumerate(taus_sizes):
        rep = AffineRep.from_full_tau(lp, tuple(cyc(t) for t in tau4))
        rows.append(TableRow(rep, size, f"{name}-{idx}"))
    return TableFamily(name, tuple(rows), generic)


def match_table_family(lp):
    """The frozen orbit table for a linear part that matches one exactly."""
    if lp.n != 4:
        return None
    l = lp.lambdas
    o = lp.orders()

    # imprimitive (a, -1/a, -1/a, a)
    a = l[0]
    if o[0] is not None and a * a != ONE:
        b = -a.inverse()
        if l == (a, b, b, a):
            m = order_of_root(a * a)
            if m is not None:
                if m % 2 == 0:
                    third = ((0, 1, 0, -a * a), m)
                else:
                    third = ((0, 2, 1 + a, a - a * a), m)
                return _family(
                    lp,
                    "imprimitive",
                    [((0, 1, a, 0), 2), ((0, 0, 1, a), m), third],
                    2 * m,
                )

    e = l[0]
    if o[0] == 12 and l == (e, e**5, e**3, e**3):
        return _family(
            lp,
            "tetrahedral-12",
            [
                ((e**3, 0, 0, 1), 4),
                ((0, e**5, -1, 0), 4),
                ((0, 0, e**3, -1), 6),
            ],
            12,
        )
    z = l[1]
    if l[0] == -ONE and o[1] == 6 and l == (-ONE, z, z, z):
        h = sqrt_of_root(z)
        return _family(
            lp,
            "tetrahedral-6",
            [
                ((0, 0, z, -1), 4),
                ((0, 1 - z * z, z, z), 4),
                ((0, 1, z + h, z * z * h + z - 1), 6),
            ],
            12,
        )
    if o[0] == 24 and l == (e, e**5, e**7, e**11):
        return _family(
            lp,
            "octahedral-24",
            [((0, 0, 1, e**5), 6), ((0, 1, 0, 1), 8), ((e, 0, 0, 1), 12)],
            24,
        )
    if o[0] == 12 and l == (e, -e, e**2, e**2):
        v = sqrt_of_root(e)
        return _family(
            lp,
            "octahedral-12",
            [
                ((e**4, 0, 0, 1), 6),
                ((0, 0, e**2, -1), 8),
                ((0, v + e**3, v.inverse(), 1), 12),
            ],
            24,
        )
    if o[0] == 60 and l == (e, e**29, e**11, e**19):
        return _family(
            lp,
            "icosahedral-60",
            [((0, 1, 0, e**50), 12), ((1, 0, 0, e**49), 20), ((0, 0, 1, e**19), 30)],
            60,
        )
    if o[0] == 20 and l == (e, e**9, e**7, e**3):
        b = _root_with_power(e, 3, 60)
        return _family(
            lp,
            "icosahedral-20",
            [
                ((e**12, 0, 0, e**5), 12),
                ((0, b + e**5 + e**2 + e, 1 + e**3, (b + e) * (1 - e**3 * b)), 20),
                ((0, 0, e**17, 1), 30),
            ],
            60,
        )
    g = l[2]
    if o[2] == 30 and l == (g**9, g**9, g, g**11):
        b = _root_with_power(g, 2, 60)
        return _family(
            lp,
            "icosahedral-30a",
            [
                ((0, 0, g**16, 1), 12),
                ((g**10, 0, 0, g**6), 20),
                (
                    (
                        0,
                        (g + 1) * (g**11 + 1),
                        b + g**14 - g**5 + g**4,
                        (b + 1) * g**14 + g**4,
                    ),
                    30,
                ),
            ],
            60,
        )
    if o[2] == 30 and l == (g**5, g**5, g, g**19):
        b = _root_with_power(g, 2, 60)
        return _family(
            lp,
            "icosahedral-30b",
            [
                ((g**11, 0, 0, -1), 12),
                ((0, 0, 1, g**14), 20),
                ((0, 1, g**5 * (1 + b), g**4 * (g**10 - b)), 30),
            ],
            60,
        )
    if o[0] == 15 and l == (e, e**4, e**2, e**8):
        b = _root_with_power(e, 4, 60)
        return _family(
            lp,
            "icosahedral-15",
            [
                ((e**12, 0, 0, -(e**5)), 12),
                ((0, 0, e**2, -1), 20),
                (
                    (
                        0,
                        b**56 + b**13 + b**12 + b**8 - b**6 - b**2,
                        1 + b**22,
                        b**19 + b**18 - b**8,
                    ),
                    30,
                ),
            ],
            60,
        )
    a5 = -l[0]
    if order_of_root(a5) == 5 and l == (-a5, -a5, -a5, -(a5 * a5)):
        b = _root_with_power(a5, 12, 60)
        gm = b * b
        return _family(
            lp,
            "icosahedral-5",
            [
                ((0, 0, a5, 1), 12),
                ((0, gm**5 + gm**4 - 1, gm**4 + gm - a5, a5 * gm - gm**5), 20),
                ((0, b**11 + b**9 - b, b**9 - 1, a5 * (b**6 + b**3)), 30),
            ],
            60,
        )
    return None


def table_rows(lp):
    """Special-orbit representatives and predicted sizes for a finite n=4 case."""
    c = classify_n4(lp)
    if c.tag not in ("imprimitive-finite", "tetrahedral", "octahedral", "icosahedral"):
        raise NotFiniteCase(f"no finite orbit table for tag {c.tag}")
    fam = match_table_family(lp)
    if fam is not None:
        return fam
    rows = tuple(
        TableRow(rep, size, f"derived-{i}")
        for i, (rep, size) in enumerate(_derived_rows(lp, c))
    )
    return TableFamily("derived", rows, c.generic_orbit_size())


def _derived_rows(lp, c):
    """Fixed-point representatives computed from the projective group.

    Every element of the finite projective group has root-of-unity
    eigenvalues up to the (root-of-unity) scalar it generates, so
    eigenlines can be found exactly by scanning k-th roots of the scalar
    produced by the element's projective order.
    """
    from .linalg import eigenspace, projective_order

    m3 = action_matrix_reduced(lp, 1, 2)
    m1 = action_matrix_reduced(lp, 2, 3)
    group = _projective_closure([m1, m3], bound=200)
    order = len(group)
    out = []
    seen = set()
    for g in group:
        if g.is_scalar():
            continue
        for v in _eigenlines_finite(g):
            cls = ProjClass(4, v)
            key = cls.key(lp.conductor() * 60)
            if key in seen:
                continue
            seen.add(key)
            stab = sum(
                1 for h in group if mat_parallel(h.apply(cls.coords), cls.coords)
            )
            out.append((AffineRep(lp, (ZERO,) + cls.coords), order // stab))
    out.sort(key=lambda pair: pair[1])
    return out


def _eigenlines_finite(m, max_order=5):
    """Eigenlines of a matrix of small finite projective order with
    cyclotomic entries, assuming the scalar m^k is a root of unity."""
    from .linalg import eigenspace, projective_order

    k = projective_order(m, max_order)
    if k is None:
        return []
    power = m
    for _ in range(k - 1):
        power = power @ m
    scalar = power[0, 0]
    s_ord = order_of_root(scalar)
    if s_ord is None:
        return []
    a = next(t for t in range(s_ord) if scalar == zeta(s_ord, t))
    lines = []
    for t in range(k):
        mu = zeta(k * s_ord, a + s_ord * t)
        for v in eigenspace(m, mu):
            lines.append(tuple(v))
    return lines


def _projective_closure(gens, bound):
    """Closure of 2x2 matrices up to scalar, by canonical rescaling."""
    def canon(m):
        pivot = next(e for e in m.entries if not e.is_zero())
        inv = pivot.inverse()
        return m.scale(inv)

    from math import lcm

    conductor = 1
    for g in gens:
        for e in g.entries:
            conductor = lcm(conductor, e.n)
    conductor = lcm(conductor, 4)

    def key(m):
        return tuple(e.key_at(conductor * 5) for e in m.entries)

    gens = [canon(g) for g in gens] + [canon(g.inverse()) for g in gens]
    start = canon(gens[0] @ gens[0].inverse())
    try:
        return bfs(start, lambda m: (canon(g @ m) for g in gens), bound, key=key)
    except BoundExceeded as exc:
        raise NotFiniteCase("projective closure exceeded bound") from exc
