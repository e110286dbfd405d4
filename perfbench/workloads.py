"""The benchmark's workloads: seeded inputs, set-up and timed operations.

Each workload draws its inputs from the seed alone (`draw`), builds what
its operations need (`setup`, counted in setup_s) and returns the timed
operations (`ops`).  Every operation returns an observed value that is
compared with the source paper's number; the expected values live here,
not in the package, so a wrong answer from the program shows as a
failed operation.

The seed only moves start points inside their orbit or stratum (a
pure-braid word, a group element, a translated pole configuration), so
every expected size is the same for every seed and the work done by a
pass barely changes with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from braidorbit import charvar, classify, connect, kernel, reflgrp
from braidorbit.braid import PureLetter
from braidorbit.charvar import AffineRep, LinearPart
from braidorbit.cyclo import cyc, zeta

ZERO = cyc(0)


class BoundExceeded(RuntimeError):
    pass


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    expected: object
    rows: int = 0  # orbit sizes this operation verifies by BFS


def _pure_word(rng, n, length):
    """A random word in the pure-braid letters that act on n punctures."""
    pairs = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n)]
    return tuple((*rng.choice(pairs), rng.choice((1, -1))) for _ in range(length))


def _move(rep, word):
    """The same conjugacy class moved along a pure-braid word."""
    cls, rot = charvar.normalize(rep)
    linear = rep.linear.rotated(rot) if rot else rep.linear
    letters = [PureLetter(i, j, s) for i, j, s in word]
    moved = charvar.apply_braid(cls, letters, linear)
    return AffineRep(linear, (ZERO,) + moved.coords)


def _bfs_size(rep, bound):
    """Orbit size of a representation's class, as `braidorbit orbit` finds it."""
    cls, rot = charvar.normalize(rep)
    linear = rep.linear.rotated(rot) if rot else rep.linear
    res = charvar.orbit(cls, linear, bound=bound)
    if res.exceeded_bound:
        raise BoundExceeded(f"orbit passed its bound of {bound} points")
    return res.size


# ---- n4-tables ---------------------------------------------------------------

# (family, lambdas as (sign, N, k) meaning sign * zeta_N^k,
#  special orbit sizes in table order, generic orbit size)
ICOSAHEDRAL = (12, 20, 30)
N4_FAMILIES = (
    # Table 1
    ("imprimitive-10", ((1, 10, 1), (-1, 10, 9), (-1, 10, 9), (1, 10, 1)), (2, 5, 5), 10),
    ("imprimitive-8", ((1, 8, 1), (-1, 8, 7), (-1, 8, 7), (1, 8, 1)), (2, 4, 4), 8),
    # Table 2
    ("tetrahedral-12", ((1, 12, 1), (1, 12, 5), (1, 12, 3), (1, 12, 3)), (4, 4, 6), 12),
    ("tetrahedral-6", ((-1, 1, 0), (1, 6, 1), (1, 6, 1), (1, 6, 1)), (4, 4, 6), 12),
    ("octahedral-24", ((1, 24, 1), (1, 24, 5), (1, 24, 7), (1, 24, 11)), (6, 8, 12), 24),
    ("octahedral-12", ((1, 12, 1), (-1, 12, 1), (1, 12, 2), (1, 12, 2)), (6, 8, 12), 24),
    # Table 3
    ("icosahedral-60", ((1, 60, 1), (1, 60, 29), (1, 60, 11), (1, 60, 19)), ICOSAHEDRAL, 60),
    ("icosahedral-20", ((1, 20, 1), (1, 20, 9), (1, 20, 7), (1, 20, 3)), ICOSAHEDRAL, 60),
    ("icosahedral-30a", ((1, 30, 9), (1, 30, 9), (1, 30, 1), (1, 30, 11)), ICOSAHEDRAL, 60),
    ("icosahedral-30b", ((1, 30, 5), (1, 30, 5), (1, 30, 1), (1, 30, 19)), ICOSAHEDRAL, 60),
    ("icosahedral-15", ((1, 15, 1), (1, 15, 4), (1, 15, 2), (1, 15, 8)), ICOSAHEDRAL, 60),
    ("icosahedral-5", ((-1, 5, 1), (-1, 5, 1), (-1, 5, 1), (-1, 5, 2)), ICOSAHEDRAL, 60),
)


def _lambda(sign, n, k):
    return zeta(n, k) if sign > 0 else -zeta(n, k)


class N4Tables:
    """Tables 1-3: 48 rows, each verified by orbit BFS at conductors 5-60."""

    name = "n4-tables"

    def __init__(self, families=N4_FAMILIES):
        self.families = families

    def draw(self, rng):
        # one word per special row plus one for the generic row
        return tuple(
            tuple(_pure_word(rng, 4, 4) for _ in range(len(special) + 1))
            for _, _, special, _ in self.families
        )

    def setup(self, inputs):
        self.cases = []
        for (fam_name, lams, special, generic), words in zip(self.families, inputs):
            lp = LinearPart(tuple(_lambda(*x) for x in lams))
            fam = classify.table_rows(lp)
            starts = [_move(row.rep, w) for row, w in zip(fam.rows, words)]
            self.cases.append((fam_name, lp, special, generic, starts, words[-1]))
        return []

    def ops(self):
        out = []
        for fam_name, lp, special, generic, starts, generic_word in self.cases:
            out.append(Op(f"table_rows:{fam_name}", _table_sizes(lp), (special, generic)))
            for k, (start, size) in enumerate(zip(starts, special)):
                out.append(Op(f"orbit:{fam_name}-{k}", _sized(start, 2 * size), size, rows=1))
            out.append(
                Op(f"generic:{fam_name}", _generic(lp, generic, generic_word), generic, rows=1)
            )
        return out


def _table_sizes(lp):
    def run():
        fam = classify.table_rows(lp)
        return tuple(row.size for row in fam.rows), fam.generic_size

    return run


def _sized(rep, bound):
    return lambda: _bfs_size(rep, bound)


def _generic(lp, generic, word):
    """Search tau = (0, 1, c) for a generic orbit, then verify it from a moved start."""

    def run():
        for c in range(2, 30):
            rep = AffineRep(lp, (ZERO, cyc(1), cyc(c)))
            cls, rot = charvar.normalize(rep)
            linear = lp.rotated(rot) if rot else lp
            if charvar.orbit(cls, linear, bound=generic + 1).size == generic:
                return _bfs_size(_move(rep, word), 2 * generic)
        raise RuntimeError("no generic representative with c < 30")

    return run


# ---- n6-orbit ------------------------------------------------------------------


class N6Orbit:
    """The sixth-root families: n=5 generic orbit (216) and n=6 orbit (2880)."""

    name = "n6-orbit"
    # (label, lambdas as powers of z6, tau, orbit size)
    CASES = (
        ("n5-generic", (1, 1, 1, 1, 2), (0, 1, 2, 5), 216),
        ("n6", (1, 1, 1, 1, 1, 1), (0, 2, 1, 1, 0), 2880),
    )

    def draw(self, rng):
        return tuple(_pure_word(rng, len(lams), 6) for _, lams, _, _ in self.CASES)

    def setup(self, inputs):
        z6 = zeta(6, 1)
        self.starts = []
        for (label, lams, tau, size), word in zip(self.CASES, inputs):
            rep = AffineRep(LinearPart(tuple(z6**k for k in lams)), tuple(cyc(t) for t in tau))
            self.starts.append((label, _move(rep, word), size))
        return []

    def ops(self):
        return [
            Op(f"orbit:{label}", _sized(start, 2 * size), size, rows=1)
            for label, start, size in self.starts
        ]


# ---- reflection-groups -------------------------------------------------------------

# Table 4: (case, orbit size, reflection hyperplanes, proper planes)
G25_TABLE4 = (
    ("order-9-line", 72, 0, 0),
    ("order-12-line", 54, 0, 1),
    ("line-on-2-planes", 12, 2, 3),
    ("line-on-4-planes", 9, 4, 0),
    ("plane-and-proper", 36, 1, 1),
    ("generic-in-plane", 72, 1, 0),
    ("generic-on-proper", 108, 0, 1),
    ("generic", 216, 0, 0),
)
G25_COUNTS = (648, 24, 12, 9)  # order, reflections, hyperplanes, proper planes
G32_HYPERPLANES = 40
G32_PROPER_PLANES = 540


def _g25_points(group):
    """One named representative per Table-4 stratum.

    The order-54 row uses the regular order-12 eigenline derived from
    R1 R2^2 R3 (as `braidorbit tables --which 4` does): the printed
    [0 : w : 1] lies on the reflection plane x = 0 and stratifies in the
    36-orbit.
    """
    nu = zeta(9, 1)
    rep54, _ = reflgrp.g25_order12_representative(group)
    return (
        (nu, nu**2, cyc(1)),
        rep54,
        (cyc(1), ZERO, ZERO),
        (cyc(1), cyc(-1), ZERO),
        (cyc(1), cyc(1), ZERO),
        (cyc(1), cyc(2), ZERO),
        (cyc(1), cyc(1), cyc(3)),
        (cyc(1), cyc(2), cyc(5)),
    )


class ReflectionGroups:
    """G25 built in set-up; Table-4 strata, scans and G32 orbits timed."""

    name = "reflection-groups"

    def draw(self, rng):
        return {
            "strata_elements": tuple(rng.randrange(G25_COUNTS[0]) for _ in G25_TABLE4),
            "g25_hyperplane": rng.randrange(12),
            "g32_hyperplane": rng.randrange(G32_HYPERPLANES),
            "g32_plane_word": tuple(rng.randrange(4) for _ in range(3)),
        }

    def setup(self, inputs):
        g25 = reflgrp.build_g25()
        self.g25 = g25
        self.ring = kernel.ring_params(3)
        checks = [
            ("g25:counts", (g25.order, len(g25.reflections), len(g25.hyperplanes),
                            len(g25.proper_planes)), G25_COUNTS),
        ]
        self.points = []
        for point, idx in zip(_g25_points(g25), inputs["strata_elements"]):
            g = kernel.from_blob_matrix(g25.elements[idx], 3, 3)
            self.points.append(g.apply(tuple(cyc(x) for x in point)))

        def dual(gens):
            return [kernel.to_blob_matrix(g.inverse().transpose(), 3) for g in gens]

        self.g25_dual = dual(g25.generators)
        self.g25_normal = kernel.to_blob_vector(
            reflgrp.g25_hyperplane_normals()[inputs["g25_hyperplane"]], 3
        )
        self.g32_gens = reflgrp.g32_generators()
        self.g32_dual = dual(self.g32_gens)
        self.g32_normal = kernel.to_blob_vector(
            reflgrp.g32_hyperplane_normals()[inputs["g32_hyperplane"]], 3
        )
        # build_g32 finds its proper planes with these two helpers, but only
        # after the 155520-element closure, which is too slow to run here
        basis, _ = reflgrp._g32_seed_plane()
        for k in inputs["g32_plane_word"]:
            basis = [self.g32_gens[k].apply(row) for row in basis]
        self.g32_plane = basis
        return checks

    def ops(self):
        g25 = self.g25
        phi, red = self.ring
        out = [
            Op(
                "g25:reflection-scan",
                lambda: len(kernel.reflection_indices(g25.elements, 3, phi, red)),
                G25_COUNTS[1],
            ),
            Op(
                "g25:hyperplane-orbit",
                lambda: len(kernel.line_orbit(self.g25_dual, self.g25_normal, 3, phi, red, 50)),
                G25_COUNTS[2],
            ),
        ]
        for (case, size, nh, np_), point in zip(G25_TABLE4, self.points):
            out.append(Op(f"g25:stratum:{case}", _stratum(g25, point), (size, nh, np_, True)))
        out.append(
            Op(
                "g32:hyperplane-orbit",
                lambda: len(kernel.line_orbit(self.g32_dual, self.g32_normal, 4, phi, red, 100)),
                G32_HYPERPLANES,
            )
        )
        out.append(
            Op(
                "g32:proper-planes",
                lambda: len(reflgrp._plane_orbit_py(self.g32_gens, self.g32_plane, 12, 600)),
                G32_PROPER_PLANES,
            )
        )
        return out


def _stratum(group, point):
    def run():
        s = reflgrp.stratify(group, point)
        return s.orbit_size, s.num_hyperplanes, s.num_proper_planes, s.in_table

    return run


# ---- monodromy ------------------------------------------------------------------

THETA = (Fraction(1, 6),) * 4
MONODROMY_ORDER = 648
CONFIGS = 4
BASE_POLES = (complex(-0.7, 0.3), complex(0.0, 0.0), complex(1.0, 0.0))
MIN_SEPARATION = 0.5  # in units of the configuration's scale


class Monodromy:
    """Rank-3 numeric monodromy of theta = (1/6, 1/6, 1/6, 1/6): order 648."""

    name = "monodromy"

    def draw(self, rng):
        # translate and scale a fixed configuration and jitter each pole;
        # the base point moves with the poles, so the paths keep their shape
        configs = []
        while len(configs) < CONFIGS:
            shift = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            scale = rng.uniform(0.5, 2.0)
            poles = tuple(
                shift + scale * (p + complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)))
                for p in BASE_POLES
            )
            gaps = [abs(a - b) for i, a in enumerate(poles) for b in poles[i + 1 :]]
            if min(gaps) >= MIN_SEPARATION * scale:
                configs.append(poles)
        return tuple(configs)

    def setup(self, inputs):
        self.spec = connect.ConnectionSpec(THETA)
        self.configs = inputs
        return []

    def ops(self):
        return [
            Op(f"monodromy:{k}", _monodromy(self.spec, poles), MONODROMY_ORDER)
            for k, poles in enumerate(self.configs)
        ]


def _monodromy(spec, poles):
    """What `braidorbit monodromy --theta 1/6,1/6,1/6,1/6` computes."""

    def run():
        fam = connect.residues_C(spec)
        residues = [
            -np.array([[complex(e.to_complex()) for e in c.row(r)] for r in range(c.rows)])
            for c in (fam[(1, j)] for j in range(2, spec.n))
        ]
        monos = connect.monodromy_numeric(list(poles), residues, local_tol=1e-12)
        return connect.numeric_closure(monos, tol=1e-6, bound=2000)

    return run


REGISTRY = {w.name: w for w in (N4Tables, N6Orbit, ReflectionGroups, Monodromy)}


def make(name):
    return REGISTRY[name]()
