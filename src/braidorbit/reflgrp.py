"""The complex reflection groups G25 and G32: construction and orbit data.

Both groups are generated by order-3 reflections with entries in Q(omega).
The order and membership come from one stabilizer chain over the base
e_1, ..., e_d (`StabilizerChain`), whose subgroups are generated by the
reflections that fix the base vectors; neither group lists its elements
(G25's blob list, `ReflGroup.elements`, is built only when read).  This
module computes reflections, reflection hyperplanes, the regular
eigenplanes ("proper planes"), orbit strata and stabilizers of
projective points, the intersection lattice census, the regular
polytopes they preserve, and the conjugation to the braid-action
matrices.

Every orbit here is one projective search of `kernel.int_line_orbit`:
the proper planes are orbits of Pluecker lines, the reflections orbits
of matrices X on the lines through (1, vec X), and the levels of a
chain, like the linear forms behind the basic invariants, orbits of
vectors v on the lines through (1, v).  The strata need no search: a
line's orbit has |G| / (|G_v| m) points (`stratify`), where G_v, the
stabilizer of a vector v on the line, is generated by the reflections
that fix v and m is read off the basic invariants (`BasicInvariants`).
The stabilizer functions take the same two factors
(`line_stabilizer_order`, `point_stabilizer_order`); only
`steinberg_check` searches, for the orbit of the vector v.

Every incidence is one integer test (`containing`) against a family of
subspaces cut out by linear forms (`Subspaces`): a hyperplane's normal
(G25 keeps its proper planes so), or the four forms x -> (x ^ P)_ijk of
a G32 proper plane's Pluecker vector P (`_plucker_forms`).  The strata
and the lattice census count incidences so, and the strata read the
reflections that fix a point off its hyperplanes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm, prod

from . import kernel
from .charvar import LinearPart, matrix_of_sigma
from .cyclo import (
    Cyclotomic,
    _fold_terms,
    _mul_mod,
    _times_x,
    cyc,
    euler_phi,
    order_of_root,
    zeta,
)
from .linalg import Mat, eigenspace, mat_parallel, matrix_order

W = zeta(3, 1)  # omega
ONE = cyc(1)
ZERO = cyc(0)

G25_DEGREES = (6, 9, 12)
G25_CODEGREES = (0, 3, 6)
G32_DEGREES = (12, 18, 24, 30)
G32_CODEGREES = (0, 6, 12, 18)

# (orbit size, reflection hyperplanes through the line, proper planes)
G25_STRATA = (
    (216, 0, 0),
    (72, 0, 0),
    (108, 0, 1),
    (54, 0, 1),
    (72, 1, 0),
    (36, 1, 1),
    (12, 2, 3),
    (9, 4, 0),
)
G32_STRATA = (
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
)


def g25_generators():
    c = (W * W - W) / 3
    r1 = Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, W * W]])
    r2 = Mat.from_rows(
        [[W, W * W, W * W], [W * W, W, W * W], [W * W, W * W, W]]
    ).scale(c)
    r3 = Mat.from_rows([[1, 0, 0], [0, W * W, 0], [0, 0, 1]])
    return [r1, r2, r3]


def g32_generators():
    c = (W * W - W) / 3
    r1 = Mat.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, W * W, 0], [0, 0, 0, 1]])
    r2 = Mat.from_rows(
        [
            [W, W * W, W * W, 0],
            [W * W, W, W * W, 0],
            [W * W, W * W, W, 0],
            [0, 0, 0, W - W * W],
        ]
    ).scale(c)
    r3 = Mat.from_rows([[1, 0, 0, 0], [0, W * W, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    r4 = Mat.from_rows(
        [
            [W, -(W * W), 0, -(W * W)],
            [-(W * W), W, 0, W * W],
            [0, 0, W - W * W, 0],
            [-(W * W), W * W, 0, W],
        ]
    ).scale(c)
    return [r1, r2, r3, r4]


def g25_hyperplane_normals():
    """The 12 reflection-plane normals as displayed equations."""
    out = [(ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)]
    for a in range(3):
        for b in range(3):
            out.append((ONE, W**a, W**b))
    return out


def g32_hyperplane_normals():
    out = []
    for i in range(4):
        v = [ZERO] * 4
        v[i] = ONE
        out.append(tuple(v))
    for a in range(3):
        for b in range(3):
            out.append((ONE, W**a, W**b, ZERO))
            out.append((ONE, -(W**a), ZERO, -(W**b)))
            out.append((ONE, ZERO, -(W**a), W**b))
            out.append((ZERO, ONE, -(W**a), -(W**b)))
    return out


def g25_proper_plane_normals():
    """Normals of the nine order-6 regular eigenplanes."""
    out = []
    for k in range(3):
        out.append((ONE, ZERO, -(W**k)))
        out.append((ZERO, ONE, -(W**k)))
        out.append((ONE, -(W**k), ZERO))
    return out


@dataclass
class ReflGroup:
    name: str
    dim: int
    conductor: int
    generators: list
    order: int
    degrees: tuple
    codegrees: tuple
    reflections: list = None  # all of the group's, as matrices
    hyperplanes: list = None  # canonical normals, tuples of Cyclotomic
    # per hyperplane, indexed like `hyperplanes`, the reflections that fix it
    hyperplane_reflections: list = field(default=None, repr=False)
    proper_planes: list = None  # G25: normals; G32: canonical Pluecker vectors
    hyperplane_forms: Subspaces = None  # the hyperplanes, for `containing`
    proper_plane_forms: Subspaces = None  # the proper planes, for `containing`
    chain: StabilizerChain = field(default=None, repr=False)  # gives order and `contains`
    invariant_seed: tuple = None  # a linear form whose orbit gives `invariants`
    # |G_v| per set of hyperplanes through v, by `parabolic_order`
    parabolic_orders: dict = field(default_factory=dict, repr=False)

    @cached_property
    def invariants(self):
        """The basic invariants (`basic_invariants`), built on first use."""
        return basic_invariants(self, self.invariant_seed)

    @cached_property
    def elements(self):
        """The elements as kernel blobs at `conductor`, in BFS order from
        the identity (`kernel.closure`), built on first read; G25 only.
        The benchmark reads them; no function of the package does."""
        if self.order > 1000:
            raise ValueError(f"{self.name} has {self.order} elements and no element list")
        blobs = [kernel.to_blob_matrix(g, self.conductor) for g in self.generators]
        return kernel.closure(blobs, self.dim, self.conductor, self.order)

    def contains(self, mat):
        return self.chain.contains(mat)


# what build_g25, build_g32 and _plane_orbit_py raise past their bounds
BoundExceeded = kernel.BoundExceeded


class StabilizerChain:
    """The chain G = G_0 > G_1 > ... of the stabilizers of e_1, e_2, ...

    G_i is the subgroup that fixes e_1 .. e_i.  By Steinberg's fixed-point
    theorem (Trans. AMS 112, 1964), the subgroup of a finite reflection
    group that fixes a set of vectors is generated by the reflections that
    fix them.  So G_i is generated by the reflections of G (`reflections`,
    all of them) that fix e_1 .. e_i: the chain needs no Schreier
    generators, and stops when no reflection is left.  Level i is the orbit
    of e_i under G_(i-1), of size [G_(i-1) : G_i], so |G| is the product of
    the level sizes.  A vector v is searched as the line through (1, v), on
    which g acts by diag(1, g) (`kernel.kron_lift` with a 1 x 1 right
    factor), so a level is one `kernel.int_line_orbit`, and its level-order
    BFS is a Schreier tree.  Each point is the canonical vector
    (den, 0, ..., 0, den v) at `conductor`, the lcm of the given conductor
    and those of the generators and reflections; `bases` holds those of
    e_1, ..., e_d.  Each matrix's integer action is built once, however
    many levels it generates; the inverses' actions, which `contains`
    sifts with, are built on its first call, once each.  Raises
    BoundExceeded past `bound`.
    """

    def __init__(self, gens, reflections, conductor, bound):
        self.conductor = c = lcm(
            conductor, *(x.n for g in (*gens, *reflections) for x in g.entries)
        )
        self.ring = ring = (c, euler_phi(c))
        d = gens[0].rows if gens else 0
        basis = [tuple(ONE if j == k else ZERO for j in range(d)) for k in range(d)]
        self.bases = [kernel.line_vector((ONE, *e), c) for e in basis]
        actions = {}  # id(g) -> g's integer action
        # per level: G_(i-1)'s generators, the orbit of e_i and the position
        # of each point
        self.levels = []
        for base, start in zip(basis, self.bases):
            for g in gens:
                if id(g) not in actions:
                    actions[id(g)] = self._action(g)
            points = kernel.int_bfs(start, [actions[id(g)] for g in gens], bound, ring)
            index = {v: i for i, v in enumerate(points)}
            self.levels.append((gens, points, index))
            gens = reflections = [r for r in reflections if r.apply(base) == base]
            if not gens:
                break

    def _action(self, g):
        """The integer action of g on the lines through (1, v)."""
        return kernel._int_action(kernel.kron_lift(g, Mat.identity(1), affine=True), self.conductor)

    @cached_property
    def _inverses(self):
        """Per level, the integer actions of its generators' inverses, each
        built once."""
        built = {}  # id(g) -> g^-1's action
        out = []
        for gens, _, _ in self.levels:
            for g in gens:
                if id(g) not in built:
                    built[id(g)] = self._action(g.inverse())
            out.append([built[id(g)] for g in gens])
        return out

    @property
    def sizes(self):
        return tuple(len(points) for _, points, _ in self.levels)

    @property
    def order(self):
        return prod(self.sizes)

    def contains(self, mat):
        """Whether `mat` lies in the group: sift it down the chain, on integers.

        h = `mat` is kept as the canonical vectors of its columns h(e_k).  At
        level i, from the point h(e_i), step to the canonical image of
        smallest index under an inverse generator (a BFS parent, a level
        lower) until e_i is reached, applying each inverse used to h(e_i),
        ..., h(e_d) (it fixes e_1 .. e_(i-1)).  An entry outside
        Q(zeta_conductor), or an image off the level's orbit, gives False;
        the sifted h is the identity exactly when every h(e_k) is e_k.
        """
        c, d = self.conductor, len(self.bases)
        if not d:  # the trivial group, with no generators
            return mat.is_identity()
        try:
            columns = [[mat[j, k].fit(c) for j in range(d)] for k in range(d)]
        except ValueError:
            return False
        images = [kernel.line_vector((ONE, *col), c) for col in columns]
        for k, ((_, points, index), inverses) in enumerate(zip(self.levels, self._inverses)):
            i = index.get(images[k])
            if i is None:
                return False
            while i:
                i, a = min(
                    (index[kernel._canon(kernel.int_apply(cols, points[i]), *self.ring)], a)
                    for a, cols in enumerate(inverses)
                )
                images[k:] = [
                    kernel._canon(kernel.int_apply(inverses[a], w), *self.ring) for w in images[k:]
                ]
        return images == self.bases


def _reflection_normal(w, d, conductor):
    """The canonical vector (`kernel._canon`) of the normal of the hyperplane
    that the d x d reflection X fixes: a nonzero row of den (X - I), read off
    X's canonical vector w = (den, 0, ..., 0, den vec X) (`matrix_orbit`)."""
    phi = euler_phi(conductor)
    den = w[0]
    for i in range(d):
        row = list(w[(1 + i * d) * phi : (1 + (i + 1) * d) * phi])
        row[i * phi] -= den
        if any(row):
            return kernel._canon(row, conductor, phi)
    raise ValueError("matrix is the identity")


def _canonical_line(vec):
    pivot = next(e for e in vec if not e.is_zero())
    inv = pivot.inverse()
    return tuple(inv * e for e in vec)


# the hashable identity of the line through a vector, at a given conductor
_line_key = kernel.line_vector


def _vector_key(vec, conductor):
    """The hashable identity of the vector itself: the line through (vec, 1)."""
    return kernel.line_vector(tuple(vec) + (ONE,), conductor)


def _build(name, gens, bound, degrees, codegrees):
    """The group generated by `gens`, of the order of its stabilizer chain;
    `bound` bounds the reflections' conjugation orbits and each chain level."""
    for g in gens:
        assert matrix_order(g, 4) == 3
    d, c = gens[0].rows, 3
    reflections, hyperplanes, by_plane = _reflection_data(gens, c, bound)
    chain = StabilizerChain(gens, reflections, c, bound)
    return ReflGroup(
        name=name,
        dim=d,
        conductor=c,
        generators=gens,
        order=chain.order,
        degrees=degrees,
        codegrees=codegrees,
        reflections=reflections,
        hyperplanes=hyperplanes,
        hyperplane_reflections=by_plane,
        hyperplane_forms=Subspaces(hyperplanes),
        chain=chain,
    )


def build_g25():
    group = _build("g25", g25_generators(), 1000, G25_DEGREES, G25_CODEGREES)
    # the nine order-6 regular eigenplanes, by their normals: in C^3 the
    # plane with Pluecker vector (p01, p02, p12) has the normal (p12, -p02, p01)
    seed = Mat.from_rows([[0, -1, 0], [-W, 0, 0], [0, 0, -(W * W)]])
    assert group.contains(seed)
    basis = eigenspace(seed, -(W * W))
    assert len(basis) == 2
    planes = _plane_orbit_py(group.generators, basis, group.conductor, 100)
    group.proper_planes = [(p12, -p02, p01) for p01, p02, p12 in planes]
    group.proper_plane_forms = Subspaces(group.proper_planes)
    # 27 forms on 9 lines; a hyperplane normal's 72 forms lie 6 to a line
    group.invariant_seed = group.proper_planes[0]
    return group


def build_g32():
    group = _build("g32", g32_generators(), 160_000, G32_DEGREES, G32_CODEGREES)
    basis, _ = _g32_seed_plane()
    group.proper_planes = _plane_orbit_py(group.generators, basis, conductor=12, bound=600)
    group.proper_plane_forms = Subspaces(group.proper_planes, plane_dim=group.dim)
    group.invariant_seed = group.hyperplanes[0]  # 240 forms on 40 lines
    return group


def _reflection_data(gens, c, bound):
    """(reflections, normals, by_plane): the reflections, the reflection
    hyperplanes' normals and, per hyperplane, the reflections that fix it.

    The reflections are the conjugation orbits of the generators and their
    squares, in discovery order: every reflection of G25 and G32 has order
    3 and is conjugate to a generator or to its square.  A reflection r and
    r^2 fix the same hyperplane, which is read off r's canonical vector on
    integers (`_reflection_normal`).  Each orbit is bounded by `bound`.
    """
    d = gens[0].rows
    # X -> g X g^-1 is X -> g X (g^-T)^T; both orbits share the integer actions
    lifts = kernel.IntActions(
        kernel.kron_lift(g, g.inverse().transpose(), affine=True) for g in gens
    )
    reflections = []
    seen = set()
    by_normal = {}  # canonical normal -> its reflections, in discovery order
    for g in gens:
        for r in (g, g @ g):
            if kernel.line_vector((ONE, *r.entries), c) not in seen:
                orbit = kernel.matrix_orbit(lifts, r, bound, c)
                seen.update(orbit)
                for w in orbit:
                    x = Mat(d, d, kernel.line_coords(w, c)[1:])
                    reflections.append(x)
                    by_normal.setdefault(_reflection_normal(w, d, c), []).append(x)
    normals = [kernel.line_coords(w, c) for w in by_normal]
    return reflections, normals, list(by_normal.values())


def g32_t_element(group=None):
    """The order-24 product R1^2 R2 R3^2 R4 R2^2 R3."""
    r1, r2, r3, r4 = g32_generators()
    return r1 @ r1 @ r2 @ r3 @ r3 @ r4 @ r2 @ r2 @ r3


def g32_order30_element():
    r1, r2, r3, r4 = g32_generators()
    return r1 @ r1 @ r2 @ r3 @ r3 @ r4


def _g32_seed_plane():
    """A regular order-12 eigenplane: eigenspace of T^2 for a sqrt of -w^2."""
    t = g32_t_element()
    t2 = t @ t
    for k in (1, 7):  # the two square roots of -omega^2 among 12th roots
        z = zeta(12, k)
        basis = eigenspace(t2, z)
        if len(basis) == 2:
            return basis, z
    raise AssertionError("T^2 must have a 2-dimensional twelfth-root eigenspace")


def _plane_orbit_py(gens, basis, conductor, bound):
    """Orbit of the plane spanned by two basis rows, as Pluecker vectors.

    The plane is the line through its Pluecker vector p_kl = r1_k r2_l -
    r1_l r2_k (k < l, in lexicographic order) in the exterior square, on
    which g acts by its second compound (`_compound2`).  So the plane orbit
    is one `kernel.int_line_orbit`, at the lcm of `conductor` and the
    conductors of the entries.  Returns each plane's canonical Pluecker
    vector (`kernel.line_coords`) in discovery order, the first being that
    of `basis`; raises BoundExceeded once more than `bound` planes are
    found.
    """
    r1, r2 = ([cyc(x) for x in row] for row in basis)
    pairs = list(combinations(range(len(r1)), 2))
    start = [r1[k] * r2[l] - r1[l] * r2[k] for k, l in pairs]
    compounds = [_compound2(g, pairs) for g in gens]
    conductor, _, found, exceeded = kernel.int_line_orbit(compounds, start, bound, conductor)
    planes = [kernel.line_coords(w, conductor) for w in found]
    if exceeded:
        raise BoundExceeded(bound, planes)
    return planes


def _compound2(g, pairs):
    """The second compound of g, its action on Pluecker vectors.

    Rows and columns are indexed by `pairs`; entry ((i, j), (k, l)) is
    g_ik g_jl - g_il g_jk.
    """
    return Mat.from_rows(
        [[g[i, k] * g[j, l] - g[i, l] * g[j, k] for k, l in pairs] for i, j in pairs]
    )


# ---- incidence, stabilizers, strata -----------------------------------------


def _plucker_forms(blocks, dim):
    """The forms x -> (x ^ P)_ijk = x_i P_jk - x_j P_ik + x_k P_ij, i < j < k.

    `blocks` are P's coordinates p_kl (k < l, in lexicographic order) as
    integer coefficient blocks; a form's blocks are signed copies of them.
    A point lies on the plane of P iff x ^ P = 0, that is iff every form
    vanishes (Hodge and Pedoe, Methods of Algebraic Geometry I, ch. VII).
    """
    coord = dict(zip(combinations(range(dim), 2), blocks))
    forms = []
    for i, j, k in combinations(range(dim), 3):
        f = [[0] * len(blocks[0])] * dim
        f[i], f[j], f[k] = coord[j, k], [-c for c in coord[i, k]], coord[i, j]
        forms.append(f)
    return forms


class Subspaces:
    """Subspaces of C^d given by vectors of Cyclotomic values.

    Each vector is a hyperplane's normal, or with `plane_dim` = d the
    Pluecker vector of a plane, cut out by its `_plucker_forms`; `width` is
    the number of forms per subspace.  Their integer matrix (`matrix`) is
    built on the first `containing`, so planes never tested never build it.
    """

    def __init__(self, vectors, plane_dim=None):
        self.vectors = vectors
        self.plane_dim = plane_dim
        self.width = 1 if plane_dim is None else comb(plane_dim, 3)

    @cached_property
    def matrix(self):
        """(N0, top, rows): each form's coefficients in the power basis at
        N0, the lcm of the vectors' conductors (`kernel._int_vectors`), as
        one row of an int64 array, or of Python ints if top = max|entry|
        >= 2^62."""
        import numpy as np

        conductor = lcm(1, *(x.n for v in self.vectors for x in v))
        rows = []
        for v in self.vectors:
            _, blocks = kernel._int_vectors(v, conductor)
            forms = [blocks] if self.plane_dim is None else _plucker_forms(blocks, self.plane_dim)
            rows.extend([c for block in f for c in block] for f in forms)
        top = max(abs(c) for row in rows for c in row)
        dtype = np.int64 if top < kernel._INT64_LIMIT else object
        return conductor, top, np.array(rows, dtype=dtype)


def containing(family, points):
    """Whether each subspace of `family` contains all of `points`: a bool array.

    At N, the lcm of the family's conductor N0 and the points', row (k, t)
    of a small integer matrix holds the coefficients of zeta_N0^t x_k for
    each point x (zeta_N0 = zeta_N^(N/N0), one `kernel._times_x` per power
    of zeta_N): the points' multiplication action, read in the power basis
    at N0.  The family's rows times it are the coefficients of the forms'
    values at the points, and a subspace contains the points iff all its
    forms' values are zero.  The product is on int64 when max|rows| times
    the matrix's largest column l1-norm, which bounds every value, is
    below 2^62, and else on Python ints (dtype object).
    """
    import numpy as np

    family_conductor, top, rows = family.matrix
    points = [[cyc(x) for x in p] for p in points]
    conductor = lcm(family_conductor, *(x.n for p in points for x in p))
    phi = euler_phi(conductor)
    size = len(points) * phi
    vectors = [kernel._int_vectors(p, conductor)[1] for p in points]
    terms = _fold_terms(conductor)
    step = conductor // family_conductor
    matrix = []
    for k in range(len(points[0])):
        blocks = [v[k] for v in vectors]
        for t in range(euler_phi(family_conductor)):
            if t:
                for _ in range(step):
                    blocks = [_times_x(b, terms) for b in blocks]
            matrix.append([c for b in blocks for c in b])
    norm = max(sum(abs(row[r]) for row in matrix) for r in range(size))
    dtype = np.int64 if top * norm < kernel._INT64_LIMIT else object
    values = rows.astype(dtype, copy=False) @ np.array(matrix, dtype=dtype)
    return (values.reshape(-1, family.width * size) == 0).all(axis=1)


def hyperplanes_through(group, point):
    return int(containing(group.hyperplane_forms, [point]).sum())


def proper_planes_through(group, point):
    return int(containing(group.proper_plane_forms, [point]).sum())


def parabolic_order(group, through):
    """|G_v| for a point v on exactly the hyperplanes `through`.

    `through` is v's incidence array, `containing` of the group's
    hyperplanes.  A reflection fixes v iff its hyperplane contains v, so
    the reflections that fix v are read off `hyperplane_reflections`, and
    by Steinberg's theorem they generate G_v: its order is that of their
    stabilizer chain, 1 when there are none.  The order is memoized on the
    group per incidence pattern, of which there are as many as flats.
    """
    key = through.tobytes()
    order = group.parabolic_orders.get(key)
    if order is None:
        by_plane = group.hyperplane_reflections
        fixing = [r for i in through.nonzero()[0] for r in by_plane[i]]
        order = StabilizerChain(fixing, fixing, group.conductor, group.order).order
        group.parabolic_orders[key] = order
    return order


def _incidence(group, point):
    """(point, through): `point` as Cyclotomic values and its hyperplane
    incidence array (`containing`).  A point of the wrong length, or the
    zero vector, raises ValueError."""
    point = tuple(cyc(e) for e in point)
    if len(point) != group.dim:
        raise ValueError(f"{group.name} acts on points with {group.dim} coordinates")
    if all(e.is_zero() for e in point):
        raise ValueError("the zero vector spans no line")
    return point, containing(group.hyperplane_forms, [point])


def _line_stabilizer_order(group, point, through):
    """|G_v| m for the line through v = `point` on the hyperplanes `through`:
    its stabilizer maps onto the m-th roots of unity with kernel G_v."""
    return parabolic_order(group, through) * group.invariants.scalar_order(point)


def point_stabilizer_order(group, point):
    """|G_v| for the vector v = `point`: `parabolic_order` of its incidence."""
    return parabolic_order(group, _incidence(group, point)[1])


def line_stabilizer_order(group, point):
    """The order of the stabilizer of the line through `point`, |G_v| m: the
    two factors that `stratify` divides |G| by."""
    return _line_stabilizer_order(group, *_incidence(group, point))


def _pow_mod(n, x, e):
    """x^e mod Phi_n for a power-basis integer vector x and e >= 1."""
    out = x
    for bit in bin(e)[3:]:
        out = _mul_mod(n, out, out)
        if bit == "1":
            out = _mul_mod(n, out, x)
    return out


class BasicInvariants:
    """The invariants F_d(v) = sum over `forms` a of (a . v)^d, one per degree.

    `forms` are linear forms, one per line of an orbit of forms under the
    transposed generators, each as that orbit found it (`basic_invariants`
    explains why); `orbit_size` is the number of forms in the orbit.  The
    values are computed on integers.  At N, the lcm of the forms' and the
    point's conductors, the forms are power-basis vectors over one common
    denominator D and the point over its own denominator e, so the sums
    of (D a . e v)^d are the integer vectors of (D e)^d F_d(v), all
    scaled alike per degree.  Every degree is a multiple of g, their gcd:
    each (a . v)^d is a power of (a . v)^g.
    """

    _KEEP = 4  # conductors whose integer forms are kept

    def __init__(self, forms, degrees, orbit_size=None):
        self.forms = forms
        self.degrees = degrees
        self.orbit_size = len(forms) if orbit_size is None else orbit_size
        self.conductor = lcm(1, *(x.n for a in forms for x in a))
        self._at = {}  # conductor -> (D, the forms' integer vectors there)

    def _forms_at(self, conductor):
        found = self._at.get(conductor)
        if found is None:
            d = len(self.forms[0])
            den, flat = kernel._int_vectors([x for a in self.forms for x in a], conductor)
            found = den, [flat[i : i + d] for i in range(0, len(flat), d)]
            if len(self._at) >= self._KEEP:
                del self._at[next(iter(self._at))]
            self._at[conductor] = found
        return found

    def _linear(self, point):
        """(N, D e, the integer vectors of D e (a . v) for each form a)."""
        point = [cyc(x) for x in point]
        n = lcm(self.conductor, *(x.n for x in point))
        den, forms = self._forms_at(n)
        e, v = kernel._int_vectors(point, n)
        zero = [0] * euler_phi(n)
        values = []
        for a in forms:
            total = zero
            for x, y in zip(a, v):
                if any(x) and any(y):
                    total = [s + t for s, t in zip(total, _mul_mod(n, x, y))]
            values.append(total)
        return n, den * e, values

    def _sums(self, point):
        """(N, s, sums): sums[i] is the integer vector of s^d F_d(point) for
        d = degrees[i], at N."""
        n, scale, values = self._linear(point)
        g = gcd(*self.degrees)
        top = max(self.degrees) // g
        sums = [[0] * euler_phi(n) for _ in self.degrees]
        for x in values:
            if not any(x):
                continue
            powers = [_pow_mod(n, x, g)]  # (a . v)^(g k) for k = 1 .. top
            while len(powers) < top:
                powers.append(_mul_mod(n, powers[-1], powers[0]))
            for total, d in zip(sums, self.degrees):
                for j, c in enumerate(powers[d // g - 1]):
                    total[j] += c
        return n, scale, sums

    def values(self, point):
        """The exact values F_d(point), one Cyclotomic per degree."""
        n, scale, sums = self._sums(point)
        return [Cyclotomic._make(n, s, scale**d) for s, d in zip(sums, self.degrees)]

    def scalar_order(self, point):
        """m = gcd{d : F_d(point) != 0}: lambda v lies in the orbit of v
        exactly when lambda^m = 1 (`stratify`)."""
        _, _, sums = self._sums(point)
        nonzero = [d for d, s in zip(self.degrees, sums) if any(s)]
        if not nonzero:
            raise ValueError("the zero vector spans no line")
        return gcd(*nonzero)

    def jacobian(self, point):
        """det(dF_d / dx_j) at `point`, times a nonzero rational, exactly.

        dF_d / dx_j is d times the sum of (a . v)^(d-1) a_j; on the integer
        vectors row d is scaled by D^d e^(d-1) / d.
        """
        n, _, values = self._linear(point)
        _, forms = self._forms_at(n)
        phi = euler_phi(n)
        rows = []
        for d in self.degrees:
            row = [[0] * phi for _ in forms[0]]
            for x, a in zip(values, forms):
                if any(x):
                    power = _pow_mod(n, x, d - 1)
                    for total, y in zip(row, a):
                        if any(y):
                            for j, c in enumerate(_mul_mod(n, power, y)):
                                total[j] += c
            rows.append([Cyclotomic._make(n, total, 1) for total in row])
        return Mat.from_rows(rows).det()


def basic_invariants(group, seed):
    """Basic invariants of `group`, from the orbit of the linear form `seed`.

    The forms a' of the orbit of a = `seed` under g -> g^T give invariants
    F_d(v) = sum (a' . v)^d, because a' . (g v) = (g^T a') . v and each g^T
    permutes the orbit.  The orbit is one `kernel.int_line_orbit` on the
    lines through (1, a).  If it holds k forms on each of its lines, they
    are the multiples z a' by the k-th roots z of unity, so the sum over a
    line is k (a' . v)^d when k divides d and 0 otherwise.  So the build
    requires k = gcd(degrees) = |Z(G)|: then every F_d is k times the sum
    over one form per line, which `BasicInvariants` keeps.  (With more
    forms per line some F_d vanish identically: a G25 hyperplane normal
    gives 72 forms on 12 lines and F_9 = 0.)  The kept forms must be those
    the orbit found: one canonical normal per line, as
    `g25_proper_plane_normals` lists them, is a different multiple of each
    form, and its F_9 is not invariant.  For the same reason every form is
    scaled by one common denominator: scaling each by its own, as
    `kernel._int_vectors` of one form does, took G32's order-30 and
    order-24 lines and its 12960 row to 25920, and its 540 row to 1080.

    Algebraically independent homogeneous invariants whose degrees
    multiply to |G| generate the invariant ring (Lehrer and Taylor,
    Unitary Reflection Groups, 2009, ch. 3).  So the build also requires
    prod(degrees) = |G| and a nonzero Jacobian determinant at one integer
    point, exactly; Steinberg's theorem puts the zeros of the Jacobian of
    basic invariants on the reflection hyperplanes, and this point lies on
    none.  The build raises AssertionError when a requirement fails; it
    never falls back.
    """
    one = Mat.identity(1)
    lifts = [kernel.kron_lift(g.transpose(), one, affine=True) for g in group.generators]
    n, _, found, exceeded = kernel.int_line_orbit(
        lifts, (ONE, *seed), group.order, group.conductor
    )
    if exceeded:
        raise AssertionError(f"the {group.name} seed form has more than |G| images")
    lines = {}  # the line of each form -> the forms on it, in discovery order
    for w in found:
        a = kernel.line_coords(w, n)[1:]
        lines.setdefault(kernel.line_vector(a, n), []).append(a)
    per_line = gcd(*group.degrees)
    if any(len(forms) != per_line for forms in lines.values()):
        raise AssertionError(
            f"the {group.name} seed form's orbit has {len(found)} forms on "
            f"{len(lines)} lines, not {per_line} on each"
        )
    if prod(group.degrees) != group.order:
        raise AssertionError(f"the {group.name} degrees do not multiply to {group.order}")
    invariants = BasicInvariants(
        [forms[0] for forms in lines.values()], group.degrees, len(found)
    )
    point = tuple(cyc(x) for x in (1, 2, 5, 11)[: group.dim])
    if invariants.jacobian(point).is_zero():
        raise AssertionError(f"the {group.name} invariants are not algebraically independent")
    return invariants


@dataclass(frozen=True)
class StratumLabel:
    orbit_size: int
    num_hyperplanes: int
    num_proper_planes: int
    special_tag: str | None
    in_table: bool


def stratify(group, point):
    """Incidence counts plus the exact orbit size of the line through `point`.

    The counts are those of the hyperplanes and of the proper planes that
    contain the point, each one `containing` test.  The size comes from
    the orbit-stabilizer theorem, with no search.  The stabilizer of the
    line maps onto the scalars lambda with lambda v in G v, with kernel
    G_v, the vector's stabilizer, whose order `parabolic_order` reads off
    the hyperplane incidence.  Basic invariants separate the orbits of
    vectors and F_d(lambda v) = lambda^d F_d(v), so those scalars are the
    m-th roots of unity for m = gcd{d : F_d(v) != 0} (Springer, Invent.
    Math. 25, 1974; `BasicInvariants.scalar_order`).  The size is
    |G| / (|G_v| m), the line stabilizer's order being that of
    `line_stabilizer_order`.  `tests/test_reflgrp.py` keeps the line orbit
    (`kernel.int_line_orbit`) as its oracle.
    """
    point, through = _incidence(group, point)
    nh = int(through.sum())
    np_ = proper_planes_through(group, point)
    size, rest = divmod(group.order, _line_stabilizer_order(group, point, through))
    assert rest == 0
    table = G25_STRATA if group.name == "g25" else G32_STRATA
    in_table = (size, nh, np_) in table
    tag = None
    if group.name == "g25":
        if size == 72 and (nh, np_) == (0, 0):
            tag = "regular-order-9-line"
        elif size == 54:
            tag = "regular-order-12-line"
    else:
        if size == 5184:
            tag = "regular-order-30-line"
        elif size == 6480:
            tag = "regular-order-24-line"
        elif size == 2880 and (nh, np_) == (1, 0):
            tag = "order-9-line-in-hyperplane"
    return StratumLabel(size, nh, np_, tag, in_table)


# ---- special representatives -------------------------------------------------


def g25_order9_representative():
    """[nu : nu^2 : 1] with nu of order 9, re-derived as an eigenvector."""
    nu = zeta(9, 1)
    m = Mat.from_rows([[0, 1, 0], [0, 0, nu**3], [1, 0, 0]])
    basis = eigenspace(m, nu)
    assert len(basis) == 1
    v = _canonical_line(basis[0])
    assert mat_parallel(v, (nu, nu**2, ONE))
    return (nu, nu**2, ONE), m


def g25_order12_representative(group):
    """A regular eigenline for an order-12 eigenvalue (the size-54 orbit).

    Derived from the displayed product R1 R2^2 R3; the eigenvalue of
    order 12 with a regular eigenline gives the representative.
    """
    r1, r2, r3 = group.generators
    m = r1 @ r2 @ r2 @ r3
    k = matrix_order(m, 40)
    assert k is not None and k % 12 == 0
    for t in range(1, 12):
        if t % 2 == 0 or t % 3 == 0:
            continue
        basis = eigenspace(m, zeta(12, t))
        for vec in basis:
            v = _canonical_line(vec)
            if hyperplanes_through(group, v) == 0:
                return v, m
    raise AssertionError("no regular order-12 eigenline found")


def g32_order30_representative():
    s = g32_order30_element()
    for t in range(30):
        if order_of_root(zeta(30, t)) != 30:
            continue
        basis = eigenspace(s, zeta(30, t))
        if basis:
            nu = zeta(30, t)
            displayed = (
                nu**7 + nu - nu**5,
                nu**7 - nu**6,
                -(nu**8) + nu**7 + nu**6 - nu**4 - nu**2 + 1,
                ONE,
            )
            v = _canonical_line(basis[0])
            return v, displayed, s, nu
    raise AssertionError("no order-30 eigenvalue found")


def g32_order24_representative():
    t_el = g32_t_element()
    for t in range(24):
        if order_of_root(zeta(24, t)) != 24:
            continue
        basis = eigenspace(t_el, zeta(24, t))
        if basis:
            nu = zeta(24, t)
            displayed = (
                -(nu**10) + nu**3 - 1,
                nu**11 - nu**9 + nu**6 - nu**4 + nu,
                nu**11 - nu**10,
                ONE,
            )
            v = _canonical_line(basis[0])
            return v, displayed, t_el, nu
    raise AssertionError("no order-24 eigenvalue found")


def table4_cases(group):
    """Table 4 on G25: (case id, representative point, orbit size) per row."""
    nu = zeta(9, 1)
    rep54, _ = g25_order12_representative(group)
    return [
        ("order-9-line", (nu, nu**2, ONE), 72),
        ("order-12-line", rep54, 54),
        ("line-on-2-planes", (ONE, ZERO, ZERO), 12),
        ("line-on-4-planes", (ONE, -ONE, ZERO), 9),
        ("plane-and-proper", (ONE, ONE, ZERO), 36),
        ("generic-in-plane", (ONE, cyc(2), ZERO), 72),
        ("generic-on-proper", (ONE, ONE, cyc(3)), 108),
        ("generic", (ONE, cyc(2), cyc(5)), 216),
    ]


def table5_cases(group):
    """Table 5 on G32: (case id, representative point, orbit size) per row."""
    nu9, eta = zeta(9, 1), zeta(12, 1)
    v30 = g32_order30_representative()[0]
    v24 = g32_order24_representative()[0]
    basis, _ = _g32_seed_plane()
    on_e = tuple(a + 2 * b for a, b in zip(basis[0], basis[1]))
    return [
        ("generic", (ONE, cyc(2), cyc(3), cyc(5)), 25920),
        ("order-30-line", v30, 5184),
        ("generic-on-proper", on_e, 12960),
        ("order-24-line", v24, 6480),
        ("generic-in-hyperplane", (ONE, cyc(2), cyc(5), ZERO), 8640),
        ("order-9-line", (nu9, nu9**2, ONE, ZERO), 2880),
        ("line-on-2-hyperplanes", (ONE, cyc(2), ZERO, ZERO), 2880),
        ("on-2-and-3-proper", (ONE, eta, ZERO, ZERO), 1440),
        ("line-on-4-hyperplanes", (cyc(2), ONE, ONE, ZERO), 1080),
        ("on-4-and-6-proper", _line_on_4_hyperplanes(group, basis), 540),
        ("line-on-5-hyperplanes", (ONE, ONE, ZERO, ZERO), 360),
        ("line-on-12-hyperplanes", (ZERO, ONE, ZERO, ZERO), 40),
    ]


def _line_on_4_hyperplanes(group, basis):
    """A line a r1 + b r2 of the seed plane on 4 hyperplanes: row (540, 4, 6)."""
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a == 0 and b == 0:
                continue
            v = tuple(a * x + b * y for x, y in zip(basis[0], basis[1]))
            if hyperplanes_through(group, v) == 4:
                return v
    raise AssertionError("no 4-hyperplane line found in the seed plane")


# ---- lattice census ----------------------------------------------------------


def _hermitian_orthogonal(h1, h2):
    acc = ZERO
    for a, b in zip(h1, h2):
        acc = acc + a * b.conj()
    return acc.is_zero()


def lattice_census(group_or_normals, dim=None):
    """Intersections of the reflection hyperplanes, by codimension.

    Codimension-2 flats come from pairs of hyperplanes, codimension-3
    flats from triples.  A flat is keyed by the hyperplanes that contain
    it, of which it is the intersection: a subset inside a found flat's
    hyperplanes spans that flat and is skipped, and any other subset of
    full rank gives a new flat.  Each flat is counted with the number of
    hyperplanes containing it.  For the rank-4 group the codim-2
    incidence-2 flats are checked to have orthogonal normals and the
    incidence-4 ones non-orthogonal normals.
    """
    if isinstance(group_or_normals, ReflGroup):
        normals = group_or_normals.hyperplanes
        dim = group_or_normals.dim
    else:
        normals = list(group_or_normals)
        if dim is None:
            dim = len(normals[0])

    hyperplanes = Subspaces(normals)

    def flats(size):
        """The hyperplanes containing each flat of codimension `size`."""
        found = []
        covered = set()  # the subsets whose hyperplanes contain a found flat
        for subset in combinations(range(len(normals)), size):
            if subset in covered:
                continue
            ker = Mat.from_rows([list(normals[i]) for i in subset]).kernel()
            if len(ker) != dim - size:
                continue
            through = containing(hyperplanes, ker).nonzero()[0].tolist()
            covered.update(combinations(through, size))
            found.append([normals[i] for i in through])
        return found

    def incidences(found):  # in the order each count first appears
        return dict(Counter(len(through) for through in found))

    codim2 = flats(2)
    ortho_ok = True
    for planes in codim2:
        if len(planes) == 2:
            ortho_ok = ortho_ok and _hermitian_orthogonal(planes[0], planes[1])
        elif len(planes) == 4:
            ortho_ok = ortho_ok and not any(
                _hermitian_orthogonal(planes[a], planes[b])
                for a in range(4)
                for b in range(a + 1, 4)
            )
    return {
        "hyperplanes": len(normals),
        "codim2_incidences": incidences(codim2),
        "codim3_incidences": incidences(flats(3)) if dim >= 4 else {},
        "orthogonality_consistent": ortho_ok,
    }


# ---- polytopes ----------------------------------------------------------------


def polytope_vertices(which):
    if which == "hessian":
        out = []
        for j in range(3):
            for k in range(3):
                a, b = W**j, -(W**k)
                out.append((ZERO, a, b))
                out.append((b, ZERO, a))
                out.append((a, b, ZERO))
        assert len(out) == 27
        return out
    if which == "witting":
        # This is the single 240-point orbit of the generators above.  The
        # classical coordinate list differs by conjugating with
        # diag(1,1,1,-1) (fourth coordinate negated in the mixed families)
        # and multiplies the axis vertices by theta = w - w^2, which puts them
        # on the same sphere of radius sqrt(3) as the rest.
        theta = W - W * W
        out = []
        for j in range(3):
            for k in range(3):
                for n in range(3):
                    for sign in (ONE, -ONE):
                        out.append(tuple(sign * x for x in (ZERO, W**j, -(W**k), -(W**n))))
                        out.append(tuple(sign * x for x in (-(W**j), ZERO, W**k, -(W**n))))
                        out.append(tuple(sign * x for x in (W**j, -(W**k), ZERO, -(W**n))))
                        out.append(tuple(sign * x for x in (W**j, W**k, W**n, ZERO)))
        for j in range(3):
            for sign in (ONE, -ONE):
                base = sign * theta * W**j
                for pos in range(4):
                    v = [ZERO] * 4
                    v[pos] = base
                    out.append(tuple(v))
        assert len(out) == 240
        return out
    raise ValueError(f"unknown polytope {which!r}")


def symmetry_check(gens, vertices):
    """True iff every generator permutes the vertex set (as exact vectors)."""
    keys = {_vector_key(v, 12) for v in vertices}
    return all(_vector_key(g.apply(v), 12) in keys for g in gens for v in vertices)


# ---- conjugacy with the braid action -----------------------------------------


def braid_action_matrices(n, z):
    """A_i matrices of the full braid generators for the sixth-root family."""
    if n == 5:
        lp = LinearPart((z, z, z, z, z * z))
    elif n == 6:
        lp = LinearPart((z,) * 6)
    else:
        raise ValueError("only n = 5 and n = 6 carry the reflection families")
    return [matrix_of_sigma(lp, i) for i in range(1, n - 1)]


def conjugacy_to_braid_action(n, z):
    """Check R_i = P^-1 A_i^(e_i) P for the displayed P, exactly."""
    z = cyc(z)
    mats = braid_action_matrices(n, z)
    if n == 5:
        p = Mat.from_rows(
            [
                [ZERO, ZERO, 1 - z * z],
                [z * z, z * z, ONE],
                [z * z, -z, ONE],
            ]
        )
        refl = g25_generators()
    else:
        p = Mat.from_rows(
            [
                [ZERO, ZERO, 1 - z * z, ZERO],
                [z * z, z * z, ONE, ZERO],
                [z * z, -z, ONE, ZERO],
                [-ONE, ZERO, ONE, z],
            ]
        )
        refl = g32_generators()
    if z == -W:
        exponents = [2, 1, 2, 1]
    elif z == -W * W:
        exponents = [1, 2, 1, 2]
    else:
        raise ValueError("z must be a primitive 6th root of unity")
    pinv = p.inverse()
    for idx, (a, r) in enumerate(zip(mats, refl)):
        power = a if exponents[idx] == 1 else a @ a
        if pinv @ power @ p != r:
            return False
    return True


# ---- Steinberg / cyclic-stabilizer checks ------------------------------------


def steinberg_check(group, point):
    """Whether G_v, the stabilizer of v = `point`, is generated by the
    reflections that fix v.

    |G_v| is |G| / |G v|, where G v, the orbit of the vector v, is one
    `kernel.int_line_orbit` of the line through (1, v) under diag(1, g),
    as a level of the stabilizer chain runs it: a search that shares no
    code with the reflections or the invariants.  The subgroup that the
    reflections generate has order `parabolic_order`, the one `stratify`
    uses.  A vector on no hyperplane has an orbit as large as the group.
    """
    point, through = _incidence(group, point)
    one = Mat.identity(1)
    lifts = [kernel.kron_lift(g, one, affine=True) for g in group.generators]
    _, _, orbit, exceeded = kernel.int_line_orbit(
        lifts, (ONE, *point), group.order, group.conductor
    )
    return not exceeded and parabolic_order(group, through) * len(orbit) == group.order


def line_stabilizer_is_cyclic(group, point):
    """Whether the stabilizer of the line through `point` is cyclic: exactly
    when no reflection hyperplane contains the point.

    The line stabilizer acts on the line through v = `point` by scalars,
    with kernel G_v.  Off the hyperplanes G_v = 1 by Steinberg's theorem,
    so the line stabilizer embeds in C^x through its eigenvalue on v, and
    a finite subgroup of C^x is cyclic.  On a hyperplane, a reflection r
    fixes v, and the line stabilizer contains Z(G) x <r>: the centre of the
    irreducible G consists of scalars, which fix every line, and meets <r>
    trivially, since a scalar that fixes v is 1.  3 divides |Z(G)| =
    gcd(degrees) and r has order 3, so the line stabilizer contains
    C_3 x C_3, which no cyclic group does.
    """
    _, through = _incidence(group, point)
    on = through.nonzero()[0]
    if not len(on):
        return True
    r = group.hyperplane_reflections[on[0]][0]
    # the premise of the proof
    assert gcd(*group.degrees) % 3 == 0 and (r @ r @ r).is_identity()
    return False
