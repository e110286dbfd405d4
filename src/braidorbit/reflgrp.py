"""The complex reflection groups G25 and G32: construction and orbit data.

Both groups are generated by order-3 reflections with entries in Q(omega).
The order is the size of one regular orbit (`RegularOrbit`), which also
decides membership; only G25 keeps its 648 elements, for stabilizer scans.
This module computes reflections, reflection hyperplanes, the regular
eigenplanes ("proper planes"), orbit strata of projective points, the
intersection lattice census, the regular polytopes they preserve, and the
conjugation to the braid-action matrices.

Every orbit here is one projective search of `kernel.int_line_orbit`:
the strata are orbits of lines, the proper planes orbits of Pluecker
lines, the reflections orbits of matrices X on the lines through
(1, vec X), and the regular orbit an orbit of vectors v on the lines
through (1, v).

Every incidence is one integer test (`containing`) against a family of
subspaces cut out by linear forms (`Subspaces`): a hyperplane's normal
(G25 keeps its proper planes so), or the four forms x -> (x ^ P)_ijk of
a G32 proper plane's Pluecker vector P (`_plucker_forms`).  The strata,
the premise of the regular orbit and the lattice census all count
incidences so.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb, lcm

from . import kernel
from .charvar import LinearPart, matrix_of_sigma
from .cyclo import _fold_terms, _times_x, cyc, euler_phi, order_of_root, zeta
from .linalg import Mat, eigenspace, is_complex_reflection, mat_parallel, matrix_order

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
    elements: list = None  # kernel blobs at `conductor`; G25 only
    reflections: list = None  # kernel blobs at `conductor`
    hyperplanes: list = None  # canonical normals, tuples of Cyclotomic
    proper_planes: list = None  # G25: normals; G32: canonical Pluecker vectors
    hyperplane_forms: Subspaces = None  # the hyperplanes, for `containing`
    proper_plane_forms: Subspaces = None  # the proper planes, for `containing`
    regular_orbit: RegularOrbit = field(default=None, repr=False)

    def ring(self):
        return kernel.ring_params(self.conductor)

    def contains(self, mat):
        return self.regular_orbit.contains(mat)

    def element_mats(self):
        if self.elements is None:
            raise ValueError(f"{self.name} is built without its element list")
        return (kernel.from_blob_matrix(b, self.dim, self.conductor) for b in self.elements)


# what build_g25, build_g32 and _plane_orbit_py raise past their bounds
BoundExceeded = kernel.BoundExceeded


class RegularOrbit:
    """The orbit of a vector on no reflection hyperplane: a copy of the group.

    By Steinberg's fixed-point theorem such a vector has a trivial
    stabilizer, so g -> g(base) is a bijection from the group onto the
    orbit, and the orbit's level-order BFS is a Schreier tree for it.  A
    vector v is searched as the line through (1, v), on which g acts by
    diag(1, g) (`kernel.kron_lift` with a 1 x 1 right factor), so the
    search is one `kernel.int_line_orbit`.  Each point is that line's
    canonical vector (den, 0, ..., 0, den v) at `conductor`, the lcm of
    the given conductor and those of the generators and the base.
    Raises BoundExceeded past `bound`.
    """

    def __init__(self, gens, base, conductor, bound):
        self.generators = gens
        self.base = tuple(cyc(x) for x in base)
        one = Mat.identity(1)
        lifts = [kernel.kron_lift(g, one, affine=True) for g in gens]
        self.conductor, phi, self.points, exceeded = kernel.int_line_orbit(
            lifts, (ONE, *self.base), bound, conductor
        )
        if exceeded:
            raise BoundExceeded(bound, self.points)
        self._ring = (self.conductor, phi)
        self._inverse_actions = [
            kernel._int_action(kernel.kron_lift(g.inverse(), one, affine=True), self.conductor)
            for g in gens
        ]

    def __len__(self):
        return len(self.points)

    @cached_property
    def index(self):
        """The position of each point, built by the first `contains`."""
        return {v: i for i, v in enumerate(self.points)}

    def contains(self, mat):
        """Whether `mat` is the group element that maps base to mat(base).

        That element is rebuilt from the Schreier tree: from the point
        mat(base), step to the canonical image of smallest index under an
        inverse generator (a BFS parent, a level lower) until the base is
        reached.  An image of the base outside Q(zeta_conductor), or off
        the orbit, gives False.
        """
        try:
            image = [x.fit(self.conductor) for x in mat.apply(self.base)]
        except ValueError:
            return False
        i = self.index.get(kernel.line_vector((ONE, *image), self.conductor))
        if i is None:
            return False
        elem = Mat.identity(len(self.base))
        while i:
            v = self.points[i]
            i, a = min(
                (self.index[kernel._canon(kernel.int_apply(cols, v), *self._ring)], a)
                for a, cols in enumerate(self._inverse_actions)
            )
            elem = elem @ self.generators[a]
        return elem == mat


def _reflection_normal(blob, d, conductor):
    """The canonical vector (`kernel._canon`) of the normal of a reflection's
    fixed hyperplane: a nonzero row of blob - den * I, for the d x d blob."""
    phi = euler_phi(conductor)
    den, nums = kernel.unpack_values(blob)
    for i in range(d):
        row = list(nums[i * d * phi : (i + 1) * d * phi])
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


def _build(name, gens, base, bound, degrees, codegrees):
    """The group generated by `gens`, of order the size of the orbit of `base`."""
    for g in gens:
        assert matrix_order(g, 4) == 3
    orbit = RegularOrbit(gens, base, 3, bound)
    group = ReflGroup(
        name=name,
        dim=len(base),
        conductor=3,
        generators=gens,
        order=len(orbit),
        degrees=degrees,
        codegrees=codegrees,
        regular_orbit=orbit,
    )
    _fill_reflection_data(group)
    # the premise of the regular orbit: base lies on no reflection hyperplane
    assert hyperplanes_through(group, orbit.base) == 0
    return group


def build_g25():
    group = _build("g25", g25_generators(), (1, 2, 3), 1000, G25_DEGREES, G25_CODEGREES)
    # the stabilizer scans and their oracle tests read the 648 elements
    blobs = [kernel.to_blob_matrix(g, group.conductor) for g in group.generators]
    group.elements = kernel.closure(blobs, group.dim, group.conductor, group.order)
    # the nine order-6 regular eigenplanes, by their normals: in C^3 the
    # plane with Pluecker vector (p01, p02, p12) has the normal (p12, -p02, p01)
    seed = Mat.from_rows([[0, -1, 0], [-W, 0, 0], [0, 0, -(W * W)]])
    assert group.contains(seed)
    basis = eigenspace(seed, -(W * W))
    assert len(basis) == 2
    planes = _plane_orbit_py(group.generators, basis, group.conductor, 100)
    group.proper_planes = [(p12, -p02, p01) for p01, p02, p12 in planes]
    group.proper_plane_forms = Subspaces(group.proper_planes)
    return group


def build_g32():
    group = _build("g32", g32_generators(), (1, 2, 3, 5), 160_000, G32_DEGREES, G32_CODEGREES)
    basis, _ = _g32_seed_plane()
    group.proper_planes = _plane_orbit_py(group.generators, basis, conductor=12, bound=600)
    group.proper_plane_forms = Subspaces(group.proper_planes, plane_dim=group.dim)
    return group


def _fill_reflection_data(group):
    """Reflections as conjugation orbits of the generators and their squares.

    Every reflection of G25 and G32 has order 3 and is conjugate to a
    generator or to its square.  A reflection r and r^2 fix the same
    hyperplane, and the conjugates of g^2 are the squares of g's
    conjugates, so the hyperplanes are read off the orbits of the
    generators alone, in discovery order, on integers (`_reflection_normal`).
    """
    d, c = group.dim, group.conductor
    # X -> g X g^-1 is X -> g X (g^-T)^T; both orbits share the integer actions
    lifts = kernel.IntActions(
        kernel.kron_lift(g, g.inverse().transpose(), affine=True) for g in group.generators
    )
    group.reflections = []
    seen = set()
    normals = {}  # canonical vector -> None, in discovery order
    for g in group.generators:
        for r in (g, g @ g):
            if kernel.to_blob_matrix(r, c) not in seen:
                orbit = kernel.matrix_orbit(lifts, r, group.order, c)
                seen.update(orbit)
                group.reflections.extend(orbit)
                if r is g:
                    normals.update(dict.fromkeys(_reflection_normal(b, d, c) for b in orbit))
    group.hyperplanes = [kernel.line_coords(w, c) for w in normals]
    group.hyperplane_forms = Subspaces(group.hyperplanes)


def g32_t_element(group=None):
    """The order-24 product R1^2 R2 R3^2 R4 R2^2 R3."""
    r1, r2, r3, r4 = g32_generators()
    t = r1 @ r1 @ r2 @ r3 @ r3 @ r4 @ r2 @ r2 @ r3
    return t


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
            blocks = kernel._int_vectors(v, conductor)
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
    vectors = [kernel._int_vectors(p, conductor) for p in points]
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


def point_conductor(group, point):
    c = group.conductor
    for e in point:
        c = lcm(c, cyc(e).n)
    return c


def _scan(group, point):
    """The arguments of a kernel stabilizer scan of `point`, at its conductor."""
    c = point_conductor(group, point)
    mats = group.element_mats()  # G25 only: a ValueError without the elements
    elements = group.elements
    if c != group.conductor:
        elements = [kernel.to_blob_matrix(m, c) for m in mats]
    phi, red = kernel.ring_params(c)
    return elements, kernel.to_blob_vector(point, c), group.dim, phi, red


def line_stabilizer_order(group, point):
    return kernel.stab_count_line(*_scan(group, point))


def point_stabilizer_order(group, point):
    return kernel.stab_count_point(*_scan(group, point))


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
    contain the point, each one `containing` test.  The size is that of
    the line's orbit under the generators (`kernel.int_line_orbit`, at the
    lcm of the group's and the point's conductors), bounded by |G|.  By
    the orbit-stabilizer theorem it divides |G|, and |G| / size is the
    order of the line stabilizer that `line_stabilizer_order` counts by a
    scan of the elements.
    """
    point = tuple(cyc(e) for e in point)
    if len(point) != group.dim:
        raise ValueError(f"{group.name} acts on points with {group.dim} coordinates")
    if all(e.is_zero() for e in point):
        raise ValueError("the zero vector spans no line")
    nh = hyperplanes_through(group, point)
    np_ = proper_planes_through(group, point)
    _, _, orbit, _ = kernel.int_line_orbit(
        group.generators, point, group.order, group.conductor
    )
    size = len(orbit)
    assert group.order % size == 0
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
    """Point stabilizer equals the subgroup generated by fixing reflections."""
    point = tuple(cyc(e) for e in point)
    stab_order = point_stabilizer_order(group, point)
    fixing = []
    for blob in group.reflections:
        mat = kernel.from_blob_matrix(blob, group.dim, group.conductor)
        img = mat.apply(point)
        if all(a == b for a, b in zip(img, point)):
            fixing.append(mat)
    if not fixing:
        return stab_order == 1
    # base lies on no reflection hyperplane, so the subgroup acts freely on
    # its orbit, whose size is the subgroup's order
    sub = RegularOrbit(fixing, group.regular_orbit.base, group.conductor, group.order)
    return len(sub) == stab_order


def line_stabilizer_is_cyclic(group, point):
    """Exhibit a generator of the stabilizer of a line (G25-sized groups)."""
    point = tuple(cyc(e) for e in point)
    stab = []
    for mat in group.element_mats():
        if mat_parallel(mat.apply(point), point):
            stab.append(mat)
    order = len(stab)
    for mat in stab:
        if matrix_order(mat, order + 1) == order:
            return True
    # the stabilizer acts on the line through scalars; cyclic iff some
    # element realizes the full scalar group
    scalars = set()
    for mat in stab:
        img = mat.apply(point)
        pivot = next(i for i, e in enumerate(point) if not e.is_zero())
        scalars.add(order_of_root(img[pivot] / point[pivot]))
    return max(s for s in scalars if s) == order
