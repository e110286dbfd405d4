"""The complex reflection groups G25 and G32: construction and orbit data.

Both groups are generated by order-3 reflections with entries in Q(omega)
and are enumerated explicitly (648 and 155520 elements) by the kernel.
On top of the raw closure this module computes reflections, reflection
hyperplanes, the regular eigenplanes ("proper planes"), orbit strata of
projective points, the intersection lattice census, the regular polytopes
they preserve, and the conjugation to the braid-action matrices.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from math import lcm

from . import kernel
from .charvar import LinearPart, matrix_of_sigma
from .cyclo import Cyclotomic, cyc, order_of_root, zeta
from .linalg import Mat, eigenspace, is_complex_reflection, mat_parallel, matrix_order

W = zeta(3, 1)  # omega
ONE = cyc(1)
ZERO = cyc(0)

CACHE_ENV = "BRAIDORBIT_CACHE"
# the file keeps its name across header versions, so an older file is
# found, reported and replaced instead of lying around unused
_G32_CACHE_NAME = "g32_elements_v1.bin"
_G32_BLOB_SIZE = 8 * (1 + 2 * 16)  # den + phi=2 coefficients for 16 entries

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
    elements: list  # kernel blobs at `conductor`
    degrees: tuple
    codegrees: tuple
    reflections: list = None
    hyperplanes: list = None  # canonical normals, tuples of Cyclotomic
    proper_planes: list = None  # G25: normals; G32: 2-row RREF bases

    @property
    def order(self):
        return len(self.elements)

    def ring(self):
        return kernel.ring_params(self.conductor)

    def element_set(self):
        if not hasattr(self, "_element_set"):
            self._element_set = set(self.elements)
        return self._element_set

    def contains(self, mat):
        blob = kernel.to_blob_matrix(mat, self.conductor)
        return blob in self.element_set()

    def element_mats(self):
        for blob in self.elements:
            yield kernel.from_blob_matrix(blob, self.dim, self.conductor)


# what build_g25, build_g32 and _plane_orbit_py raise past their bounds
BoundExceeded = kernel.BoundExceeded


def _closure_blobs(gens, dim, conductor, bound):
    phi, red = kernel.ring_params(conductor)
    blobs = [kernel.to_blob_matrix(g, conductor) for g in gens]
    return kernel.closure(blobs, dim, phi, red, bound)


def _reflection_normal(mat):
    """Normal of the fixed hyperplane: a nonzero row of (m - I)."""
    diff = mat - Mat.identity(mat.rows)
    for i in range(mat.rows):
        row = diff.row(i)
        if any(not e.is_zero() for e in row):
            return _canonical_line(row)
    raise ValueError("matrix is the identity")


def _canonical_line(vec):
    pivot = next(e for e in vec if not e.is_zero())
    inv = pivot.inverse()
    return tuple(inv * e for e in vec)


def _line_key(vec, conductor):
    v = _canonical_line(vec)
    return tuple(e.key_at(conductor) for e in v)


def build_g25():
    gens = g25_generators()
    for g in gens:
        assert matrix_order(g, 4) == 3
    group = ReflGroup(
        name="g25",
        dim=3,
        conductor=3,
        generators=gens,
        elements=_closure_blobs(gens, 3, 3, 1000),
        degrees=G25_DEGREES,
        codegrees=G25_CODEGREES,
    )
    _fill_reflection_data(group)
    group.proper_planes = _g25_proper_planes(group)
    return group


def build_g32(cache_dir=None, bound=160_000):
    gens = g32_generators()
    for g in gens:
        assert matrix_order(g, 4) == 3
    elements = _load_g32_cache(cache_dir)
    if elements is None:
        elements = _closure_blobs(gens, 4, 3, bound)
        _store_g32_cache(cache_dir, elements)
    group = ReflGroup(
        name="g32",
        dim=4,
        conductor=3,
        generators=gens,
        elements=elements,
        degrees=G32_DEGREES,
        codegrees=G32_CODEGREES,
    )
    _fill_reflection_data(group)
    group.proper_planes = _g32_proper_planes(group)
    return group


def _cache_path(cache_dir):
    base = cache_dir or os.environ.get(CACHE_ENV)
    if not base:
        return None
    return os.path.join(base, _G32_CACHE_NAME)


def _g32_cache_header(data):
    """The v2 header line for the element bytes `data` (a SHA-256 of them)."""
    # imported here: hashlib loads OpenSSL, about 3 MB of resident memory
    # that only a G32 cache needs
    import hashlib

    count = len(data) // _G32_BLOB_SIZE
    digest = hashlib.sha256(data).hexdigest()
    return f"braidorbit g32 v2 dim=4 conductor=3 count={count} sha256={digest}\n".encode()


def _store_g32_cache(cache_dir, elements):
    path = _cache_path(cache_dir)
    if path is None:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    data = b"".join(elements)
    # write a temp file and rename it, so a reader never sees half a file
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_g32_cache_header(data))
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load_g32_cache(cache_dir):
    """The cached G32 elements, or None (with a warning) if the file is unusable."""
    path = _cache_path(cache_dir)
    if path is None or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        header = fh.readline()
        data = fh.read()
    if len(data) % _G32_BLOB_SIZE or header != _g32_cache_header(data):
        warnings.warn(
            f"ignoring G32 cache {path}: its header does not match its contents "
            "(an older format or a corrupt file); rebuilding the group",
            stacklevel=2,
        )
        return None
    return [data[i : i + _G32_BLOB_SIZE] for i in range(0, len(data), _G32_BLOB_SIZE)]


def _fill_reflection_data(group):
    phi, red = group.ring()
    idxs = kernel.reflection_indices(group.elements, group.dim, phi, red)
    group.reflections = [group.elements[i] for i in idxs]
    seen = {}
    for blob in group.reflections:
        mat = kernel.from_blob_matrix(blob, group.dim, group.conductor)
        normal = _reflection_normal(mat)
        seen[_line_key(normal, group.conductor * 4)] = normal
    group.hyperplanes = list(seen.values())


def _g25_proper_planes(group):
    """The order-6 regular eigenplanes of G25, one orbit of 9, as normals."""
    seed = Mat.from_rows([[0, -1, 0], [-W, 0, 0], [0, 0, -(W * W)]])
    assert group.contains(seed)
    basis = eigenspace(seed, -(W * W))
    assert len(basis) == 2
    normal = _plane_normal(basis)
    # orbit of the normal under (g^T)^-1 = transpose of g^-1
    phi, red = group.ring()
    gens = []
    for g in group.generators:
        gens.append(kernel.to_blob_matrix(g.inverse().transpose(), group.conductor))
    vec = kernel.to_blob_vector(normal, group.conductor)
    orbit = kernel.line_orbit(gens, vec, group.dim, phi, red, 100)
    return [kernel.from_blob_vector(b, group.conductor) for b in orbit]


def _plane_normal(basis):
    m = Mat.from_rows(basis)
    ker = m.kernel()
    assert len(ker) == 1
    return tuple(ker[0])


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


def _g32_proper_planes(group):
    basis, _ = _g32_seed_plane()
    return _plane_orbit_py(group.generators, basis, conductor=12, bound=600)


def _plane_orbit_py(gens, basis, conductor, bound):
    """Orbit of a subspace given by basis rows, with canonical RREF keys."""

    def canon(rows):
        red, _ = Mat.from_rows(rows).rref()
        return [list(red.row(i)) for i in range(len(rows))]

    def key(rows):
        return tuple(e.key_at(conductor) for row in rows for e in row)

    return kernel.bfs(
        canon(basis), lambda rows: (canon([g.apply(r) for r in rows]) for g in gens), bound, key
    )


# ---- incidence, stabilizers, strata -----------------------------------------


def hyperplanes_through(group, point):
    count = 0
    for h in group.hyperplanes:
        acc = ZERO
        for a, b in zip(h, point):
            acc = acc + a * b
        if acc.is_zero():
            count += 1
    return count


def proper_planes_through(group, point):
    count = 0
    if group.name == "g25":
        for h in group.proper_planes:
            acc = ZERO
            for a, b in zip(h, point):
                acc = acc + a * b
            if acc.is_zero():
                count += 1
        return count
    for rows in group.proper_planes:
        stacked = Mat.from_rows(list(rows) + [list(point)])
        if stacked.rank() == 2:
            count += 1
    return count


def point_conductor(group, point):
    c = group.conductor
    for e in point:
        c = lcm(c, cyc(e).n)
    return c


def line_stabilizer_order(group, point):
    c = point_conductor(group, point)
    phi, red = kernel.ring_params(c)
    v = kernel.to_blob_vector(point, c)
    if c == group.conductor:
        elements = group.elements
    else:
        elements = (_promote_blob(b, group, c) for b in group.elements)
    return kernel.stab_count_line(list(elements), v, group.dim, phi, red)


def _promote_blob(blob, group, conductor):
    # conductor-3 pairs (a, b) map to a*row0 + b*row1 in the bigger basis
    from .cyclo import _promotion_rows, euler_phi

    rows = _promotion_rows(group.conductor, conductor)
    phi = euler_phi(conductor)
    den, nums = kernel.unpack_values(blob)
    out = []
    for k in range(group.dim * group.dim):
        a, b = nums[2 * k], nums[2 * k + 1]
        out.extend(a * rows[0][j] + b * rows[1][j] for j in range(phi))
    return kernel.pack_values(den, out)


def point_stabilizer_order(group, point):
    c = point_conductor(group, point)
    phi, red = kernel.ring_params(c)
    v = kernel.to_blob_vector(point, c)
    if c == group.conductor:
        elements = group.elements
    else:
        elements = [_promote_blob(b, group, c) for b in group.elements]
    return kernel.stab_count_point(list(elements), v, group.dim, phi, red)


@dataclass(frozen=True)
class StratumLabel:
    orbit_size: int
    num_hyperplanes: int
    num_proper_planes: int
    special_tag: str | None
    in_table: bool


def stratify(group, point):
    """Incidence counts plus the exact orbit size by stabilizer scan."""
    point = tuple(cyc(e) for e in point)
    nh = hyperplanes_through(group, point)
    np_ = proper_planes_through(group, point)
    stab = line_stabilizer_order(group, point)
    assert group.order % stab == 0
    size = group.order // stab
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


# ---- lattice census ----------------------------------------------------------


def _hermitian_orthogonal(h1, h2):
    acc = ZERO
    for a, b in zip(h1, h2):
        acc = acc + a * b.conj()
    return acc.is_zero()


def lattice_census(group_or_normals, dim=None, conductor=12):
    """Intersections of the reflection hyperplanes, by codimension.

    Codimension-2 flats come from pairs of hyperplanes, codimension-3
    flats from triples; each flat is keyed by its canonical kernel basis
    and counted with the number of hyperplanes containing it.  For the
    rank-4 group the codim-2 incidence-2 flats are checked to have
    orthogonal normals and the incidence-4 ones non-orthogonal normals.
    """
    if isinstance(group_or_normals, ReflGroup):
        normals = group_or_normals.hyperplanes
        dim = group_or_normals.dim
        conductor = group_or_normals.conductor * 4
    else:
        normals = list(group_or_normals)
        if dim is None:
            dim = len(normals[0])

    def flats_from_subsets(size):
        import itertools

        flats = {}
        for subset in itertools.combinations(range(len(normals)), size):
            m = Mat.from_rows([list(normals[i]) for i in subset])
            ker = m.kernel()
            if len(ker) != dim - size:
                continue
            key = tuple(e.key_at(conductor) for row in ker for e in row)
            flats.setdefault(key, ker)
        return flats

    def incidences(flats):
        stats = {}
        details = []
        for ker in flats.values():
            containing = [
                h for h in normals if all(sum_is_zero(h, row) for row in ker)
            ]
            c = len(containing)
            stats[c] = stats.get(c, 0) + 1
            details.append((ker, containing))
        return stats, details

    codim2_stats, codim2_details = incidences(flats_from_subsets(2))
    ortho_ok = True
    for _, containing in codim2_details:
        if len(containing) == 2:
            ortho_ok = ortho_ok and _hermitian_orthogonal(containing[0], containing[1])
        elif len(containing) == 4:
            ortho_ok = ortho_ok and not any(
                _hermitian_orthogonal(containing[a], containing[b])
                for a in range(4)
                for b in range(a + 1, 4)
            )
    codim3_stats = {}
    if dim >= 4:
        codim3_stats, _ = incidences(flats_from_subsets(3))
    return {
        "hyperplanes": len(normals),
        "codim2_incidences": codim2_stats,
        "codim3_incidences": codim3_stats,
        "orthogonality_consistent": ortho_ok,
    }


def sum_is_zero(h, v):
    acc = ZERO
    for a, b in zip(h, v):
        acc = acc + a * b
    return acc.is_zero()


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
        # and scales the axis vertices by theta = w - w^2, which puts them
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
    conductor = 12
    keys = {tuple(e.key_at(conductor) for e in v) for v in vertices}
    for g in gens:
        for v in vertices:
            img = g.apply(v)
            if tuple(e.key_at(conductor) for e in img) not in keys:
                return False
    return True


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
    sub = _closure_blobs(fixing, group.dim, group.conductor, group.order + 1)
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
